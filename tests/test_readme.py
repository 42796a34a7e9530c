import re
from pathlib import Path

from cfmimo.config import load_config


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    rate_star, min_rate = map(float, capsys.readouterr().out.split())
    # the solver's certified rate is what its own allocation achieves
    assert rate_star > 0.0
    assert min_rate == rate_star


def test_readme_json_configs_load(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    # the mobility pipeline is documented only as a config and CLI calls
    assert any('"mobility"' in block for block in blocks)
    for i, block in enumerate(blocks):
        path = tmp_path / f"block{i}.json"
        path.write_text(block)
        load_config(path)
