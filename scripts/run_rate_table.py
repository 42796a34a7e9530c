#!/usr/bin/env python3
"""Average max-min rate table: exact solver vs. neural controller.

Trains one model per network size, then prints the average test min-rate
for the bisection baseline, full power, the trained network, and the
network with per-sample online fine-tuning.  Artifacts (datasets,
checkpoints, reports) land under --out so repeated runs reuse nothing
and stay reproducible from the seed alone.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cfmimo.config import DataConfig, SystemConfig, TrainConfig
from cfmimo.checkpoints import Checkpoint, save_checkpoint
from cfmimo.datasets import generate_splits, save_dataset
from cfmimo.reports import evaluate, save_report
from cfmimo.training import train_model

METHODS = ("baseline", "max-power", "dnn", "dnn-online")


def run_size(m, k, args):
    cfg = SystemConfig(n_aps=m, n_users=k)
    data = DataConfig(train_samples=args.train_samples,
                      val_samples=args.eval_samples,
                      test_samples=args.eval_samples)
    tcfg = TrainConfig(iterations=args.iterations, seed=args.seed)

    out = args.out / f"m{m}_k{k}"
    out.mkdir(parents=True, exist_ok=True)
    print(f"== M={m}, K={k} ==")

    splits = generate_splits(cfg, data, args.seed)
    for name, ds in splits.items():
        save_dataset(out / f"{name}.cfmm", ds, force=True)

    started = time.perf_counter()
    run = train_model(splits["train"].beta, splits["val"].beta, cfg, tcfg)
    print(f"  trained {tcfg.iterations} iterations in "
          f"{time.perf_counter() - started:.0f} s "
          f"(best val loss {run.best_val_loss:+.4f} "
          f"at iteration {run.best_iteration})")
    ck = Checkpoint.from_run(run, cfg, tcfg)
    save_checkpoint(out / "model.cfck", ck, force=True)

    row = {}
    for method in METHODS:
        rep = evaluate(method, splits["test"], cfg, checkpoint=ck)
        save_report(out / f"report_{method}", rep, force=True)
        row[method] = rep.summary()["avg_min_rate"]
        print(f"  {method:<10} avg min-rate {row[method]:.4f} bit/s/Hz")
    print(f"  dnn/baseline        {row['dnn'] / row['baseline']:.3f}")
    print(f"  dnn-online/baseline {row['dnn-online'] / row['baseline']:.3f}")
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("runs/rate_table"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--train-samples", type=int, default=20000)
    ap.add_argument("--eval-samples", type=int, default=1000)
    ap.add_argument("--iterations", type=int, default=10000)
    ap.add_argument("--sizes", default="30x5,50x10",
                    help="comma-separated MxK pairs")
    ap.add_argument("--quick", action="store_true",
                    help="tiny run to check the plumbing")
    args = ap.parse_args()
    if args.quick:
        args.train_samples = 500
        args.eval_samples = 50
        args.iterations = 300
        args.sizes = "10x3"

    for size in args.sizes.split(","):
        m, k = (int(v) for v in size.split("x"))
        run_size(m, k, args)


if __name__ == "__main__":
    main()
