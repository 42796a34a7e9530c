#!/usr/bin/env python3
"""Moving-user experiment: grid APs, one snapshot per second.

Users walk a random-waypoint trajectory across the wrapped square while
the APs sit on a regular grid.  Snapshots are split into train/val/test
in temporal order, so the test interval lies strictly in the future of
the training data.  Reports offline training wall time and how close
the fine-tuned network gets to the exact solver on the future interval.
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


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("runs/mobility"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--train-samples", type=int, default=10000)
    ap.add_argument("--eval-samples", type=int, default=1000)
    ap.add_argument("--iterations", type=int, default=10000)
    ap.add_argument("--quick", action="store_true",
                    help="tiny run to check the plumbing")
    args = ap.parse_args()
    if args.quick:
        args.train_samples = 400
        args.eval_samples = 50
        args.iterations = 300

    cfg = SystemConfig(n_aps=30, n_users=5, grid_shape=(6, 5))
    data = DataConfig(scenario="mobility",
                      train_samples=args.train_samples,
                      val_samples=args.eval_samples,
                      test_samples=args.eval_samples)
    tcfg = TrainConfig(iterations=args.iterations, seed=args.seed)
    args.out.mkdir(parents=True, exist_ok=True)

    splits = generate_splits(cfg, data, args.seed)
    for name, ds in splits.items():
        save_dataset(args.out / f"{name}.cfmm", ds, force=True)
    total = sum(len(ds) for ds in splits.values())
    print(f"trajectory of {total} snapshots "
          f"({len(splits['train'])}/{len(splits['val'])}/{len(splits['test'])} "
          "temporal split)")

    started = time.perf_counter()
    run = train_model(splits["train"].beta, splits["val"].beta, cfg, tcfg)
    train_s = time.perf_counter() - started
    print(f"offline training: {train_s:.0f} s wall")
    ck = Checkpoint.from_run(run, cfg, tcfg)
    save_checkpoint(args.out / "model.cfck", ck, force=True)

    rates = {}
    for method in ("baseline", "dnn", "dnn-online"):
        rep = evaluate(method, splits["test"], cfg, checkpoint=ck)
        save_report(args.out / f"report_{method}", rep, force=True)
        rates[method] = rep.summary()["avg_min_rate"]
        print(f"  {method:<10} avg min-rate {rates[method]:.4f} bit/s/Hz")
    print(f"  dnn-online reaches {rates['dnn-online'] / rates['baseline']:.1%} "
          "of the exact solver on the future interval")


if __name__ == "__main__":
    main()
