#!/usr/bin/env python3
"""Per-snapshot timing: solver vs. network inference vs. fine-tuning.

Times each method on identical snapshots after a warmup, interleaved
snapshot by snapshot, single-threaded so the comparison is per-core.
Trains a throwaway model per size unless a checkpoint directory from
run_rate_table.py is passed via --models.
"""

import argparse
import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cfmimo.bench import bench_methods, speedup_table
from cfmimo.checkpoints import Checkpoint, load_checkpoint
from cfmimo.config import DataConfig, SystemConfig, TrainConfig
from cfmimo.datasets import generate_splits
from cfmimo.training import train_model


def checkpoint_for(cfg, tcfg, splits, args, m, k):
    if args.models is not None:
        path = args.models / f"m{m}_k{k}" / "model.cfck"
        if path.exists():
            return load_checkpoint(path)
        print(f"  no checkpoint under {path}, training a fresh one")
    run = train_model(splits["train"].beta, splits["val"].beta, cfg, tcfg)
    return Checkpoint.from_run(run, cfg, tcfg)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--warmup", type=int, default=3)
    ap.add_argument("--iterations", type=int, default=2000,
                    help="training budget for throwaway models")
    ap.add_argument("--models", type=Path, default=None,
                    help="output directory of run_rate_table.py")
    ap.add_argument("--sizes", default="30x5,50x10",
                    help="comma-separated MxK pairs")
    ap.add_argument("--quick", action="store_true",
                    help="tiny run to check the plumbing")
    args = ap.parse_args()
    if args.quick:
        args.samples = 10
        args.iterations = 200
        args.sizes = "10x3"

    for size in args.sizes.split(","):
        m, k = (int(v) for v in size.split("x"))
        cfg = SystemConfig(n_aps=m, n_users=k)
        data = DataConfig(train_samples=2000, val_samples=200,
                          test_samples=max(args.samples, 1))
        tcfg = TrainConfig(iterations=args.iterations, seed=args.seed)
        splits = generate_splits(cfg, data, args.seed)
        ck = checkpoint_for(cfg, tcfg, splits, args, m, k)

        print(f"== M={m}, K={k}: {args.samples} snapshots, single thread ==")
        times = bench_methods(splits["test"], cfg, checkpoint=ck,
                              n_samples=args.samples, warmup=args.warmup)
        speedup = speedup_table(times)
        for method, t in times.items():
            print(f"  {method:<10} mean {t.mean() * 1e3:9.3f} ms, "
                  f"total {t.sum():7.3f} s, "
                  f"{speedup[method]:8.1f}x vs baseline")


if __name__ == "__main__":
    main()
