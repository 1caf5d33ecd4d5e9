#!/usr/bin/env python3
"""Head/tail trade-off of every loss on the committed reference pipeline.

Reads ``configs/reference/``, generates its long-tailed synthetic PredCls
dataset and trains the linear relation head once per run: plain
cross-entropy (``train_ce.json``), the four cost-sensitive baselines with
their default options, and the resistance-biased loss (``train_cb.json``)
with each bias kind. Prints graph-constrained R@50 and mR@50 per run with
its ratio to cross-entropy, then the inference-time soft-bias sweep on the
count-bias checkpoint. Takes about 7 s on one CPU core.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from tailbias.harness import LossConfig, TrainConfig, evaluate, sweep, train, training_stats
from tailbias.stats import read_config
from tailbias.synth import SynthConfig, generate_split

CONFIGS = Path(__file__).resolve().parent.parent / "configs" / "reference"
BASELINES = ("reweight", "class_balanced", "focal", "ldam")
BIAS_KINDS = ("cb", "vb", "pb", "eb")
GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
K = 50


def main() -> int:
    synth = read_config(SynthConfig, str(CONFIGS / "synth.json"))
    ce = read_config(TrainConfig, str(CONFIGS / "train_ce.json"))
    cb = read_config(TrainConfig, str(CONFIGS / "train_cb.json"))
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--num-train", type=int, default=synth.num_train)
    ap.add_argument("--num-test", type=int, default=synth.num_test)
    ap.add_argument("--iterations", type=int, default=cb.optimizer.iterations)
    args = ap.parse_args()
    started = time.time()

    synth = replace(synth, num_train=args.num_train, num_test=args.num_test)
    print(f"generating {synth.num_train}+{synth.num_test} images ...", flush=True)
    train_images = generate_split(synth, "train")
    test_images = generate_split(synth, "test")

    ce, cb = (
        replace(c, optimizer=replace(c.optimizer, iterations=args.iterations)) for c in (ce, cb)
    )
    runs = {
        "ce": ce,
        **{kind: replace(ce, loss=LossConfig(kind=kind)) for kind in BASELINES},
        **{kind: replace(cb, bias=replace(cb.bias, kind=kind)) for kind in BIAS_KINDS},
    }
    print(f"{'run':<15} {f'R@{K}':>8} {f'mR@{K}':>8} {'R ratio':>8} {'mR ratio':>9} {'time':>6}")
    base = None
    for name, config in runs.items():
        t0 = time.time()
        checkpoint, _ = train(config, train_images)
        res = evaluate(checkpoint, test_images)["with"]
        r, mr = res.recall_at[K], res.mean_recall_at[K]
        base = base or (r, mr)
        print(
            f"{name:<15} {r:>8.4f} {mr:>8.4f} {r / base[0]:>8.3f} {mr / base[1]:>9.3f} "
            f"{time.time() - t0:>5.1f}s",
            flush=True,
        )
        if name == "cb":
            cb_checkpoint = checkpoint

    print("\nsoft-bias sweep on the cb checkpoint (inference-time only):")
    stats = training_stats(train_images, cb.label_space)
    for a_e, res in sweep(cb_checkpoint, stats, cb.bias, GRID, test_images):
        w = res["with"]
        print(f"  a_e={a_e:<5} R@{K}={w.recall_at[K]:.4f} mR@{K}={w.mean_recall_at[K]:.4f}")
    print(f"\n{len(runs)} runs and the sweep in {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
