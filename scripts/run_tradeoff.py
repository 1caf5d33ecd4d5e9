#!/usr/bin/env python3
"""Head/tail trade-off experiment.

Generates a long-tailed synthetic PredCls dataset, trains a plain
cross-entropy baseline and a bias-resisted run per requested bias kind, and
reports graph-constrained R@k and mR@k side by side, followed by the
inference-time soft-bias sweep on the count-bias checkpoint.

Defaults reproduce the committed reference run (seed 42 data, seed 7
training). Takes about 3 s on one CPU core.
"""

import argparse
import sys
import time

from tailbias.bias import BiasSpec
from tailbias.harness import (
    LossConfig,
    ModelSpec,
    OptimizerConfig,
    TrainConfig,
    evaluate,
    sweep,
    train,
    training_stats,
)
from tailbias.stats import LabelSpace
from tailbias.synth import SynthConfig, generate_split


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kinds", default="cb", help="comma list from cb,vb,pb,eb")
    ap.add_argument("--num-train", type=int, default=2000)
    ap.add_argument("--num-test", type=int, default=500)
    ap.add_argument("--iterations", type=int, default=2000)
    ap.add_argument("--zipf", type=float, default=1.5)
    ap.add_argument("--noise", type=float, default=1.5)
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--epsilon", type=float, default=1e-3)
    ap.add_argument("--data-seed", type=int, default=42)
    ap.add_argument("--train-seed", type=int, default=7)
    ap.add_argument("--k", type=int, default=50)
    args = ap.parse_args()

    labels = LabelSpace(num_object_classes=20, num_relations=30)
    synth = SynthConfig(
        label_space=labels,
        num_train=args.num_train,
        num_val=0,
        num_test=args.num_test,
        zipf_s=args.zipf,
        objects_min=4,
        objects_max=6,
        d_v=16,
        noise_sigma=args.noise,
        background_fraction=0.7,
        seed=args.data_seed,
    )
    print(f"generating {args.num_train}+{args.num_test} images ...", flush=True)
    train_images = generate_split(synth, "train")
    test_images = generate_split(synth, "test")

    def run(loss_kind, bias_spec):
        config = TrainConfig(
            label_space=labels,
            task="predcls",
            model=ModelSpec(kind="linear"),
            loss=LossConfig(kind=loss_kind),
            bias=bias_spec,
            optimizer=OptimizerConfig(
                learning_rate=0.3, momentum=0.9, iterations=args.iterations, batch_size=8
            ),
            seed=args.train_seed,
            eval_ks=(20, args.k, 100),
        )
        t0 = time.time()
        checkpoint, log = train(config, train_images)
        results = evaluate(checkpoint, test_images)
        elapsed = time.time() - t0
        return checkpoint, results["with"], log.losses[-1], elapsed

    k = args.k
    rows = []
    print("training baseline (ce) ...", flush=True)
    _, base, base_loss, base_t = run("ce", None)
    rows.append(("ce", base, base_loss, base_t))

    cb_checkpoint = None
    for kind in [s.strip() for s in args.kinds.split(",") if s.strip()]:
        spec = BiasSpec(kind=kind, a=args.a, epsilon=args.epsilon)
        print(f"training biased run ({kind}) ...", flush=True)
        ck, res, final_loss, elapsed = run("rtpb", spec)
        rows.append((kind, res, final_loss, elapsed))
        if kind == "cb":
            cb_checkpoint = ck

    print()
    print(f"{'run':<6} {'R@' + str(k):>8} {'mR@' + str(k):>8} {'R ratio':>8} {'mR ratio':>9} {'loss':>8} {'time':>6}")
    for name, res, final_loss, elapsed in rows:
        r, mr = res.recall_at[k], res.mean_recall_at[k]
        print(
            f"{name:<6} {r:>8.4f} {mr:>8.4f} "
            f"{r / base.recall_at[k]:>8.3f} {mr / base.mean_recall_at[k]:>9.3f} "
            f"{final_loss:>8.4f} {elapsed:>5.0f}s"
        )

    if cb_checkpoint is not None:
        print("\nsoft-bias sweep on the cb checkpoint (inference-time only):")
        stats = training_stats(train_images, labels)
        spec = BiasSpec(kind="cb", a=args.a, epsilon=args.epsilon)
        for a_e, res in sweep(
            cb_checkpoint, stats, spec, [0.0, 0.25, 0.5, 0.75, 1.0], test_images
        ):
            w = res["with"]
            print(f"  a_e={a_e:<5} R@{k}={w.recall_at[k]:.4f} mR@{k}={w.mean_recall_at[k]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
