"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The directional criteria
(8-10) share one committed reference pipeline: a PredCls dataset with 20
object classes, 30 relations, Zipf skew 1.5, 2000/500 train/test images at
synth seed 42, and two 2000-iteration linear-model runs at train seed 7, one
with plain cross-entropy and one with the count bias (a=1, epsilon=1e-3).
Reference-run values: ce R@50=0.7398 mR@50=0.4480; biased R@50=0.6668
mR@50=0.5337 (graph-constrained).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from tailbias.bias import BiasSpec, compute_bias
from tailbias.gradcert import run_certification
from tailbias.harness import (
    LossConfig,
    ModelSpec,
    OptimizerConfig,
    TrainConfig,
    evaluate,
    save_checkpoint,
    sweep,
    train,
    training_stats,
)
from tailbias.losses import baseline_loss, bias_gap, biased_ce, ce
from tailbias.metrics import METRICS_CSV_HEADER, metrics_csv
from tailbias.stats import LabelSpace, ingest
from tailbias.synth import SynthConfig, generate_split, write_images_jsonl

LABELS = LabelSpace(num_object_classes=20, num_relations=30)
SYNTH = SynthConfig(
    label_space=LABELS,
    num_train=2000,
    num_val=0,
    num_test=500,
    zipf_s=1.5,
    objects_min=4,
    objects_max=6,
    d_v=16,
    noise_sigma=1.5,
    background_fraction=0.7,
    seed=42,
)
EVAL_KS = (20, 50, 100)
CB_SPEC = BiasSpec(kind="cb", a=1.0, epsilon=1e-3)


def train_config(loss_kind: str, bias: BiasSpec | None, iterations: int = 2000) -> TrainConfig:
    return TrainConfig(
        label_space=LABELS,
        task="predcls",
        model=ModelSpec(kind="linear"),
        loss=LossConfig(kind=loss_kind),
        bias=bias,
        optimizer=OptimizerConfig(
            learning_rate=0.3, momentum=0.9, iterations=iterations, batch_size=8
        ),
        seed=7,
        eval_ks=EVAL_KS,
    )


def run_reference_pipeline(root: Path) -> dict:
    """Criterion-8 pipeline: datasets, two training runs, metrics CSVs."""
    train_images = generate_split(SYNTH, "train")
    test_images = generate_split(SYNTH, "test")
    write_images_jsonl(train_images, str(root / "train.jsonl"))
    write_images_jsonl(test_images, str(root / "test.jsonl"))
    out = {"root": root, "train_images": train_images, "test_images": test_images}
    for name, kind, bias in (("ce", "ce", None), ("cb", "rtpb", CB_SPEC)):
        checkpoint, _ = train(train_config(kind, bias), train_images)
        save_checkpoint(checkpoint, str(root / f"checkpoint_{name}.json"))
        results = evaluate(checkpoint, test_images)
        (root / f"metrics_{name}.csv").write_text(
            metrics_csv("predcls", results, list(EVAL_KS))
        )
        out[name] = {"checkpoint": checkpoint, "results": results}
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference_run")
    started = time.time()
    out = run_reference_pipeline(root)
    out["elapsed"] = time.time() - started
    return out


def random_instance(rng):
    dim = int(rng.integers(2, 65))
    z = rng.uniform(-5.0, 5.0, dim)
    b = rng.uniform(-5.0, 5.0, dim)
    y = int(rng.integers(0, dim))
    return z, b, y


def test_criterion_1_gradient_certification():
    started = time.time()
    results = run_certification(seed=0, instances=100)
    elapsed = time.time() - started
    for r in results:
        assert r.passed, r.line()
    assert elapsed < 120.0, f"certification took {elapsed:.1f}s"
    worst = max(r.max_rel_error for r in results)
    print(
        f"\nACCEPTANCE 1 gradient-certification: PASS "
        f"(worst rel error {worst:.2e} over {sum(r.instances for r in results)} "
        f"instances, {elapsed:.1f}s)"
    )


def test_criterion_2_decomposition_identity():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(10_000):
        z, b, y = random_instance(rng)
        gap = abs(biased_ce(z, b, y).value - (ce(z, y).value + bias_gap(z, b, y)))
        worst = max(worst, gap)
    assert worst < 1e-10
    print(f"\nACCEPTANCE 2 decomposition-identity: PASS (max |gap| {worst:.2e})")


def test_criterion_3_theta_monotonicity():
    rng = np.random.default_rng(101)
    delta = 1e-3
    violations = 0
    for _ in range(10_000):
        z, b, y = random_instance(rng)
        bumped = b.copy()
        bumped[y] += delta
        if not bias_gap(z, bumped, y) > bias_gap(z, b, y):
            violations += 1
    assert violations == 0
    print("\nACCEPTANCE 3 theta-monotonicity: PASS (0 violations in 10000)")


def test_criterion_4_uniform_bias_neutrality(pipeline):
    # an a=0 bias is flat over the foreground; the background override makes
    # the whole vector one constant, which softmax losses cannot distinguish
    # from no bias at all
    eps = 1e-3
    uniform = -math.log(1.0 / LABELS.num_relations + eps)
    flat_spec = BiasSpec(kind="cb", a=0.0, epsilon=eps, background=uniform)
    images = pipeline["train_images"]
    _, log_plain = train(train_config("ce", None, iterations=1000), images)
    _, log_flat = train(train_config("rtpb", flat_spec, iterations=1000), images)
    diffs = np.abs(np.array(log_plain.losses) - np.array(log_flat.losses))
    assert diffs.max() < 1e-12
    print(
        f"\nACCEPTANCE 4 uniform-bias-neutrality: PASS "
        f"(max per-iteration loss gap {diffs.max():.2e} over 1000 iterations)"
    )


def test_criterion_5_margin_tilt():
    b_i, b_j = 0.8, -0.4
    threshold = b_i - b_j
    tol = 1e-9
    gaps = np.concatenate(
        [threshold + np.linspace(-0.5, 0.5, 1000), [threshold - tol, threshold + tol]]
    )
    checked = 0
    for gap in gaps:
        if abs(gap - threshold) < tol:
            continue
        adjusted = np.array([gap - b_i, 0.0 - b_j])
        winner = int(np.argmax(adjusted))
        assert winner == (0 if gap > threshold else 1), gap
        checked += 1
    print(f"\nACCEPTANCE 5 margin-tilt: PASS ({checked} grid points, flip at b_i-b_j)")


def test_criterion_6_ldam_as_indicator_bias():
    rng = np.random.default_rng(102)
    worst_v = 0.0
    worst_g = 0.0
    for _ in range(1000):
        z, _, y = random_instance(rng)
        counts = rng.integers(1, 500, z.size)
        out = baseline_loss(LossConfig(kind="ldam", margin_c=0.5), z, y, counts)
        indicator = np.zeros_like(z)
        indicator[y] = 0.5 / counts[y] ** 0.25
        ref = biased_ce(z, indicator, y)
        worst_v = max(worst_v, abs(out.value - ref.value))
        worst_g = max(worst_g, float(np.max(np.abs(out.grad_logits - ref.grad_logits))))
    assert worst_v < 1e-12 and worst_g < 1e-12
    print(
        f"\nACCEPTANCE 6 ldam-as-indicator-bias: PASS "
        f"(max value gap {worst_v:.1e}, max grad gap {worst_g:.1e})"
    )


def test_criterion_7_cb_bias_values():
    space = LabelSpace(num_object_classes=2, num_relations=2)
    stats = ingest([(0, 1, 1)] * 90 + [(0, 1, 2)] * 10, space)
    vec = compute_bias(BiasSpec(kind="cb", a=1.0, epsilon=0.0), stats)
    expected = np.array([-math.log(0.9), -math.log(0.1)])
    gap = float(np.max(np.abs(vec.foreground - expected)))
    assert gap < 1e-12
    print(f"\nACCEPTANCE 7 cb-bias-values: PASS (|b - [-log .9, -log .1]| = {gap:.1e})")


def test_criterion_8_directional_tradeoff(pipeline):
    ce_res = pipeline["ce"]["results"]["with"]
    cb_res = pipeline["cb"]["results"]["with"]
    r_ce, mr_ce = ce_res.recall_at[50], ce_res.mean_recall_at[50]
    r_cb, mr_cb = cb_res.recall_at[50], cb_res.mean_recall_at[50]
    assert mr_cb >= 1.10 * mr_ce, f"mR@50 ratio {mr_cb / mr_ce:.3f} < 1.10"
    assert 0.85 * r_ce <= r_cb <= 1.0 * r_ce, f"R@50 ratio {r_cb / r_ce:.3f} not in [0.85, 1.0]"
    assert pipeline["elapsed"] < 300.0, f"pipeline took {pipeline['elapsed']:.0f}s"
    print(
        f"\nACCEPTANCE 8 directional-tradeoff: PASS "
        f"(ce R@50={r_ce:.4f} mR@50={mr_ce:.4f}; cb R@50={r_cb:.4f} mR@50={mr_cb:.4f}; "
        f"ratios R={r_cb / r_ce:.3f} mR={mr_cb / mr_ce:.3f}; {pipeline['elapsed']:.0f}s)"
    )


def test_criterion_9_soft_bias_sweep(pipeline):
    stats = training_stats(pipeline["train_images"], LABELS)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = sweep(
        pipeline["cb"]["checkpoint"], stats, CB_SPEC, grid, pipeline["test_images"]
    )
    mrs = [res["with"].mean_recall_at[50] for _, res in rows]
    rs = [res["with"].recall_at[50] for _, res in rows]
    assert mrs[0] == max(mrs), f"mR@50 not maximal at a_e=0: {mrs}"
    assert mrs[-1] == min(mrs), f"mR@50 not minimal at a_e=1: {mrs}"
    assert rs[-1] == max(rs), f"R@50 not maximal at a_e=1: {rs}"
    assert rs[0] == min(rs), f"R@50 not minimal at a_e=0: {rs}"
    table = ", ".join(f"a_e={a}: R={r:.3f} mR={m:.3f}" for (a, _), r, m in zip(rows, rs, mrs))
    print(f"\nACCEPTANCE 9 soft-bias-sweep: PASS ({table})")


def test_criterion_10_determinism_and_formats(pipeline, tmp_path_factory):
    repeat_root = tmp_path_factory.mktemp("repeat_run")
    run_reference_pipeline(repeat_root)
    first_root = pipeline["root"]
    names = [
        "train.jsonl",
        "test.jsonl",
        "checkpoint_ce.json",
        "checkpoint_cb.json",
        "metrics_ce.csv",
        "metrics_cb.csv",
    ]
    for name in names:
        a = (first_root / name).read_bytes()
        b = (repeat_root / name).read_bytes()
        assert a == b, f"{name} differs between repeated runs"
    for name in ("metrics_ce.csv", "metrics_cb.csv"):
        lines = (first_root / name).read_text().strip().split("\n")
        assert lines[0] == METRICS_CSV_HEADER
        assert len(lines) == 1 + 2 * len(EVAL_KS)
        for line in lines[1:]:
            mode, constraint, k, r, mr = line.split(",")
            assert mode == "predcls" and constraint in ("with", "without")
            assert int(k) in EVAL_KS
            assert 0.0 <= float(r) <= 1.0 and 0.0 <= float(mr) <= 1.0
    print(
        f"\nACCEPTANCE 10 determinism-and-formats: PASS "
        f"({len(names)} artifacts byte-identical; CSV schema '{METRICS_CSV_HEADER}')"
    )
