"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The directional criteria
(8-10) share one reference pipeline, committed as the documents in
``configs/reference/``: ``synth.json`` (a long-tailed PredCls dataset) and
``train_ce.json`` / ``train_cb.json`` (two linear-model runs, plain
cross-entropy and the count bias). Reference-run values: ce R@50=0.7398
mR@50=0.4480; biased R@50=0.6668 mR@50=0.5337 (graph-constrained). The
pipeline's artifacts, and the exact floats of its run logs and results, are
pinned by sha256 in ``configs/reference/digests.json``
(:func:`test_reference_artifacts_match_their_pinned_digests`).
"""

import hashlib
import json
import math
import platform
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tailbias import harness
from tailbias.bias import BiasSpec, compute_bias
from tailbias.cli import main
from tailbias.gradcert import _random_instance, run_certification
from tailbias.harness import (
    SAMPLE_DOMAIN,
    SHUFFLE_DOMAIN,
    LossConfig,
    TrainConfig,
    evaluate,
    save_checkpoint,
    sweep,
    train,
    training_stats,
)
from tailbias.losses import baseline_loss, bias_gap, biased_ce, ce
from tailbias.metrics import METRICS_CSV_HEADER, EvalResult, metrics_csv, per_relation_csv, sweep_csv
from tailbias.stats import LabelSpace, ingest, read_config
from tailbias.synth import SynthConfig, _rng, generate_split, write_images_jsonl

CONFIGS = Path(__file__).resolve().parent.parent / "configs" / "reference"
RUNS = ("ce", "cb")
# Iterations of the cb run at background_ratio 1.0, whose images take part
# of their background pairs.
PARTIAL_ITERATIONS = 200
# Criterion 9's grid, and one that spans two of the sweep's grid blocks.
SWEEP_GRIDS = {"sweep_cb_5.csv": [0.0, 0.25, 0.5, 0.75, 1.0],
               "sweep_cb_7.csv": [0.0, 0.25, 0.5, 0.75, 1.0, 0.5, 0.1]}
# The dual-encoder SGCls run: 400 training and 200 test images at detector
# sharpness 1.0, whose argmax is wrong for about 44 % of objects, trained
# with a pb bias for this many iterations and swept over a 3-point grid.
DUAL_ITERATIONS = 60
DUAL_GRID = [0.0, 0.5, 1.0]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Criterion-8 pipeline through the Python API: datasets, two training
    runs, metrics CSVs."""
    root = tmp_path_factory.mktemp("reference_run")
    started = time.time()
    synth = read_config(SynthConfig, str(CONFIGS / "synth.json"))
    train_images = generate_split(synth, "train")
    test_images = generate_split(synth, "test")
    write_images_jsonl(train_images, str(root / "train.jsonl"))
    write_images_jsonl(test_images, str(root / "test.jsonl"))
    out = {"root": root, "train_images": train_images, "test_images": test_images}
    for name in RUNS:
        config = read_config(TrainConfig, str(CONFIGS / f"train_{name}.json"))
        checkpoint, runlog = train(config, train_images)
        save_checkpoint(checkpoint, str(root / f"checkpoint_{name}.json"))
        results = evaluate(checkpoint, test_images)
        (root / f"metrics_{name}.csv").write_text(
            metrics_csv(config.task, results, list(config.eval_ks))
        )
        out[name] = {"config": config, "checkpoint": checkpoint, "runlog": runlog,
                     "results": results}
    out["elapsed"] = time.time() - started
    return out


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
        z, b, y = _random_instance(rng)
        gap = abs(biased_ce(z, b, y).value - (ce(z, y).value + bias_gap(z, b, y)))
        worst = max(worst, gap)
    assert worst < 1e-10
    print(f"\nACCEPTANCE 2 decomposition-identity: PASS (max |gap| {worst:.2e})")


def test_criterion_3_theta_monotonicity():
    rng = np.random.default_rng(101)
    delta = 1e-3
    violations = 0
    for _ in range(10_000):
        z, b, y = _random_instance(rng)
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
    plain = pipeline["ce"]["config"]
    plain = replace(plain, optimizer=replace(plain.optimizer, iterations=1000))
    eps = 1e-3
    uniform = -math.log(1.0 / plain.label_space.num_relations + eps)
    flat_spec = BiasSpec(kind="cb", a=0.0, epsilon=eps, background=uniform)
    flat = replace(pipeline["cb"]["config"], optimizer=plain.optimizer, bias=flat_spec)
    images = pipeline["train_images"]
    _, log_plain = train(plain, images)
    _, log_flat = train(flat, images)
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
        z, _, y = _random_instance(rng)
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
    config = pipeline["cb"]["config"]
    stats = training_stats(pipeline["train_images"], config.label_space)
    grid = SWEEP_GRIDS["sweep_cb_5.csv"]
    rows = sweep(
        pipeline["cb"]["checkpoint"], stats, config.bias, grid, pipeline["test_images"]
    )
    mrs = [res["with"].mean_recall_at[50] for _, res in rows]
    rs = [res["with"].recall_at[50] for _, res in rows]
    assert mrs[0] == max(mrs), f"mR@50 not maximal at a_e=0: {mrs}"
    assert mrs[-1] == min(mrs), f"mR@50 not minimal at a_e=1: {mrs}"
    assert rs[-1] == max(rs), f"R@50 not maximal at a_e=1: {rs}"
    assert rs[0] == min(rs), f"R@50 not minimal at a_e=0: {rs}"
    table = ", ".join(f"a_e={a}: R={r:.3f} mR={m:.3f}" for (a, _), r, m in zip(rows, rs, mrs))
    print(f"\nACCEPTANCE 9 soft-bias-sweep: PASS ({table})")


def run_cli_pipeline(root: Path) -> None:
    """Criterion-8 pipeline through the command line, on the committed files."""
    data = root / "data"
    assert main(["synth", "--config", str(CONFIGS / "synth.json"), "--out", str(data)]) == 0
    for name in RUNS:
        run = root / f"run_{name}"
        assert main(["train", "--config", str(CONFIGS / f"train_{name}.json"),
                     "--data", str(data / "train.jsonl"), "--out", str(run)]) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--data", str(data / "test.jsonl"), "--out", str(root / f"eval_{name}")]) == 0


def test_criterion_10_determinism_and_formats(pipeline, tmp_path_factory):
    repeat_root = tmp_path_factory.mktemp("repeat_run")
    run_cli_pipeline(repeat_root)
    first_root = pipeline["root"]
    # each artifact of the API run, and where the command line writes it
    names = {
        "train.jsonl": "data/train.jsonl",
        "test.jsonl": "data/test.jsonl",
        **{f"checkpoint_{name}.json": f"run_{name}/checkpoint.json" for name in RUNS},
        **{f"metrics_{name}.csv": f"eval_{name}/metrics.csv" for name in RUNS},
    }
    for name, cli_name in names.items():
        a = (first_root / name).read_bytes()
        b = (repeat_root / cli_name).read_bytes()
        assert a == b, f"{name} differs between the API and the command line run"
    eval_ks = pipeline["ce"]["config"].eval_ks
    for name in RUNS:
        lines = (first_root / f"metrics_{name}.csv").read_text().strip().split("\n")
        assert lines[0] == METRICS_CSV_HEADER
        assert len(lines) == 1 + 2 * len(eval_ks)
        for line in lines[1:]:
            mode, constraint, k, r, mr = line.split(",")
            assert mode == "predcls" and constraint in ("with", "without")
            assert int(k) in eval_ks
            assert 0.0 <= float(r) <= 1.0 and 0.0 <= float(mr) <= 1.0
    print(
        f"\nACCEPTANCE 10 determinism-and-formats: PASS "
        f"({len(names)} artifacts byte-identical between the API and the command line; "
        f"CSV schema '{METRICS_CSV_HEADER}')"
    )


def environment() -> dict:
    """The numpy, Python and BLAS a digest was taken under: OpenBLAS picks
    its kernels by CPU, and training draws follow numpy's generator streams."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "python": platform.python_version(),
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}}


def float_lines(values) -> bytes:
    """One ``float.hex`` line per value: the CSVs print six decimals, so only
    these bytes change with a recall's or a loss's last bit."""
    return "".join(f"{float(v).hex()}\n" for v in values).encode()


def result_floats(results: dict[str, EvalResult]) -> list[float]:
    """Every float of one result per constraint, in order: per k, R@k, mR@k
    and the per-relation recalls."""
    return [v for result in results.values() for k in result.recall_at
            for v in (result.recall_at[k], result.mean_recall_at[k],
                      *result.per_relation_recall[k].tolist())]


def reference_artifacts(pipeline) -> dict[str, bytes]:
    """Criterion 10's six artifacts, the per-relation CSVs of both evaluations,
    and the cb checkpoint's sweeps over :data:`SWEEP_GRIDS`, by name; with
    the :func:`float_lines` of each run's losses and every float of both
    evaluations and both sweeps. The cb run at ``background_ratio`` 1.0 adds
    its checkpoint and losses: its images take 4 of 8, 7 of 13 and 10 of 20
    background pairs, so these two pin the background sampler's draws,
    which the reference runs, taking every pair, never make. The dual-encoder
    SGCls run (:func:`dual_sgcls_artifacts`) adds its own four, and the
    dual-encoder PredCls run (:func:`dual_predcls_artifacts`) three."""
    root = pipeline["root"]
    names = ["train.jsonl", "test.jsonl", *(f"checkpoint_{name}.json" for name in RUNS),
             *(f"metrics_{name}.csv" for name in RUNS)]
    out = {name: (root / name).read_bytes() for name in names}
    for name in RUNS:
        config, results = pipeline[name]["config"], pipeline[name]["results"]
        for constraint, result in results.items():
            out[f"per_relation_{name}_{constraint}.csv"] = per_relation_csv(
                config.label_space, result, list(config.eval_ks)).encode()
        out[f"losses_{name}.hex"] = float_lines(pipeline[name]["runlog"].losses)
        out[f"results_{name}.hex"] = float_lines(result_floats(results))
    config = pipeline["cb"]["config"]
    partial = replace(config, background_ratio=1.0,
                      optimizer=replace(config.optimizer, iterations=PARTIAL_ITERATIONS))
    checkpoint, runlog = train(partial, pipeline["train_images"])
    save_checkpoint(checkpoint, str(root / "checkpoint_cb_ratio1.json"))
    out["checkpoint_cb_ratio1.json"] = (root / "checkpoint_cb_ratio1.json").read_bytes()
    out["losses_cb_ratio1.hex"] = float_lines(runlog.losses)
    stats = training_stats(pipeline["train_images"], config.label_space)
    for name, grid in SWEEP_GRIDS.items():
        rows = sweep(pipeline["cb"]["checkpoint"], stats, config.bias, grid,
                     pipeline["test_images"])
        out[name] = sweep_csv(rows, config.eval_ks).encode()
        out[name.replace(".csv", ".hex")] = float_lines(
            v for _, results in rows for v in result_floats(results))
    return out | dual_sgcls_artifacts(root) | dual_predcls_artifacts(root)


def dual_run(task: str):
    """The splits and config of a dual-encoder run on ``task``: the reference
    synth at 400 training and 200 test images, detector sharpness 1.0, and
    the cb run's config with a pb bias for :data:`DUAL_ITERATIONS`."""
    synth = replace(read_config(SynthConfig, str(CONFIGS / "synth.json")),
                    num_train=400, num_test=200, detector_sharpness=1.0)
    train_images, test_images = (generate_split(synth, s) for s in ("train", "test"))
    config = read_config(TrainConfig, str(CONFIGS / "train_cb.json"))
    config = replace(config, task=task, model=replace(config.model, kind="dual_encoder"),
                     bias=replace(config.bias, kind="pb"),
                     optimizer=replace(config.optimizer, learning_rate=0.05,
                                       iterations=DUAL_ITERATIONS))
    return train_images, test_images, config


def dual_sgcls_artifacts(root: Path) -> dict[str, bytes]:
    """The dual encoder's checkpoint, losses, and the floats of its SGCls
    evaluation and of a :data:`DUAL_GRID` sweep of its pb bias. Each of the
    test split's three object-count buckets holds more than
    ``harness.FORWARD_CHUNK`` images, so evaluation runs each in several
    model calls."""
    train_images, test_images, config = dual_run("sgcls")
    counts = np.bincount(np.diff(test_images.obj_start))
    assert counts[counts > 0].min() > harness.FORWARD_CHUNK, counts
    checkpoint, runlog = train(config, train_images)
    save_checkpoint(checkpoint, str(root / "checkpoint_dual_sgcls.json"))
    stats = training_stats(train_images, config.label_space)
    rows = sweep(checkpoint, stats, config.bias, DUAL_GRID, test_images)
    return {"checkpoint_dual_sgcls.json": (root / "checkpoint_dual_sgcls.json").read_bytes(),
            "losses_dual_sgcls.hex": float_lines(runlog.losses),
            "results_dual_sgcls.hex": float_lines(result_floats(evaluate(checkpoint, test_images))),
            "sweep_dual_sgcls_3.hex": float_lines(
                v for _, results in rows for v in result_floats(results))}


def dual_predcls_artifacts(root: Path) -> dict[str, bytes]:
    """The checkpoint, losses and evaluation floats of the dual encoder trained
    on PredCls, whose objects carry their annotated labels and whose object
    head is still trained."""
    train_images, test_images, config = dual_run("predcls")
    checkpoint, runlog = train(config, train_images)
    save_checkpoint(checkpoint, str(root / "checkpoint_dual_predcls.json"))
    return {"checkpoint_dual_predcls.json": (root / "checkpoint_dual_predcls.json").read_bytes(),
            "losses_dual_predcls.hex": float_lines(runlog.losses),
            "results_dual_predcls.hex": float_lines(
                result_floats(evaluate(checkpoint, test_images)))}


def test_a_reference_window_takes_every_pair_and_draws_nothing(pipeline):
    """Synth's background fraction 0.7 gives a 4-, 5- or 6-object image 4, 7
    or 10 foreground and 8, 13 or 20 background pairs, so the reference
    ratio 3 takes every pair: each slot of a training window gets all its
    pairs, foreground then background, each part in pair order, and the
    sample generator draws nothing."""
    images = pipeline["train_images"]
    n_fg = np.diff(images.gt_start)
    for name in RUNS:
        config = pipeline[name]["config"]
        split, _ = harness._prepare(config, images)
        slots = _rng(config.seed, SHUFFLE_DOMAIN).permutation(len(images))
        rng = _rng(config.seed, SAMPLE_DOMAIN)
        state = rng.bit_generator.state
        rows, targets, starts = harness._draw(split, images.gt_start, slots,
                                              config.background_ratio, rng)
        assert rng.bit_generator.state == state, f"{name}: the window drew from the generator"
        for q, i in enumerate(slots.tolist()):
            block, y, k = rows[starts[q]:starts[q + 1]], targets[starts[q]:starts[q + 1]], n_fg[i]
            assert np.array_equal(np.sort(block),
                                  np.arange(images.pair_start[i], images.pair_start[i + 1]))
            assert (y[:k] > 0).all() and not y[k:].any()
            assert (np.diff(block[:k]) > 0).all() and (np.diff(block[k:]) > 0).all()


def test_reference_artifacts_match_their_pinned_digests(pipeline):
    """Each artifact's sha256 equals the one ``configs/reference/digests.json``
    pins. Another numpy, Python or BLAS may give other bytes; a mismatch names
    the keys that differ and both environments, and its message ends with the
    document this environment gives, to re-pin a deliberate change."""
    pinned = json.loads((CONFIGS / "digests.json").read_text())
    got = {name: hashlib.sha256(data).hexdigest()
           for name, data in sorted(reference_artifacts(pipeline).items())}
    wrong = sorted(key for key in got.keys() | pinned["sha256"].keys()
                   if got.get(key) != pinned["sha256"].get(key))
    doc = {"environment": environment(), "sha256": got}
    assert not wrong, (
        f"digests differ for {wrong}; pinned under {pinned['environment']}, "
        f"taken under {doc['environment']}; this environment gives:\n"
        + json.dumps(doc, indent=1))
    print(f"\nDIGESTS: PASS ({len(got)} artifacts byte-identical to configs/reference/digests.json)")
