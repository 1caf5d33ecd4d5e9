"""The array evaluation and packed training paths against the oracles in
``oracle.py``.

Rankings must match candidate for candidate, exact ties included, and every
R@k, mR@k and per-relation recall must be identical, NaN positions included.
Packed training must give the per-image path's losses and parameters bit for
bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from tailbias.bias import BiasSpec, compute_bias
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
from tailbias.metrics import CONSTRAINTS, candidate_index, evaluate_split, rank, ranking
from tailbias.stats import LabelSpace
from tailbias.numerics import flatten
from tailbias.synth import SynthConfig, SynthImage, all_ordered_pairs, generate_split


def assert_same_results(got, want):
    assert got.keys() == want.keys()
    for constraint in want:
        a, b = got[constraint], want[constraint]
        assert a.recall_at == b.recall_at
        assert a.mean_recall_at == b.mean_recall_at
        assert a.per_relation_recall.keys() == b.per_relation_recall.keys()
        for k in b.per_relation_recall:
            assert np.array_equal(
                a.per_relation_recall[k], b.per_relation_recall[k], equal_nan=True
            )
        assert a.gt_relation_counts.tolist() == b.gt_relation_counts.tolist()
        assert a.num_images == b.num_images
        assert a.constraint_mode == b.constraint_mode


@st.composite
def scored_image(draw, num_relations):
    """A score matrix quantised to few levels, so exact ties are common,
    with a random ground-truth list (duplicates allowed)."""
    n = draw(st.integers(2, 4))
    pairs = [tuple(p) for p in all_ordered_pairs(n).tolist()]
    levels = draw(st.integers(1, 4))
    cells = draw(
        st.lists(
            st.integers(0, levels),
            min_size=len(pairs) * num_relations,
            max_size=len(pairs) * num_relations,
        )
    )
    scores = np.array(cells, dtype=np.float64).reshape(len(pairs), num_relations) / levels
    gt = draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.integers(1, num_relations)).map(
                lambda t: (t[0][0], t[0][1], t[1])
            ),
            max_size=5,
        )
    )
    return n, pairs, scores, gt


@st.composite
def scored_split(draw):
    num_relations = draw(st.integers(1, 4))
    images = draw(st.lists(scored_image(num_relations), min_size=1, max_size=5))
    return num_relations, images


def oracle_candidates(pairs, scores):
    return [
        oracle.TripletPrediction(s=s, o=o, relation=r, score=float(scores[q, r - 1]))
        for q, (s, o) in enumerate(pairs)
        for r in range(1, scores.shape[1] + 1)
    ]


@given(scored_split())
@settings(max_examples=150, deadline=None)
def test_ranking_and_recall_match_oracle(split):
    num_relations, images = split
    ks = [1, 2, 3, 5, 8, 50]
    for constraint in CONSTRAINTS:
        array_images = []
        oracle_images = []
        for n, pairs, scores, gt in images:
            ranked = oracle.rank(oracle_candidates(pairs, scores), constraint)
            pair_pos = {p: q for q, p in enumerate(pairs)}
            want = [pair_pos[(p.s, p.o)] * num_relations + p.relation - 1 for p in ranked]
            assert ranking(scores, constraint).tolist() == want

            index = candidate_index(gt, n, num_relations)
            relations = np.array([r for _, _, r in gt], dtype=np.int64)
            array_images.append((relations, rank(scores, index, constraint)))
            oracle_images.append((gt, ranked))
        got = evaluate_split(array_images, ks, num_relations, constraint)
        want = oracle.evaluate_split(oracle_images, ks, num_relations, constraint)
        assert_same_results({constraint: got}, {constraint: want})


LABELS = LabelSpace(num_object_classes=6, num_relations=8)
TINY_DUAL = ModelSpec(
    kind="dual_encoder", d_model=16, n_h=2, n_o=1, n_r=1, d_ff=16, d_e=4, d_pos=4
)


@pytest.fixture(
    scope="module",
    params=[
        ("predcls", "linear", "cb", 4.0),
        ("sgcls", "dual_encoder", "pb", 1.0),
    ],
    ids=["predcls-cb", "sgcls-pb-sharpness-1"],
)
def trained(request):
    task, kind, bias_kind, sharpness = request.param
    cfg = SynthConfig(
        label_space=LABELS, num_train=60, num_val=0, num_test=25, zipf_s=1.3,
        objects_min=3, objects_max=5, d_v=8, detector_sharpness=sharpness, seed=21,
    )
    train_images, test_images = generate_split(cfg, "train"), generate_split(cfg, "test")
    spec = BiasSpec(kind=bias_kind, a=1.0, epsilon=1e-3)
    config = TrainConfig(
        label_space=LABELS,
        task=task,
        model=ModelSpec(kind="linear") if kind == "linear" else TINY_DUAL,
        loss=LossConfig(kind="rtpb"),
        bias=spec,
        optimizer=OptimizerConfig(learning_rate=0.05, iterations=20, batch_size=4),
        seed=3,
        eval_ks=(1, 5, 20, 50),
    )
    checkpoint, _ = train(config, train_images)
    return checkpoint, training_stats(train_images, LABELS), spec, test_images


def test_evaluate_matches_oracle(trained):
    checkpoint, stats, spec, images = trained
    assert_same_results(evaluate(checkpoint, images), oracle.evaluate(checkpoint, images))
    bias = compute_bias(spec, stats)
    assert_same_results(
        evaluate(checkpoint, images, inference_bias=bias),
        oracle.evaluate(checkpoint, images, inference_bias=bias),
    )


def test_sweep_matches_oracle(trained):
    checkpoint, stats, spec, images = trained
    grid = [0.0, 0.25, 0.5, 1.0]
    got = sweep(checkpoint, stats, spec, grid, images)
    want = oracle.sweep(checkpoint, stats, spec, grid, images)
    assert [a for a, _ in got] == [a for a, _ in want] == grid
    for (_, a), (_, b) in zip(got, want):
        assert_same_results(a, b)


# --- packed training against per-image training -------------------------------

SMALL = LabelSpace(num_object_classes=3, num_relations=3)
D_V = 3


@st.composite
def training_image(draw):
    """A random image whose ground truth covers none, all, or some of its
    ordered pairs, a pair possibly twice."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [tuple(p) for p in all_ordered_pairs(n).tolist()]
    cover = draw(st.sampled_from(["none", "all", "some"]))
    if cover == "none":
        annotated = []
    elif cover == "all":
        annotated = pairs
    else:
        annotated = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs)))
    relations = draw(
        st.lists(st.integers(1, SMALL.num_relations), min_size=len(annotated),
                 max_size=len(annotated))
    )
    scores = rng.uniform(0.05, 1.0, (n, SMALL.num_object_classes))
    x1, y1 = rng.uniform(0.05, 0.4, (2, n))
    return SynthImage(
        boxes=np.stack([x1, y1, x1 + 0.3, y1 + 0.3], axis=1),
        features=rng.normal(size=(n, D_V)),
        labels=rng.integers(0, SMALL.num_object_classes, n),
        scores=scores / scores.sum(axis=1, keepdims=True),
        unions=rng.normal(size=(n * (n - 1), D_V)),
        gt_triplets=[(s, o, r) for (s, o), r in zip(annotated, relations)],
    )


def outcome(run):
    """A run's result, or the type and text of the error it raised."""
    try:
        return run()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@given(
    images=st.lists(training_image(), min_size=1, max_size=5),
    kind=st.sampled_from(["linear", "dual_encoder"]),
    task=st.sampled_from(["predcls", "sgcls"]),
    loss=st.sampled_from(["ce", "rtpb", "class_balanced"]),
    background_ratio=st.sampled_from([0.0, 0.5, 3.0]),
    batch_size=st.integers(1, 4),
    iterations=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
@settings(max_examples=100, deadline=None)
def test_packed_training_matches_the_per_image_oracle(
    images, kind, task, loss, background_ratio, batch_size, iterations, seed
):
    model = (
        ModelSpec(kind="linear") if kind == "linear"
        else ModelSpec(kind="dual_encoder", d_model=4, n_h=2, n_o=1, n_r=1, d_ff=4, d_e=2, d_pos=2)
    )
    config = TrainConfig(
        label_space=SMALL,
        task=task,
        model=model,
        loss=LossConfig(kind=loss),
        bias=BiasSpec(kind="pb" if task == "sgcls" else "cb", a=1.0, epsilon=1e-3)
        if loss == "rtpb" else None,
        optimizer=OptimizerConfig(
            learning_rate=0.1, momentum=0.9, iterations=iterations, batch_size=batch_size
        ),
        seed=seed,
        background_ratio=background_ratio,
    )

    def packed():
        checkpoint, log = train(config, images)
        return flatten(checkpoint.params), log.losses

    got, want = outcome(packed), outcome(lambda: oracle.train(config, images))
    if isinstance(want[0], str):
        assert got == want
    else:
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
