"""The array evaluation and packed training paths against the oracles in
``oracle.py``.

Rankings must match candidate for candidate, exact ties included, and every
R@k, mR@k and per-relation recall must be identical, NaN positions included.
Packed training must give the per-image path's losses and parameters bit for
bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from tailbias.bias import BiasSpec, compute_bias
from tailbias.harness import (
    FORWARD_CHUNK,
    Checkpoint,
    LossConfig,
    ModelSpec,
    OptimizerConfig,
    TrainConfig,
    evaluate,
    sweep,
    train,
    training_stats,
)
from tailbias.metrics import CONSTRAINTS, MISS, candidate_index, evaluate_split, rank
from tailbias.model import init_linear, model_for
from tailbias.stats import LabelSpace, ingest, stats_from_json, stats_to_json
from tailbias.numerics import flatten
from tailbias.synth import Images, SynthConfig, SynthImage, all_ordered_pairs, generate_split


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
def scored_image(draw, num_relations, n):
    """A score matrix of ``n`` objects quantised to few levels, its last pair
    a copy of its first so that exact ties always occur, with a random
    ground-truth list (duplicates allowed, possibly empty)."""
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
    scores[-1] = scores[0]
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
    """A split holding images of at least three sizes, one of them without
    ground truth, in random order."""
    num_relations = draw(st.integers(1, 4))
    sizes = [2, 3, 4] + draw(st.lists(st.integers(2, 5), max_size=4))
    images = [draw(scored_image(num_relations, n)) for n in sizes]
    n, pairs, scores, _ = images[draw(st.integers(0, len(images) - 1))]
    images.append((n, pairs, scores, []))
    return num_relations, draw(st.permutations(images))


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
    starts = np.cumsum([0] + [len(pairs) for _, pairs, _, _ in images])
    scores = np.concatenate([scores for _, _, scores, _ in images])
    index = np.concatenate(
        [candidate_index(gt, n, num_relations) + start * num_relations
         for (n, _, _, gt), start in zip(images, starts)]
    )
    relations = np.array([r for *_, gt in images for _, _, r in gt], dtype=np.int64)
    image = np.repeat(np.arange(len(images)), [len(gt) for *_, gt in images])
    for constraint in CONSTRAINTS:
        # Every candidate's rank position, from the oracle's ranked lists.
        want_positions = np.full(scores.size, MISS)
        oracle_images = []
        for (_, pairs, image_scores, gt), start in zip(images, starts):
            ranked = oracle.rank(oracle_candidates(pairs, image_scores), constraint)
            pair_pos = {p: q for q, p in enumerate(pairs)}
            for position, p in enumerate(ranked):
                cell = (start + pair_pos[(p.s, p.o)]) * num_relations + p.relation - 1
                want_positions[cell] = position
            oracle_images.append((gt, ranked))
        every = rank(scores, starts, np.arange(scores.size), constraint)
        assert every.tolist() == want_positions.tolist()

        positions = rank(scores, starts, index, constraint)
        got = evaluate_split(relations, positions, image, len(images), ks, num_relations,
                             constraint)
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
        gt=np.array([(s, o, r) for (s, o), r in zip(annotated, relations)],
                    dtype=np.int64).reshape(-1, 3),
    )


def fixed_image(rng, n, gt):
    """An image of ``n`` objects with ground truth ``gt``, drawn from ``rng``."""
    scores = rng.uniform(0.05, 1.0, (n, SMALL.num_object_classes))
    x1, y1 = rng.uniform(0.05, 0.4, (2, n))
    return SynthImage(
        boxes=np.stack([x1, y1, x1 + 0.3, y1 + 0.3], axis=1),
        features=rng.normal(size=(n, D_V)),
        labels=rng.integers(0, SMALL.num_object_classes, n),
        scores=scores / scores.sum(axis=1, keepdims=True),
        unions=rng.normal(size=(n * (n - 1), D_V)),
        gt=np.array(gt, dtype=np.int64).reshape(-1, 3),
    )


def outcome(run):
    """A run's result, or the type and text of the error it raised."""
    try:
        return run()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def small_model(kind):
    if kind == "linear":
        return ModelSpec(kind="linear")
    return ModelSpec(kind="dual_encoder", d_model=4, n_h=2, n_o=1, n_r=1, d_ff=4, d_e=2, d_pos=2)


def diverging(seed, task):
    """A dual encoder on one 2-object image with a repeated triplet, whose rtpb
    run diverges at iteration 6 or 7: by a non-finite loss in both tasks."""
    image = fixed_image(np.random.default_rng(seed), 2, [(0, 1, 1), (0, 1, 1)])
    return dict(images=[image], kind="dual_encoder", task=task, loss="rtpb",
                background_ratio=0.5, batch_size=1, iterations=7, seed=656)


@example(**diverging(258, "sgcls"))
@example(**diverging(80, "predcls"))
@given(
    images=st.lists(training_image(), min_size=1, max_size=5),
    kind=st.sampled_from(["linear", "dual_encoder"]),
    task=st.sampled_from(["predcls", "sgcls"]),
    loss=st.sampled_from(["ce", "rtpb", "class_balanced"]),
    background_ratio=st.sampled_from([0.0, 0.5, 3.0]),
    batch_size=st.integers(1, 4),
    iterations=st.integers(1, 8),
    seed=st.integers(0, 1000),
)
@settings(max_examples=100, deadline=None)
# A diverging example overflows in the encoder before its loss is refused.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_packed_training_matches_the_per_image_oracle(
    images, kind, task, loss, background_ratio, batch_size, iterations, seed
):
    config = TrainConfig(
        label_space=SMALL,
        task=task,
        model=small_model(kind),
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
        checkpoint, log = train(config, Images.pack(images))
        return flatten(checkpoint.params), log.losses

    got, want = outcome(packed), outcome(lambda: oracle.train(config, images))
    if isinstance(want[0], str):
        assert got == want
    else:
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]


@pytest.mark.parametrize("kind", ["linear", "dual_encoder"])
@pytest.mark.parametrize("seed, bare_step", [(1, 5), (3, 7)])
def test_a_bare_batch_after_the_first_window_names_its_iteration(kind, seed, bare_step):
    """Five images in batches of two are drawn in windows of three steps.
    At ``background_ratio`` 0 images 3 and 4, which have no ground truth,
    draw no pairs, and the shuffle of ``seed`` first batches them together
    at ``bare_step``: inside the second window for seed 1, and as the
    one-step window that ends a 7-iteration run for seed 3. Training refuses
    that iteration as the per-image oracle does, and the steps before it
    match the oracle bit for bit."""
    rng = np.random.default_rng(5)
    images = [fixed_image(rng, 3, [(0, 1, 1), (2, 0, 3)]), fixed_image(rng, 4, [(1, 3, 2)]),
              fixed_image(rng, 2, [(1, 0, 2)]), fixed_image(rng, 3, []), fixed_image(rng, 2, [])]
    config = TrainConfig(
        label_space=SMALL,
        model=small_model(kind),
        loss=LossConfig(kind="ce"),
        optimizer=OptimizerConfig(learning_rate=0.1, momentum=0.9, iterations=7, batch_size=2),
        seed=seed,
        background_ratio=0.0,
    )
    message = f"^iteration {bare_step}: the batch draws no pairs"
    with pytest.raises(ValueError, match=message):
        oracle.train(config, images)
    with pytest.raises(ValueError, match=message):
        train(config, Images.pack(images))
    before = replace(config, optimizer=replace(config.optimizer, iterations=bare_step - 1))
    checkpoint, log = train(before, Images.pack(images))
    want_params, want_losses = oracle.train(before, images)
    assert np.array_equal(flatten(checkpoint.params), want_params)
    assert log.losses == want_losses and len(want_losses) == bare_step - 1


@pytest.mark.parametrize("kind", ["linear", "dual_encoder"])
def test_a_bucket_cut_into_calls_matches_the_per_image_oracle(kind):
    """A batch of 20 images of three objects, each drawing two foreground and
    two background pairs, is one bucket, forwarded in two calls of at most
    ``FORWARD_CHUNK`` images; training equals one forward per image bit for bit."""
    rng = np.random.default_rng(11)
    images = [
        fixed_image(rng, 3, [(0, 1, rng.integers(1, 4)), (2, 0, rng.integers(1, 4))])
        for _ in range(25)
    ]
    config = TrainConfig(
        label_space=SMALL,
        task="sgcls",
        model=small_model(kind),
        loss=LossConfig(kind="rtpb"),
        bias=BiasSpec(kind="pb", a=1.0, epsilon=1e-3),
        optimizer=OptimizerConfig(learning_rate=0.1, momentum=0.9, iterations=3, batch_size=20),
        seed=3,
        background_ratio=1.0,
    )
    assert FORWARD_CHUNK < 20
    checkpoint, log = train(config, Images.pack(images))
    want_params, want_losses = oracle.train(config, images)
    assert np.array_equal(flatten(checkpoint.params), want_params)
    assert log.losses == want_losses


@given(
    images=st.lists(training_image(), min_size=1, max_size=FORWARD_CHUNK + 4),
    kind=st.sampled_from(["linear", "dual_encoder"]),
    task=st.sampled_from(["predcls", "sgcls"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_evaluation_names_the_smallest_faulty_image(images, kind, task, data):
    """A random nonempty set of images each get a NaN union row after packing
    (which refuses one); evaluation names the smallest of their indices,
    whichever bucket or call of a bucket each is forwarded in."""
    split = Images.pack(images)
    faulty = data.draw(st.sets(st.integers(0, len(images) - 1), min_size=1))
    for i in faulty:
        split.unions[data.draw(st.integers(split.pair_start[i], split.pair_start[i + 1] - 1))] = np.nan
    config = TrainConfig(label_space=SMALL, task=task, model=small_model(kind))
    params = model_for(config.model).init(config.model, SMALL, D_V, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"^image {min(faulty)}: non-finite relation logits$"):
        evaluate(Checkpoint(config, 0, params), split)


# --- dense statistics and the split-wide ground-truth check -------------------


@st.composite
def triplet_stream(draw):
    """A label space and a triplet stream, now and then with a record
    outside it."""
    ls = LabelSpace(draw(st.integers(1, 5)), draw(st.integers(1, 4)))
    ne, nr = ls.num_object_classes, ls.num_relations
    inside = st.tuples(st.integers(0, ne - 1), st.integers(0, ne - 1), st.integers(1, nr))
    anywhere = st.tuples(st.integers(-2, ne + 1), st.integers(-2, ne + 1), st.integers(-1, nr + 2))
    record = st.one_of(inside, anywhere) if draw(st.booleans()) else inside
    return ls, draw(st.lists(record, max_size=40))


def refusal(run):
    """The type and text of the error ``run`` raised, or None."""
    try:
        run()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return None


@given(triplet_stream())
@settings(max_examples=200, deadline=None)
def test_dense_statistics_match_the_sparse_map(case):
    ls, records = case
    error = refusal(lambda: oracle.ingest(records, ls))
    assert refusal(lambda: ingest(records, ls)) == error
    if error is None:
        stats, counts = ingest(records, ls), oracle.ingest(records, ls)
        assert np.array_equal(stats.dense, oracle.as_stats(counts, ls).dense)
        assert stats.total == len(records)
        text = stats_to_json(stats)
        assert text == oracle.stats_to_json(counts, ls)
        assert np.array_equal(stats_from_json(text).dense, stats.dense)


def corrupt(draw, img):
    """``img`` with one fault of the kinds the record check or the
    ground-truth check names (some draws land inside the valid range and
    change nothing)."""
    n = len(img.labels)
    kind = draw(st.sampled_from(
        ["gt", "label", "one-object", "features", "scores", "box", "sums", "rows"]
    ))
    if kind == "gt":
        t = (draw(st.integers(-2, n + 1)), draw(st.integers(-2, n + 1)),
             draw(st.integers(-1, SMALL.num_relations + 2)))
        gt = img.gt.tolist()
        return replace(img, gt=np.array(gt[: draw(st.integers(0, len(gt)))] + [t] + gt))
    # An earlier "rows" fault may leave boxes or scores with
    # fewer rows than labels, so their row is drawn from their own rows.
    if kind == "box":
        boxes = img.boxes.copy()
        if len(boxes):
            boxes[draw(st.integers(0, len(boxes) - 1)), draw(st.integers(0, 3))] = draw(
                st.sampled_from([-0.1, 0.0, 0.5, 1.0, 1.5, np.nan])
            )
        return replace(img, boxes=boxes)
    if kind == "sums":
        scores = img.scores.copy()
        if len(scores):
            scores[draw(st.integers(0, len(scores) - 1)), 0] += draw(
                st.sampled_from([1e-7, 1e-5, 0.5])
            )
        return replace(img, scores=scores)
    if kind == "rows":
        name = draw(st.sampled_from(["boxes", "features", "scores", "unions", "gt"]))
        return replace(img, **{name: getattr(img, name)[1:]})
    if kind == "label":
        labels = img.labels.copy()
        labels[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, 3, 7]))
        return replace(img, labels=labels)
    if kind == "one-object":
        return replace(img, boxes=img.boxes[:1], features=img.features[:1], labels=img.labels[:1],
                       scores=img.scores[:1], unions=img.unions[:0], gt=img.gt[:0])
    width = draw(st.sampled_from([1, 2, 5]))
    if kind == "features":
        return replace(img, features=np.ones((n, width)), unions=np.ones((n * (n - 1), width)))
    return replace(img, scores=np.full((n, width), 1.0 / width))


@st.composite
def corrupted_split(draw):
    images = draw(st.lists(training_image(), min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(images) - 1))
        images[i] = corrupt(draw, images[i])
    return images


@given(corrupted_split())
@settings(max_examples=200, deadline=None)
def test_the_split_check_names_what_the_image_by_image_check_names(images):
    # Packing checks every record, against image 0's widths.
    want = refusal(lambda: oracle.check_records(images))
    assert refusal(lambda: Images.pack(images)) == want
    if want is not None:
        return
    split = Images.pack(images)
    # Statistics check annotations only.
    want = refusal(lambda: oracle.check_split(images, SMALL, None))
    assert refusal(lambda: training_stats(split, SMALL)) == want
    if want is None:
        assert np.array_equal(
            training_stats(split, SMALL).dense, oracle.training_stats(images, SMALL).dense
        )
    # Training runs at the split's feature width.
    config = TrainConfig(label_space=SMALL, optimizer=OptimizerConfig(iterations=1, batch_size=1))
    want = refusal(lambda: oracle.check_split(images, SMALL, split.features.shape[1]))
    assert refusal(lambda: train(config, split)) == want
    # Evaluation runs at the checkpoint's.
    params = init_linear(ModelSpec(), SMALL, D_V, np.random.default_rng(0))
    checkpoint = Checkpoint(config=config, iterations=0, params=params)
    want = refusal(lambda: oracle.check_split(images, SMALL, D_V))
    assert refusal(lambda: evaluate(checkpoint, split)) == want
