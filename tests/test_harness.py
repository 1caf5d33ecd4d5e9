import hashlib
import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import tailbias.harness as harness
import tailbias.model as model
from tailbias.bias import BiasSpec, BiasVector, compute_bias
from tailbias.harness import (
    FORWARD_CHUNK,
    MODES,
    Checkpoint,
    LossConfig,
    ModelSpec,
    OptimizerConfig,
    TrainConfig,
    _forward_split,
    class_labels,
    evaluate,
    load_checkpoint,
    make_loss_fn,
    save_checkpoint,
    sweep,
    sweep_csv,
    train,
    training_stats,
)
from tailbias.losses import LossOutput, biased_ce, ce
from tailbias.metrics import metrics_csv, object_pair_scores
from tailbias.model import (
    LinearParams,
    forward,
    init_dual_encoder,
    init_linear,
    model_for,
)
from tailbias.numerics import flatten, leaves
from tailbias.stats import LabelSpace, TripletStats, from_dict, ingest
from tailbias.synth import Images, SynthConfig, SynthImage, all_ordered_pairs, generate_split
from test_model import make_image, task_view

NO_GT = np.zeros((0, 3), dtype=np.int64)


@pytest.fixture(scope="module")
def space():
    return LabelSpace(num_object_classes=6, num_relations=8)


@pytest.fixture(scope="module")
def data(space):
    cfg = SynthConfig(
        label_space=space, num_train=60, num_val=0, num_test=25, zipf_s=1.3,
        objects_min=3, objects_max=4, d_v=8, seed=21,
    )
    return generate_split(cfg, "train"), generate_split(cfg, "test")


def linear_config(space, **overrides):
    base = dict(
        label_space=space,
        task="predcls",
        model=ModelSpec(kind="linear"),
        loss=LossConfig(kind="ce"),
        optimizer=OptimizerConfig(
            learning_rate=0.2, momentum=0.9, iterations=40, batch_size=4
        ),
        seed=13,
        eval_ks=(5, 10, 20),
    )
    base.update(overrides)
    return TrainConfig(**base)


def model_config(space, kind):
    """A short run of either model kind."""
    if kind == "linear":
        return linear_config(space)
    return linear_config(
        space,
        model=ModelSpec(kind="dual_encoder", d_model=16, n_h=2, n_o=1, n_r=1,
                        d_ff=16, d_e=4, d_pos=4),
        optimizer=OptimizerConfig(
            learning_rate=0.01, momentum=0.9, iterations=3, batch_size=2
        ),
    )


class TestConfig:
    def test_round_trip(self, space):
        config = linear_config(
            space,
            loss=LossConfig(kind="rtpb"),
            bias=BiasSpec(kind="eb", a=1.0, epsilon=1e-3),
            data=(("train", "a.jsonl"), ("test", "b.jsonl")),
        )
        assert from_dict(TrainConfig, asdict(config)) == config

    def test_validation(self, space):
        with pytest.raises(ValueError):
            linear_config(space, eval_ks=())
        with pytest.raises(ValueError):
            linear_config(space, eval_ks=(10, 5))
        with pytest.raises(ValueError, match="every k >= 1"):
            linear_config(space, eval_ks=(0, 5))
        with pytest.raises(ValueError):
            linear_config(space, loss=LossConfig(kind="rtpb"))  # bias missing
        with pytest.raises(ValueError):
            linear_config(
                space,
                optimizer=OptimizerConfig(iterations=0),
            )
        with pytest.raises(ValueError):
            LossConfig(kind="nope")
        with pytest.raises(ValueError):
            ModelSpec(kind="nope")

    @pytest.mark.parametrize(
        "eval_ks", [[5.7, 20.2], [True, 20], [2**63, 20], [None], "20", 20],
        ids=["float", "bool", "huge", "null", "string", "scalar"],
    )
    def test_eval_ks_must_be_64_bit_integers(self, space, eval_ks):
        doc = {**asdict(linear_config(space)), "eval_ks": eval_ks}
        message = "^train config key 'eval_ks' must be a list of 64-bit integers$"
        with pytest.raises(ValueError, match=message):
            from_dict(TrainConfig, doc)

    def test_bad_model_spec_fails_at_construction(self, space):
        with pytest.raises(ValueError, match="divisible"):
            ModelSpec(kind="dual_encoder", d_model=10, n_h=3)
        with pytest.raises(ValueError, match="^n_r must be >= 1$"):
            ModelSpec(kind="dual_encoder", n_r=0)
        doc = asdict(linear_config(space))
        doc["model"] = {"kind": "dual_encoder", "d_model": 10, "n_h": 3}
        with pytest.raises(ValueError, match="divisible"):
            from_dict(TrainConfig, doc)

    @pytest.mark.parametrize("key", ["d_model", "n_h", "d_ff", "d_e", "d_pos"])
    @pytest.mark.parametrize("size", [0, -4])
    def test_a_model_size_below_one_is_refused_by_its_key(self, space, key, size):
        with pytest.raises(ValueError, match=f"^{key} must be >= 1$"):
            ModelSpec(kind="dual_encoder", **{key: size})
        doc = asdict(linear_config(space))
        doc["model"][key] = size
        with pytest.raises(ValueError, match=f"^config section 'model': {key} must be >= 1$"):
            from_dict(TrainConfig, doc)

    @pytest.mark.parametrize("section", ["model", "loss", "optimizer"])
    def test_unknown_key_is_named(self, space, section):
        doc = asdict(linear_config(space))
        doc[section] = {**doc[section], "d_modle": 8}
        message = f"unknown key 'd_modle' in config section '{section}'"
        with pytest.raises(ValueError, match=message):
            from_dict(TrainConfig, doc)
        doc[section] = [8]
        with pytest.raises(ValueError, match=f"config section '{section}' must be an object"):
            from_dict(TrainConfig, doc)


def scalar_loss_fn(config, train_images):
    """The configured ce or rtpb loss as the scalar oracle, one row at a time,
    with bias rows looked up pair by pair."""
    if config.loss.kind == "ce":
        return lambda z, y, s, o: oracle.row_by_row(lambda q, row, t: oracle.ce(row, t), z, y)
    bias = compute_bias(config.bias, training_stats(train_images, config.label_space))

    def loss_fn(z, y, s, o):
        return oracle.row_by_row(
            lambda q, row, t: oracle.biased_ce(
                row, oracle.bias_row(bias, int(s[q]), int(o[q])), t
            ),
            z,
            y,
        )

    return loss_fn


class TestDraw:
    """``_draw`` over any run of image slots, and ``train``'s windows of one
    epoch of steps drawn in one call."""

    @pytest.mark.parametrize("ratio", [0.0, 0.5, 3.0])
    def test_one_call_over_many_batches_draws_each_slot_as_the_oracle(self, space, ratio):
        """Slots with repeats, an image without ground truth and one whose
        every pair is annotated (no background pair) each get the per-image
        draw of the oracle, from one generator in slot order."""
        rng = np.random.default_rng(8)
        gts = ([[0, 1, 1]], [], [[0, 1, 2], [2, 3, 1], [0, 1, 4]], [[0, 1, 3], [1, 0, 5]],
               [[2, 0, 1]])
        records = [replace(make_image(rng, n, space.num_object_classes, 4),
                           gt=np.array(gt, dtype=np.int64).reshape(-1, 3))
                   for n, gt in zip((3, 3, 4, 2, 3), gts)]
        images = Images.pack(records)
        config = replace(linear_config(space), background_ratio=ratio)
        split, _ = harness._prepare(config, images)
        slots = [2, 0, 3, 1, 4, 2, 2, 1, 3, 0, 4]
        rows, targets, starts = harness._draw(split, images.gt_start, slots, ratio,
                                              np.random.default_rng(3))
        want_rng, want_rows, want_targets = np.random.default_rng(3), [], []
        for i in slots:
            positions, t = oracle.training_pairs(records[i], config, want_rng)
            want_rows.append(images.pair_start[i] + positions)
            want_targets.append(t)
        assert np.array_equal(starts, np.cumsum([0] + [len(t) for t in want_targets]))
        assert np.array_equal(rows, np.concatenate(want_rows))
        assert np.array_equal(targets, np.concatenate(want_targets))
        assert rows.dtype == targets.dtype == np.int64

    @pytest.mark.parametrize(
        "images, batch_size, iterations, calls",
        [(5, 2, 7, [6, 6, 2]), (5, 2, 3, [6]), (3, 8, 4, [8, 8, 8, 8]), (6, 3, 5, [6, 6, 3])],
        ids=["ends-inside", "one-window", "batch-above-split", "exact-epochs"],
    )
    def test_train_draws_one_epoch_of_steps_per_call(
        self, space, data, monkeypatch, images, batch_size, iterations, calls
    ):
        """A window is ``ceil(len(images) / batch_size)`` steps, or the steps
        left; each call draws its steps' slots."""
        seen, draw = [], harness._draw

        def counting(split, gt_start, slots, *args):
            seen.append(len(slots))
            return draw(split, gt_start, slots, *args)

        monkeypatch.setattr(harness, "_draw", counting)
        optimizer = OptimizerConfig(iterations=iterations, batch_size=batch_size)
        train(linear_config(space, optimizer=optimizer), data[0][:images])
        assert seen == calls


class TestChoices:
    """``_choices``, the sampler of ``_draw``: Floyd's algorithm over every
    slot of a window, its draws one ``integers`` call. Its picks and the
    generator it leaves are pinned to ``oracle.floyd``'s scalar draws, and
    the reference run with partial takes in ``configs/reference/digests.json``
    pins its stream, so a numpy release whose ``integers`` draws otherwise
    (NEP 19) fails there."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), buffered=st.booleans(),
           slots=st.lists(st.integers(0, 60).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(0, n))), max_size=40))
    @example(seed=0, buffered=False, slots=[])
    @example(seed=1, buffered=True, slots=[(1, 1), (2, 1)])
    @example(seed=2, buffered=True, slots=[(3, 0), (5, 5), (0, 0), (4, 2)])
    @example(seed=3, buffered=False, slots=[(20000, 401), (10000, 5000), (9, 4)])  # large takes
    def test_a_window_draws_the_picks_and_leaves_the_state_of_the_oracle(
        self, seed, buffered, slots
    ):
        """Windows of ``(n_bg, take)`` slots, ``take`` from 0 to ``n_bg``, some
        from a generator holding a buffered half-word."""
        n, t = np.array(slots, dtype=np.int64).reshape(-1, 2).T
        rng, want = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            rng.integers(0, 7, dtype=np.uint32), want.integers(0, 7, dtype=np.uint32)
        picks = harness._choices(n, t, rng)
        expected = [oracle.floyd(a, b, want) for a, b in zip(n.tolist(), t.tolist())]
        assert np.array_equal(picks, np.concatenate([np.zeros(0, dtype=np.int64), *expected]))
        assert picks.dtype == np.int64
        assert rng.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("take", [40, 150, 380])
    def test_a_dense_window_draws_the_picks_and_leaves_the_state_of_the_oracle(self, take):
        """Dense scenes: 250 slots of 380 background pairs, each taking
        ``take`` of them, with some slots drawing every pair; at 150 many of
        Floyd's draws land on a value already picked."""
        n = np.full(250, 380, dtype=np.int64)
        t = np.where(np.arange(250) % 7 == 0, 380, take).astype(np.int64)
        rng, want = np.random.default_rng(take), np.random.default_rng(take)
        expected = np.concatenate([oracle.floyd(380, b, want) for b in t.tolist()])
        assert np.array_equal(harness._choices(n, t, rng), expected)
        assert rng.bit_generator.state == want.bit_generator.state

    def test_a_rejected_word_draws_as_the_oracle(self):
        """Seed 34 rejects one 32-bit word among the 5000 draws of a slot
        taking 5000 of 10000 pairs: the one ``integers`` call takes 5001 words,
        two to each of PCG64's 2501 steps, as the scalar draws do."""
        n, t = np.array([10000]), np.array([5000])
        rng, want = np.random.default_rng(34), np.random.default_rng(34)
        assert np.array_equal(harness._choices(n, t, rng), oracle.floyd(10000, 5000, want))
        assert rng.bit_generator.state == want.bit_generator.state
        stepped = np.random.PCG64(34)
        stepped.advance(2501)
        assert rng.bit_generator.state["state"] == stepped.state["state"]

    def test_each_subset_is_equally_likely(self):
        """20000 slots taking 2 of 5 pairs, in one window: the counts of the
        10 subsets pass a chi-square test at p = 0.001 (9 degrees of freedom)."""
        slots = 20000
        picks = harness._choices(np.full(slots, 5), np.full(slots, 2), np.random.default_rng(39))
        a, b = picks.reshape(slots, 2).T
        counts = np.bincount(5 * a + b, minlength=25).reshape(5, 5)[np.triu_indices(5, 1)]
        assert counts.sum() == slots  # each slot picks two distinct values, sorted
        expected = slots / 10
        assert ((counts - expected) ** 2 / expected).sum() < 27.877

    def test_a_window_of_full_and_empty_slots_draws_nothing(self):
        """Slots taking all of their pairs get them in order, slots taking
        none get nothing, and the generator is left untouched."""
        n, t = np.array([4, 0, 7, 3, 12, 1]), np.array([4, 0, 0, 3, 12, 1])
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        picks = harness._choices(n, t, rng)
        assert np.array_equal(picks, np.concatenate([np.arange(k) for k in (4, 3, 12, 1)]))
        assert rng.bit_generator.state == state


def window_keys():
    """A slot's object count ``n`` and number ``m`` of drawn pair rows."""
    return st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n * (n - 1))))


class TestWindowPlan:
    """``_Buckets`` over a window of steps, as ``train`` plans one epoch of
    steps after drawing it."""

    @example(size=FORWARD_CHUNK + 2, seed=0,
             keys=[(3, 4)] * (FORWARD_CHUNK + 1) + [(2, 0), (4, 12), (3, 4), (2, 0), (2, 2)])
    @example(size=3, seed=1, keys=[(2, 0), (2, 0), (5, 20), (2, 1)])
    @example(size=3, seed=2, keys=[(2, 2)] * 5)  # one key across a step boundary
    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(1, FORWARD_CHUNK + 3),
           keys=st.lists(window_keys(), min_size=1, max_size=3 * FORWARD_CHUNK),
           seed=st.integers(0, 2**32 - 1))
    def test_each_step_runs_its_own_images_in_calls_of_one_key(self, space, size, keys, seed):
        """Slot ``q`` is the ``n``-object image ``slots[q]`` of a shuffled
        split, over ``m`` of its pair rows. Each call of step ``k`` holds
        every one of step ``k``'s images of one ``(n, m)``, however many, and
        no other; the steps' calls hold each slot once; each image's objects,
        unions, pairs, targets and classes, and its rows' batch positions,
        are its own gather."""
        rng = np.random.default_rng(seed)
        d_v, count = 3, len(keys)
        slots = rng.permutation(count)
        records = [None] * count
        for q, (n, m) in enumerate(keys):
            records[slots[q]] = make_image(rng, n, space.num_object_classes, d_v)
        images = Images.pack(records)
        split = harness._pack(images, harness._truth(images, space, d_v), space, "predcls")
        picks = [images.pair_start[slots[q]] + np.sort(rng.choice(n * (n - 1), m, replace=False))
                 for q, (n, m) in enumerate(keys)]
        rows = np.concatenate(picks).astype(np.int64)
        targets = rng.integers(0, space.num_relations + 1, len(rows))
        starts = np.cumsum([0] + [m for _, m in keys])
        obj_starts = np.cumsum([0] + [n for n, _ in keys])
        plan = harness._Buckets(images, split, slots, rows, targets, starts, size)

        position = 0  # the plan position of a call's first image
        for k in range(-(-count // size)):
            step, seen = range(k * size, min((k + 1) * size, count)), []
            calls = plan.step(k)
            assert len({(n, m) for (b, n, m, o, r), _ in calls}) == len(calls)
            for (b, n, m, o, r), (objects, unions, pairs) in calls:
                assert b == sum(keys[q] == (n, m) for q in step)
                assert objects.labels.shape == (b, n) and unions.shape == (b, m, d_v)
                assert pairs.shape == (b, m, 2)
                for j in range(b):
                    q, i = plan.order[position + j], slots[plan.order[position + j]]
                    assert q in step and keys[q] == (n, m)
                    assert plan.row[q] == position + j - step[0]
                    lo, at = images.obj_start[i], rows[starts[q] : starts[q + 1]]
                    for got, want in zip(objects, images.objects(slice(lo, lo + n))):
                        assert np.array_equal(got[j], want)
                    assert np.array_equal(unions[j], images.unions[at])
                    assert np.array_equal(pairs[j] + lo, split.pairs[at])
                    rel = slice(r + j * m, r + (j + 1) * m)
                    assert np.array_equal(plan.targets[rel], targets[starts[q] : starts[q + 1]])
                    assert np.array_equal(plan.classes[rel], split.classes[split.pairs[at]])
                    assert np.array_equal(plan.rel_slot[rel],
                                          np.arange(starts[q], starts[q + 1]) - starts[step[0]])
                    assert np.array_equal(
                        plan.obj_slot[o + j * n : o + (j + 1) * n],
                        np.arange(obj_starts[q], obj_starts[q + 1]) - obj_starts[step[0]])
                    seen.append(q)
                position += b
            assert sorted(seen) == list(step)

    @pytest.mark.parametrize("task", MODES)
    def test_each_call_embeds_the_task_labels_and_the_object_loss_reads_the_annotated(
        self, space, task
    ):
        """Each call's objects carry their rows of ``split.classes`` as labels
        (the detector argmax in ``sgcls``), with every other field their own;
        the plan's ``record``, which the object loss reads, keeps the
        annotated labels."""
        rng = np.random.default_rng(3)
        images = Images.pack([make_image(rng, n, space.num_object_classes, 3)
                              for n in (3, 2, 4, 3, 2, 4)])
        split = harness._pack(images, harness._truth(images, space, 3), space, task)
        detector = images.scores.argmax(axis=1)
        assert (detector != images.labels).any()
        assert np.array_equal(split.classes, images.labels if task == "predcls" else detector)
        count = images.pair_start[-1]
        plan = harness._Buckets(images, split, np.arange(len(images)), np.arange(count),
                                np.zeros(count, dtype=np.int64), images.pair_start, 2)
        assert np.array_equal(plan.record.labels, images.labels[plan.objects])
        calls = 0
        for k in range(len(plan.slot_at) - 1):
            for (b, n, m, o, r), (objects, _, _) in plan.step(k):
                at = plan.objects[o : o + b * n]
                assert np.array_equal(objects.labels, split.classes[at].reshape(b, n))
                for name in ("boxes", "features", "scores"):
                    got = getattr(objects, name)
                    assert np.array_equal(got, getattr(images, name)[at].reshape(got.shape))
                calls += 1
        assert calls == len(plan.calls)


def test_an_unknown_task_is_refused_by_the_choices_rule(space):
    images = Images.pack([make_image(np.random.default_rng(0), 2, space.num_object_classes, 3)])
    with pytest.raises(ValueError, match="^task must be one of 'predcls', 'sgcls', not 'x'$"):
        class_labels(images, "x")


class TestTrain:
    @pytest.mark.parametrize(
        "kind, loss, bias, task",
        [
            ("linear", "ce", None, "predcls"),
            ("linear", "rtpb", "cb", "predcls"),
            ("linear", "rtpb", "pb", "sgcls"),
            ("dual_encoder", "rtpb", "pb", "sgcls"),
        ],
    )
    def test_block_losses_train_like_the_scalar_oracle(self, space, data, kind, loss, bias, task):
        train_images, _ = data
        config = replace(
            model_config(space, kind),
            task=task,
            loss=LossConfig(kind=loss),
            bias=None if bias is None else BiasSpec(kind=bias, a=1.0, epsilon=1e-3),
        )
        ck, log = train(config, train_images)
        ck_ref, log_ref = train(config, train_images, loss_fn=scalar_loss_fn(config, train_images))
        assert np.array_equal(flatten(ck.params), flatten(ck_ref.params))
        assert log.losses == log_ref.losses

    def test_deterministic_checkpoints(self, space, data):
        train_images, _ = data
        config = linear_config(space)
        ck1, log1 = train(config, train_images)
        ck2, log2 = train(config, train_images)
        assert np.array_equal(flatten(ck1.params), flatten(ck2.params))
        assert log1.losses == log2.losses

    def test_empty_dataset_rejected(self, space):
        with pytest.raises(ValueError, match="empty"):
            train(linear_config(space), Images.pack([]))

    def test_non_finite_loss_names_the_iteration(self, space, data):
        train_images, _ = data
        calls = []

        def loss_fn(z, y, s_classes, o_classes):
            calls.append(1)
            res = ce(z, y)
            value = np.full_like(res.value, np.nan) if len(calls) > 20 else res.value
            return LossOutput(value=value, grad_logits=res.grad_logits)

        with pytest.raises(FloatingPointError, match=r"^iteration \d+: non-finite loss$"):
            train(linear_config(space), train_images, loss_fn=loss_fn)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_gradient_names_the_iteration_and_leaf(self, space, data):
        train_images, _ = data

        def loss_fn(z, y, s_classes, o_classes):
            res = ce(z, y)
            return LossOutput(value=res.value, grad_logits=res.grad_logits * np.inf)

        with pytest.raises(
            FloatingPointError, match=r"^iteration 1: non-finite gradient of w$"
        ):
            train(linear_config(space), train_images, loss_fn=loss_fn)

    def test_single_step_matches_hand_gradient(self, space, data):
        train_images, _ = data
        config = linear_config(
            space,
            optimizer=OptimizerConfig(
                learning_rate=0.05, momentum=0.9, iterations=1, batch_size=1
            ),
        )
        ck, _ = train(config, train_images)

        # replay: same init, same batch, same sampled pairs
        from tailbias.harness import SAMPLE_DOMAIN, SHUFFLE_DOMAIN, _rng
        from tailbias.losses import ce as ce_loss

        d_v = train_images[0].features.shape[1]
        init_params = init_linear(ModelSpec(), space, d_v, _rng(13, 10))
        first = train_images[_rng(13, SHUFFLE_DOMAIN).permutation(len(train_images))[0]]
        positions, targets = oracle.training_pairs(first, config, _rng(13, SAMPLE_DOMAIN))
        pairs = all_ordered_pairs(len(first.labels))[positions]
        x = np.stack(
            [
                np.concatenate([first.unions[q], first.features[s], first.features[o]])
                for q, (s, o) in zip(positions, pairs)
            ]
        )
        logits = x @ init_params.w + init_params.b
        g_rows = np.stack([ce_loss(logits[q], y).grad_logits for q, y in enumerate(targets)])
        g_rows = g_rows / len(pairs)
        g_w = x.T @ g_rows
        g_b = g_rows.sum(axis=0)
        assert np.array_equal(ck.params.w, init_params.w - 0.05 * g_w)
        assert np.array_equal(ck.params.b, init_params.b - 0.05 * g_b)

    def test_incompatible_bias_rejected(self, space, data):
        train_images, _ = data
        config = linear_config(space)
        checkpoint, _ = train(config, train_images)
        bad = BiasVector(np.zeros(space.num_relations + 5))
        with pytest.raises(ValueError, match="incompatible"):
            evaluate(checkpoint, train_images, inference_bias=bad)

    def test_uniform_bias_neutrality(self, space, data):
        train_images, _ = data
        eps = 1e-3
        uniform = -math.log(1.0 / space.num_relations + eps)
        plain = linear_config(space)
        biased = linear_config(
            space,
            loss=LossConfig(kind="rtpb"),
            bias=BiasSpec(kind="cb", a=0.0, epsilon=eps, background=uniform),
        )
        _, log_plain = train(plain, train_images)
        _, log_biased = train(biased, train_images)
        diffs = np.abs(np.array(log_plain.losses) - np.array(log_biased.losses))
        assert diffs.max() < 1e-12

    def test_ldam_equals_indicator_biased_training(self, space, data):
        train_images, _ = data
        ldam_cfg = linear_config(space, loss=LossConfig(kind="ldam", margin_c=0.5))
        _, log_ldam = train(ldam_cfg, train_images)

        counts = oracle.class_counts(train_images, training_stats(train_images, space))

        def indicator_loss(z, y, s_classes, o_classes):
            b = np.zeros_like(z)
            b[np.arange(len(y)), y] = 0.5 / counts[y] ** 0.25
            return biased_ce(z, b, y)

        _, log_ind = train(ldam_cfg, train_images, loss_fn=indicator_loss)
        assert log_ldam.losses == log_ind.losses

    def test_runlog_config_round_trips(self, space, data):
        train_images, _ = data
        config = linear_config(space)
        _, log = train(config, train_images)
        assert from_dict(TrainConfig, log.config) == config

    def test_pair_bias_training_runs(self, space, data):
        train_images, _ = data
        config = linear_config(
            space,
            loss=LossConfig(kind="rtpb"),
            bias=BiasSpec(kind="pb", a=1.0, epsilon=1e-3),
            optimizer=OptimizerConfig(
                learning_rate=0.2, momentum=0.9, iterations=5, batch_size=4
            ),
        )
        _, log = train(config, train_images)
        assert len(log.losses) == 5
        assert all(np.isfinite(v) for v in log.losses)

    @pytest.mark.parametrize("kind", ["linear", "dual_encoder"])
    def test_loss_is_called_once_per_batch_on_all_its_rows(self, space, data, kind):
        # The per-image oracle calls the loss once per image; one call per
        # iteration must cover exactly the rows those calls covered.
        config = model_config(space, kind)
        rows, per_image_rows = [], []

        def counting(calls):
            def loss_fn(z, y, s_classes, o_classes):
                assert len(y) == len(s_classes) == len(o_classes) == len(z)
                calls.append(len(z))
                return ce(z, y)

            return loss_fn

        train(config, data[0], loss_fn=counting(rows))
        oracle.train(config, data[0], loss_fn=counting(per_image_rows))
        size = config.optimizer.batch_size
        assert len(rows) == config.optimizer.iterations
        assert rows == [
            sum(per_image_rows[i : i + size]) for i in range(0, len(per_image_rows), size)
        ]

    @pytest.mark.parametrize("w_obj", [0.0, 0.5])
    @pytest.mark.parametrize("kind", ["linear", "dual_encoder"])
    def test_a_batch_gradient_ignores_what_the_row_buffer_held(self, space, kind, w_obj):
        """Each backward overwrites its images' rows of ``grad.rows``, which
        are never zeroed: with the rows poisoned by NaN between batches, a
        batch gives the loss and gradient a fresh buffer gives. At
        ``background_ratio`` 0 image 1 has no ground truth and draws no pair,
        a bucket whose relation stack is skipped; images 0 and 3 share a
        bucket, and image 2 has two objects of one class."""
        rng = np.random.default_rng(4)
        gts = ([[0, 1, 1]], [], [[0, 1, 2], [2, 3, 1]], [[1, 2, 3]])
        records = [replace(make_image(rng, n, space.num_object_classes, 6),
                           gt=np.array(gt, dtype=np.int64).reshape(-1, 3))
                   for n, gt in zip((3, 3, 4, 3), gts)]
        records[2].labels[1] = records[2].labels[0]
        images = Images.pack(records)
        base = model_config(space, kind)
        config = replace(base, background_ratio=0.0,
                         model=replace(base.model, object_loss_weight=w_obj))
        net = model_for(config.model)
        split, loss_fn = harness._prepare(config, images)
        params = net.init(config.model, space, 6, rng)
        grad = harness._Gradient(params, 3)
        for batch in ([1, 0, 2], [0, 3, 2], [3, 1, 0]):
            plan = harness._Buckets(images, split, batch,
                                    *harness._draw(split, images.gt_start, batch, 0.0, rng), 3)
            fresh = harness._Gradient(params, 3)
            want = harness._batch_loss(config, net, params, fresh, loss_fn, plan, 0)
            grad.rows.fill(np.nan)
            grad.vec.fill(0.0)
            got = harness._batch_loss(config, net, params, grad, loss_fn, plan, 0)
            assert got == want
            assert np.isfinite(grad.vec).all() and grad.vec.any()
            assert np.array_equal(grad.vec, fresh.vec)

    @pytest.mark.parametrize("kind", ["linear", "dual_encoder"])
    def test_the_model_runs_once_per_bucket_of_a_batch(self, space, data, kind, monkeypatch):
        """Per iteration, each bucket's object stage and pair stage, then each
        bucket's pair backward and object backward, in bucket order: one call
        of each per bucket of images of one object count ``n`` drawing ``m``
        pairs, each key once."""
        config = replace(
            model_config(space, kind),
            optimizer=OptimizerConfig(learning_rate=0.01, iterations=5, batch_size=8),
        )
        net = model_for(config.model)
        calls = []

        def counted(name, fn, key=lambda args: None):
            def call(*args):
                calls.append((name, key(args)))
                return fn(*args)
            return call

        monkeypatch.setattr(harness, "model_for", lambda spec: net._replace(
            object_stage=counted("o", net.object_stage, lambda a: a[0].labels.shape),
            pair_stage=counted("p", net.pair_stage, lambda a: a[2].shape),
            pair_backward=counted("P", net.pair_backward),
            object_backward=counted("O", net.object_backward)))
        train(config, data[0])
        names = "".join(name for name, _ in calls)
        steps = names.replace("Oo", "O|o").split("|")
        assert len(steps) == config.optimizer.iterations
        at = 0
        for step in steps:
            buckets = step.count("o")
            assert step == "op" * buckets + "PO" * buckets
            keys = [(calls[at + 2 * i][1][-1], calls[at + 2 * i + 1][1][-2])
                    for i in range(buckets)]
            assert len(set(keys)) == len(keys)
            assert sum(calls[at + 2 * i][1][0] for i in range(buckets)) == \
                config.optimizer.batch_size
            assert buckets < config.optimizer.batch_size
            at += len(step)


def perfect_images(space):
    """Three image records whose union features encode the relation one-hot."""
    num = space.num_relations + 1
    images = []
    for i in range(3):
        gt = [(0, 1, (i % space.num_relations) + 1), (1, 2, ((i + 1) % space.num_relations) + 1)]
        relation = np.zeros(3 * 2, dtype=np.int64)  # per ordered pair
        for s, o, r in gt:
            relation[s * 2 + o - (o > s)] = r
        labels = np.arange(3) % space.num_object_classes
        images.append(
            SynthImage(
                boxes=np.tile([0.1, 0.1, 0.4, 0.4], (3, 1)),
                features=np.zeros((3, num)),
                labels=labels,
                scores=np.eye(space.num_object_classes)[labels],
                unions=np.eye(num)[relation],
                gt=np.array(gt),
            )
        )
    return images


def perfect_split(space):
    return Images.pack(perfect_images(space))


def perfect_checkpoint(space):
    num = space.num_relations + 1
    w = np.zeros((3 * num, num))
    w[:num, :num] = 20.0 * np.eye(num)
    params = LinearParams(w=w, b=np.zeros(num))
    config = TrainConfig(
        label_space=space,
        task="predcls",
        model=ModelSpec(kind="linear"),
        loss=LossConfig(kind="ce"),
        optimizer=OptimizerConfig(iterations=1),
        seed=0,
        eval_ks=(10, 50),
    )
    return Checkpoint(config=config, iterations=1, params=params)


FAULTS = ["unions", "object-probs", "parameter"]


def inject(fault, images, checkpoint, faulty):
    """Put ``fault`` into the images ``faulty`` of a packed split (after
    packing, which refuses a non-finite row) or into the checkpoint; return
    the refusal evaluation must raise, or None when the task reads no faulty
    value. A NaN union row gives non-finite relation logits. The linear
    model's object probabilities are the detector scores; the dual encoder's
    overflow at every image when ``w_clf_obj`` is 1e308, so image 0 is named;
    predcls reads neither. A NaN parameter is named as ``save_checkpoint``
    names it."""
    kind, task = checkpoint.config.model.kind, checkpoint.config.task
    if fault == "unions":
        images.unions[images.pair_start[faulty] + 1] = np.nan
        return f"image {min(faulty)}: non-finite relation logits"
    if fault == "parameter":
        leaf = "w" if kind == "linear" else "w_clf_rel"
        getattr(checkpoint.params, leaf)[0, 0] = np.nan
        return f"checkpoint parameter {leaf} is not finite"
    if kind == "linear":
        images.scores[images.obj_start[faulty]] = np.nan
        first = min(faulty)
    else:
        checkpoint.params.w_clf_obj[...] = 1e308
        first = 0
    return f"image {first}: non-finite object probabilities" if task == "sgcls" else None


def one_object_image(space):
    num = space.num_relations + 1
    return SynthImage(
        boxes=np.array([[0.1, 0.1, 0.4, 0.4]]), features=np.zeros((1, num)), labels=np.array([0]),
        scores=np.eye(space.num_object_classes)[[0]], unions=np.zeros((0, num)), gt=NO_GT,
    )


def with_labels(img, labels):
    return replace(img, labels=np.array(labels))


def with_gt(img, *triplets):
    return replace(img, gt=np.array(triplets, dtype=np.int64).reshape(-1, 3))


def images_with_unfit_image_5(space):
    """``perfect_images`` twice, image 5 given a ground-truth relation
    outside the label space."""
    images = perfect_images(space) * 2
    images[5] = with_gt(images[5], (0, 1, 9))
    return images


def images_with_unfit_image_4(space, corrupt):
    """``images_with_unfit_image_5`` with image 4 corrupted."""
    images = images_with_unfit_image_5(space)
    images[4] = corrupt(images[4], space)
    return images


def assert_training_refuses(space, images, want):
    """Packing the records ``images`` and training on them refuses with
    ``want`` before the first loss call."""
    calls = []

    def loss_fn(z, y, s_classes, o_classes):
        calls.append(1)
        return ce(z, y)

    for task in ("predcls", "sgcls"):
        with pytest.raises(ValueError, match=want):
            train(linear_config(space, task=task), Images.pack(images), loss_fn=loss_fn)
    assert calls == []


class TestTrainingImages:
    """Every training image is checked once, before the first iteration (its
    triplets' object indices when the split is packed), and the first unfit
    one is named by its index in the split. Statistics check only the
    annotations they count."""

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda img, sp: with_gt(img, (7, 0, 1)),
             "ground-truth triplet (7, 0, 1) has an object index outside 0..2"),
            (lambda img, sp: with_gt(img, (-1, 0, 1)),
             "ground-truth triplet (-1, 0, 1) has an object index outside 0..2"),
            (lambda img, sp: with_gt(img, (0, 1, 1), (1, 2, 9)),
             "ground-truth triplet (1, 2, 9) has a relation outside 1..8"),
            (lambda img, sp: with_gt(img, (1, 0, 0)),
             "ground-truth triplet (1, 0, 0) has a relation outside 1..8"),
            (lambda img, sp: with_gt(img, (2, 2, 1)),
             "ground-truth triplet (2, 2, 1) has the same subject and object"),
            (lambda img, sp: with_labels(img, [0, 1, 6]), "object class label outside 0..5"),
            (lambda img, sp: with_labels(img, [-1, 1, 2]), "object class label outside 0..5"),
        ],
        ids=["object-index", "negative-index", "relation", "relation-zero", "self-pair",
             "label-high", "label-low"],
    )
    def test_first_unfit_image_is_named_before_training(self, space, corrupt, message):
        images = images_with_unfit_image_4(space, corrupt)
        want = f"^image 4: {re.escape(message)}$"
        assert_training_refuses(space, images, want)
        with pytest.raises(ValueError, match=want):
            training_stats(Images.pack(images), space)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda images, sp: images[:4] + [one_object_image(sp)] + images[5:],
             "image 4: no pairs: need at least two objects"),
            (lambda images, sp: [replace(img, scores=np.full((3, 3), 1 / 3)) for img in images],
             "image 0: detector scores over 3 classes; the label space has 6"),
        ],
        ids=["one-object", "score-width"],
    )
    def test_statistics_pass_an_image_only_training_refuses(self, space, corrupt, message):
        """Training runs at its split's own feature width, and packing the
        split refuses an image whose width differs from image 0's."""
        images = corrupt(images_with_unfit_image_5(space), space)
        assert_training_refuses(space, images, f"^{re.escape(message)}$")
        with pytest.raises(ValueError, match=r"^image 5: ground-truth triplet \(0, 1, 9\)"):
            training_stats(Images.pack(images), space)

    @pytest.mark.parametrize("kind", ["linear", "dual_encoder"])
    def test_a_batch_that_draws_no_pair_names_the_iteration(self, space, kind):
        """With background_ratio 0, an image without ground truth draws no
        pairs: it still trains the object head, and a batch of such images
        only is refused."""
        annotated = perfect_images(space)
        bare = [replace(img, gt=NO_GT) for img in annotated]
        config = replace(model_config(space, kind), background_ratio=0.0)
        config = replace(config, optimizer=replace(config.optimizer, iterations=3, batch_size=2))
        checkpoint, log = train(config, Images.pack(annotated + bare[:1]))
        assert len(log.losses) == 3 and np.isfinite(flatten(checkpoint.params)).all()
        with pytest.raises(ValueError, match=r"^iteration 1: the batch draws no pairs \("):
            train(config, Images.pack(bare[:2]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), counts=st.lists(st.integers(2, 7), min_size=1,
                                                            max_size=8))
    def test_packed_pairs_are_each_images_ordered_pairs(self, space, seed, counts):
        """``_pack`` derives every ordered pair of the split in closed form."""
        rng = np.random.default_rng(seed)
        images = Images.pack([make_image(rng, n, space.num_object_classes, 3) for n in counts])
        split = harness._pack(images, np.zeros(0, dtype=np.int64), space, "predcls")
        want = np.concatenate([all_ordered_pairs(n) + images.obj_start[i]
                               for i, n in enumerate(counts)])
        assert split.pairs.dtype == want.dtype and np.array_equal(split.pairs, want)

    def test_a_valid_split_packs_like_the_per_image_statistics(self, space, data):
        train_images, _ = data
        got, want = training_stats(train_images, space), oracle.training_stats(train_images, space)
        assert got.label_space == want.label_space
        assert np.array_equal(got.dense, want.dense)


class TestEvaluate:
    def test_perfect_oracle_scores_one(self, space):
        ck = perfect_checkpoint(space)
        results = evaluate(ck, perfect_split(space))
        for constraint in ("with", "without"):
            assert results[constraint].recall_at[50] == 1.0
            assert results[constraint].mean_recall_at[50] == 1.0

    def test_constant_bias_leaves_metrics_unchanged(self, space, data):
        train_images, test_images = data
        ck, _ = train(linear_config(space), train_images)
        base = evaluate(ck, test_images)
        shifted = evaluate(
            ck,
            test_images,
            inference_bias=BiasVector(np.full(space.num_relations + 1, 2.5)),
        )
        for constraint in ("with", "without"):
            assert base[constraint].recall_at == shifted[constraint].recall_at
            assert base[constraint].mean_recall_at == shifted[constraint].mean_recall_at

    def test_evaluate_twice_identical_csv(self, space, data):
        train_images, test_images = data
        ck, _ = train(linear_config(space), train_images)
        a = metrics_csv("predcls", evaluate(ck, test_images), [5, 10, 20])
        b = metrics_csv("predcls", evaluate(ck, test_images), [5, 10, 20])
        assert a == b

    def test_sgcls_recalls_only_triplets_whose_labels_are_right(self, space):
        # At detector sharpness 1 many detector labels are wrong.
        cfg = SynthConfig(
            label_space=space, num_train=0, num_val=0, num_test=40, zipf_s=1.3,
            objects_min=3, objects_max=4, d_v=8, detector_sharpness=1.0, seed=21,
        )
        images = generate_split(cfg, "test")
        params = init_linear(ModelSpec(), space, 8, np.random.default_rng(0))
        ck = Checkpoint(linear_config(space, task="sgcls"), iterations=0, params=params)
        # k covers every candidate of a 4-object image, so without the graph
        # constraint exactly the label-matched triplets are recalled.
        k = 4 * 3 * space.num_relations
        matched = []
        for img in images:
            # the linear model's object probabilities are the detector scores
            right = img.scores.argmax(axis=1) == img.labels
            if len(img.gt):
                matched.append(np.mean([right[s] and right[o] for s, o, _ in img.gt]))
        assert np.mean(matched) < 0.8
        recall = evaluate(ck, images, ks=[k])["without"].recall_at[k]
        assert recall == pytest.approx(np.mean(matched), abs=1e-12)

    def test_a_k_beyond_int64_is_refused_where_it_would_recall_dropped_triplets(self, space):
        # A triplet with a wrong predicted label ranks at the int64 maximum
        # (metrics.MISS), which a larger k would count as recalled; the
        # largest int64 k recalls what any k covering every candidate does.
        cfg = SynthConfig(
            label_space=space, num_train=0, num_val=0, num_test=20, zipf_s=1.3,
            objects_min=3, objects_max=4, d_v=8, detector_sharpness=1.0, seed=21,
        )
        images = generate_split(cfg, "test")
        params = init_linear(ModelSpec(), space, 8, np.random.default_rng(0))
        ck = Checkpoint(linear_config(space, task="sgcls"), iterations=0, params=params)
        top = np.iinfo(np.int64).max
        covering, largest = evaluate(ck, images, ks=[1000]), evaluate(ck, images, ks=[top])
        for constraint in ("with", "without"):
            assert covering[constraint].recall_at[1000] < 1.0
            assert largest[constraint].recall_at[top] == covering[constraint].recall_at[1000]
            assert (largest[constraint].mean_recall_at[top]
                    == covering[constraint].mean_recall_at[1000])
        stats = ingest([(0, 1, 1), (1, 2, 2)], space)
        spec = BiasSpec(kind="cb", a=1.0, epsilon=1e-3)
        for ks in ([top + 1], [5, 2**64], [5.0]):
            with pytest.raises(ValueError, match="^ks must be a list of 64-bit integers$"):
                evaluate(ck, images, ks=ks)
            with pytest.raises(ValueError, match="^ks must be a list of 64-bit integers$"):
                sweep(ck, stats, spec, [0.0], images, ks=ks)

    def test_sgcls_bias_rows_follow_the_predicted_labels(self, space, data):
        # An untrained dual encoder's object head often disagrees with the
        # detector. Inference-bias rows are gathered by the head's argmax,
        # the labels that score and match the triplets.
        _, test_images = data
        config = replace(model_config(space, "dual_encoder"), task="sgcls")
        params = init_dual_encoder(config.model, space, 8, np.random.default_rng(4))
        ck = Checkpoint(config, iterations=0, params=params)
        scored = _forward_split(ck, test_images)
        differing = 0
        for i, img in enumerate(test_images):
            pairs = all_ordered_pairs(len(img.labels))
            out = forward(task_view(img, "sgcls"), img.unions, pairs, params, config.model)
            predicted = out.object_probs.argmax(axis=1)
            rows = slice(scored.pair_start[i], scored.pair_start[i + 1])
            assert np.array_equal(scored.pair_classes[rows, 0], predicted[pairs[:, 0]])
            assert np.array_equal(scored.pair_classes[rows, 1], predicted[pairs[:, 1]])
            differing += (predicted != class_labels(img, "sgcls")).any()
        assert scored.pair_start[-1] == len(scored.pair_classes)
        assert differing > 0

    @example(seed=0, kind="dual_encoder", task="sgcls",
             buckets={2: FORWARD_CHUNK + 1, 7: FORWARD_CHUNK, 5: 1})
    @example(seed=1, kind="linear", task="predcls",
             buckets={6: FORWARD_CHUNK + 1, 3: 1, 4: FORWARD_CHUNK})
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["linear", "dual_encoder"]),
        task=st.sampled_from(MODES),
        buckets=st.dictionaries(
            st.integers(2, 7), st.sampled_from([1, FORWARD_CHUNK, FORWARD_CHUNK + 1]),
            min_size=1, max_size=3,
        ),
    )
    def test_bucketed_forward_equals_the_per_image_forward(self, seed, kind, task, buckets):
        """Images of each object count in ``buckets``, in a seeded order; every
        forward output the split's scoring reads is bit-identical to one
        forward per image. Nine relation columns: a product folded into one
        tall 2-D product rounds differently at that width on OpenBLAS."""
        space = LabelSpace(num_object_classes=5, num_relations=8)
        rng = np.random.default_rng(seed)
        counts = rng.permutation([n for n, size in buckets.items() for _ in range(size)])
        records = [make_image(rng, n, space.num_object_classes, 6) for n in counts.tolist()]
        config = replace(model_config(space, kind), task=task)
        net = model_for(config.model)
        params = net.init(config.model, space, 6, rng)
        scored = _forward_split(Checkpoint(config, 0, params), Images.pack(records))

        logits, probs, pairs, start = [], [], [], 0
        for img in records:
            local = all_ordered_pairs(len(img.labels))
            out = forward(task_view(img, task), img.unions, local, params, config.model)
            logits.append(out.relation_logits)
            probs.append(out.object_probs)
            pairs.append(local + start)
            start += len(img.labels)
        probs, pairs = np.concatenate(probs), np.concatenate(pairs)
        labels = np.concatenate([img.labels for img in records])
        classes = probs.argmax(axis=1) if task == "sgcls" else labels
        assert np.array_equal(scored.relation_logits, np.concatenate(logits))
        assert np.array_equal(scored.pair_classes, classes[pairs])
        if task == "predcls":
            assert scored.pair_scores is None
        else:
            assert np.array_equal(scored.pair_scores, object_pair_scores(probs, pairs))

    def test_a_bucket_encodes_its_objects_once_and_its_pairs_in_chunks(self, monkeypatch):
        """Twenty 4-object images are one bucket of m = 12 pairs each. An
        object slice holds up to ``FORWARD_CHUNK * m // n`` = 48 images, so
        ``evaluate`` runs the object stage once, on all 20, and the pair
        stage on 16 and then 4 of them; what it ranks equals one forward
        per image."""
        space = LabelSpace(num_object_classes=5, num_relations=8)
        rng = np.random.default_rng(6)
        records = [replace(make_image(rng, 4, space.num_object_classes, 6),
                           gt=np.array([[0, 1, 1 + i % 8]])) for i in range(20)]
        config = replace(model_config(space, "dual_encoder"), task="sgcls")
        params = init_dual_encoder(config.model, space, 6, rng)
        calls, scored = [], []
        for name in ("embed_objects", "fuse_pairs"):
            stage = getattr(model, name)

            def counted(first, *rest, stage=stage, name=name):
                calls.append((name, len(first.labels if name == "embed_objects" else first)))
                return stage(first, *rest)

            monkeypatch.setattr(model, name, counted)
        rank_split = harness._rank_split
        monkeypatch.setattr(harness, "_rank_split",
                            lambda config, got, *rest: scored.append(got) or rank_split(
                                config, got, *rest))
        evaluate(Checkpoint(config, 0, params), Images.pack(records))
        assert calls == [("embed_objects", 20), ("fuse_pairs", 16), ("fuse_pairs", 4)]
        monkeypatch.undo()

        pairs = all_ordered_pairs(4)
        outs = [forward(task_view(img, "sgcls"), img.unions, pairs, params, config.model)
                for img in records]
        probs = np.concatenate([out.object_probs for out in outs])
        every = np.concatenate([pairs + 4 * i for i in range(20)])
        assert np.array_equal(scored[0].relation_logits,
                              np.concatenate([out.relation_logits for out in outs]))
        assert np.array_equal(scored[0].pair_scores, object_pair_scores(probs, every))
        assert np.array_equal(scored[0].pair_classes, probs.argmax(axis=1)[every])

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("task", ["predcls", "sgcls"])
    @pytest.mark.parametrize("kind", ["linear", "dual_encoder"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_a_failed_bucket_names_the_first_faulty_image(self, kind, task, fault):
        """Image 3 sits in a bucket of 4-object images and image 4 in the
        bucket of 3-object images, which is forwarded first; both are given
        ``fault``, and image 3 is named, in evaluation and in the sweep."""
        space = LabelSpace(num_object_classes=5, num_relations=4)
        rng = np.random.default_rng(5)
        records = [make_image(rng, n, space.num_object_classes, 6) for n in [4, 4, 3, 4, 3, 4]]
        images = Images.pack(records)
        config = replace(model_config(space, kind), task=task)
        ck = Checkpoint(config, 0, model_for(config.model).init(config.model, space, 6, rng))
        message = inject(fault, images, ck, [3, 4])
        stats = training_stats(images, space)
        if message is None:
            evaluate(ck, images)
            return
        want = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=want):
            evaluate(ck, images)
        with pytest.raises(ValueError, match=want):
            sweep(ck, stats, BiasSpec(kind="cb", epsilon=1e-3), [0.0], images)

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("task", ["predcls", "sgcls"])
    @pytest.mark.parametrize("kind", ["linear", "dual_encoder"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_a_one_image_split_names_its_faulty_image(self, kind, task, fault):
        """A split of one image, given ``fault``: its one call's outputs name it."""
        space = LabelSpace(num_object_classes=5, num_relations=4)
        rng = np.random.default_rng(6)
        images = Images.pack([make_image(rng, 3, space.num_object_classes, 6)])
        config = replace(model_config(space, kind), task=task)
        ck = Checkpoint(config, 0, model_for(config.model).init(config.model, space, 6, rng))
        message = inject(fault, images, ck, [0])
        if message is None:
            evaluate(ck, images)
            return
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(ck, images)

    def test_empty_split_rejected(self, space, data):
        train_images, _ = data
        ck, _ = train(linear_config(space), train_images)
        with pytest.raises(ValueError, match="empty"):
            evaluate(ck, Images.pack([]))


    @pytest.mark.parametrize(
        "triplet, why",
        [
            ((0, 3, 1), "object index outside 0..2"),
            ((-1, 1, 1), "object index outside 0..2"),
            ((1, 1, 1), "same subject and object"),
            ((0, 1, 0), "relation outside 1..8"),
            ((0, 1, 9), "relation outside 1..8"),
        ],
    )
    def test_invalid_ground_truth_names_the_image(self, space, triplet, why):
        images = perfect_images(space)
        images[1] = with_gt(images[1], (0, 1, 1), triplet)
        ck = perfect_checkpoint(space)
        # Packing refuses an object index; evaluation and the sweep a relation.
        with pytest.raises(ValueError, match=f"image 1: .*{why}"):
            evaluate(ck, Images.pack(images))
        with pytest.raises(ValueError, match=f"image 1: .*{why}"):
            split = Images.pack(images)
            stats = training_stats(split[:1], space)
            sweep(ck, stats, BiasSpec(kind="cb", epsilon=1e-3), [0.0], split)

    def test_object_class_outside_label_space_names_the_image(self, space, data):
        images = perfect_images(space)
        labels = images[1].labels.copy()
        labels[2] = space.num_object_classes
        images[1] = replace(images[1], labels=labels)
        with pytest.raises(ValueError, match="image 1: object class label outside 0..5"):
            evaluate(perfect_checkpoint(space), Images.pack(images))
        # Training checks every object of every image, annotated or not,
        # before the first iteration.
        train_images = list(data[0])
        changed = []
        for i, img in enumerate(train_images):
            annotated = set(img.gt[:, :2].ravel().tolist())
            free = [j for j in range(len(img.labels)) if j not in annotated]
            if free:
                labels = img.labels.copy()
                labels[free[0]] = -1
                train_images[i] = replace(img, labels=labels)
                changed.append(i)
        message = rf"^image {changed[0]}: object class label outside 0\.\.5$"
        with pytest.raises(ValueError, match=message):
            train(linear_config(space), Images.pack(train_images))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda images, sp: images[:4] + [one_object_image(sp)] * 2,
             "image 4: no pairs: need at least two objects"),
            (lambda images, sp: [replace(img, scores=np.full((3, 3), 1 / 3)) for img in images],
             "image 0: detector scores over 3 classes; the label space has 6"),
            (lambda images, sp: [
                replace(img, features=np.zeros((3, 2)), unions=np.zeros((6, 2))) for img in images
            ], "image 0: 2 feature columns; the checkpoint has 9"),
        ],
        ids=["one-object", "score-width", "feature-width"],
    )
    def test_evaluation_checks_what_training_checks(self, space, corrupt, message):
        """Both tasks and the sweep refuse, before any forward, an image the
        model cannot run on; the predcls linear head never reads scores.
        Widths are the split's, so a wrong one names image 0."""
        images = Images.pack(corrupt(perfect_images(space) * 2, space))
        for task in ("predcls", "sgcls"):
            ck = perfect_checkpoint(space)
            ck = replace(ck, config=replace(ck.config, task=task))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                evaluate(ck, images)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                stats = training_stats(images[:1], space)
                sweep(ck, stats, BiasSpec(kind="cb", epsilon=1e-3), [0.0], images)

    def test_non_finite_logits_name_the_image(self, space):
        images = Images.pack(perfect_images(space))
        images.unions[images.pair_start[2] + 2] = np.nan  # pair (1, 0), after the packing check
        with pytest.raises(ValueError, match="image 2: non-finite relation logits"):
            evaluate(perfect_checkpoint(space), images)


class TestSweep:
    def test_grid_zero_equals_plain_evaluate(self, space, data):
        train_images, test_images = data
        spec = BiasSpec(kind="cb", a=1.0, epsilon=1e-3)
        config = linear_config(space, loss=LossConfig(kind="rtpb"), bias=spec)
        ck, _ = train(config, train_images)
        stats = training_stats(train_images, space)
        rows = sweep(ck, stats, spec, [0.0], test_images)
        assert len(rows) == 1
        plain = evaluate(ck, test_images)
        for constraint in ("with", "without"):
            assert rows[0][1][constraint].recall_at == pytest.approx(
                plain[constraint].recall_at, abs=1e-12
            )
            assert rows[0][1][constraint].mean_recall_at == pytest.approx(
                plain[constraint].mean_recall_at, abs=1e-12
            )

    def test_grid_length(self, space, data):
        train_images, test_images = data
        spec = BiasSpec(kind="cb", a=1.0, epsilon=1e-3)
        config = linear_config(space, loss=LossConfig(kind="rtpb"), bias=spec)
        ck, _ = train(config, train_images)
        stats = training_stats(train_images, space)
        grid = [0.0, 0.5, 1.0]
        rows = sweep(ck, stats, spec, grid, test_images)
        assert [a for a, _ in rows] == grid
        csv = sweep_csv(rows, [5, 10, 20])
        assert csv.startswith("a_e,constraint,k,R,mR\n")
        assert len(csv.strip().split("\n")) == 1 + len(grid) * 2 * 3

    def test_exponent_above_a_rejected(self, space, data):
        train_images, test_images = data
        spec = BiasSpec(kind="cb", a=1.0, epsilon=1e-3)
        config = linear_config(space, loss=LossConfig(kind="rtpb"), bias=spec)
        ck, _ = train(config, train_images)
        stats = training_stats(train_images, space)
        with pytest.raises(ValueError):
            sweep(ck, stats, spec, [1.5], test_images)

    @pytest.mark.parametrize("epsilon, grid, message", [
        (1e-3, [-0.5], "a_eval -0.5 must lie in [0, a], a = 1.0"),
        (1e-3, [0.0, float("nan")], "a_eval nan must lie in [0, a], a = 1.0"),
        (1e-3, [0.5, 1.5], "a_eval 1.5 must lie in [0, a], a = 1.0"),
        (0.0, [0.0, 0.5], "a_eval 0.5: bias vector has non-finite entries; raise epsilon or "
         "drop zero-weight relations"),
    ], ids=["negative", "nan", "above-a", "zero-weight-relation"])
    def test_a_bad_grid_point_is_refused_before_any_forward(
        self, space, data, monkeypatch, epsilon, grid, message
    ):
        """Each point is checked by :class:`BiasSpec`, naming the value and
        ``a``, and its bias built, before the split is forwarded; statistics
        without relations 3..8 give a zero-weight relation an infinite bias at
        ``epsilon`` 0 once ``a_eval`` > 0, and the refusal names the point."""
        train_images, test_images = data
        spec = BiasSpec(kind="cb", a=1.0, epsilon=epsilon)
        ck, _ = train(linear_config(space), train_images)
        stats = ingest([(0, 1, 1), (1, 2, 2)], space)
        forwards = []
        monkeypatch.setattr(harness, "_forward_split", lambda *args: forwards.append(args))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(ck, stats, spec, grid, test_images)
        assert forwards == []

    @pytest.mark.parametrize("kind", ["pb", "cb"])
    @pytest.mark.parametrize("classes, relations", [(3, 8), (6, 5)])
    def test_statistics_of_another_label_space_are_refused_before_any_forward(
        self, space, data, monkeypatch, kind, classes, relations
    ):
        """The statistics' numbers of object classes and relations must be the
        checkpoint's; the refusal names both before the split is forwarded."""
        train_images, test_images = data
        ck, _ = train(linear_config(space), train_images)
        stats = ingest([(0, 1, 1), (1, 2, 2)], LabelSpace(classes, relations))
        forwards = []
        monkeypatch.setattr(harness, "_forward_split", lambda *args: forwards.append(args))
        message = (f"statistics over {classes} object classes and {relations} relations; "
                   "the checkpoint has 6 and 8")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(ck, stats, BiasSpec(kind=kind, a=1.0, epsilon=1e-3), [0.0, 1.0], test_images)
        assert forwards == []

    def test_statistics_are_matched_by_size_not_by_name(self, space, data):
        train_images, test_images = data
        ck, _ = train(linear_config(space), train_images)
        stats = training_stats(train_images, space)
        renamed = replace(space, object_names=tuple("abcdef"),
                          relation_names=tuple(f"r{i}" for i in range(8)))
        spec = BiasSpec(kind="pb", a=1.0, epsilon=1e-3)
        a, b = (sweep_csv(sweep(ck, s, spec, [0.5], test_images), [5])
                for s in (stats, TripletStats(renamed, stats.dense)))
        assert a == b


class TestCheckpointIo:
    @pytest.mark.parametrize("kind", ["linear", "dual_encoder"])
    def test_round_trip(self, space, data, tmp_path, kind):
        train_images, test_images = data
        ck, _ = train(model_config(space, kind), train_images)
        path = tmp_path / "ck.json"
        save_checkpoint(ck, str(path))
        again = load_checkpoint(str(path))
        assert np.array_equal(flatten(again.params), flatten(ck.params))
        assert again.config == ck.config
        a = evaluate(ck, test_images)
        b = evaluate(again, test_images)
        for constraint in a:
            assert a[constraint].recall_at == b[constraint].recall_at
            assert a[constraint].mean_recall_at == b[constraint].mean_recall_at

    @pytest.mark.parametrize("kind", ["linear", "dual_encoder"])
    def test_mismatched_shape_names_the_leaf(self, space, data, tmp_path, kind):
        train_images, _ = data
        ck, _ = train(model_config(space, kind), train_images)
        path = tmp_path / "ck.json"
        save_checkpoint(ck, str(path))
        doc = json.loads(path.read_text())
        rows, cols = doc["param_shapes"][0]
        assert rows != cols
        doc["param_shapes"][0] = [cols, rows]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="parameter 0 has shape"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: d["param_data"].__setitem__(3, None),
             "checkpoint parameter w is not a finite number"),
            (lambda d: d["param_data"].__setitem__(-1, "NaN"),
             "checkpoint parameter b is not a finite number"),
            (lambda d: d.__setitem__("param_shapes", [5, 6]), "parameter 0 has shape 5"),
            (lambda d: d.__setitem__("param_data", {"w": d["param_data"]}),
             "dict where a list of numbers belongs"),
            (lambda d: d["param_data"].__setitem__(0, "abc"),
             "checkpoint parameter w is not a finite number"),
            (lambda d: d["param_data"].__setitem__(0, [1.0, 2.0]),
             "checkpoint parameter w is not a finite number"),
            (lambda d: d["param_data"].pop(), "fit no feature width"),
            (lambda d: d["param_shapes"].pop(), "parameter 1 has shape None"),
            (lambda d: d.pop("param_data"), "missing key 'param_data'"),
            (lambda d: d["config"].__setitem__("bias", {"kind": "cb", "epsilonn": 0.5}),
             "unknown key 'epsilonn' in bias spec"),
            (lambda d: d["param_data"].__setitem__(0, 10**400),
             "checkpoint parameter w is not a finite number"),
            (lambda d: d["param_data"].__setitem__(0, "0.5"),
             "checkpoint parameter w is not a finite number"),
            (lambda d: d["param_data"].__setitem__(-1, True),
             "checkpoint parameter b is not a finite number"),
            *[(lambda d, v=v: d.__setitem__("iterations", v),
               "checkpoint key 'iterations' must be a 64-bit integer >= 1")
              for v in (1.7, math.inf, True, -5, 0, 2**63, "40", None)],
        ],
        ids=[
            "null-value", "nan-string", "flat-shapes", "dict-data", "string-value",
            "nested-value", "truncated-data", "missing-shape", "missing-data", "bad-config",
            "huge-int-value", "numeric-string-value", "bool-value",
            *(f"iterations-{name}" for name in (
                "float", "inf", "bool", "negative", "zero", "huge", "string", "null")),
        ],
    )
    def test_malformed_file_is_rejected_naming_it(
        self, space, data, tmp_path, corrupt, message
    ):
        ck, _ = train(linear_config(space), data[0])
        path = tmp_path / "ck.json"
        save_checkpoint(ck, str(path))
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw[:-1], "Expecting ',' delimiter"),
            (lambda raw: b"[" * 100_000, "checkpoint nests too deeply to read"),
            (lambda raw: b"\xff" + raw, "'utf-8' codec can't decode byte 0xff in position 0"),
        ],
        ids=["syntax", "deep", "bad-byte"],
    )
    def test_an_unreadable_file_is_rejected_naming_it(
        self, space, data, tmp_path, edit, message
    ):
        ck, _ = train(linear_config(space), data[0])
        path = tmp_path / "ck.json"
        save_checkpoint(ck, str(path))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("kind", ["linear", "dual_encoder"])
    def test_trees_are_views_of_one_buffer(self, space, data, tmp_path, kind):
        ck, _ = train(model_config(space, kind), data[0])
        path = tmp_path / "ck.json"
        save_checkpoint(ck, str(path))
        for params in (ck.params, load_checkpoint(str(path)).params):
            arrays = leaves(params)
            buffer = arrays[0].base
            assert buffer.ndim == 1 and buffer.size == sum(a.size for a in arrays)
            assert all(a.base is buffer for a in arrays)
            assert np.array_equal(buffer, flatten(params))

    def test_non_finite_parameter_is_refused(self, space, data, tmp_path):
        train_images, _ = data
        ck, _ = train(linear_config(space), train_images)
        ck.params.b[2] = np.inf
        path = tmp_path / "ck.json"
        with pytest.raises(ValueError, match="parameter b is not finite"):
            save_checkpoint(ck, str(path))
        assert not path.exists()

    @pytest.mark.parametrize(
        "kind, bias, task, digest",
        [
            ("linear", "cb", "predcls",
             "7594018ad77086999a7529bcdf86ae0569ff3536d5c3ed019d0a18fc694cc24f"),
            ("dual_encoder", "pb", "sgcls",
             "454dd234f6cd145f34310c745e15aee3038cb1d4123dda807109f58a32f71f24"),
        ],
    )
    def test_checkpoint_bytes_are_pinned(self, space, data, tmp_path, kind, bias, task, digest):
        # sha256 of checkpoint.json as written before parameter trees became
        # views of one flat buffer; the buffer-backed optimiser must reproduce it.
        config = replace(
            model_config(space, kind),
            task=task,
            loss=LossConfig(kind="rtpb"),
            bias=BiasSpec(kind=bias, a=1.0, epsilon=1e-3),
        )
        ck, _ = train(config, data[0])
        path = tmp_path / "checkpoint.json"
        save_checkpoint(ck, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind", ["linear", "dual_encoder"])
    def test_save_writes_what_json_dump_writes(self, space, data, tmp_path, kind):
        # save_checkpoint encodes with json.dumps (the C encoder); json.dump
        # into a file runs the pure-Python encoder, which wrote checkpoints before.
        config = replace(model_config(space, kind), task="sgcls", loss=LossConfig(kind="rtpb"),
                         bias=BiasSpec(kind="pb", a=1.0, epsilon=1e-3))
        ck, _ = train(config, data[0])
        path, dumped = tmp_path / "checkpoint.json", tmp_path / "dumped.json"
        save_checkpoint(ck, str(path))
        doc = {"config": asdict(ck.config), "iterations": ck.iterations,
               "param_shapes": [list(a.shape) for a in leaves(ck.params)],
               "param_data": flatten(ck.params).tolist()}
        with open(dumped, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert path.read_bytes() == dumped.read_bytes()

    @pytest.mark.parametrize("d_v", [1, 37, 38, 75, 76], ids=lambda d_v: f"d_v={d_v}")
    def test_the_chunks_join_to_json_dumps_of_the_document(self, space, d_v):
        # 9 * (3 * d_v + 1) parameters: 36, then either side of 1024 and of 2048.
        params = init_linear(ModelSpec(), space, d_v, np.random.default_rng(d_v))
        ck = Checkpoint(linear_config(space), iterations=4, params=params)
        doc = {"config": asdict(ck.config), "iterations": 4,
               "param_shapes": [list(a.shape) for a in leaves(params)],
               "param_data": flatten(params).tolist()}
        assert "".join(harness.checkpoint_to_json(ck)) == json.dumps(doc)

    def test_save_is_byte_stable(self, space, data, tmp_path):
        train_images, _ = data
        ck, _ = train(linear_config(space), train_images)
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        save_checkpoint(ck, str(p1))
        save_checkpoint(ck, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def test_make_loss_fn_requires_bias_for_rtpb(space):
    config = linear_config(space)
    config = from_dict(TrainConfig, {**asdict(config), "loss": {"kind": "ce"}})
    with pytest.raises(ValueError):
        make_loss_fn(
            from_dict(
                TrainConfig,
                {
                    **asdict(config),
                    "loss": {"kind": "rtpb"},
                    "bias": {"kind": "cb", "a": 1.0},
                }
            ),
            None,
            np.ones(space.num_relations + 1, dtype=np.int64),
        )
