import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tailbias.bias import BiasSpec, BiasVector
from tailbias.harness import (
    Checkpoint,
    LossConfig,
    ModelSpec,
    OptimizerConfig,
    TrainConfig,
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
from tailbias.metrics import metrics_csv
from tailbias.model import LinearParams, ObjectProposal, init_linear
from tailbias.numerics import flatten
from tailbias.stats import LabelSpace
from tailbias.synth import SynthConfig, SynthImage, generate_split


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
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_validation(self, space):
        with pytest.raises(ValueError):
            linear_config(space, eval_ks=())
        with pytest.raises(ValueError):
            linear_config(space, eval_ks=(10, 5))
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

    def test_bad_model_spec_fails_at_construction(self, space):
        with pytest.raises(ValueError, match="divisible"):
            ModelSpec(kind="dual_encoder", d_model=10, n_h=3)
        with pytest.raises(ValueError, match="at least one layer"):
            ModelSpec(kind="dual_encoder", n_r=0)
        doc = linear_config(space).to_dict()
        doc["model"] = {"kind": "dual_encoder", "d_model": 10, "n_h": 3}
        with pytest.raises(ValueError, match="divisible"):
            TrainConfig.from_dict(doc)


class TestTrain:
    def test_deterministic_checkpoints(self, space, data):
        train_images, _ = data
        config = linear_config(space)
        ck1, log1 = train(config, train_images)
        ck2, log2 = train(config, train_images)
        assert np.array_equal(flatten(ck1.params), flatten(ck2.params))
        assert log1.losses == log2.losses

    def test_empty_dataset_rejected(self, space):
        with pytest.raises(ValueError, match="empty"):
            train(linear_config(space), [])

    def test_non_finite_loss_names_the_iteration(self, space, data):
        train_images, _ = data
        calls = []

        def loss_fn(z, y, s_class, o_class):
            calls.append(1)
            res = ce(z, y)
            value = np.nan if len(calls) > 20 else res.value
            return LossOutput(value=value, grad_logits=res.grad_logits)

        with pytest.raises(FloatingPointError, match=r"^iteration \d+: non-finite loss$"):
            train(linear_config(space), train_images, loss_fn=loss_fn)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_gradient_names_the_iteration_and_leaf(self, space, data):
        train_images, _ = data

        def loss_fn(z, y, s_class, o_class):
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
        from tailbias.harness import SAMPLE_DOMAIN, SHUFFLE_DOMAIN, _rng, _training_pairs
        from tailbias.losses import ce as ce_loss

        d_v = train_images[0].proposals[0].feature.shape[0]
        init_params = init_linear(ModelSpec(), space, d_v, _rng(13, 10))
        first = train_images[_rng(13, SHUFFLE_DOMAIN).permutation(len(train_images))[0]]
        pairs, targets = _training_pairs(first, 3.0, _rng(13, SAMPLE_DOMAIN))
        feats = np.stack([p.feature for p in first.proposals])
        x = np.stack(
            [
                np.concatenate([first.unions[(s, o)], feats[s], feats[o]])
                for s, o in pairs
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

        stats = training_stats(train_images, space)
        from tailbias.harness import _class_counts

        counts = _class_counts(train_images, stats)

        def indicator_loss(z, y, s_class, o_class):
            b = np.zeros_like(z)
            b[y] = 0.5 / counts[y] ** 0.25
            return biased_ce(z, b, y)

        _, log_ind = train(ldam_cfg, train_images, loss_fn=indicator_loss)
        assert log_ldam.losses == log_ind.losses

    def test_runlog_config_round_trips(self, space, data):
        train_images, _ = data
        config = linear_config(space)
        _, log = train(config, train_images)
        assert TrainConfig.from_dict(log.config) == config

    def test_periodic_validation(self, space, data):
        train_images, test_images = data
        config = linear_config(space)
        _, log = train(config, train_images, val_images=test_images, eval_every=20)
        assert [entry["iteration"] for entry in log.val_metrics] == [20, 40]
        first = log.val_metrics[0]["with"]
        assert set(first["R"]) == {"5", "10", "20"}
        assert all(0.0 <= v <= 1.0 for v in first["mR"].values())

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


def perfect_split(space):
    """Three images whose union features encode the relation one-hot."""
    num = space.num_relations + 1
    images = []
    for i in range(3):
        proposals = [
            ObjectProposal(
                box=(0.1, 0.1, 0.4, 0.4),
                feature=np.zeros(2),
                label=j % space.num_object_classes,
                scores=np.eye(space.num_object_classes)[j % space.num_object_classes],
            )
            for j in range(3)
        ]
        gt = [(0, 1, (i % space.num_relations) + 1), (1, 2, ((i + 1) % space.num_relations) + 1)]
        unions = {}
        gt_map = {(s, o): r for s, o, r in gt}
        for s in range(3):
            for o in range(3):
                if s == o:
                    continue
                onehot = np.zeros(num)
                onehot[gt_map.get((s, o), 0)] = 1.0
                unions[(s, o)] = onehot
        images.append(SynthImage(proposals=proposals, unions=unions, gt_triplets=gt))
    return images


def perfect_checkpoint(space):
    num = space.num_relations + 1
    w = np.zeros((num + 4, num))
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

    def test_empty_split_rejected(self, space, data):
        train_images, _ = data
        ck, _ = train(linear_config(space), train_images)
        with pytest.raises(ValueError, match="empty"):
            evaluate(ck, [])


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
        images = perfect_split(space)
        images[1] = replace(images[1], gt_triplets=[(0, 1, 1), triplet])
        ck = perfect_checkpoint(space)
        with pytest.raises(ValueError, match=f"image 1: .*{why}"):
            evaluate(ck, images)
        with pytest.raises(ValueError, match=f"image 1: .*{why}"):
            stats = training_stats(images[:1], space)
            sweep(ck, stats, BiasSpec(kind="cb", epsilon=1e-3), [0.0], images)

    def test_object_class_outside_label_space_names_the_image(self, space, data):
        images = perfect_split(space)
        proposals = list(images[1].proposals)
        proposals[2] = replace(proposals[2], label=space.num_object_classes)
        images[1] = replace(images[1], proposals=proposals)
        with pytest.raises(ValueError, match="image 1: object class label outside 0..5"):
            evaluate(perfect_checkpoint(space), images)
        # Training statistics check annotated objects; an unannotated one is
        # caught when its pairs are drawn.
        train_images = list(data[0])
        for i, img in enumerate(train_images):
            annotated = {t[0] for t in img.gt_triplets} | {t[1] for t in img.gt_triplets}
            free = [j for j in range(len(img.proposals)) if j not in annotated]
            if free:
                proposals = list(img.proposals)
                proposals[free[0]] = replace(proposals[free[0]], label=-1)
                train_images[i] = replace(img, proposals=proposals)
        with pytest.raises(ValueError, match="object class label outside 0..5"):
            train(linear_config(space), train_images)

    def test_non_finite_logits_name_the_image(self, space):
        images = perfect_split(space)
        unions = dict(images[2].unions)
        unions[(1, 0)] = np.full_like(unions[(1, 0)], np.nan)
        images[2] = replace(images[2], unions=unions)
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

    def test_non_finite_parameter_is_refused(self, space, data, tmp_path):
        train_images, _ = data
        ck, _ = train(linear_config(space), train_images)
        ck.params.b[2] = np.inf
        path = tmp_path / "ck.json"
        with pytest.raises(ValueError, match="parameter b is not finite"):
            save_checkpoint(ck, str(path))
        assert not path.exists()

    def test_save_is_byte_stable(self, space, data, tmp_path):
        train_images, _ = data
        ck, _ = train(linear_config(space), train_images)
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        save_checkpoint(ck, str(p1))
        save_checkpoint(ck, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def test_make_loss_fn_requires_bias_for_rtpb(space):
    config = linear_config(space)
    config = TrainConfig.from_dict({**config.to_dict(), "loss": {"kind": "ce"}})
    with pytest.raises(ValueError):
        make_loss_fn(
            TrainConfig.from_dict(
                {
                    **config.to_dict(),
                    "loss": {"kind": "rtpb"},
                    "bias": {"kind": "cb", "a": 1.0},
                }
            ),
            None,
            np.ones(space.num_relations + 1, dtype=np.int64),
        )
