from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailbias.gradcert import check_model_instance
from tailbias.model import (
    MODEL_KINDS,
    ModelSpec,
    backward,
    box_features,
    embed_objects,
    encode_objects,
    encode_relations_and_classify,
    feature_width,
    forward,
    fuse_pairs,
    init_dual_encoder,
    init_linear,
    linear_backward,
    linear_forward,
    model_for,
)
from tailbias.numerics import flatten, leaves, unflatten
from tailbias.stats import LabelSpace
from tailbias.synth import Images, SynthImage, all_ordered_pairs

LS = LabelSpace(num_object_classes=4, num_relations=3)
D_V = 6
NO_GT = np.zeros((0, 3), dtype=np.int64)


def make_image(rng, n, num_classes, d_v):
    """``n`` random object proposals with random union features."""
    x1, y1 = rng.uniform(0.05, 0.4, (2, n))
    scores = rng.uniform(0.05, 1.0, (n, num_classes))
    return SynthImage(
        boxes=np.stack([x1, y1, x1 + rng.uniform(0.1, 0.5, n), y1 + rng.uniform(0.1, 0.5, n)], 1),
        features=rng.normal(size=(n, d_v)),
        labels=rng.integers(0, num_classes, n),
        scores=scores / scores.sum(axis=1, keepdims=True),
        unions=rng.normal(size=(n * (n - 1), d_v)),
        gt=NO_GT,
    )


def zero_grads(params):
    """A gradient tree of ``params``'s type over a fresh zero buffer."""
    return unflatten(params, np.zeros(flatten(params).size))


def select(image, idx):
    """The image made of its proposals ``idx``, in that order, with each
    ordered pair keeping its union feature (any row when ``idx`` repeats)."""
    idx = np.asarray(idx, dtype=np.int64)
    n = len(image.labels)
    s, o = idx[all_ordered_pairs(len(idx))].T
    return SynthImage(
        image.boxes[idx], image.features[idx], image.labels[idx], image.scores[idx],
        image.unions[s * (n - 1) + o - (o > s)], gt=NO_GT,
    )


@pytest.fixture
def toy():
    spec = ModelSpec(
        kind="dual_encoder", d_model=16, d_e=4, d_pos=4, n_h=2, n_o=2, n_r=1, d_ff=16
    )
    rng = np.random.default_rng(7)
    params = init_dual_encoder(spec, LS, D_V, rng)
    image = make_image(rng, 4, LS.num_object_classes, D_V)
    return spec, params, image, all_ordered_pairs(4), image.unions, rng


def one_proposal(box=(0.1, 0.1, 0.4, 0.4), scores=(1.0,), label=0, d_v=3):
    return SynthImage(
        boxes=np.array([box]), features=np.zeros((1, d_v)), labels=np.array([label]),
        scores=np.array([scores]),
        unions=np.zeros((0, d_v)), gt=NO_GT,
    )


class TestProposal:
    """Packing a split checks its images' object rows (see ``test_synth``)."""

    def test_rejects_degenerate_box(self):
        with pytest.raises(ValueError, match="^image 0: degenerate"):
            Images.pack([one_proposal(box=(0.5, 0.1, 0.2, 0.4))])
        with pytest.raises(ValueError, match="^image 1: degenerate or unnormalized"):
            Images.pack([one_proposal(), one_proposal(box=(0.1, 0.1, 0.4, 1.2))])

    def test_rejects_unnormalized_scores(self):
        with pytest.raises(ValueError, match="^image 0: detector scores must sum to 1$"):
            Images.pack([one_proposal(scores=(0.7, 0.6))])
        with pytest.raises(ValueError, match="^image 0: detector scores must sum to 1$"):
            Images.pack([one_proposal(scores=(np.nan,))])

    def test_rejects_inconsistent_row_counts(self, toy):
        _, _, image, _, _, _ = toy
        with pytest.raises(ValueError, match="^image 1: features need one row per object"):
            Images.pack([image, replace(image, features=image.features[:3])])
        with pytest.raises(ValueError, match="^image 0: unions have shape"):
            Images.pack([replace(image, unions=image.unions[:-1])])
        with pytest.raises(ValueError, match="^image 0: .* box per object"):
            Images.pack([replace(image, boxes=image.boxes[:, :3])])

    def test_box_features(self):
        f = box_features(np.array([[0.1, 0.2, 0.5, 0.8]]))
        assert f.tolist() == [pytest.approx([0.1, 0.2, 0.5, 0.8, 0.4, 0.6, 0.3, 0.5])]


class TestEmbedObjects:
    def test_shape(self, toy):
        spec, params, image, _, _, _ = toy
        tokens, _ = embed_objects(image, params)
        assert tokens.shape == (4, spec.d_model)

    def test_identical_proposals_identical_rows(self, toy):
        spec, params, image, _, _, _ = toy
        tokens, _ = embed_objects(select(image, [0, 0]), params)
        assert np.array_equal(tokens[0], tokens[1])

    def test_zero_input_map_gives_zeros(self, toy):
        spec, params, image, _, _, _ = toy
        params.w_in[:] = 0.0
        tokens, _ = embed_objects(image, params)
        assert not tokens.any()

    def test_empty_rejected(self, toy):
        _, params, _, _, _, _ = toy
        with pytest.raises(ValueError):
            embed_objects(select(make_image(np.random.default_rng(0), 2, 4, D_V), []), params)

    def test_mode_switches_embedding_label(self, toy):
        spec, params, image, _, _, rng = toy
        # force disagreement between annotation and detector argmax
        p = one_proposal(scores=(0.1, 0.7, 0.1, 0.1), label=2, d_v=D_V)
        t_pred, _ = embed_objects(p, params, mode="predcls")
        t_sg, _ = embed_objects(p, params, mode="sgcls")
        assert not np.array_equal(t_pred, t_sg)


class TestEncodeObjects:
    def test_residual_passthrough(self, toy):
        spec, params, image, _, _, _ = toy
        for layer in params.obj_layers:
            layer.attn.wo[:] = 0.0
            layer.w2[:] = 0.0
        tokens, _ = embed_objects(image, params)
        encoded, _ = encode_objects(tokens, params, spec.n_h)
        assert np.max(np.abs(encoded - tokens)) < 1e-12

    def test_permutation_equivariance(self, toy):
        spec, params, image, _, _, _ = toy
        tokens, _ = embed_objects(image, params)
        out, _ = encode_objects(tokens, params, spec.n_h)
        perm = [2, 0, 3, 1]
        tokens_p, _ = embed_objects(select(image, perm), params)
        out_p, _ = encode_objects(tokens_p, params, spec.n_h)
        assert out_p == pytest.approx(out[perm], abs=1e-10)


class TestClassifyObjects:
    def test_rows_sum_to_one(self, toy):
        spec, params, image, pairs, unions, _ = toy
        probs = forward(image, unions, pairs, params, spec).object_probs
        assert probs.shape == (4, LS.num_object_classes)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    def test_zero_weights_uniform(self, toy):
        spec, params, image, pairs, unions, _ = toy
        params.w_clf_obj[:] = 0.0
        probs = forward(image, unions, pairs, params, spec).object_probs
        assert probs == pytest.approx(1.0 / LS.num_object_classes)


class TestFusePairs:
    def test_counts_all_directed_pairs(self, toy):
        spec, params, image, pairs, unions, _ = toy
        assert len(pairs) == 12
        tokens, _ = embed_objects(image, params)
        fused, _ = fuse_pairs(tokens, unions, pairs, params)
        assert fused.shape == (12, spec.d_model)

    def test_order_matters(self, toy):
        spec, params, image, _, _, rng = toy
        tokens, _ = embed_objects(image, params)
        u = rng.normal(size=(1, D_V))
        a, _ = fuse_pairs(tokens, u, np.array([[0, 1]]), params)
        b, _ = fuse_pairs(tokens, u, np.array([[1, 0]]), params)
        assert not np.allclose(a, b)

    def test_zero_fusion_map(self, toy):
        spec, params, image, pairs, unions, _ = toy
        params.w_fuse[:] = 0.0
        tokens, _ = embed_objects(image, params)
        fused, _ = fuse_pairs(tokens, unions, pairs, params)
        assert not fused.any()

    def test_self_pair_rejected(self, toy):
        spec, params, image, _, unions, _ = toy
        tokens, _ = embed_objects(image, params)
        with pytest.raises(ValueError, match="itself"):
            fuse_pairs(tokens, unions[:2], np.array([[0, 1], [1, 1]]), params)

    def test_out_of_range_rejected(self, toy):
        spec, params, image, _, unions, _ = toy
        tokens, _ = embed_objects(image, params)
        with pytest.raises(ValueError, match="out of range"):
            fuse_pairs(tokens, unions[:2], np.array([[0, 1], [0, 9]]), params)


class TestRelationHead:
    def test_logit_shape(self, toy):
        spec, params, image, pairs, unions, _ = toy
        out = forward(image, unions, pairs, params, spec)
        assert out.relation_logits.shape == (12, LS.num_relations + 1)

    def test_zeroed_encoder_is_linear_readout(self, toy):
        spec, params, image, pairs, unions, _ = toy
        for layer in params.rel_layers:
            layer.attn.wo[:] = 0.0
            layer.w2[:] = 0.0
        tokens, _ = embed_objects(image, params)
        e_final, _ = encode_objects(tokens, params, spec.n_h)
        fused, _ = fuse_pairs(e_final, unions, pairs, params)
        logits, _ = encode_relations_and_classify(fused, params, spec.n_h)
        assert logits == pytest.approx(fused @ params.w_clf_rel, abs=1e-12)


class TestForward:
    def test_two_objects_two_pairs(self, toy):
        spec, params, image, _, _, rng = toy
        unions = rng.normal(size=(2, D_V))
        out = forward(select(image, [0, 1]), unions, all_ordered_pairs(2), params, spec)
        assert out.relation_logits.shape[0] == 2

    def test_too_few_objects(self, toy):
        spec, params, image, _, _, _ = toy
        with pytest.raises(ValueError, match="no pairs"):
            forward(select(image, [0]), np.zeros((0, D_V)), all_ordered_pairs(1), params, spec)

    def test_relation_logits_permutation_invariant(self, toy):
        spec, params, image, pairs, unions, _ = toy
        out = forward(image, unions, pairs, params, spec)
        perm = [3, 1, 0, 2]
        pairs_p = np.argsort(perm)[pairs]
        out_p = forward(select(image, perm), unions, pairs_p, params, spec)
        assert out_p.relation_logits == pytest.approx(out.relation_logits, abs=1e-10)
        assert out_p.object_probs == pytest.approx(out.object_probs[perm], abs=1e-10)


class TestFullGradients:
    def test_pinned_scale_gradcheck(self):
        # toy scale pinned by the acceptance setup: d_model=16, 2+1 layers.
        # Fixed seed: at h=1e-4 an unlucky draw can straddle a relu kink and
        # corrupt the central difference itself (seed 5 does); the h=1e-5
        # battery in gradcert covers many seeds without that artifact.
        report = check_model_instance(np.random.default_rng(3), h=1e-4, tol=1e-3)
        assert report.passed, report

    def test_object_head_gradient_flows(self, toy):
        spec, params, image, pairs, unions, _ = toy
        out = forward(image, unions, pairs, params, spec)
        d_obj = np.zeros_like(out.object_logits)
        d_obj[0, 0] = 1.0
        grads = backward(d_obj, np.zeros_like(out.relation_logits), out, params, spec,
                         zero_grads(params))
        assert flatten(grads.obj_layers).any() or grads.w_clf_obj.any()
        # relation-only stages receive nothing
        assert not grads.w_fuse.any()
        assert not grads.w_clf_rel.any()


class TestProtocol:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_feature_width_inverts_init(self, kind):
        spec = ModelSpec(kind=kind, d_model=8, d_e=4, d_pos=4, n_o=1, n_r=1, d_ff=8)
        init = model_for(spec).init
        for d_v in (1, 5, 16):
            size = flatten(init(spec, LS, d_v)).size
            assert feature_width(spec, LS, size) == d_v
        with pytest.raises(ValueError, match="feature width"):
            feature_width(spec, LS, size + 1)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_undrawn_tree_has_the_seeded_shapes(self, kind):
        spec = ModelSpec(kind=kind, d_model=8, d_e=4, d_pos=4, n_o=1, n_r=1, d_ff=8)
        init = model_for(spec).init
        seeded = init(spec, LS, D_V, np.random.default_rng(0))
        undrawn = init(spec, LS, D_V)
        assert [a.shape for a in leaves(seeded)] == [a.shape for a in leaves(undrawn)]

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("mode", ["predcls", "sgcls"])
    def test_an_empty_pair_block_gives_no_relation_rows(self, kind, mode):
        """A forward over no pairs gives ``(0, L + 1)`` logits; its backward
        writes what a one-pair forward with a zero relation gradient writes."""
        spec = ModelSpec(kind=kind, d_model=8, d_e=4, d_pos=4, n_o=1, n_r=2, d_ff=8)
        net = model_for(spec)
        rng = np.random.default_rng(5)
        params = net.init(spec, LS, D_V, rng)
        image = make_image(rng, 3, LS.num_object_classes, D_V)
        empty = net.forward(image, image.unions[:0], all_ordered_pairs(3)[:0], params, spec, mode)
        one = net.forward(image, image.unions[:1], all_ordered_pairs(3)[:1], params, spec, mode)
        assert empty.relation_logits.shape == (0, LS.num_relations + 1)
        assert np.array_equal(empty.object_probs, one.object_probs)
        d_obj = None if one.object_logits is None else rng.normal(size=one.object_logits.shape)
        got = net.backward(d_obj, np.zeros((0, LS.num_relations + 1)), empty, params, spec,
                           zero_grads(params))
        want = net.backward(d_obj, np.zeros((1, LS.num_relations + 1)), one, params, spec,
                            zero_grads(params))
        assert np.array_equal(flatten(got), flatten(want))


class TestBackwardOverwrites:
    @pytest.mark.parametrize(
        "kind, case",
        [("linear", "all_pairs"), ("linear", "no_pairs"), ("dual_encoder", "all_pairs"),
         ("dual_encoder", "no_object_gradient"), ("dual_encoder", "no_pairs")],
        ids=["linear", "linear-no_pairs", "dual_encoder", "dual_encoder-no_object_gradient",
             "dual_encoder-no_pairs"],
    )
    def test_two_backward_calls_overwrite_a_poisoned_tree(self, kind, case):
        """A backward writes every leaf of the ``grads`` it is given: into a
        NaN-filled buffer, and again into one holding stale values, it leaves
        exactly what a backward into a fresh tree gives. Without an object
        gradient the dual encoder writes a zero ``w_clf_obj`` gradient, and
        over no pairs, zeros for the relation stack it skipped."""
        spec = ModelSpec(kind=kind, d_model=8, d_e=4, d_pos=4, n_o=2, n_r=1, d_ff=8)
        net = model_for(spec)
        rng = np.random.default_rng(11)
        params = net.init(spec, LS, D_V, rng)
        image = make_image(rng, 4, LS.num_object_classes, D_V)
        image.labels[1] = image.labels[0]  # two rows of one embedding class
        pairs = all_ordered_pairs(4)[: 0 if case == "no_pairs" else None]
        out = net.forward(image, image.unions[: len(pairs)], pairs, params, spec)
        d_obj = None
        if out.object_logits is not None and case != "no_object_gradient":
            d_obj = rng.normal(size=out.object_logits.shape)
        d_rel = rng.normal(size=out.relation_logits.shape)
        once = flatten(net.backward(d_obj, d_rel, out, params, spec, zero_grads(params)))
        assert once.any() == (kind == "dual_encoder" or case != "no_pairs")
        buffer = np.full_like(once, np.nan)
        grads = unflatten(params, buffer)
        for stale in (np.nan, 1.5):
            buffer.fill(stale)
            assert net.backward(d_obj, d_rel, out, params, spec, grads) is grads
            assert np.array_equal(buffer, once)
        if kind == "dual_encoder":
            tree = unflatten(params, once)
            assert tree.w_clf_obj.any() == (d_obj is not None)
            assert flatten(tree.rel_layers).any() == (case != "no_pairs")


class TestBucketedBackward:
    @example(seed=0, kind="dual_encoder", mode="predcls", b=3, n=4, shared=False, data=None)
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(MODEL_KINDS),
        mode=st.sampled_from(["predcls", "sgcls"]),
        b=st.integers(1, 5),
        n=st.integers(2, 5),
        shared=st.booleans(),
        data=st.data(),
    )
    def test_a_buckets_backward_equals_each_images_own(
        self, seed, kind, mode, b, n, shared, data
    ):
        """``b`` images of ``n`` objects, forwarded on ``m`` drawn pairs of
        their own, or on one ``(m, 2)`` array shared by all; the first image's
        first two objects share a class in both modes. Each image's row of the
        bucket's gradient equals its own backward bit for bit."""
        m = n * (n - 1) if data is None else data.draw(st.integers(0, n * (n - 1)))
        spec = ModelSpec(kind=kind, d_model=8, d_e=4, d_pos=4, n_o=1, n_r=2, d_ff=8)
        net = model_for(spec)
        rng = np.random.default_rng(seed)
        params = net.init(spec, LS, D_V, rng)
        images = [make_image(rng, n, LS.num_object_classes, D_V) for _ in range(b)]
        images[0].labels[1], images[0].scores[1] = images[0].labels[0], images[0].scores[0]
        pairs = np.stack([all_ordered_pairs(n)[rng.permutation(n * (n - 1))[:m]] for _ in images])
        if shared:
            pairs = pairs[0]
        unions = rng.normal(size=(b, m, D_V))
        bucket = SynthImage(*(np.stack([getattr(img, f) for img in images])
                              for f in ("boxes", "features", "labels", "scores")),
                            unions=unions, gt=NO_GT)
        out = net.forward(bucket, unions, pairs, params, spec, mode)
        d_rel = rng.normal(size=out.relation_logits.shape)
        d_obj = None if out.object_logits is None else rng.normal(size=out.object_logits.shape)
        rows = np.full((b, flatten(params).size), np.nan)
        net.backward(d_obj, d_rel, out, params, spec, unflatten(params, rows))
        for i, img in enumerate(images):
            one = net.forward(img, unions[i], pairs if shared else pairs[i], params, spec, mode)
            assert np.array_equal(one.relation_logits, out.relation_logits[i])
            want = net.backward(None if d_obj is None else d_obj[i], d_rel[i], one, params, spec,
                                zero_grads(params))
            assert np.array_equal(rows[i], flatten(want))


class TestSanityDescent:
    def test_loss_decreases_over_fifty_steps(self):
        from tailbias.harness import (
            LossConfig,
            ModelSpec,
            OptimizerConfig,
            TrainConfig,
            train,
        )
        from tailbias.synth import SynthConfig, generate_split

        ls = LabelSpace(num_object_classes=4, num_relations=5)
        data = generate_split(
            SynthConfig(
                label_space=ls, num_train=10, num_val=0, num_test=0,
                objects_min=3, objects_max=4, d_v=8, seed=11,
            ),
            "train",
        )
        config = TrainConfig(
            label_space=ls,
            task="predcls",
            model=ModelSpec(kind="dual_encoder", d_model=16, n_h=2, n_o=2, n_r=1,
                            d_ff=16, d_e=8, d_pos=8),
            loss=LossConfig(kind="ce"),
            optimizer=OptimizerConfig(
                learning_rate=1e-2, momentum=0.9, iterations=50, batch_size=10
            ),
            seed=4,
            eval_ks=(5,),
        )
        _, log = train(config, data)
        assert log.losses[-1] < log.losses[0]


class TestLinearModel:
    def test_forward_and_hand_gradient(self, rng):
        ls = LabelSpace(num_object_classes=3, num_relations=2)
        image = make_image(rng, 3, 3, 4)
        pairs = np.array([[0, 1], [2, 0]])
        unions = rng.normal(size=(2, 4))
        spec = ModelSpec()
        params = init_linear(spec, ls, 4, rng)
        out = linear_forward(image, unions, pairs, params, spec)
        feats = image.features
        x0 = np.concatenate([unions[0], feats[0], feats[1]])
        assert out.relation_logits[0] == pytest.approx(x0 @ params.w + params.b, abs=1e-12)

        d_rel = rng.normal(size=out.relation_logits.shape)
        grads = linear_backward(None, d_rel, out, params, spec, zero_grads(params))
        x = np.stack([x0, np.concatenate([unions[1], feats[2], feats[0]])])
        assert grads.w == pytest.approx(x.T @ d_rel, abs=1e-12)
        assert grads.b == pytest.approx(d_rel.sum(axis=0), abs=1e-12)

    def test_object_probs_are_detector_scores(self, rng):
        image = make_image(rng, 2, 3, 4)
        spec = ModelSpec()
        params = init_linear(spec, LabelSpace(num_object_classes=3, num_relations=2), 4, rng)
        out = linear_forward(image, rng.normal(size=(1, 4)), np.array([[0, 1]]), params, spec)
        assert np.array_equal(out.object_probs, image.scores)
