import numpy as np
import pytest

from tailbias.losses import biased_ce
from tailbias.numerics import (
    AttentionParams,
    attention,
    attention_backward,
    encoder_layer,
    encoder_layer_backward,
    flatten,
    grad_check,
    init_attention_params,
    init_encoder_layer_params,
    leaf_names,
    leaves,
    matmul_backward,
    multi_head_attention,
    multi_head_attention_backward,
    row_softmax,
    tree_add,
    write_flat,
    zeros_like_tree,
)


class TestMatmul:
    def test_backward_fd(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        g = rng.normal(size=(3, 2))
        da, db = matmul_backward(g, a, b)
        r = grad_check(
            lambda v: float(np.sum(g * (v.reshape(3, 4) @ b))), a.ravel(), da.ravel(),
            tol=1e-6,
        )
        assert r.passed, r
        r = grad_check(
            lambda v: float(np.sum(g * (a @ v.reshape(4, 2)))), b.ravel(), db.ravel(),
            tol=1e-6,
        )
        assert r.passed, r


class TestRowSoftmax:
    def test_rows_sum_to_one(self, rng):
        p = row_softmax(rng.normal(0, 50, (6, 9)))
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12

    def test_per_row_shift_invariance(self, rng):
        x = rng.normal(size=(4, 5))
        shifts = rng.normal(size=(4, 1))
        assert row_softmax(x + shifts) == pytest.approx(row_softmax(x), abs=1e-12)


class TestAttention:
    def test_single_token_returns_value_row(self, rng):
        q = rng.normal(size=(1, 4))
        k = rng.normal(size=(1, 4))
        v = rng.normal(size=(1, 4))
        out, _ = attention(q, k, v)
        assert out == pytest.approx(v, abs=1e-15)

    def test_identical_rows_average(self, rng):
        q = rng.normal(size=(3, 4))
        k = np.tile(rng.normal(size=(1, 4)), (2, 1))
        v = np.tile(rng.normal(size=(1, 4)), (2, 1))
        out, _ = attention(q, k, v)
        for row in out:
            assert row == pytest.approx(v[0], abs=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            attention(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 4)))

    def test_backward_fd(self, rng):
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(5, 4))
        v = rng.normal(size=(5, 4))
        g = rng.normal(size=(3, 4))
        _, cache = attention(q, k, v)
        dq, dk, dv = attention_backward(g, cache)
        for arr, grad, fn in (
            (q, dq, lambda w: attention(w.reshape(3, 4), k, v)[0]),
            (k, dk, lambda w: attention(q, w.reshape(5, 4), v)[0]),
            (v, dv, lambda w: attention(q, k, w.reshape(5, 4))[0]),
        ):
            r = grad_check(
                lambda w: float(np.sum(g * fn(w))), arr.ravel(), grad.ravel(), tol=1e-5
            )
            assert r.passed, r


class TestMultiHead:
    def test_single_head_degenerates(self, rng):
        d = 6
        x = rng.normal(size=(4, d))
        params = init_attention_params(d, rng)
        out, _ = multi_head_attention(x, params, 1)
        ref, _ = attention(x @ params.wq, x @ params.wk, x @ params.wv)
        assert out == pytest.approx(ref @ params.wo, abs=1e-12)

    def test_output_shape(self, rng):
        d = 8
        params = init_attention_params(d, rng)
        for tokens in (1, 3, 7):
            x = rng.normal(size=(tokens, d))
            out, _ = multi_head_attention(x, params, 4)
            assert out.shape == x.shape

    def test_indivisible_heads(self, rng):
        params = init_attention_params(6, rng)
        with pytest.raises(ValueError):
            multi_head_attention(np.zeros((2, 6)), params, 4)

    def test_projection_gradients(self, rng):
        d = 8
        x = rng.normal(size=(4, d))
        params = init_attention_params(d, rng)
        g = rng.normal(size=x.shape)
        _, cache = multi_head_attention(x, params, 2)
        dx, grads = multi_head_attention_backward(g, cache)
        vec = flatten(params)

        def f(v):
            write_flat(params, v)
            try:
                return float(np.sum(g * multi_head_attention(x, params, 2)[0]))
            finally:
                write_flat(params, vec)

        r = grad_check(f, vec, flatten(grads), tol=1e-4)
        assert r.passed, r
        r = grad_check(
            lambda v: float(np.sum(g * multi_head_attention(v.reshape(x.shape), params, 2)[0])),
            x.ravel(),
            dx.ravel(),
            tol=1e-4,
        )
        assert r.passed, r


class TestEncoderLayer:
    def test_zeroed_projections_are_identity(self, rng):
        d = 8
        x = rng.normal(size=(5, d))
        params = init_encoder_layer_params(d, 16, rng)
        params.attn.wo[:] = 0.0
        params.w2[:] = 0.0
        out, _ = encoder_layer(x, params, 2)
        assert np.max(np.abs(out - x)) < 1e-12

    def test_shape_preserved(self, rng):
        params = init_encoder_layer_params(8, 16, rng)
        out, _ = encoder_layer(rng.normal(size=(3, 8)), params, 2)
        assert out.shape == (3, 8)

    def test_full_layer_gradients(self, rng):
        d = 8
        x = rng.normal(size=(4, d))
        params = init_encoder_layer_params(d, 16, rng)
        g = rng.normal(size=x.shape)
        _, cache = encoder_layer(x, params, 2)
        dx, grads = encoder_layer_backward(g, cache)
        vec = flatten(params)

        def f(v):
            write_flat(params, v)
            try:
                return float(np.sum(g * encoder_layer(x, params, 2)[0]))
            finally:
                write_flat(params, vec)

        r = grad_check(f, vec, flatten(grads), tol=1e-4)
        assert r.passed, r
        r = grad_check(
            lambda v: float(np.sum(g * encoder_layer(v.reshape(x.shape), params, 2)[0])),
            x.ravel(),
            dx.ravel(),
            tol=1e-4,
        )
        assert r.passed, r

    def test_determinism(self, rng):
        params = init_encoder_layer_params(8, 16, rng)
        x = rng.normal(size=(4, 8))
        a, _ = encoder_layer(x, params, 2)
        b, _ = encoder_layer(x.copy(), params, 2)
        assert np.array_equal(a, b)


class TestGradCheck:
    def test_square_function(self):
        x = np.array([3.0])
        r = grad_check(lambda v: float(v[0] ** 2), x, np.array([6.0]), h=1e-5, tol=1e-8)
        assert r.passed
        assert r.max_rel_error < 1e-8

    def test_constant_function(self):
        x = np.zeros(4)
        r = grad_check(lambda v: 1.0, x, np.zeros(4), tol=1e-12)
        assert r.passed
        assert r.max_rel_error == 0.0

    def test_cross_module_loss(self, rng):
        z = rng.uniform(-4, 4, 8)
        b = rng.uniform(-2, 2, 8)
        out = biased_ce(z, b, 3)
        r = grad_check(lambda v: biased_ce(v, b, 3).value, z, out.grad_logits, tol=1e-4)
        assert r.passed, r

    def test_report_invariant(self, rng):
        z = rng.uniform(-1, 1, 4)
        wrong = np.zeros(4)
        r = grad_check(lambda v: float(np.sum(v**2)), z, wrong, tol=1e-6)
        assert not r.passed
        assert r.max_rel_error >= 1e-6
        assert 0 <= r.worst_coordinate < 4

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            grad_check(lambda v: 0.0, np.zeros(2), np.zeros(2), h=0.0)

    def test_rejects_nonfinite_function(self):
        with pytest.raises(ValueError):
            grad_check(lambda v: float("nan"), np.zeros(2), np.zeros(2))


class TestParameterTrees:
    def test_flatten_round_trip(self, rng):
        params = init_encoder_layer_params(4, 8, rng)
        vec = flatten(params)
        other = init_encoder_layer_params(4, 8, np.random.default_rng(99))
        write_flat(other, vec)
        assert np.array_equal(flatten(other), vec)

    def test_zeros_and_add(self, rng):
        params = init_attention_params(4, rng)
        z = zeros_like_tree(params)
        assert not flatten(z).any()
        tree_add(z, params)
        tree_add(z, params)
        assert np.array_equal(flatten(z), 2 * flatten(params))

    def test_leaf_order_is_stable(self, rng):
        params = init_attention_params(4, rng)
        assert [a.shape for a in leaves(params)] == [(4, 4)] * 4
        assert leaves(params)[0] is params.wq

    def test_leaf_names_follow_leaf_order(self, rng):
        params = [init_encoder_layer_params(4, 8, rng)]
        names = leaf_names(params)
        assert len(names) == len(leaves(params))
        assert names[:5] == ["0.attn.wq", "0.attn.wk", "0.attn.wv", "0.attn.wo", "0.ln1_gain"]
        assert names[-1] == "0.b2"

    def test_write_flat_length_check(self, rng):
        params = init_attention_params(4, rng)
        with pytest.raises(ValueError):
            write_flat(params, np.zeros(3))


def test_attention_params_rejects_unsupported_tree():
    with pytest.raises(TypeError):
        leaves(AttentionParams(wq="x", wk=None, wv=None, wo=None))
