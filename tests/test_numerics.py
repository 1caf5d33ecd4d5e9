import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracle
from tailbias.losses import biased_ce
from tailbias.numerics import (
    FD_CHUNK,
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
    multi_head_attention,
    multi_head_attention_backward,
    row_max,
    row_softmax,
    unflatten,
)


def weighted_sums(g, out):
    """``sum(g * o)`` for each ``o`` stacked along ``out``'s first axis."""
    return (g * out).reshape(len(out), -1).sum(axis=1)


class TestMatmul:
    def test_backward_fd(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        g = rng.normal(size=(3, 2))
        da, db = g @ b.T, a.T @ g  # the form every backward writes
        r = grad_check(
            lambda s: weighted_sums(g, s.reshape(-1, 3, 4) @ b), a.ravel(), da.ravel(),
            tol=1e-6,
        )
        assert r.passed, r
        r = grad_check(
            lambda s: weighted_sums(g, a @ s.reshape(-1, 4, 2)), b.ravel(), db.ravel(),
            tol=1e-6,
        )
        assert r.passed, r


class TestRowSoftmax:
    @settings(max_examples=80, deadline=None)
    @given(x=arrays(np.float64, array_shapes(min_dims=1, max_dims=4, max_side=7),
                    elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_row_max_is_numpys_row_max(self, x):
        assert np.array_equal(row_max(x), x.max(axis=-1), equal_nan=True)

    @settings(max_examples=80, deadline=None)
    @given(x=arrays(np.float64, array_shapes(min_dims=1, max_dims=4, min_side=2, max_side=7),
                    elements=st.floats(-700.0, 700.0)))
    def test_equals_the_two_pass_softmax_and_leaves_its_input(self, x):
        before = x.copy()
        assert np.array_equal(row_softmax(x), oracle.two_pass_softmax(x))
        assert np.array_equal(x, before)

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
            (q, dq, lambda s: attention(s.reshape(-1, 3, 4), k, v)[0]),
            (k, dk, lambda s: attention(q, s.reshape(-1, 5, 4), v)[0]),
            (v, dv, lambda s: attention(q, k, s.reshape(-1, 5, 4))[0]),
        ):
            r = grad_check(
                lambda s: weighted_sums(g, fn(s)), arr.ravel(), grad.ravel(), tol=1e-5
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
        vec = flatten(params)
        g = rng.normal(size=x.shape)
        _, cache = multi_head_attention(x, params, 2)
        dvec = np.zeros_like(vec)
        dx = multi_head_attention_backward(g, cache, unflatten(params, dvec))

        def f(stack):  # one parameter copy per row of the stack
            return weighted_sums(g, multi_head_attention(x, unflatten(params, stack), 2)[0])

        r = grad_check(f, vec, dvec, tol=1e-4)
        assert r.passed, r
        r = grad_check(
            lambda s: weighted_sums(
                g, multi_head_attention(s.reshape(-1, *x.shape), params, 2)[0]
            ),
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
        vec = flatten(params)
        g = rng.normal(size=x.shape)
        _, cache = encoder_layer(x, params, 2)
        dvec = np.zeros_like(vec)
        dx = encoder_layer_backward(g, cache, unflatten(params, dvec))

        def f(stack):  # one parameter copy per row of the stack
            return weighted_sums(g, encoder_layer(x, unflatten(params, stack), 2)[0])

        r = grad_check(f, vec, dvec, tol=1e-4)
        assert r.passed, r
        r = grad_check(
            lambda s: weighted_sums(g, encoder_layer(s.reshape(-1, *x.shape), params, 2)[0]),
            x.ravel(),
            dx.ravel(),
            tol=1e-4,
        )
        assert r.passed, r

    def test_masked_layer_gradients(self, rng):
        """Under a key mask, the backward is the masked layer's, by finite
        differences over the parameters and the input; the masked rows are
        queries still, so their outputs are weighted too."""
        d, mask = 8, np.array([True, True, False, True, True, False])
        x = rng.normal(size=(len(mask), d))
        params = init_encoder_layer_params(d, 16, rng)
        vec = flatten(params)
        g = rng.normal(size=x.shape)
        _, cache = encoder_layer(x, params, 2, mask)
        dvec = np.zeros_like(vec)
        dx = encoder_layer_backward(g, cache, unflatten(params, dvec))
        masked = encoder_layer(x, params, 2, mask)[0]
        assert not np.allclose(masked, encoder_layer(x, params, 2)[0])

        def f(stack):  # one parameter copy per row of the stack
            return weighted_sums(g, encoder_layer(x, unflatten(params, stack), 2, mask)[0])

        r = grad_check(f, vec, dvec, tol=1e-4)
        assert r.passed, r
        r = grad_check(
            lambda s: weighted_sums(g, encoder_layer(s.reshape(-1, *x.shape), params, 2,
                                                     mask)[0]),
            x.ravel(),
            dx.ravel(),
            tol=1e-4,
        )
        assert r.passed, r

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 7), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_padded_masked_rows_equal_the_unpadded_layer(self, n, data, seed):
        """A bucket of ``n``-row instances, n from 4 to 7, padded to at most 7
        rows with copies of each one's last and masked there: the real rows'
        outputs and input gradients and every instance's parameter gradient
        equal the unpadded bucket's bit for bit, the copies' outputs given a
        zero gradient."""
        rng = np.random.default_rng(seed)
        top, n_h = data.draw(st.integers(n, 7)), data.draw(st.integers(1, 2))
        d = n_h * data.draw(st.integers(2, 4))
        params = init_encoder_layer_params(d, data.draw(st.integers(2, 20)), rng)
        x, g = rng.normal(size=(2, data.draw(st.integers(1, 4)), n, d))
        padded = np.concatenate([x, x[:, -1:].repeat(top - n, axis=1)], axis=1)
        mask = np.broadcast_to(np.arange(top) < n, padded.shape[:2])
        rows = np.zeros((2, len(x), flatten(params).size))
        out, cache = encoder_layer(x, params, n_h)
        dx = encoder_layer_backward(g, cache, unflatten(params, rows[0]))
        out_pad, cache = encoder_layer(padded, params, n_h, mask)
        dx_pad = encoder_layer_backward(np.pad(g, ((0, 0), (0, top - n), (0, 0))), cache,
                                        unflatten(params, rows[1]))
        assert np.array_equal(out_pad[:, :n], out)
        assert np.array_equal(dx_pad[:, :n], dx)
        assert np.array_equal(rows[1], rows[0])

    def test_determinism(self, rng):
        params = init_encoder_layer_params(8, 16, rng)
        x = rng.normal(size=(4, 8))
        a, _ = encoder_layer(x, params, 2)
        b, _ = encoder_layer(x.copy(), params, 2)
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "forward, backward, init",
    [
        (multi_head_attention, multi_head_attention_backward,
         lambda rng: init_attention_params(8, rng)),
        (encoder_layer, encoder_layer_backward,
         lambda rng: init_encoder_layer_params(8, 16, rng)),
    ],
    ids=["multi_head_attention", "encoder_layer"],
)
def test_backward_kernels_overwrite_grads(rng, forward, backward, init):
    """A backward writes every leaf of its gradient tree, whatever the leaves
    held: into a NaN-filled buffer, and again into one holding stale values,
    it leaves what a backward into a zero buffer leaves. Over a bucket of
    three instances, each row of a NaN-filled ``(3, N)`` buffer is written."""
    params = init(rng)
    x = rng.normal(size=(3, 5, 8))
    g = rng.normal(size=x.shape)
    _, cache = forward(x[0], params, 2)
    once = np.zeros_like(flatten(params))
    dx = backward(g[0], cache, unflatten(params, once))
    assert once.all()
    buffer = np.empty_like(once)
    grads = unflatten(params, buffer)
    for stale in (np.nan, 1.5):
        buffer.fill(stale)
        assert np.array_equal(backward(g[0], cache, grads), dx)
        assert np.array_equal(buffer, once)
    rows = np.full((3, once.size), np.nan)
    backward(g, forward(x, params, 2)[1], unflatten(params, rows))
    for xi, gi, row in zip(x, g, rows):
        want = np.zeros_like(once)
        backward(gi, forward(xi, params, 2)[1], unflatten(params, want))
        assert np.array_equal(row, want)


class TestGradCheck:
    def test_square_function(self):
        x = np.array([3.0])
        r = grad_check(lambda s: s[:, 0] ** 2, x, np.array([6.0]), h=1e-5, tol=1e-8)
        assert r.passed
        assert r.max_rel_error < 1e-8

    def test_constant_function(self):
        x = np.zeros(4)
        r = grad_check(lambda s: np.ones(len(s)), x, np.zeros(4), tol=1e-12)
        assert r.passed
        assert r.max_rel_error == 0.0

    def test_cross_module_loss(self, rng):
        z = rng.uniform(-4, 4, 8)
        b = rng.uniform(-2, 2, 8)
        out = biased_ce(z, b, 3)
        r = grad_check(
            lambda s: biased_ce(s, np.broadcast_to(b, s.shape), np.full(len(s), 3)).value,
            z,
            out.grad_logits,
            tol=1e-4,
        )
        assert r.passed, r

    def test_report_invariant(self, rng):
        z = rng.uniform(-1, 1, 4)
        wrong = np.zeros(4)
        r = grad_check(lambda s: np.sum(s**2, axis=1), z, wrong, tol=1e-6)
        assert not r.passed
        assert r.max_rel_error >= 1e-6
        assert 0 <= r.worst_coordinate < 4

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            grad_check(lambda s: np.zeros(len(s)), np.zeros(2), np.zeros(2), h=0.0)

    def test_stacks_perturbed_copies_and_leaves_x_alone(self, rng):
        x = rng.normal(size=(2, 3))
        before = x.copy()
        seen = []

        def f(stack):
            seen.append(stack.copy())
            return np.sum(stack**2, axis=1)

        r = grad_check(f, x, 2 * x, coords=[4], tol=1e-8)
        assert r.passed, r
        (stack,) = seen
        want = np.tile(before.ravel(), (2, 1))
        want[:, 4] = [before[1, 1] + 1e-5, before[1, 1] - 1e-5]
        assert np.array_equal(stack, want)
        assert np.array_equal(x, before)

    def test_one_call_per_chunk_of_coordinates(self):
        sizes = []

        def f(stack):
            sizes.append(len(stack))
            return np.sum(stack, axis=1)

        n = 2 * FD_CHUNK + 3
        r = grad_check(f, np.zeros(n), np.ones(n), tol=1e-8)
        assert r.passed, r
        assert sizes == [2 * FD_CHUNK, 2 * FD_CHUNK, 6]

    def test_rejects_nonfinite_function(self):
        with pytest.raises(ValueError):
            grad_check(lambda s: np.full(len(s), np.nan), np.zeros(2), np.zeros(2))


def cubic_rows(stack, gradient=None):
    """``sum(s**3 - s)`` of each row, and each row's own gradient ``3 s**2 - 1``
    (or ``gradient``, if given, for every row)."""
    values = np.sum(stack**3 - stack, axis=1)
    rows = 3 * stack**2 - 1 if gradient is None else np.broadcast_to(gradient, stack.shape)
    return values, rows


class TestGradCheckFromTheStack:
    """``analytic=None``: ``f`` gives values and row gradients, and the analytic
    gradient is the row of one unperturbed copy of ``x`` in the first chunk."""

    @pytest.mark.parametrize("coords", [None, [3, 0, 3], list(range(2 * FD_CHUNK + 5))])
    def test_same_report_as_passing_the_gradient(self, rng, coords):
        x = rng.uniform(-2, 2, (3, 50))  # three chunks of coordinates
        want = grad_check(lambda s: cubic_rows(s)[0], x, 3 * x**2 - 1, coords=coords, tol=1e-8)
        got = grad_check(cubic_rows, x, coords=coords, tol=1e-8)
        assert got == want
        assert got.passed and got.worst_coordinate >= 0

    def test_a_wrong_row_gradient_fails_on_its_coordinate(self, rng):
        x = rng.uniform(-2, 2, 10)
        wrong = 3 * x**2 - 1
        wrong[6] += 0.5
        r = grad_check(lambda s: cubic_rows(s, wrong), x, tol=1e-6)
        assert not r.passed
        assert r.worst_coordinate == 6
        assert r.max_rel_error > 0.5 / (1 + abs(wrong[6]))

    def test_only_the_first_chunk_carries_the_unperturbed_row(self, rng):
        x = rng.uniform(-2, 2, 2 * FD_CHUNK + 3)
        stacks = []

        def f(stack):
            stacks.append(stack.copy())
            return cubic_rows(stack)

        coords = np.arange(x.size)[::-1]
        r = grad_check(f, x, coords=coords, tol=1e-8)
        assert r.passed, r
        assert [len(s) for s in stacks] == [2 * FD_CHUNK + 1, 2 * FD_CHUNK, 6]
        assert np.array_equal(stacks[0][-1], x)
        for stack in stacks:
            n = len(stack) // 2
            assert (stack[: 2 * n] != x).sum(axis=1).tolist() == [1] * (2 * n)

    def test_a_nonfinite_unperturbed_row_raises(self):
        def f(stack):  # finite everywhere but at x itself
            values = np.where(np.all(stack == 0.0, axis=1), np.nan, stack.sum(axis=1))
            return values, np.ones_like(stack)

        with pytest.raises(ValueError, match="not finite at x"):
            grad_check(f, np.zeros(3))

    def test_a_row_gradient_of_another_size_raises(self):
        with pytest.raises(ValueError, match="shape must match x"):
            grad_check(lambda s: cubic_rows(s[:, :2]), np.zeros(3))


class TestParameterTrees:
    def test_unflatten_round_trip(self, rng):
        params = [init_encoder_layer_params(4, 8, rng)]
        vec = flatten(params)
        views = unflatten(params, vec)
        assert type(views) is list and type(views[0]) is type(params[0])
        assert np.array_equal(flatten(views), vec)
        assert [a.shape for a in leaves(views)] == [a.shape for a in leaves(params)]
        assert all(np.shares_memory(a, vec) for a in leaves(views))
        assert not any(np.shares_memory(a, vec) for a in leaves(params))

    def test_unflatten_writes_land_in_the_buffer(self, rng):
        params = init_attention_params(4, rng)
        vec = np.zeros_like(flatten(params))
        views = unflatten(params, vec)
        views.wk += params.wk
        views.wk += params.wk
        wk_twice = np.concatenate([np.zeros(16), 2 * params.wk.ravel(), np.zeros(32)])
        assert np.array_equal(vec, wk_twice)
        vec *= 0.5
        assert np.array_equal(views.wk, params.wk)

    def test_unflatten_views_a_stack_with_a_leading_axis(self, rng):
        params = [init_encoder_layer_params(4, 8, rng)]
        stack = rng.normal(size=(3, flatten(params).size))
        views = unflatten(params, stack)
        assert [a.shape for a in leaves(views)] == [(3, *a.shape) for a in leaves(params)]
        assert all(np.shares_memory(a, stack) for a in leaves(views))
        for row, copy in zip(stack, zip(*(leaves(views)))):
            assert np.array_equal(np.concatenate([a.ravel() for a in copy]), row)

    def test_dropping_the_tree_frees_the_buffer_without_the_collector(self, rng):
        params = init_encoder_layer_params(4, 8, rng)
        stack = np.zeros((2, flatten(params).size))
        freed = weakref.ref(stack)
        gc.disable()
        try:
            tree = unflatten(params, stack)
            del stack
            assert freed() is not None
            del tree
            assert freed() is None
        finally:
            gc.enable()

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

    @pytest.mark.parametrize(
        "vec", [np.zeros(3), np.zeros(65), np.zeros((4, 16)), np.zeros(64, dtype=np.float32)],
        ids=["short", "long", "2-d", "float32"],
    )
    def test_unflatten_rejects_a_wrong_buffer(self, rng, vec):
        params = init_attention_params(4, rng)
        with pytest.raises(ValueError, match="1-D float64 vector of 64 parameters"):
            unflatten(params, vec)


def test_attention_params_rejects_unsupported_tree():
    with pytest.raises(TypeError):
        leaves(AttentionParams(wq="x", wk=None, wv=None, wo=None))
