"""Kernels over leading batch axes, and the stacked finite-difference checker.

A batched call must compute, for every batch item, exactly what the same
unbatched call does: certification differences many parameter copies in one
forward and must report what one forward per copy reports. The checker is
held to the one-coordinate-at-a-time loop in ``oracle.py``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from tailbias.harness import MODES
from tailbias.model import (
    MODEL_KINDS,
    ModelSpec,
    forward,
    init_dual_encoder,
    init_linear,
    linear_forward,
    model_for,
)
from tailbias.numerics import (
    FD_CHUNK,
    _ffn,
    attention,
    encoder_layer,
    flatten,
    grad_check,
    init_attention_params,
    init_encoder_layer_params,
    layer_norm,
    leaves,
    multi_head_attention,
    multi_head_attention_backward,
    row_softmax,
    running_sum,
    unflatten,
)
from tailbias.stats import LabelSpace
from tailbias.synth import all_ordered_pairs
from test_model import make_image, task_view

SEEDS = st.integers(0, 2**32 - 1)
COPIES = st.integers(1, 5)
TOKENS = st.integers(1, 5)


def stacked(params, k, rng):
    """``k`` perturbed copies of ``params`` as one batched tree, and its stack."""
    vec = flatten(params)
    stack = vec + rng.normal(0.0, 0.1, (k, vec.size))
    return unflatten(params, stack), stack


def assert_items_equal(batched, per_item):
    assert batched.shape == (len(per_item), *np.shape(per_item[0]))
    for got, want in zip(batched, per_item):
        assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, k=COPIES, t=TOKENS)
def test_row_softmax_and_running_sum_per_item(seed, k, t):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 5.0, (k, t, 9))
    assert_items_equal(row_softmax(x), [row_softmax(a) for a in x])
    rows = x.reshape(-1, 9)
    assert_items_equal(running_sum(rows), [running_sum(r) for r in rows])
    assert isinstance(running_sum(rows[0]), float)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, k=COPIES, t=TOKENS)
def test_layer_norm_and_ffn_per_item(seed, k, t):
    rng = np.random.default_rng(seed)
    params = init_encoder_layer_params(8, 16, rng)
    batch, stack = stacked(params, k, rng)
    copies = [unflatten(params, row) for row in stack]
    x = rng.normal(size=(k, t, 8))
    assert_items_equal(
        layer_norm(x, batch.ln1_gain, batch.ln1_bias)[0],
        [layer_norm(a, p.ln1_gain, p.ln1_bias)[0] for a, p in zip(x, copies)],
    )
    assert_items_equal(_ffn(x, batch)[0], [_ffn(a, p)[0] for a, p in zip(x, copies)])
    assert_items_equal(_ffn(x[0], batch)[0], [_ffn(x[0], p)[0] for p in copies])


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, k=COPIES, t=TOKENS, s=TOKENS)
def test_attention_per_item(seed, k, t, s):
    rng = np.random.default_rng(seed)
    q, kk, v = rng.normal(size=(k, t, 4)), rng.normal(size=(k, s, 4)), rng.normal(size=(k, s, 3))
    assert_items_equal(attention(q, kk, v)[0], [attention(*a)[0] for a in zip(q, kk, v)])
    # one operand batched, the others shared
    assert_items_equal(attention(q, kk[0], v[0])[0], [attention(a, kk[0], v[0])[0] for a in q])


@pytest.mark.parametrize(
    "kernel, init",
    [
        (multi_head_attention, lambda rng: init_attention_params(8, rng)),
        (encoder_layer, lambda rng: init_encoder_layer_params(8, 16, rng)),
    ],
    ids=["multi_head_attention", "encoder_layer"],
)
@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, k=COPIES, t=TOKENS, n_h=st.sampled_from([1, 2, 4]))
def test_layer_kernels_per_item(kernel, init, seed, k, t, n_h):
    rng = np.random.default_rng(seed)
    params = init(rng)
    batch, stack = stacked(params, k, rng)
    copies = [unflatten(params, row) for row in stack]
    x = rng.normal(size=(k, t, 8))
    # parameters batched, input shared; input batched, parameters shared; both
    assert_items_equal(kernel(x[0], batch, n_h)[0], [kernel(x[0], p, n_h)[0] for p in copies])
    assert_items_equal(kernel(x, params, n_h)[0], [kernel(a, params, n_h)[0] for a in x])
    assert_items_equal(
        kernel(x, batch, n_h)[0], [kernel(a, p, n_h)[0] for a, p in zip(x, copies)]
    )


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, t=TOKENS, n_h=st.sampled_from([1, 2, 4]))
def test_heads_axis_matches_the_per_head_loop(seed, t, n_h):
    rng = np.random.default_rng(seed)
    params = init_attention_params(8, rng)
    x = rng.normal(size=(t, 8))
    g = rng.normal(size=x.shape)
    out, cache = multi_head_attention(x, params, n_h)
    want, want_cache = oracle.multi_head_attention(x, params, n_h)
    assert np.array_equal(out, want)
    grads, want_grads = (np.zeros_like(flatten(params)) for _ in range(2))
    dx = multi_head_attention_backward(g, cache, unflatten(params, grads))
    want_dx = oracle.multi_head_attention_backward(g, want_cache, unflatten(params, want_grads))
    assert np.array_equal(dx, want_dx)
    assert np.array_equal(grads, want_grads)


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, k=COPIES, n=st.integers(2, 5), task=st.sampled_from(MODES))
def test_model_forward_on_a_parameter_stack(seed, k, n, task):
    rng = np.random.default_rng(seed)
    ls = LabelSpace(num_object_classes=4, num_relations=3)
    spec = ModelSpec(kind="dual_encoder", d_model=8, d_e=4, d_pos=4, n_o=2, n_r=1, d_ff=8)
    params = init_dual_encoder(spec, ls, 6, rng)
    image = task_view(make_image(rng, n, ls.num_object_classes, 6), task)
    pairs = all_ordered_pairs(n)
    batch, stack = stacked(params, k, rng)
    out = forward(image, image.unions, pairs, batch, spec)
    for i, row in enumerate(stack):
        one = forward(image, image.unions, pairs, unflatten(params, row), spec)
        for name in ("object_logits", "object_probs", "relation_logits"):
            assert np.array_equal(getattr(out, name)[i], getattr(one, name)), name


# k == P: three objects have six ordered pairs, and six copies once broadcast
# a (k, N) bias across the pair axis instead of the copy axis.
@example(seed=0, k=6, n=3)
@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 7), n=st.integers(2, 4))
def test_linear_forward_on_a_parameter_stack(seed, k, n):
    rng = np.random.default_rng(seed)
    ls = LabelSpace(num_object_classes=4, num_relations=3)
    params = init_linear(ModelSpec(), ls, 5, rng)
    params.b[:] = rng.normal(size=params.b.shape)
    image = make_image(rng, n, ls.num_object_classes, 5)
    pairs = all_ordered_pairs(n)
    batch, stack = stacked(params, k, rng)
    out = linear_forward(image, image.unions, pairs, batch, ModelSpec())
    assert_items_equal(
        out.relation_logits,
        [
            linear_forward(image, image.unions, pairs, unflatten(params, row), ModelSpec())
            .relation_logits
            for row in stack
        ],
    )


@pytest.mark.parametrize("d", [8, 32, 48])
def test_a_stacked_product_is_one_product_per_slice(d):
    """Evaluation forwards a bucket of ``B`` images as ``(B, P, d) @ (d, C)``
    products and relies on each slice being bit-identical to the image's own
    2-D product: a numpy that folded the stack into one tall product, whose
    rows BLAS may round by its height, would fail here."""
    rng = np.random.default_rng(d)
    for b in (1, 2, 16, 17, 40):
        for p in (2, 12, 20, 30, 42):
            for c in (9, 31):
                a, w = rng.normal(size=(b, p, d)), rng.normal(size=(d, c))
                assert_items_equal(a @ w, [x @ w for x in a])


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_product_written_through_out_is_the_product(kind):
    """Backward passes write each weight gradient by ``np.matmul(x.swapaxes(-1,
    -2), g, out=leaf)`` and each bias gradient by ``np.add.reduce(g, axis=-2,
    out=leaf)``, into ``(B, ...)`` views of a ``(B, N)`` row buffer. numpy runs
    a product whose ``out`` BLAS cannot write in a loop of its own, which
    rounds otherwise; at every leaf shape of the default models, over any
    number of rows including none, the written bits must be those of
    ``x.swapaxes(-1, -2) @ g`` and ``g.sum(axis=-2)``."""
    spec = ModelSpec(kind=kind)
    params = model_for(spec).init(spec, LabelSpace(20, 30), 16)
    rng = np.random.default_rng(3)
    for b in (1, 3, 8):
        tree = unflatten(params, np.full((b, flatten(params).size), np.nan))
        for leaf in leaves(tree):
            for t in (0, 1, 6, 30):
                g = rng.normal(size=(b, t, leaf.shape[-1]))
                if leaf.ndim == 3:
                    x_t = rng.normal(size=(b, t, leaf.shape[1])).swapaxes(-1, -2)
                    assert np.array_equal(np.matmul(x_t, g, out=leaf), x_t @ g)
                else:
                    assert np.array_equal(np.add.reduce(g, axis=-2, out=leaf), g.sum(axis=-2))


@pytest.mark.parametrize("d", [8, 32, 48])
def test_stacked_gradients_are_one_per_slice(d):
    """Bucketed backward passes write each image's weight gradient as
    ``x.swapaxes(-1, -2) @ g``, its bias gradient as ``g.sum(axis=-2)``, its
    input gradient as ``g @ w.T`` and its scattered rows by one ``np.add.at``
    over ``(image, row)`` indices, and rely on each slice being bit-identical
    to the image's own 2-D product, sum and scatter: checkpoints are pinned
    to one backward per image."""
    rng = np.random.default_rng(d)
    for b in (1, 2, 3, 8):
        for t in (4, 12, 20, 30):
            for c in (9, 31, 64):
                x, g = rng.normal(size=(b, t, d)), rng.normal(size=(b, t, c))
                w = rng.normal(size=(d, c))
                assert_items_equal(x.swapaxes(-1, -2) @ g, [a.T @ h for a, h in zip(x, g)])
                assert_items_equal(g.sum(axis=-2), [h.sum(axis=0) for h in g])
                assert_items_equal(g @ w.T, [h @ w.T for h in g])
                rows = rng.integers(0, 5, (b, t))
                got = np.zeros((b, 5, c))
                np.add.at(got, (np.arange(b)[:, None], rows), g)
                want = [np.zeros((5, c)) for _ in range(b)]
                for one, r, h in zip(want, rows, g):
                    np.add.at(one, r, h)
                assert_items_equal(got, want)


def row_function(seed):
    """A scalar function of one copy, and the same function over a stack."""
    w = np.random.default_rng(seed).integers(-2, 3, 3 * FD_CHUNK) / 2.0

    def one(v):
        return float(np.sum(w[: v.size] * v**2) + v[0] * v[-1])

    return one, lambda stack: np.array([one(row) for row in stack])


# Quantised inputs and gradients, so that equal worst errors are common.
@settings(max_examples=40, deadline=None)
@given(
    seed=SEEDS,
    n=st.integers(1, 3 * FD_CHUNK),
    data=st.data(),
)
def test_grad_check_reports_what_the_scalar_loop_reports(seed, n, data):
    rng = np.random.default_rng(seed)
    x = rng.integers(-4, 5, n) / 4.0
    analytic = rng.integers(-4, 5, n) / 2.0
    coords = data.draw(
        st.none() | st.lists(st.integers(0, n - 1), max_size=3 * FD_CHUNK), label="coords"
    )
    one, stack_fn = row_function(seed)
    got = grad_check(stack_fn, x, analytic, coords=coords)
    want = oracle.grad_check(lambda v: one(v.ravel()), x.copy(), analytic, coords=coords)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 3 * FD_CHUNK), data=st.data())
def test_grad_check_fails_on_the_oracles_coordinate(seed, n, data):
    rng = np.random.default_rng(seed)
    # log is undefined below 0: a coordinate at h / 2 fails on its down step
    x = rng.choice([5e-6, 1.0, 2.0], n, p=[0.05, 0.5, 0.45])
    coords = data.draw(st.none() | st.permutations(range(n)), label="coords")

    def one(v):
        return float(np.sum(np.log(v)))

    outcomes = []
    with np.errstate(invalid="ignore"):
        for run in (
            lambda: grad_check(
                lambda s: np.array([one(r) for r in s]), x, np.zeros(n), coords=coords
            ),
            lambda: oracle.grad_check(lambda v: one(v), x.copy(), np.zeros(n), coords=coords),
        ):
            try:
                outcomes.append(run())
            except ValueError as err:
                outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]
