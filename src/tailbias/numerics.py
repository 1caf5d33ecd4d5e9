"""Dense kernels with hand-written backward passes, plus the gradient checker.

Forward kernels take float64 arrays ``(..., T, d)`` of token rows under any
leading batch axes, and parameters with leading axes of their own (vectors
broadcast as ``b[..., None, :]``), so one call runs many parameter copies;
attention heads are one more reshaped axis. Forward functions return
``(output, cache)`` and each ``*_backward`` consumes the upstream gradient
together with that cache. A backward takes the leading bucket axes of its
forward's input, ``(B, T, d)`` for ``B`` instances under one unbatched
parameter copy, and writes each instance's parameter gradient into its own
row of a gradient tree of ``(B, ...)`` leaves, overwriting whatever the
leaves held: weight gradients are stacked products ``x.swapaxes(-1, -2) @ g``
and bias gradients ``g.sum(axis=-2)``, written through ``out=``, so a row
equals the instance's own unbatched backward bit for bit; the bucket axis is
never folded into the rows of a 2-D product. The encoder layer
is pre-norm:

    h = x + mha(layer_norm(x))
    y = h + ffn(layer_norm(h))        ffn = relu(. @ w1 + b1) @ w2 + b2

so zeroing the attention output projection and the second ffn map turns the
layer into the identity. All reductions are sequential numpy ops, giving
bitwise-reproducible results for identical inputs, batched or not.

Parameter trees are views of one flat buffer (:func:`unflatten`); backward
kernels write every leaf of a gradient tree of the same type, and :func:`grad_check`
differences a stack of perturbed copies of a buffer in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "AttentionParams",
    "EncoderLayerParams",
    "GradCheckReport",
    "row_max",
    "row_softmax",
    "row_softmax_backward",
    "running_sum",
    "layer_norm",
    "layer_norm_backward",
    "attention",
    "attention_backward",
    "multi_head_attention",
    "multi_head_attention_backward",
    "encoder_layer",
    "encoder_layer_backward",
    "grad_check",
    "normal_init",
    "init_attention_params",
    "init_encoder_layer_params",
    "leaves",
    "leaf_names",
    "flatten",
    "unflatten",
]

LN_EPS = 1e-6
# Coordinates :func:`grad_check` differences per call of its function.
FD_CHUNK = 64


@dataclass
class AttentionParams:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray


@dataclass
class EncoderLayerParams:
    attn: AttentionParams
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    worst_coordinate: int
    tolerance: float
    passed: bool


def _as_tokens(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError(f"{name} must have shape (..., tokens, dim), got {x.shape}")
    return x


def row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)``, folded along the leading axis of a copy of ``x.T``."""
    return x.T.copy().max(axis=0).T


def row_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in a new array; ``x`` is not written."""
    x = np.asarray(x, dtype=np.float64)
    e = x - row_max(x)[..., np.newaxis]
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=e)


def row_softmax_backward(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def running_sum(x: np.ndarray):
    """Sums over the last axis in index order, as a running total adds
    (``np.sum`` adds pairwise); a float for a 1-D ``x``."""
    x = np.asarray(x)
    total = np.cumsum(x, axis=-1)[..., -1] if x.shape[-1] else np.zeros(x.shape[:-1])
    return float(total) if np.ndim(total) == 0 else total


def layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, tuple]:
    # A sum over d divided by d is np.mean bit for bit, without its Python layer.
    d = x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(np.square(xhat), axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= inv
    return xhat * gain[..., None, :] + bias[..., None, :], (xhat, inv, gain)


def layer_norm_backward(
    g: np.ndarray, cache: tuple, dgain: np.ndarray, dbias: np.ndarray
) -> np.ndarray:
    """Write the gain and bias gradients into ``dgain`` and ``dbias``; return
    the input gradient."""
    xhat, inv, gain = cache
    np.add.reduce(g * xhat, axis=-2, out=dgain)
    np.add.reduce(g, axis=-2, out=dbias)
    dxhat = g * gain[..., None, :]
    d = xhat.shape[-1]
    return inv * (
        dxhat
        - dxhat.sum(axis=-1, keepdims=True) / d
        - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
    )


def attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Scaled dot-product attention ``row_softmax(q kᵀ / sqrt(d_k)) v``."""
    q = _as_tokens(q, "q")
    k = _as_tokens(k, "k")
    v = _as_tokens(v, "v")
    if q.shape[-1] != k.shape[-1]:
        raise ValueError(f"query/key dims differ: {q.shape[-1]} vs {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ValueError(f"key/value row counts differ: {k.shape[-2]} vs {v.shape[-2]}")
    scale = 1.0 / np.sqrt(q.shape[-1])
    p = row_softmax((q @ k.swapaxes(-1, -2)) * scale)
    out = p @ v
    if not np.isfinite(out).all():
        raise FloatingPointError("attention produced non-finite values")
    return out, (q, k, v, p, scale)


def attention_backward(
    g: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    q, k, v, p, scale = cache
    dv = p.swapaxes(-1, -2) @ g
    dp = g @ v.swapaxes(-1, -2)
    ds = row_softmax_backward(dp, p) * scale
    return ds @ k, ds.swapaxes(-1, -2) @ q, dv


def _split_heads(a: np.ndarray, n_h: int) -> np.ndarray:
    """``(..., T, d)`` columns as ``(..., n_h, T, d / n_h)`` heads (a view)."""
    return np.swapaxes(a.reshape(*a.shape[:-1], n_h, -1), -2, -3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_split_heads`, as a new contiguous array."""
    a = np.swapaxes(a, -2, -3)
    return a.reshape(*a.shape[:-2], -1)


def multi_head_attention(
    x: np.ndarray, params: AttentionParams, n_h: int
) -> tuple[np.ndarray, tuple]:
    """Multi-head self-attention over the rows of ``x``.

    Projections are split column-wise into ``n_h`` equal heads, attended
    independently as one more leading axis, concatenated, and mixed by the
    output projection.
    """
    x = _as_tokens(x, "x")
    if x.shape[-1] % n_h != 0:
        raise ValueError(f"model dimension {x.shape[-1]} not divisible by {n_h} heads")
    heads, att_cache = attention(
        *(_split_heads(x @ w, n_h) for w in (params.wq, params.wk, params.wv))
    )
    concat = _merge_heads(heads)
    return concat @ params.wo, (x, params, n_h, concat, att_cache)


def multi_head_attention_backward(
    g: np.ndarray, cache: tuple, grads: AttentionParams
) -> np.ndarray:
    """Write the projection gradients into ``grads``; return the input gradient."""
    x, params, n_h, concat, att_cache = cache
    np.matmul(concat.swapaxes(-1, -2), g, out=grads.wo)
    dq, dk, dv = (
        _merge_heads(d)
        for d in attention_backward(_split_heads(g @ params.wo.T, n_h), att_cache)
    )
    x_t = x.swapaxes(-1, -2)
    np.matmul(x_t, dq, out=grads.wq)
    np.matmul(x_t, dk, out=grads.wk)
    np.matmul(x_t, dv, out=grads.wv)
    return dq @ params.wq.T + dk @ params.wk.T + dv @ params.wv.T


def _ffn(x: np.ndarray, p: EncoderLayerParams) -> tuple[np.ndarray, tuple]:
    pre = x @ p.w1 + p.b1[..., None, :]
    act = np.maximum(pre, 0.0)
    return act @ p.w2 + p.b2[..., None, :], (x, pre, act)


def _ffn_backward(
    g: np.ndarray, p: EncoderLayerParams, cache: tuple, grads: EncoderLayerParams
) -> np.ndarray:
    x, pre, act = cache
    np.matmul(act.swapaxes(-1, -2), g, out=grads.w2)
    np.add.reduce(g, axis=-2, out=grads.b2)
    dpre = g @ p.w2.T
    dpre *= pre > 0.0
    np.matmul(x.swapaxes(-1, -2), dpre, out=grads.w1)
    np.add.reduce(dpre, axis=-2, out=grads.b1)
    return dpre @ p.w1.T


def encoder_layer(
    x: np.ndarray, params: EncoderLayerParams, n_h: int
) -> tuple[np.ndarray, tuple]:
    """One pre-norm transformer encoder layer (self-attention + ffn residuals)."""
    x = _as_tokens(x, "x")
    ln1, ln1_cache = layer_norm(x, params.ln1_gain, params.ln1_bias)
    att, att_cache = multi_head_attention(ln1, params.attn, n_h)
    h = x + att
    ln2, ln2_cache = layer_norm(h, params.ln2_gain, params.ln2_bias)
    ff, ff_cache = _ffn(ln2, params)
    out = h + ff
    if not np.isfinite(out).all():
        raise FloatingPointError("encoder layer produced non-finite values")
    return out, (params, ln1_cache, att_cache, ln2_cache, ff_cache)


def encoder_layer_backward(
    g: np.ndarray, cache: tuple, grads: EncoderLayerParams
) -> np.ndarray:
    """Write the layer's parameter gradients into ``grads``; return the input gradient."""
    params, ln1_cache, att_cache, ln2_cache, ff_cache = cache
    dln2 = _ffn_backward(g, params, ff_cache, grads)
    dh = layer_norm_backward(dln2, ln2_cache, grads.ln2_gain, grads.ln2_bias)
    dh += g
    dln1 = multi_head_attention_backward(dh, att_cache, grads.attn)
    dx = layer_norm_backward(dln1, ln1_cache, grads.ln1_gain, grads.ln1_bias)
    return dx + dh


def normal_init(rng: np.random.Generator | None, scale: float, shape) -> np.ndarray:
    """``N(0, scale^2)`` weights; zeros when ``rng`` is None, for a tree about to be overwritten."""
    return np.zeros(shape) if rng is None else rng.normal(0.0, scale, shape)


def init_attention_params(d: int, rng: np.random.Generator | None) -> AttentionParams:
    s = 1.0 / np.sqrt(d)
    return AttentionParams(
        wq=normal_init(rng, s, (d, d)),
        wk=normal_init(rng, s, (d, d)),
        wv=normal_init(rng, s, (d, d)),
        wo=normal_init(rng, s, (d, d)),
    )


def init_encoder_layer_params(
    d: int, d_ff: int, rng: np.random.Generator | None
) -> EncoderLayerParams:
    return EncoderLayerParams(
        attn=init_attention_params(d, rng),
        ln1_gain=np.ones(d),
        ln1_bias=np.zeros(d),
        ln2_gain=np.ones(d),
        ln2_bias=np.zeros(d),
        w1=normal_init(rng, 1.0 / np.sqrt(d), (d, d_ff)),
        b1=np.zeros(d_ff),
        w2=normal_init(rng, 1.0 / np.sqrt(d_ff), (d_ff, d)),
        b2=np.zeros(d),
    )


# --- parameter trees -------------------------------------------------------
#
# Parameter containers are dataclasses whose fields are ndarrays, nested
# dataclasses, or lists thereof. Leaves enumerate in field order, which fixes
# the layout of flat buffers and serialized checkpoints. Training, checkpoint
# loading and certification hold each tree as views of one such buffer.


def _children(node) -> list[tuple]:
    if is_dataclass(node):
        return [(name, getattr(node, name)) for name in node.__dataclass_fields__]
    if isinstance(node, (list, tuple)):
        return list(enumerate(node))
    raise TypeError(f"unsupported parameter node {type(node)!r}")


def leaves(tree) -> list[np.ndarray]:
    if isinstance(tree, np.ndarray):
        return [tree]
    return [leaf for _, child in _children(tree) for leaf in leaves(child)]


def leaf_names(tree, prefix: str = "") -> list[str]:
    """Dotted path of each leaf, in :func:`leaves` order (``obj_layers.0.attn.wq``)."""
    if isinstance(tree, np.ndarray):
        return [prefix]
    return [
        path
        for key, child in _children(tree)
        for path in leaf_names(child, f"{prefix}.{key}" if prefix else str(key))
    ]


def flatten(tree) -> np.ndarray:
    """A fresh 1-D float64 copy of the leaves, in leaf order."""
    arrs = leaves(tree)
    if not arrs:
        return np.zeros(0)
    return np.concatenate([a.ravel() for a in arrs])


def unflatten(tree, vec: np.ndarray):
    """The inverse of :func:`flatten`: a tree of ``tree``'s type whose leaves
    are views of ``vec``, a float64 array of ``tree``'s size ``N``. A 1-D
    ``vec`` gives leaves of ``tree``'s shapes; a ``(k, N)`` stack of buffers
    gives leaves of shape ``(k, *shape)``, one parameter copy per row."""
    arrays = leaves(tree)
    ends = np.cumsum([0] + [a.size for a in arrays])
    if vec.dtype != np.float64 or vec.ndim not in (1, 2) or vec.shape[-1] != ends[-1]:
        raise ValueError(
            f"need a 1-D float64 vector of {ends[-1]} parameters, or a (k, {ends[-1]}) "
            f"stack of them, got {vec.dtype} {vec.shape}"
        )
    lead = vec.shape[:-1]
    views = (vec[..., lo:hi].reshape(lead + a.shape) for lo, hi, a in zip(ends, ends[1:], arrays))
    return _rebuild(tree, views)


def _rebuild(node, views):
    """``node``'s structure with its leaves taken in order from ``views``; not a
    closure over itself, whose reference cycle would pin the buffer until a gc pass."""
    if isinstance(node, np.ndarray):
        return next(views)
    if is_dataclass(node):
        return type(node)(**{name: _rebuild(child, views) for name, child in _children(node)})
    return type(node)(_rebuild(child, views) for _, child in _children(node))


def grad_check(
    f: Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    analytic: np.ndarray | None = None,
    *,
    h: float = 1e-5,
    tol: float = 1e-4,
    coords: Sequence[int] | None = None,
) -> GradCheckReport:
    """Compare ``analytic`` against central differences of ``f`` at ``x``.

    ``f`` maps a ``(k, x.size)`` stack of flattened copies of ``x`` to their
    ``(k,)`` values. One call differences a chunk of :data:`FD_CHUNK`
    coordinates ``i``: rows with ``x[i] + h``, then rows with ``x[i] - h``. The
    relative error at ``i`` is ``|fd_i - analytic_i| / max(1, |analytic_i|)``,
    and the report names the first coordinate of the largest. ``coords``
    restricts the check to a subset of coordinates, taken in its order. A
    non-finite value raises, naming the first coordinate that gives one.

    With ``analytic=None``, ``f`` returns ``(values, row_gradients)``, the
    gradients a ``(k, x.size)`` array, and the first chunk's stack ends in one
    unperturbed copy of ``x``, whose gradient row is the analytic gradient:
    one call gives both, for an ``f`` that computes each row on its own. A
    non-finite value at ``x`` itself raises.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = np.asarray(x, dtype=np.float64)
    flat, ref = x.ravel(), None
    if analytic is not None:
        ref = np.asarray(analytic, dtype=np.float64)
        if ref.shape != x.shape:
            raise ValueError("analytic gradient shape must match x")
        ref = ref.ravel()
    idx = np.arange(x.size) if coords is None else np.asarray(coords, dtype=np.intp)
    worst = -1
    max_rel = 0.0
    for start in range(0, idx.size, FD_CHUNK):
        chunk = idx[start : start + FD_CHUNK]
        n = chunk.size
        rows = np.arange(n)
        stack = np.empty((2 * n + (ref is None), flat.size))
        stack[:] = flat
        stack[rows, chunk] = flat[chunk] + h
        stack[rows + n, chunk] = flat[chunk] - h
        out = f(stack)
        values, gradients = out if analytic is None else (out, None)
        values = np.asarray(values, dtype=np.float64)
        if not np.isfinite(values).all():
            finite = np.isfinite(values[:n]) & np.isfinite(values[n : 2 * n])
            if finite.all():
                raise ValueError("function not finite at x")
            raise ValueError(f"function not finite near coordinate {chunk[np.argmin(finite)]}")
        if ref is None:
            ref = np.asarray(gradients, dtype=np.float64)[-1].ravel()
            if ref.shape != flat.shape:
                raise ValueError("analytic gradient shape must match x")
        fd = (values[:n] - values[n : 2 * n]) / (2.0 * h)
        rel = np.abs(fd - ref[chunk]) / np.maximum(1.0, np.abs(ref[chunk]))
        rel[np.isnan(rel)] = 0.0  # a NaN error is never the worst, as with ``>``
        j = int(np.argmax(rel))
        if rel[j] > max_rel:
            max_rel = float(rel[j])
            worst = int(chunk[j])
    return GradCheckReport(
        max_rel_error=max_rel,
        worst_coordinate=worst,
        tolerance=tol,
        passed=max_rel < tol,
    )
