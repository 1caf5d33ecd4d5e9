"""Dense kernels with hand-written backward passes, plus the gradient checker.

Everything operates on 2-D float64 numpy arrays (rows = tokens). Forward
functions return ``(output, cache)`` and each ``*_backward`` consumes the
upstream gradient together with that cache. The encoder layer is pre-norm:

    h = x + mha(layer_norm(x))
    y = h + ffn(layer_norm(h))        ffn = relu(. @ w1 + b1) @ w2 + b2

so zeroing the attention output projection and the second ffn map turns the
layer into the identity. All reductions are sequential numpy ops, giving
bitwise-reproducible results for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "AttentionParams",
    "EncoderLayerParams",
    "GradCheckReport",
    "matmul_backward",
    "row_softmax",
    "row_softmax_backward",
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
    "write_flat",
    "zeros_like_tree",
    "tree_add",
]

LN_EPS = 1e-6


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


def _as_matrix(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {x.shape}")
    return x


def matmul_backward(
    g: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``sum(g * (a @ b))`` with respect to ``a`` and ``b``."""
    return g @ b.T, a.T @ g


def row_softmax(x: np.ndarray) -> np.ndarray:
    x = _as_matrix(x, "x")
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def row_softmax_backward(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    return p * (g - np.sum(g * p, axis=1, keepdims=True))


def layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, tuple]:
    mu = x.mean(axis=1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return xhat * gain + bias, (xhat, inv, gain)


def layer_norm_backward(
    g: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv, gain = cache
    d = xhat.shape[1]
    dgain = np.sum(g * xhat, axis=0)
    dbias = np.sum(g, axis=0)
    dxhat = g * gain
    dx = inv * (
        dxhat
        - dxhat.mean(axis=1, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=1, keepdims=True)
    )
    assert dx.shape[1] == d
    return dx, dgain, dbias


def attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Scaled dot-product attention ``row_softmax(q kᵀ / sqrt(d_k)) v``."""
    q = _as_matrix(q, "q")
    k = _as_matrix(k, "k")
    v = _as_matrix(v, "v")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"query/key dims differ: {q.shape[1]} vs {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"key/value row counts differ: {k.shape[0]} vs {v.shape[0]}")
    scale = 1.0 / np.sqrt(q.shape[1])
    p = row_softmax((q @ k.T) * scale)
    out = p @ v
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("attention produced non-finite values")
    return out, (q, k, v, p, scale)


def attention_backward(
    g: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    q, k, v, p, scale = cache
    dv = p.T @ g
    dp = g @ v.T
    ds = row_softmax_backward(dp, p) * scale
    return ds @ k, ds.T @ q, dv


def multi_head_attention(
    x: np.ndarray, params: AttentionParams, n_h: int
) -> tuple[np.ndarray, tuple]:
    """Multi-head self-attention over the rows of ``x``.

    Projections are split column-wise into ``n_h`` equal heads, attended
    independently, concatenated, and mixed by the output projection.
    """
    x = _as_matrix(x, "x")
    d = x.shape[1]
    if d % n_h != 0:
        raise ValueError(f"model dimension {d} not divisible by {n_h} heads")
    q = x @ params.wq
    k = x @ params.wk
    v = x @ params.wv
    d_h = d // n_h
    concat = np.empty_like(x)
    head_caches = []
    for h in range(n_h):
        sl = slice(h * d_h, (h + 1) * d_h)
        out_h, cache_h = attention(q[:, sl], k[:, sl], v[:, sl])
        concat[:, sl] = out_h
        head_caches.append(cache_h)
    out = concat @ params.wo
    return out, (x, params, n_h, q, k, v, concat, head_caches)


def multi_head_attention_backward(
    g: np.ndarray, cache: tuple
) -> tuple[np.ndarray, AttentionParams]:
    x, params, n_h, q, k, v, concat, head_caches = cache
    d = x.shape[1]
    d_h = d // n_h
    dwo = concat.T @ g
    dconcat = g @ params.wo.T
    dq = np.empty_like(q)
    dk = np.empty_like(k)
    dv = np.empty_like(v)
    for h in range(n_h):
        sl = slice(h * d_h, (h + 1) * d_h)
        dq[:, sl], dk[:, sl], dv[:, sl] = attention_backward(
            dconcat[:, sl], head_caches[h]
        )
    dx = dq @ params.wq.T + dk @ params.wk.T + dv @ params.wv.T
    grads = AttentionParams(wq=x.T @ dq, wk=x.T @ dk, wv=x.T @ dv, wo=dwo)
    return dx, grads


def _ffn(x: np.ndarray, p: EncoderLayerParams) -> tuple[np.ndarray, tuple]:
    pre = x @ p.w1 + p.b1
    act = np.maximum(pre, 0.0)
    return act @ p.w2 + p.b2, (x, pre, act)


def _ffn_backward(g: np.ndarray, p: EncoderLayerParams, cache: tuple):
    x, pre, act = cache
    dw2 = act.T @ g
    db2 = g.sum(axis=0)
    dact = g @ p.w2.T
    dpre = dact * (pre > 0.0)
    dw1 = x.T @ dpre
    db1 = dpre.sum(axis=0)
    dx = dpre @ p.w1.T
    return dx, dw1, db1, dw2, db2


def encoder_layer(
    x: np.ndarray, params: EncoderLayerParams, n_h: int
) -> tuple[np.ndarray, tuple]:
    """One pre-norm transformer encoder layer (self-attention + ffn residuals)."""
    x = _as_matrix(x, "x")
    ln1, ln1_cache = layer_norm(x, params.ln1_gain, params.ln1_bias)
    att, att_cache = multi_head_attention(ln1, params.attn, n_h)
    h = x + att
    ln2, ln2_cache = layer_norm(h, params.ln2_gain, params.ln2_bias)
    ff, ff_cache = _ffn(ln2, params)
    out = h + ff
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("encoder layer produced non-finite values")
    return out, (params, ln1_cache, att_cache, ln2_cache, ff_cache)


def encoder_layer_backward(
    g: np.ndarray, cache: tuple
) -> tuple[np.ndarray, EncoderLayerParams]:
    params, ln1_cache, att_cache, ln2_cache, ff_cache = cache
    dff = g
    dln2, dw1, db1, dw2, db2 = _ffn_backward(dff, params, ff_cache)
    dh, dln2_gain, dln2_bias = layer_norm_backward(dln2, ln2_cache)
    dh = dh + g
    datt = dh
    dln1, attn_grads = multi_head_attention_backward(datt, att_cache)
    dx, dln1_gain, dln1_bias = layer_norm_backward(dln1, ln1_cache)
    dx = dx + dh
    grads = EncoderLayerParams(
        attn=attn_grads,
        ln1_gain=dln1_gain,
        ln1_bias=dln1_bias,
        ln2_gain=dln2_gain,
        ln2_bias=dln2_bias,
        w1=dw1,
        b1=db1,
        w2=dw2,
        b2=db2,
    )
    return dx, grads


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
# the layout of flattened vectors and serialized checkpoints.


def leaves(tree) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    _collect(tree, out)
    return out


def _collect(node, out: list[np.ndarray]) -> None:
    if isinstance(node, np.ndarray):
        out.append(node)
    elif is_dataclass(node):
        # The field mapping in definition order; cheaper than fields(), and
        # tree_add walks two trees per encoder layer of every backward pass.
        for name in node.__dataclass_fields__:
            _collect(getattr(node, name), out)
    elif isinstance(node, (list, tuple)):
        for item in node:
            _collect(item, out)
    else:
        raise TypeError(f"unsupported parameter node {type(node)!r}")


def leaf_names(tree, prefix: str = "") -> list[str]:
    """Dotted path of each leaf, in :func:`leaves` order (``obj_layers.0.attn.wq``)."""
    if isinstance(tree, np.ndarray):
        return [prefix]
    if is_dataclass(tree):
        children = [(name, getattr(tree, name)) for name in tree.__dataclass_fields__]
    elif isinstance(tree, (list, tuple)):
        children = list(enumerate(tree))
    else:
        raise TypeError(f"unsupported parameter node {type(tree)!r}")
    return [
        path
        for key, child in children
        for path in leaf_names(child, f"{prefix}.{key}" if prefix else str(key))
    ]


def flatten(tree) -> np.ndarray:
    arrs = leaves(tree)
    if not arrs:
        return np.zeros(0)
    return np.concatenate([a.ravel() for a in arrs])


def write_flat(tree, vec: np.ndarray) -> None:
    """Copy a flat vector back into the tree's arrays, in place."""
    offset = 0
    for a in leaves(tree):
        n = a.size
        a[...] = vec[offset : offset + n].reshape(a.shape)
        offset += n
    if offset != vec.size:
        raise ValueError(f"vector length {vec.size} != parameter count {offset}")


def zeros_like_tree(tree):
    if isinstance(tree, np.ndarray):
        return np.zeros_like(tree)
    if is_dataclass(tree):
        return type(tree)(
            **{f.name: zeros_like_tree(getattr(tree, f.name)) for f in fields(tree)}
        )
    if isinstance(tree, (list, tuple)):
        return type(tree)(zeros_like_tree(item) for item in tree)
    raise TypeError(f"unsupported parameter node {type(tree)!r}")


def tree_add(dst, src) -> None:
    """Accumulate ``src`` into ``dst`` elementwise, in place."""
    for d, s in zip(leaves(dst), leaves(src), strict=True):
        d += s


def grad_check(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    analytic: np.ndarray,
    *,
    h: float = 1e-5,
    tol: float = 1e-4,
    coords: Sequence[int] | None = None,
) -> GradCheckReport:
    """Compare ``analytic`` against central differences of ``f`` at ``x``.

    The relative error at coordinate ``i`` is
    ``|fd_i - analytic_i| / max(1, |analytic_i|)``. ``coords`` restricts the
    check to a subset of coordinates (useful for large parameter vectors).
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = np.asarray(x, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x.shape:
        raise ValueError("analytic gradient shape must match x")
    idx = range(x.size) if coords is None else coords
    flat = x.ravel().copy()
    worst = -1
    max_rel = 0.0
    for i in idx:
        orig = flat[i]
        flat[i] = orig + h
        up = f(flat.reshape(x.shape))
        flat[i] = orig - h
        down = f(flat.reshape(x.shape))
        flat[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"function not finite near coordinate {i}")
        fd = (up - down) / (2.0 * h)
        ref = analytic.ravel()[i]
        rel = float(abs(fd - ref) / max(1.0, abs(ref)))
        if rel > max_rel:
            max_rel = rel
            worst = int(i)
    return GradCheckReport(
        max_rel_error=max_rel,
        worst_coordinate=worst,
        tolerance=tol,
        passed=max_rel < tol,
    )
