"""Relation classifiers over the detected objects of an image, or of a bucket of images.

Two models share one protocol, resolved from a :class:`ModelSpec` by
:func:`model_for`: ``init(spec, label_space, d_v, rng)`` builds the parameter
tree, ``forward(objects, unions, pairs, params, spec)`` gives a
:class:`ModelOutput`, and ``backward(d_obj, d_rel, output, params, spec,
grads)`` writes the parameter gradients into ``grads``, a tree of the
parameters' type (usually views of one flat gradient buffer, see
:func:`~tailbias.numerics.unflatten`), overwriting every leaf; every backward
kernel below writes the leaves of the ``grads`` it is given in the same way.
``objects`` is an :class:`~tailbias.synth.Objects` record of an image's
object rows, read whole (``split[i]`` has its fields); ``pairs`` is a ``(P,
2)`` array of (subject, object) row indices and ``unions`` their ``(P, d_v)``
union rows, so a caller may forward any subset of an image's ordered pairs,
such as the pairs drawn for a training step. The dual-stack encoder builds
object tokens from box geometry, visual features, and a learned embedding of
``objects.labels``, runs them through a stack of encoder layers, classifies
objects, fuses ordered pairs with their union-box features, runs a second
encoder stack over the pair tokens, and classifies relations. Its
``forward`` also takes a tree of ``(k, ...)`` leaves (``unflatten`` of a
``(k, N)`` stack) and runs the k parameter copies at once. Every stage has a
hand-written backward pass, so the whole network is certifiable by finite
differences. The linear model is a single affine relation head over the raw
fused pair features; it has no object head, so its ``object_logits`` are None.

Each ``forward`` is an object stage, ``(objects, params, spec) -> (tokens,
object_logits, object_probs, cache)``, then a pair stage, ``(tokens, unions,
pairs, params, spec) -> (relation_logits, cache)``, its cache the two in
turn: :func:`object_stage` and :func:`pair_stage` for the dual encoder,
:func:`linear_object_stage` (the detector features as tokens) and
:func:`linear_pair_stage` for the linear model. :class:`Model` carries both,
so that evaluation can encode a bucket's objects in larger calls than it
scores their pairs (see :mod:`tailbias.harness`); the pair stage takes any
run of the object stage's images.

Both ``forward`` functions take a bucket of images with the same object
count ``n``, the record's arrays with one leading axis (boxes ``(B, n, 4)``)
and ``(B, P, d_v)`` union rows, and give ``(B, P, L + 1)`` relation logits
and ``(B, n, L_e)`` object outputs; a single image is a bucket of one,
unbatched. ``pairs`` is either one ``(P, 2)`` array for every image of the
bucket alike, or a ``(B, P, 2)`` array of each image's own, as the bucket
runner of :mod:`tailbias.harness` passes them; the dual encoder attends
within an image only. Both ``backward`` functions take the bucket axis too:
``grads`` is then a tree of ``(B, ...)`` leaves (``unflatten`` of a ``(B,
N)`` stack), and each image's gradient is written into its own row. A
stacked product runs one matrix product per image, so a bucket's outputs and
gradient rows equal its images' own forwards and backwards bit for bit; the
bucket axis is never folded into the row axis of a 2-D product, whose rows
BLAS may round by the product's height. An empty ``pairs`` gives ``(0, L +
1)`` relation logits and no relation gradient.

The label embedding is the one table whose rows the forward gathers by
index; a backward adds an image's rows into that image's own gradient with
``np.add.at`` in object order, two objects of one class into one row.

A model embeds ``objects.labels`` as given and reads no task: the caller
chooses which labels an image's objects carry (see :mod:`tailbias.harness`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .numerics import (
    EncoderLayerParams,
    encoder_layer,
    encoder_layer_backward,
    flatten,
    init_encoder_layer_params,
    leaves,
    normal_init,
    row_softmax,
)
from .stats import LabelSpace, check_fields, ruled
from .synth import Objects

__all__ = [
    "MODEL_KINDS",
    "ModelSpec",
    "Model",
    "model_for",
    "feature_width",
    "DualEncoderParams",
    "LinearParams",
    "ModelOutput",
    "box_features",
    "embed_objects",
    "encode_objects",
    "fuse_pairs",
    "encode_relations_and_classify",
    "object_stage",
    "pair_stage",
    "forward",
    "backward",
    "init_dual_encoder",
    "init_linear",
    "linear_object_stage",
    "linear_pair_stage",
    "linear_forward",
    "linear_backward",
]

MODEL_KINDS = ("linear", "dual_encoder")


@dataclass(frozen=True)
class ModelSpec:
    """Options of either model kind.

    The dimension fields shape the dual encoder only; the linear model reads
    none of them. The label space and the union-feature width ``d_v`` come
    from the data and are passed next to the spec, not stored in it.
    """

    kind: str = ruled("linear", choices=MODEL_KINDS)
    d_model: int = ruled(32, ge=1)
    n_h: int = ruled(2, ge=1)
    n_o: int = ruled(2, ge=1)
    n_r: int = ruled(1, ge=1)
    d_ff: int = ruled(64, ge=1)
    d_e: int = ruled(16, ge=1)
    d_pos: int = ruled(16, ge=1)
    object_loss_weight: float = ruled(1.0, ge=0)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.d_model % self.n_h != 0:
            raise ValueError("d_model must be divisible by n_h")


@dataclass
class DualEncoderParams:
    w_pos: np.ndarray
    embed: np.ndarray
    w_in: np.ndarray
    obj_layers: list[EncoderLayerParams]
    w_clf_obj: np.ndarray
    w_fuse: np.ndarray
    rel_layers: list[EncoderLayerParams]
    w_clf_rel: np.ndarray


@dataclass
class LinearParams:
    w: np.ndarray
    b: np.ndarray


@dataclass
class ModelOutput:
    object_logits: np.ndarray | None
    object_probs: np.ndarray
    relation_logits: np.ndarray
    cache: tuple = field(repr=False, default=())


class Model(NamedTuple):
    """The entry points of one model kind; ``forward`` is ``pair_stage`` over
    the tokens of ``object_stage``."""

    init: Callable
    forward: Callable
    backward: Callable
    object_stage: Callable
    pair_stage: Callable


def model_for(spec: ModelSpec) -> Model:
    """The entry points of ``spec.kind``; the one place that reads the kind."""
    if spec.kind == "linear":
        return Model(init_linear, linear_forward, linear_backward, linear_object_stage,
                     linear_pair_stage)
    return Model(init_dual_encoder, forward, backward, object_stage, pair_stage)


def feature_width(spec: ModelSpec, label_space: LabelSpace, num_params: int) -> int:
    """The union-feature width ``d_v`` at which ``spec`` has ``num_params`` parameters.

    Checkpoints store parameter shapes but not ``d_v``. Every parameter count
    is affine in ``d_v``, so the sizes of two undrawn trees solve for it.
    """
    init = model_for(spec).init
    one, two = (flatten(init(spec, label_space, d_v)).size for d_v in (1, 2))
    extra, rest = divmod(num_params - one, two - one)
    if rest or extra < 0:
        raise ValueError(
            f"{num_params} parameters fit no feature width of a {spec.kind} model"
        )
    return 1 + extra


def init_dual_encoder(
    spec: ModelSpec,
    label_space: LabelSpace,
    d_v: int,
    rng: np.random.Generator | None = None,
) -> DualEncoderParams:
    """Seeded initial parameters; with ``rng`` None, a tree of the same shapes
    and no random draws, to be filled from a checkpoint."""
    d_in = spec.d_pos + d_v + spec.d_e
    d_fuse = d_v + 2 * spec.d_model
    return DualEncoderParams(
        w_pos=normal_init(rng, 1.0 / np.sqrt(8), (8, spec.d_pos)),
        embed=normal_init(rng, 0.02, (label_space.num_object_classes, spec.d_e)),
        w_in=normal_init(rng, 1.0 / np.sqrt(d_in), (d_in, spec.d_model)),
        obj_layers=[
            init_encoder_layer_params(spec.d_model, spec.d_ff, rng)
            for _ in range(spec.n_o)
        ],
        w_clf_obj=normal_init(
            rng, 1.0 / np.sqrt(spec.d_model), (spec.d_model, label_space.num_object_classes)
        ),
        w_fuse=normal_init(rng, 1.0 / np.sqrt(d_fuse), (d_fuse, spec.d_model)),
        rel_layers=[
            init_encoder_layer_params(spec.d_model, spec.d_ff, rng)
            for _ in range(spec.n_r)
        ],
        w_clf_rel=normal_init(
            rng, 1.0 / np.sqrt(spec.d_model), (spec.d_model, label_space.num_relations + 1)
        ),
    )


def init_linear(
    spec: ModelSpec,
    label_space: LabelSpace,
    d_v: int,
    rng: np.random.Generator | None = None,
) -> LinearParams:
    """Seeded weights over ``[union, subject, object]`` features and a zero bias;
    with ``rng`` None, zero weights of the same shapes."""
    d_in = 3 * d_v
    width = label_space.num_relations + 1
    return LinearParams(
        w=normal_init(rng, 1.0 / np.sqrt(d_in), (d_in, width)),
        b=np.zeros(width),
    )


def box_features(boxes: np.ndarray) -> np.ndarray:
    """Eight geometry features per ``[x1, y1, x2, y2]`` row: corners, width,
    height, center."""
    x1, y1, x2, y2 = np.moveaxis(boxes, -1, 0)
    return np.stack([x1, y1, x2, y2, x2 - x1, y2 - y1, (x1 + x2) / 2, (y1 + y2) / 2], axis=-1)


def embed_objects(objects: Objects, params: DualEncoderParams) -> tuple[np.ndarray, tuple]:
    """Fuse box geometry, visual feature, and the embedding of ``objects.labels``
    into one token per object."""
    if not objects.labels.shape[-1]:
        raise ValueError("no objects to embed")
    boxes = box_features(objects.boxes)
    feats, labels = objects.features, objects.labels
    pos = boxes @ params.w_pos
    feats_b = np.broadcast_to(feats, pos.shape[:-1] + feats.shape[-1:])
    concat = np.concatenate([pos, feats_b, params.embed[..., labels, :]], axis=-1)
    tokens = concat @ params.w_in
    return tokens, (boxes, concat, labels, pos.shape[-1], feats.shape[-1])


def embed_objects_backward(
    g: np.ndarray,
    params: DualEncoderParams,
    cache: tuple,
    grads: DualEncoderParams,
) -> None:
    boxes, concat, labels, d_pos, d_v = cache
    np.matmul(concat.swapaxes(-1, -2), g, out=grads.w_in)
    dconcat = g @ params.w_in.T
    np.matmul(boxes.swapaxes(-1, -2), dconcat[..., :d_pos], out=grads.w_pos)
    grads.embed[...] = 0.0
    np.add.at(grads.embed, _slice_rows(labels), dconcat[..., d_pos + d_v :])


def encode_objects(
    tokens: np.ndarray, params: DualEncoderParams, n_h: int
) -> tuple[np.ndarray, list]:
    caches, x = [], tokens
    for layer in params.obj_layers:
        x, cache = encoder_layer(x, layer, n_h)
        caches.append(cache)
    return x, caches


def _slice_rows(idx: np.ndarray) -> tuple:
    """An index of rows ``idx`` of an ``(n, ·)`` array for a ``(P,)`` ``idx``,
    or of each slice of a ``(B, n, ·)`` stack for a ``(B, P)`` ``idx``."""
    return (idx,) if idx.ndim == 1 else (np.arange(len(idx))[:, None], idx)


def _pair_rows(a: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """``[a[s], a[o]]`` for each pair ``(s, o)``, ``(..., P, 2d)``: rows of
    ``a`` ``(..., n, d)`` by ``(P, 2)`` pairs shared by every leading slice,
    or of each slice of a ``(B, n, d)`` stack by its own ``(B, P, 2)`` pairs."""
    if pairs.ndim == 2:
        rows = a[..., pairs, :]
    else:
        rows = a[np.arange(len(pairs))[:, None, None], pairs]
    return rows.reshape(rows.shape[:-2] + (2 * a.shape[-1],))


def fuse_pairs(
    e_final: np.ndarray,
    unions: np.ndarray,
    pairs: np.ndarray,
    params: DualEncoderParams,
) -> tuple[np.ndarray, tuple]:
    """One token per ordered pair: ``[union, subject, object] @ w_fuse``."""
    n = e_final.shape[-2]
    s_idx, o_idx = pairs[..., 0], pairs[..., 1]
    bad = np.flatnonzero((s_idx == o_idx) | ((pairs < 0) | (pairs >= n)).any(axis=-1))
    if bad.size:
        s, o = pairs.reshape(-1, 2)[bad[0]].tolist()
        why = "relates an object to itself" if s == o else f"out of range for {n} objects"
        raise ValueError(f"pair ({s}, {o}) {why}")
    if pairs.shape[-2] != unions.shape[-2]:
        raise ValueError("one union feature row is required per pair")
    stacked = np.broadcast_to(unions, e_final.shape[:-2] + unions.shape[-2:])
    concat = np.concatenate([stacked, _pair_rows(e_final, pairs)], axis=-1)
    return concat @ params.w_fuse, (concat, s_idx, o_idx, unions.shape[-1], n)


def fuse_pairs_backward(
    g: np.ndarray, params: DualEncoderParams, cache: tuple, grads: DualEncoderParams
) -> np.ndarray:
    """Write ``w_fuse``'s gradient into ``grads``; return the gradient of the
    object tokens, whose pair rows are added with ``np.add.at`` in pair order."""
    concat, s_idx, o_idx, d_u, n = cache
    np.matmul(concat.swapaxes(-1, -2), g, out=grads.w_fuse)
    dconcat = g @ params.w_fuse.T
    d_model = (dconcat.shape[-1] - d_u) // 2
    de = np.zeros(dconcat.shape[:-2] + (n, d_model))
    d_s, d_o = dconcat[..., d_u : d_u + d_model], dconcat[..., d_u + d_model :]
    for idx, rows in ((s_idx, d_s), (o_idx, d_o)):
        np.add.at(de, _slice_rows(np.broadcast_to(idx, rows.shape[:-1])), rows)
    return de


def encode_relations_and_classify(
    pair_tokens: np.ndarray, params: DualEncoderParams, n_h: int
) -> tuple[np.ndarray, list]:
    """Relation logits; an empty block skips the encoder (no attention over no pairs)."""
    caches, x = [], pair_tokens
    for layer in params.rel_layers if pair_tokens.shape[-2] else ():
        x, cache = encoder_layer(x, layer, n_h)
        caches.append(cache)
    logits = x @ params.w_clf_rel
    return logits, [caches, x]


def object_stage(
    objects: Objects, params: DualEncoderParams, spec: ModelSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """The object tokens, object logits and probabilities, and their cache:
    embedding, object encoder stack, object head."""
    if objects.labels.shape[-1] < 2:
        raise ValueError("no pairs: need at least two objects")
    tokens, embed_cache = embed_objects(objects, params)
    e_final, obj_caches = encode_objects(tokens, params, spec.n_h)
    object_logits = e_final @ params.w_clf_obj
    return e_final, object_logits, row_softmax(object_logits), (embed_cache, obj_caches, e_final)


def pair_stage(
    tokens: np.ndarray,
    unions: np.ndarray,
    pairs: np.ndarray,
    params: DualEncoderParams,
    spec: ModelSpec,
) -> tuple[np.ndarray, tuple]:
    """The relation logits of ``pairs`` over the object ``tokens``, and their
    cache: pair fusion, relation encoder stack, relation head."""
    pair_tokens, fuse_cache = fuse_pairs(tokens, unions, pairs, params)
    relation_logits, rel_cache = encode_relations_and_classify(pair_tokens, params, spec.n_h)
    return relation_logits, (fuse_cache, rel_cache)


def _stages(object_fn: Callable, pair_fn: Callable, objects: Objects, unions: np.ndarray,
            pairs: np.ndarray, params, spec: ModelSpec) -> ModelOutput:
    """``pair_fn`` over the tokens of ``object_fn``, one cache after the other."""
    tokens, object_logits, object_probs, object_cache = object_fn(objects, params, spec)
    relation_logits, pair_cache = pair_fn(tokens, unions, pairs, params, spec)
    return ModelOutput(object_logits=object_logits, object_probs=object_probs,
                       relation_logits=relation_logits, cache=object_cache + pair_cache)


def forward(
    objects: Objects,
    unions: np.ndarray,
    pairs: np.ndarray,
    params: DualEncoderParams,
    spec: ModelSpec,
) -> ModelOutput:
    """Full pipeline: :func:`object_stage`, then :func:`pair_stage`."""
    return _stages(object_stage, pair_stage, objects, unions, pairs, params, spec)


def backward(
    d_object_logits: np.ndarray | None,
    d_relation_logits: np.ndarray,
    output: ModelOutput,
    params: DualEncoderParams,
    spec: ModelSpec,
    grads: DualEncoderParams,
) -> DualEncoderParams:
    """Exact parameter gradients of one forward pass, written into ``grads``.

    ``d_object_logits``/``d_relation_logits`` are the loss gradients at the two
    classifier outputs; a None ``d_object_logits`` gives a zero ``w_clf_obj``
    gradient. Every leaf of ``grads`` is overwritten, whatever it held. After
    a bucket's forward, ``grads`` has ``(B, ...)`` leaves, one row per image.
    """
    embed_cache, obj_caches, e_final, fuse_cache, rel_cache = output.cache
    rel_layer_caches, rel_final = rel_cache

    np.matmul(rel_final.swapaxes(-1, -2), d_relation_logits, out=grads.w_clf_rel)
    dx = d_relation_logits @ params.w_clf_rel.T
    if not rel_layer_caches:  # an empty pair block skipped the relation stack
        for leaf in leaves(grads.rel_layers):
            leaf[...] = 0.0
    for i in range(len(rel_layer_caches) - 1, -1, -1):
        dx = encoder_layer_backward(dx, rel_layer_caches[i], grads.rel_layers[i])
    de_final = fuse_pairs_backward(dx, params, fuse_cache, grads)

    if d_object_logits is None:
        grads.w_clf_obj[...] = 0.0
    else:
        np.matmul(e_final.swapaxes(-1, -2), d_object_logits, out=grads.w_clf_obj)
        de_final += d_object_logits @ params.w_clf_obj.T

    dx = de_final
    for i in range(spec.n_o - 1, -1, -1):
        dx = encoder_layer_backward(dx, obj_caches[i], grads.obj_layers[i])
    embed_objects_backward(dx, params, embed_cache, grads)
    return grads


def linear_object_stage(
    objects: Objects, params: LinearParams, spec: ModelSpec
) -> tuple[np.ndarray, None, np.ndarray, tuple]:
    """The linear model's object stage: the detector's features are its tokens
    and its scores the object probabilities; no object logits, no cache."""
    if objects.labels.shape[-1] < 2:
        raise ValueError("no pairs: need at least two objects")
    return objects.features, None, objects.scores, ()


def linear_pair_stage(
    tokens: np.ndarray,
    unions: np.ndarray,
    pairs: np.ndarray,
    params: LinearParams,
    spec: ModelSpec,
) -> tuple[np.ndarray, tuple]:
    """The affine head over ``[union, tokens[s], tokens[o]]``, and its input."""
    x = np.concatenate([unions, _pair_rows(tokens, pairs)], axis=-1)
    return x @ params.w + params.b[..., None, :], (x,)


def linear_forward(
    objects: Objects,
    unions: np.ndarray,
    pairs: np.ndarray,
    params: LinearParams,
    spec: ModelSpec,
) -> ModelOutput:
    """Affine relation head over ``[union, subject feature, object feature]``:
    :func:`linear_object_stage`, then :func:`linear_pair_stage`.

    ``spec`` completes the shared protocol; the linear head reads no spec
    field and no label, and its object probabilities are the detector
    scores. ``params`` may be a tree of ``(k, ...)`` leaves, giving ``(k, P,
    C)`` logits, or ``objects`` a bucket of ``B`` images, giving ``(B, P,
    C)`` logits.
    """
    return _stages(linear_object_stage, linear_pair_stage, objects, unions, pairs, params, spec)


def linear_backward(
    d_object_logits: None,
    d_relation_logits: np.ndarray,
    output: ModelOutput,
    params: LinearParams,
    spec: ModelSpec,
    grads: LinearParams,
) -> LinearParams:
    """Write the gradients of the affine head into ``grads``; it has no object head."""
    (x,) = output.cache
    np.matmul(x.swapaxes(-1, -2), d_relation_logits, out=grads.w)
    np.add.reduce(d_relation_logits, axis=-2, out=grads.b)
    return grads
