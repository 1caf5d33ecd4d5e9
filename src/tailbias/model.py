"""Relation classifiers over the detected objects of an image, or of a bucket of images.

A model kind is two stages, each with its backward, resolved from a
:class:`ModelSpec` by :func:`model_for` as a :class:`Model` with ``init(spec,
label_space, d_v, rng)``. The object stage ``(objects, params, spec) ->
(tokens, object_logits, object_probs, cache)`` encodes the objects; the pair
stage ``(tokens, unions, pairs, params, spec) -> (relation_logits, cache)``
classifies ordered pairs over the tokens of any run of its images. Their
backwards run in reverse: ``pair_backward(d_relation_logits, cache, params,
grads)`` returns the tokens' gradient, which ``object_backward(d_tokens,
d_object_logits, cache, params, grads)`` takes on. Each overwrites its
stage's leaves of ``grads``, a tree of the parameters' type (usually views
of one flat gradient buffer, see :func:`~tailbias.numerics.unflatten`), as
every backward kernel below overwrites the leaves it is given.

:func:`forward` and :func:`backward` compose the stages of either kind, with
cache ``(object_cache, pair_cache)``. ``forward`` alone checks its
arguments: fewer than two objects, a pair relating an object to itself or
out of range, or a union row count other than the pair count raises
``ValueError``. The stages take checked pairs, as the planner of
:mod:`tailbias.harness` builds them.

``objects`` is an :class:`~tailbias.synth.Objects` record of an image's
object rows; ``pairs`` is a ``(P, 2)`` array of (subject, object) row
indices and ``unions`` their ``(P, d_v)`` union rows, any subset of an
image's ordered pairs. The dual-stack encoder (:func:`object_stage`,
:func:`pair_stage`) builds object tokens from box geometry, visual features
and a learned embedding of ``objects.labels``, runs them through an encoder
stack, classifies objects, fuses ordered pairs with their union features,
runs a second encoder stack over the pair tokens, and classifies relations;
each step has a hand-written backward, certifiable by finite differences.
The linear model (:func:`linear_object_stage`, :func:`linear_pair_stage`)
is one affine relation head over ``[union, subject, object]`` features. Its
tokens and object probabilities are the detector's features and scores,
which no parameter makes: its ``object_logits`` are None, its pair backward
returns no token gradient, and its object backward writes nothing.

Every entry takes a bucket of images with the same object count ``n``: the
record's arrays with a leading axis (boxes ``(B, n, 4)``), ``(B, P, d_v)``
unions, and pairs ``(P, 2)`` for all alike or ``(B, P, 2)`` each, giving
``(B, P, L + 1)`` relation logits and ``(B, n, L_e)`` object outputs; a
single image is a bucket of one, unbatched, and the dual encoder attends
within an image only. A backward's ``grads`` then has ``(B, ...)`` leaves,
one row per image. A stacked product runs one matrix product per image, so
a bucket's outputs and gradient rows equal its images' own bit for bit; the
bucket axis is never folded into the row axis of a 2-D product, whose rows
BLAS may round by the product's height. ``forward`` also runs a tree of
``(k, ...)`` leaves, k parameter copies, at once. An empty ``pairs`` gives
``(0, L + 1)`` relation logits and no relation gradient.

Gathered rows get their gradient with ``np.add.at``: token rows in pair
order, subjects first, and the label embedding's rows per image in object
order, two objects of one class into one row.

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
    "object_backward",
    "pair_backward",
    "forward",
    "backward",
    "init_dual_encoder",
    "init_linear",
    "linear_object_stage",
    "linear_pair_stage",
    "linear_object_backward",
    "linear_pair_backward",
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
    """The entry points of one model kind: its parameters, its two stages,
    and their backwards."""

    init: Callable
    object_stage: Callable
    pair_stage: Callable
    object_backward: Callable
    pair_backward: Callable


def model_for(spec: ModelSpec) -> Model:
    """The entry points of ``spec.kind``; the one place that reads the kind."""
    if spec.kind == "linear":
        return Model(init_linear, linear_object_stage, linear_pair_stage,
                     linear_object_backward, linear_pair_backward)
    return Model(init_dual_encoder, object_stage, pair_stage, object_backward, pair_backward)


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
    """One token per ordered pair: ``[union, subject, object] @ w_fuse``, for
    checked ``pairs`` (see :func:`forward`)."""
    stacked = np.broadcast_to(unions, e_final.shape[:-2] + unions.shape[-2:])
    concat = np.concatenate([stacked, _pair_rows(e_final, pairs)], axis=-1)
    return concat @ params.w_fuse, (concat, pairs, e_final.shape[-2])


def fuse_pairs_backward(
    g: np.ndarray, params: DualEncoderParams, cache: tuple, grads: DualEncoderParams
) -> np.ndarray:
    """Write ``w_fuse``'s gradient into ``grads``; return the gradient of the
    object tokens, whose pair rows are added with ``np.add.at`` in pair order."""
    concat, pairs, n = cache
    np.matmul(concat.swapaxes(-1, -2), g, out=grads.w_fuse)
    dconcat = g @ params.w_fuse.T
    d_model = g.shape[-1]
    de = np.zeros(dconcat.shape[:-2] + (n, d_model))
    d_s, d_o = dconcat[..., -2 * d_model : -d_model], dconcat[..., -d_model:]
    for idx, rows in ((pairs[..., 0], d_s), (pairs[..., 1], d_o)):
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
    tokens, embed_cache = embed_objects(objects, params)
    e_final, obj_caches = encode_objects(tokens, params, spec.n_h)
    object_logits = e_final @ params.w_clf_obj
    return e_final, object_logits, row_softmax(object_logits), (embed_cache, obj_caches, e_final)


def pair_stage(tokens: np.ndarray, unions: np.ndarray, pairs: np.ndarray,
               params: DualEncoderParams, spec: ModelSpec) -> tuple[np.ndarray, tuple]:
    """The relation logits of checked ``pairs`` (see :func:`forward`) over the
    object ``tokens``, and their cache: pair fusion, relation encoder stack,
    relation head."""
    pair_tokens, fuse_cache = fuse_pairs(tokens, unions, pairs, params)
    relation_logits, rel_cache = encode_relations_and_classify(pair_tokens, params, spec.n_h)
    return relation_logits, (fuse_cache, rel_cache)


def pair_backward(d_relation_logits: np.ndarray, cache: tuple, params: DualEncoderParams,
                  grads: DualEncoderParams) -> np.ndarray:
    """Write the relation head's, relation stack's and fusion's gradients
    into ``grads``; return the object tokens' gradient. Over no pairs the
    skipped relation stack gets zeros."""
    fuse_cache, (rel_layer_caches, rel_final) = cache
    np.matmul(rel_final.swapaxes(-1, -2), d_relation_logits, out=grads.w_clf_rel)
    dx = d_relation_logits @ params.w_clf_rel.T
    if not rel_layer_caches:
        for leaf in leaves(grads.rel_layers):
            leaf[...] = 0.0
    for layer_cache, layer_grads in zip(reversed(rel_layer_caches), reversed(grads.rel_layers)):
        dx = encoder_layer_backward(dx, layer_cache, layer_grads)
    return fuse_pairs_backward(dx, params, fuse_cache, grads)


def object_backward(d_tokens: np.ndarray, d_object_logits: np.ndarray | None, cache: tuple,
                    params: DualEncoderParams, grads: DualEncoderParams) -> None:
    """Write the object head's, object stack's and embedding's gradients into
    ``grads``, from the tokens' gradient ``d_tokens`` and the object logits'
    ``d_object_logits``; a None ``d_object_logits`` gives a zero ``w_clf_obj``
    gradient."""
    embed_cache, obj_caches, e_final = cache
    if d_object_logits is None:
        grads.w_clf_obj[...] = 0.0
    else:
        np.matmul(e_final.swapaxes(-1, -2), d_object_logits, out=grads.w_clf_obj)
        d_tokens = d_tokens + d_object_logits @ params.w_clf_obj.T
    for layer_cache, layer_grads in zip(reversed(obj_caches), reversed(grads.obj_layers)):
        d_tokens = encoder_layer_backward(d_tokens, layer_cache, layer_grads)
    embed_objects_backward(d_tokens, params, embed_cache, grads)


def linear_object_stage(
    objects: Objects, params: LinearParams, spec: ModelSpec
) -> tuple[np.ndarray, None, np.ndarray, tuple]:
    """The linear model's object stage: the detector's features are its tokens
    and its scores the object probabilities; no object logits, no cache."""
    return objects.features, None, objects.scores, ()


def linear_pair_stage(tokens: np.ndarray, unions: np.ndarray, pairs: np.ndarray,
                      params: LinearParams, spec: ModelSpec) -> tuple[np.ndarray, tuple]:
    """The affine head over ``[union, tokens[s], tokens[o]]`` of checked
    ``pairs`` (see :func:`forward`), and its input."""
    x = np.concatenate([unions, _pair_rows(tokens, pairs)], axis=-1)
    return x @ params.w + params.b[..., None, :], (x,)


def linear_pair_backward(d_relation_logits: np.ndarray, cache: tuple, params: LinearParams,
                         grads: LinearParams) -> None:
    """Write the affine head's gradients into ``grads``. The tokens are the
    detector's features, which no parameter makes: no token gradient."""
    (x,) = cache
    np.matmul(x.swapaxes(-1, -2), d_relation_logits, out=grads.w)
    np.add.reduce(d_relation_logits, axis=-2, out=grads.b)


def linear_object_backward(d_tokens: None, d_object_logits: None, cache: tuple,
                           params: LinearParams, grads: LinearParams) -> None:
    """The linear object stage has no parameters: nothing to write."""


def forward(objects: Objects, unions: np.ndarray, pairs: np.ndarray,
            params: DualEncoderParams | LinearParams, spec: ModelSpec) -> ModelOutput:
    """Check ``pairs`` and ``unions`` against ``objects``, then run the object
    stage and the pair stage of ``spec``'s kind; the cache holds both stages'."""
    n = objects.labels.shape[-1]
    if n < 2:
        raise ValueError("no pairs: need at least two objects")
    bad = np.flatnonzero((pairs[..., 0] == pairs[..., 1])
                         | ((pairs < 0) | (pairs >= n)).any(axis=-1))
    if bad.size:
        s, o = pairs.reshape(-1, 2)[bad[0]].tolist()
        why = "relates an object to itself" if s == o else f"out of range for {n} objects"
        raise ValueError(f"pair ({s}, {o}) {why}")
    if pairs.shape[-2] != unions.shape[-2]:
        raise ValueError(f"{unions.shape[-2]} union rows for {pairs.shape[-2]} pairs: "
                         "one union feature row is required per pair")
    net = model_for(spec)
    tokens, object_logits, object_probs, object_cache = net.object_stage(objects, params, spec)
    relation_logits, pair_cache = net.pair_stage(tokens, unions, pairs, params, spec)
    return ModelOutput(object_logits, object_probs, relation_logits, (object_cache, pair_cache))


def backward(d_object_logits: np.ndarray | None, d_relation_logits: np.ndarray,
             output: ModelOutput, params: DualEncoderParams | LinearParams, spec: ModelSpec,
             grads: DualEncoderParams | LinearParams) -> DualEncoderParams | LinearParams:
    """Exact parameter gradients of one :func:`forward`, written into
    ``grads``: the pair stage's backward, then the object stage's.

    ``d_object_logits``/``d_relation_logits`` are the loss gradients at the two
    classifier outputs; ``d_object_logits`` is None for a model without an
    object head, and may be for one with it. Every leaf of ``grads`` is
    overwritten, whatever it held. After a bucket's forward, ``grads`` has
    ``(B, ...)`` leaves, one row per image.
    """
    net = model_for(spec)
    object_cache, pair_cache = output.cache
    d_tokens = net.pair_backward(d_relation_logits, pair_cache, params, grads)
    net.object_backward(d_tokens, d_object_logits, object_cache, params, grads)
    return grads


# ``perfbench/layers.py``'s probe table still names these two; they are the
# one forward and backward.
linear_forward, linear_backward = forward, backward
