"""Relation classifiers over the detected objects of one image.

Two models share one protocol, resolved from a :class:`ModelSpec` by
:func:`model_for`: ``init(spec, label_space, d_v, rng)`` builds the parameter
tree, ``forward(image, union_features, pairs, params, spec, mode)`` gives a
:class:`ModelOutput`, and ``backward(d_obj, d_rel, output, params, spec,
grads)`` adds the parameter gradients into ``grads``, a tree of the
parameters' type (usually views of one flat gradient buffer, see
:func:`~tailbias.numerics.unflatten`); every backward kernel below adds into
the ``grads`` it is given in the same way. ``image`` is a packed
:class:`~tailbias.synth.SynthImage`, whose object rows (boxes, features,
labels, detector scores) are read whole; ``pairs`` is a ``(P, 2)`` array of
(subject, object) row indices and ``union_features`` its ``(P, d_v)`` union
rows, so a caller may forward any subset of an image's ordered pairs, such as
the pairs drawn for a training step. The dual-stack encoder builds object
tokens from box geometry, visual features, and a learned label embedding, runs
them through a stack of encoder layers, classifies objects, fuses ordered
pairs with their union-box features, runs a second encoder stack over the pair
tokens, and classifies relations. Its ``forward`` also takes a tree of
``(k, ...)`` leaves (``unflatten`` of a ``(k, N)`` stack) and runs the k
parameter copies at once. Every stage has a hand-written backward pass, so
the whole network is certifiable by finite differences. The linear
model is a single affine relation head over the raw fused pair features; it
has no object head, so its ``object_logits`` are None.

Both ``forward`` functions take one image: ``pairs`` index that image's
object rows, and the dual encoder attends over all of them. An empty
``pairs`` gives ``(0, L + 1)`` relation logits and no relation gradient.
Training packs the drawn pairs of a batch's images into one block for its
loss call, but still runs the model once per image.

Task modes: ``predcls`` looks up label embeddings with the annotated object
labels; ``sgcls`` uses the argmax of the detector scores.
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
    normal_init,
    row_softmax,
    unflatten,
)
from .stats import LabelSpace
from .synth import SynthImage

__all__ = [
    "MODES",
    "MODEL_KINDS",
    "ModelSpec",
    "Model",
    "model_for",
    "feature_width",
    "DualEncoderParams",
    "LinearParams",
    "ModelOutput",
    "box_features",
    "class_labels",
    "embed_objects",
    "encode_objects",
    "fuse_pairs",
    "encode_relations_and_classify",
    "forward",
    "backward",
    "init_dual_encoder",
    "init_linear",
    "linear_forward",
    "linear_backward",
]

MODES = ("predcls", "sgcls")
MODEL_KINDS = ("linear", "dual_encoder")


@dataclass(frozen=True)
class ModelSpec:
    """Options of either model kind.

    The dimension fields shape the dual encoder only; the linear model reads
    none of them. The label space and the union-feature width ``d_v`` come
    from the data and are passed next to the spec, not stored in it.
    """

    kind: str = "linear"
    d_model: int = 32
    n_h: int = 2
    n_o: int = 2
    n_r: int = 1
    d_ff: int = 64
    d_e: int = 16
    d_pos: int = 16
    object_loss_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.d_model % self.n_h != 0:
            raise ValueError("d_model must be divisible by n_h")
        if self.n_o < 1 or self.n_r < 1:
            raise ValueError("encoder stacks need at least one layer")


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
    """The three entry points of one model kind."""

    init: Callable
    forward: Callable
    backward: Callable


def model_for(spec: ModelSpec) -> Model:
    """The entry points of ``spec.kind``; the one place that reads the kind."""
    if spec.kind == "linear":
        return Model(init_linear, linear_forward, linear_backward)
    return Model(init_dual_encoder, forward, backward)


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
    x1, y1, x2, y2 = boxes.T
    return np.stack([x1, y1, x2, y2, x2 - x1, y2 - y1, (x1 + x2) / 2, (y1 + y2) / 2], axis=1)


def class_labels(image: SynthImage, mode: str) -> np.ndarray:
    """Object classes as the task sees them: annotated in ``predcls``, detector argmax in ``sgcls``."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "predcls":
        return image.labels
    return image.scores.argmax(axis=1)


def embed_objects(
    image: SynthImage,
    params: DualEncoderParams,
    mode: str = "predcls",
) -> tuple[np.ndarray, tuple]:
    """Fuse box geometry, visual feature, and label embedding into one token per object."""
    if not len(image.labels):
        raise ValueError("no objects to embed")
    boxes = box_features(image.boxes)
    feats = image.features
    labels = class_labels(image, mode)
    pos = boxes @ params.w_pos
    feats_b = np.broadcast_to(feats, pos.shape[:-1] + feats.shape[-1:])
    concat = np.concatenate([pos, feats_b, params.embed[..., labels, :]], axis=-1)
    tokens = concat @ params.w_in
    return tokens, (boxes, concat, labels, pos.shape[-1], feats.shape[1])


def embed_objects_backward(
    g: np.ndarray, params: DualEncoderParams, cache: tuple, grads: DualEncoderParams
) -> None:
    boxes, concat, labels, d_pos, d_v = cache
    grads.w_in += concat.T @ g
    dconcat = g @ params.w_in.T
    grads.w_pos += boxes.T @ dconcat[:, :d_pos]
    np.add.at(grads.embed, labels, dconcat[:, d_pos + d_v :])


def encode_objects(
    tokens: np.ndarray, params: DualEncoderParams, n_h: int
) -> tuple[np.ndarray, list]:
    caches = []
    x = tokens
    for layer in params.obj_layers:
        x, cache = encoder_layer(x, layer, n_h)
        caches.append(cache)
    return x, caches


def fuse_pairs(
    e_final: np.ndarray,
    union_features: np.ndarray,
    pairs: np.ndarray,
    params: DualEncoderParams,
) -> tuple[np.ndarray, tuple]:
    """One token per ordered pair: ``[union, subject, object] @ w_fuse``."""
    n = e_final.shape[-2]
    s_idx, o_idx = pairs[:, 0], pairs[:, 1]
    bad = np.flatnonzero((s_idx == o_idx) | ((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        s, o = pairs[bad[0]].tolist()
        why = "relates an object to itself" if s == o else f"out of range for {n} objects"
        raise ValueError(f"pair ({s}, {o}) {why}")
    if len(pairs) != union_features.shape[0]:
        raise ValueError("one union feature row is required per pair")
    unions = np.broadcast_to(union_features, e_final.shape[:-2] + union_features.shape)
    concat = np.concatenate([unions, e_final[..., s_idx, :], e_final[..., o_idx, :]], axis=-1)
    return concat @ params.w_fuse, (concat, s_idx, o_idx, union_features.shape[1], n)


def fuse_pairs_backward(
    g: np.ndarray, params: DualEncoderParams, cache: tuple, grads: DualEncoderParams
) -> np.ndarray:
    concat, s_idx, o_idx, d_u, n = cache
    grads.w_fuse += concat.T @ g
    dconcat = g @ params.w_fuse.T
    d_model = (dconcat.shape[1] - d_u) // 2
    de = np.zeros((n, d_model))
    np.add.at(de, s_idx, dconcat[:, d_u : d_u + d_model])
    np.add.at(de, o_idx, dconcat[:, d_u + d_model :])
    return de


def encode_relations_and_classify(
    pair_tokens: np.ndarray, params: DualEncoderParams, n_h: int
) -> tuple[np.ndarray, list]:
    """Relation logits; an empty block skips the encoder (no attention over no pairs)."""
    caches = []
    x = pair_tokens
    for layer in params.rel_layers if pair_tokens.shape[-2] else ():
        x, cache = encoder_layer(x, layer, n_h)
        caches.append(cache)
    logits = x @ params.w_clf_rel
    return logits, [caches, x]


def forward(
    image: SynthImage,
    union_features: np.ndarray,
    pairs: np.ndarray,
    params: DualEncoderParams,
    spec: ModelSpec,
    mode: str = "predcls",
) -> ModelOutput:
    """Full pipeline: object encoding, object head, pair fusion, relation head."""
    if len(image.labels) < 2:
        raise ValueError("no pairs: need at least two objects")
    tokens, embed_cache = embed_objects(image, params, mode)
    e_final, obj_caches = encode_objects(tokens, params, spec.n_h)
    object_logits = e_final @ params.w_clf_obj
    pair_tokens, fuse_cache = fuse_pairs(e_final, union_features, pairs, params)
    relation_logits, rel_cache = encode_relations_and_classify(
        pair_tokens, params, spec.n_h
    )
    return ModelOutput(
        object_logits=object_logits,
        object_probs=row_softmax(object_logits),
        relation_logits=relation_logits,
        cache=(embed_cache, obj_caches, e_final, fuse_cache, rel_cache),
    )


def backward(
    d_object_logits: np.ndarray | None,
    d_relation_logits: np.ndarray,
    output: ModelOutput,
    params: DualEncoderParams,
    spec: ModelSpec,
    grads: DualEncoderParams | None = None,
) -> DualEncoderParams:
    """Accumulate exact parameter gradients for one forward pass.

    ``d_object_logits``/``d_relation_logits`` are the loss gradients at the two
    classifier outputs. Pass an existing ``grads`` tree to accumulate across
    images; without one, a zero tree over a fresh buffer is made.
    """
    if grads is None:
        grads = unflatten(params, np.zeros_like(flatten(params)))
    embed_cache, obj_caches, e_final, fuse_cache, rel_cache = output.cache
    rel_layer_caches, rel_final = rel_cache

    grads.w_clf_rel += rel_final.T @ d_relation_logits
    dx = d_relation_logits @ params.w_clf_rel.T
    for i in range(len(rel_layer_caches) - 1, -1, -1):
        dx = encoder_layer_backward(dx, rel_layer_caches[i], grads.rel_layers[i])
    de_final = fuse_pairs_backward(dx, params, fuse_cache, grads)

    if d_object_logits is not None:
        grads.w_clf_obj += e_final.T @ d_object_logits
        de_final = de_final + d_object_logits @ params.w_clf_obj.T

    dx = de_final
    for i in range(spec.n_o - 1, -1, -1):
        dx = encoder_layer_backward(dx, obj_caches[i], grads.obj_layers[i])
    embed_objects_backward(dx, params, embed_cache, grads)
    return grads


def linear_forward(
    image: SynthImage,
    union_features: np.ndarray,
    pairs: np.ndarray,
    params: LinearParams,
    spec: ModelSpec,
    mode: str = "predcls",
) -> ModelOutput:
    """Affine relation head over ``[union, subject feature, object feature]``.

    ``spec`` and ``mode`` complete the shared protocol; the linear head reads
    neither, and its object probabilities are the detector scores. ``params``
    may be a tree of ``(k, ...)`` leaves, giving ``(k, P, C)`` logits.
    """
    if len(image.labels) < 2:
        raise ValueError("no pairs: need at least two objects")
    feats = image.features
    x = np.concatenate([union_features, feats[pairs[:, 0]], feats[pairs[:, 1]]], axis=1)
    logits = x @ params.w + params.b[..., None, :]
    return ModelOutput(
        object_logits=None,
        object_probs=image.scores,
        relation_logits=logits,
        cache=(x,),
    )


def linear_backward(
    d_object_logits: None,
    d_relation_logits: np.ndarray,
    output: ModelOutput,
    params: LinearParams,
    spec: ModelSpec,
    grads: LinearParams | None = None,
) -> LinearParams:
    """Accumulate the gradients of the affine head; it has no object head."""
    (x,) = output.cache
    if grads is None:
        grads = unflatten(params, np.zeros_like(flatten(params)))
    grads.w += x.T @ d_relation_logits
    grads.b += d_relation_logits.sum(axis=0)
    return grads
