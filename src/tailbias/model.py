"""Relation classifiers over detected object proposals.

Two models share one protocol, resolved from a :class:`ModelSpec` by
:func:`model_for`: ``init(spec, label_space, d_v, rng)`` builds the parameter
tree, ``forward(proposals, union_features, pairs, params, spec, mode)`` gives
a :class:`ModelOutput`, and ``backward(d_obj, d_rel, output, params, spec,
grads)`` accumulates parameter gradients. The dual-stack encoder builds object
tokens from box geometry, visual features, and a learned label embedding, runs
them through a stack of encoder layers, classifies objects, fuses ordered
pairs with their union-box features, runs a second encoder stack over the pair
tokens, and classifies relations. Every stage has a hand-written backward
pass, so the whole network is certifiable by finite differences. The linear
model is a single affine relation head over the raw fused pair features; it
has no object head, so its ``object_logits`` are None.

Task modes: ``predcls`` looks up label embeddings with the annotated object
labels; ``sgcls`` uses the argmax of the detector scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numerics import (
    EncoderLayerParams,
    encoder_layer,
    encoder_layer_backward,
    flatten,
    init_encoder_layer_params,
    normal_init,
    row_softmax,
    tree_add,
    zeros_like_tree,
)
from .stats import LabelSpace

__all__ = [
    "MODES",
    "MODEL_KINDS",
    "ModelSpec",
    "Model",
    "model_for",
    "feature_width",
    "ObjectProposal",
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
    "all_ordered_pairs",
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


@dataclass(frozen=True)
class ObjectProposal:
    """One detected object: box, visual feature, label, and detector scores."""

    box: tuple[float, float, float, float]
    feature: np.ndarray
    label: int
    scores: np.ndarray

    def __post_init__(self) -> None:
        x1, y1, x2, y2 = self.box
        if not (0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0):
            raise ValueError(f"degenerate or unnormalized box {self.box}")
        object.__setattr__(self, "feature", np.asarray(self.feature, dtype=np.float64))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        if abs(float(self.scores.sum()) - 1.0) > 1e-6:
            raise ValueError("detector scores must sum to 1")


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


def box_features(box: tuple[float, float, float, float]) -> np.ndarray:
    """Eight geometry features: corners, width, height, center."""
    x1, y1, x2, y2 = box
    w = x2 - x1
    h = y2 - y1
    return np.array([x1, y1, x2, y2, w, h, (x1 + x2) / 2, (y1 + y2) / 2])


def class_labels(proposals: Sequence[ObjectProposal], mode: str) -> np.ndarray:
    """Object classes as the task sees them: annotated in ``predcls``, detector argmax in ``sgcls``."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "predcls":
        return np.array([p.label for p in proposals], dtype=np.int64)
    return np.array([int(np.argmax(p.scores)) for p in proposals], dtype=np.int64)


def embed_objects(
    proposals: Sequence[ObjectProposal],
    params: DualEncoderParams,
    mode: str = "predcls",
) -> tuple[np.ndarray, tuple]:
    """Fuse box geometry, visual feature, and label embedding into one token per object."""
    if not proposals:
        raise ValueError("no proposals to embed")
    boxes = np.stack([box_features(p.box) for p in proposals])
    feats = np.stack([p.feature for p in proposals])
    labels = class_labels(proposals, mode)
    pos = boxes @ params.w_pos
    concat = np.concatenate([pos, feats, params.embed[labels]], axis=1)
    tokens = concat @ params.w_in
    return tokens, (boxes, concat, labels, pos.shape[1], feats.shape[1])


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
    pairs: Sequence[tuple[int, int]],
    params: DualEncoderParams,
) -> tuple[np.ndarray, tuple]:
    """One token per ordered pair: ``[union, subject, object] @ w_fuse``."""
    n = e_final.shape[0]
    for s, o in pairs:
        if s == o:
            raise ValueError(f"pair ({s}, {o}) relates an object to itself")
        if not (0 <= s < n and 0 <= o < n):
            raise ValueError(f"pair ({s}, {o}) out of range for {n} objects")
    if len(pairs) != union_features.shape[0]:
        raise ValueError("one union feature row is required per pair")
    s_idx = np.array([p[0] for p in pairs], dtype=np.int64)
    o_idx = np.array([p[1] for p in pairs], dtype=np.int64)
    concat = np.concatenate([union_features, e_final[s_idx], e_final[o_idx]], axis=1)
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
    caches = []
    x = pair_tokens
    for layer in params.rel_layers:
        x, cache = encoder_layer(x, layer, n_h)
        caches.append(cache)
    logits = x @ params.w_clf_rel
    return logits, [caches, x]


def all_ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def forward(
    proposals: Sequence[ObjectProposal],
    union_features: np.ndarray,
    pairs: Sequence[tuple[int, int]],
    params: DualEncoderParams,
    spec: ModelSpec,
    mode: str = "predcls",
) -> ModelOutput:
    """Full pipeline: object encoding, object head, pair fusion, relation head."""
    if len(proposals) < 2:
        raise ValueError("no pairs: need at least two objects")
    tokens, embed_cache = embed_objects(proposals, params, mode)
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
    images.
    """
    if grads is None:
        grads = zeros_like_tree(params)
    embed_cache, obj_caches, e_final, fuse_cache, rel_cache = output.cache
    rel_layer_caches, rel_final = rel_cache

    grads.w_clf_rel += rel_final.T @ d_relation_logits
    dx = d_relation_logits @ params.w_clf_rel.T
    for layer_grads_idx in range(spec.n_r - 1, -1, -1):
        dx, layer_grads = encoder_layer_backward(dx, rel_layer_caches[layer_grads_idx])
        tree_add(grads.rel_layers[layer_grads_idx], layer_grads)
    de_final = fuse_pairs_backward(dx, params, fuse_cache, grads)

    if d_object_logits is not None:
        grads.w_clf_obj += e_final.T @ d_object_logits
        de_final = de_final + d_object_logits @ params.w_clf_obj.T

    dx = de_final
    for layer_grads_idx in range(spec.n_o - 1, -1, -1):
        dx, layer_grads = encoder_layer_backward(dx, obj_caches[layer_grads_idx])
        tree_add(grads.obj_layers[layer_grads_idx], layer_grads)
    embed_objects_backward(dx, params, embed_cache, grads)
    return grads


def linear_forward(
    proposals: Sequence[ObjectProposal],
    union_features: np.ndarray,
    pairs: Sequence[tuple[int, int]],
    params: LinearParams,
    spec: ModelSpec,
    mode: str = "predcls",
) -> ModelOutput:
    """Affine relation head over ``[union, subject feature, object feature]``.

    ``spec`` and ``mode`` complete the shared protocol; the linear head reads
    neither, and its object probabilities are the detector scores.
    """
    if len(proposals) < 2:
        raise ValueError("no pairs: need at least two objects")
    feats = np.stack([p.feature for p in proposals])
    s_idx = np.array([p[0] for p in pairs], dtype=np.int64)
    o_idx = np.array([p[1] for p in pairs], dtype=np.int64)
    x = np.concatenate([union_features, feats[s_idx], feats[o_idx]], axis=1)
    logits = x @ params.w + params.b
    scores = np.stack([p.scores for p in proposals])
    return ModelOutput(
        object_logits=None,
        object_probs=scores,
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
        grads = zeros_like_tree(params)
    grads.w += x.T @ d_relation_logits
    grads.b += d_relation_logits.sum(axis=0)
    return grads
