"""Training, evaluation, and the inference-bias sweep.

Training is plain SGD with momentum over seeded shuffled image batches. The
split is checked and packed once, before the first iteration, into ragged
arrays with offsets: the ground truth of every image (which alone gives the
annotation statistics), then the ordered pairs of every image as global
object rows with their union rows, each image's sorted foreground pairs and
targets, and its background pairs. Each batch draws every annotated
(foreground) pair of its images plus a seeded subsample of background pairs
at a configurable ratio; the optimized scalar is the mean relation loss over
the drawn pairs, plus a weighted mean object-classification cross-entropy
when the model has an object head. Each loss is called once per batch on the
rows of all its images; the model runs one forward and one backward per
image. Bias rows are gathered from a dense class-pair table by the pair's
class labels: annotated labels in ``predcls``, detector argmax in
``sgcls``. Parameters, momentum and gradients are flat buffers, with trees
as views of them. A step whose loss or any gradient is non-finite stops
training with a ``FloatingPointError`` that names the iteration and, for a
gradient, the parameter leaf.

Evaluation forwards each image once and ranks its ``(pairs, relations)``
score matrix (see :mod:`tailbias.metrics`); the sweep reuses those logits at
every grid point and only re-biases, re-scores and re-ranks. In ``sgcls``
evaluation the argmax of the model's object probabilities is the object label
throughout: inference-bias rows are gathered by it, and a ground-truth
triplet can be recalled only when it equals the annotated label of both its
subject and its object; otherwise its rank position is
:data:`~tailbias.metrics.MISS`. Training (and the dual encoder's label
embedding) keeps the detector argmax.

All randomness derives from ``SeedSequence(config.seed, spawn_key=(domain,))``
so identical configs produce bitwise-identical checkpoints. Checkpoints and
metrics are JSON/CSV only.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from itertools import chain, zip_longest
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .bias import Bias, BiasSpec, BiasVector, bias_table, compute_bias, soft_bias
from .losses import BaselineSpec, LossOutput, baseline_loss, biased_ce, ce
from .metrics import (
    CONSTRAINTS,
    MISS,
    EvalResult,
    candidate_index,
    evaluate_split,
    object_pair_scores,
    rank,
    score_triplets,
)
from .model import (
    MODES,
    DualEncoderParams,
    LinearParams,
    Model,
    ModelSpec,
    class_labels,
    feature_width,
    forward,  # noqa: F401 - perfbench/tests check that tracing restores this binding
    model_for,
)
from .numerics import flatten, leaf_names, leaves, running_sum, unflatten
from .stats import LabelSpace, TripletStats, check_keys, marginal_counts
from .synth import SynthImage, all_ordered_pairs

__all__ = [
    "LOSS_KINDS",
    "OptimizerConfig",
    "LossConfig",
    "ModelSpec",
    "TrainConfig",
    "Checkpoint",
    "RunLog",
    "train",
    "evaluate",
    "sweep",
    "sweep_csv",
    "save_checkpoint",
    "load_checkpoint",
    "training_stats",
]

LOSS_KINDS = ("ce", "rtpb", "reweight", "class_balanced", "focal", "ldam")

INIT_DOMAIN = 10
SHUFFLE_DOMAIN = 11
SAMPLE_DOMAIN = 12


def _rng(seed: int, domain: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(domain,))))


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    iterations: int = 1000
    batch_size: int = 8

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class LossConfig:
    kind: str = "ce"
    beta: float = 0.999
    gamma: float = 2.0
    alpha: float = 0.25
    margin_c: float = 0.5
    reweight_normalize: bool = True

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")


def _section(cls, d: Mapping, name: str):
    """Build ``cls`` from the mapping ``d[name]``, naming an unknown key."""
    section = d.get(name, {})
    check_keys(section, cls, f"config section {name!r}")
    return cls(**section)


@dataclass(frozen=True)
class TrainConfig:
    label_space: LabelSpace
    task: str = "predcls"
    model: ModelSpec = field(default_factory=ModelSpec)
    loss: LossConfig = field(default_factory=LossConfig)
    bias: BiasSpec | None = None
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    data: tuple[tuple[str, str], ...] = ()
    eval_ks: tuple[int, ...] = (20, 50, 100)
    background_ratio: float = 3.0

    def __post_init__(self) -> None:
        if self.task not in MODES:
            raise ValueError(f"unknown task {self.task!r}")
        if not self.eval_ks or list(self.eval_ks) != sorted(set(self.eval_ks)):
            raise ValueError("eval_ks must be nonempty and strictly ascending")
        if self.background_ratio < 0:
            raise ValueError("background_ratio must be nonnegative")
        if self.loss.kind == "rtpb" and self.bias is None:
            raise ValueError("loss kind 'rtpb' needs a bias spec")

    def to_dict(self) -> dict:
        return {
            "label_space": self.label_space.to_dict(),
            "task": self.task,
            "model": vars(self.model).copy(),
            "loss": vars(self.loss).copy(),
            "bias": None if self.bias is None else self.bias.to_dict(),
            "optimizer": vars(self.optimizer).copy(),
            "seed": self.seed,
            "data": [list(item) for item in self.data],
            "eval_ks": list(self.eval_ks),
            "background_ratio": self.background_ratio,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TrainConfig":
        check_keys(d, cls, "train config")
        return cls(
            label_space=LabelSpace.from_dict(d["label_space"]),
            task=d.get("task", "predcls"),
            model=_section(ModelSpec, d, "model"),
            loss=_section(LossConfig, d, "loss"),
            bias=None if d.get("bias") is None else BiasSpec.from_dict(d["bias"]),
            optimizer=_section(OptimizerConfig, d, "optimizer"),
            seed=int(d.get("seed", 0)),
            data=tuple((str(k), str(v)) for k, v in d.get("data", [])),
            eval_ks=tuple(int(k) for k in d.get("eval_ks", (20, 50, 100))),
            background_ratio=float(d.get("background_ratio", 3.0)),
        )


@dataclass
class Checkpoint:
    config: TrainConfig
    iterations: int
    params: LinearParams | DualEncoderParams


@dataclass
class RunLog:
    losses: list[float]
    started_at: str
    finished_at: str
    config: dict
    val_metrics: list[dict] = field(default_factory=list)
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "losses": self.losses,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "config": self.config,
            "val_metrics": self.val_metrics,
            "version": self.version,
        }


class _Truth(NamedTuple):
    """The checked ground truth of a split, image after image.

    Image ``i``'s objects are rows ``obj_start[i]:obj_start[i + 1]`` of
    ``labels``; ``gt`` holds every ground-truth triplet ``(subject, object,
    relation)``, with object indices local to image ``gt_image``.
    """

    labels: np.ndarray
    obj_start: np.ndarray
    gt_image: np.ndarray
    gt: np.ndarray


@dataclass(frozen=True)
class _Split:
    """A training split packed once into ragged arrays with offsets.

    Object rows of all images follow one another, image ``i`` at rows
    ``obj_start[i]:obj_start[i + 1]``, with ``classes`` as the task sees
    them (see :func:`~tailbias.model.class_labels`). Pair rows hold every
    image's ordered pairs in :func:`all_ordered_pairs` order, each as the
    global ``(subject, object)`` rows of ``pairs`` and its ``unions`` row.
    Image ``i``'s foreground pair rows, sorted, and their relation targets are
    ``fg_rows`` / ``fg_targets[fg_start[i]:fg_start[i + 1]]``, one per
    ground-truth triplet, and its background pair rows
    ``bg_rows[bg_start[i]:bg_start[i + 1]]``.
    """

    classes: np.ndarray
    obj_start: np.ndarray
    pairs: np.ndarray
    unions: np.ndarray
    fg_rows: np.ndarray
    fg_targets: np.ndarray
    fg_start: np.ndarray
    bg_rows: np.ndarray
    bg_start: np.ndarray


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)])


def _check_classes(labels: np.ndarray, num_classes: int) -> np.ndarray:
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"object class label outside 0..{num_classes - 1}")
    return labels


def _check_image(img: SynthImage, label_space: LabelSpace, d_v: int | None) -> None:
    """Raise ``ValueError`` saying what makes ``img``'s annotations invalid
    or, with ``d_v``, the image unfit to train on (see :func:`_truth`)."""
    n = len(img.labels)
    if d_v is not None:
        if n < 2:
            raise ValueError("no pairs: need at least two objects")
        if img.features.shape[1] != d_v:
            raise ValueError(f"{img.features.shape[1]} feature columns; the first image has {d_v}")
        if img.scores.shape[1] != label_space.num_object_classes:
            raise ValueError(
                f"detector scores over {img.scores.shape[1]} classes; "
                f"the label space has {label_space.num_object_classes}"
            )
    _check_classes(img.labels, label_space.num_object_classes)
    candidate_index(img.gt_triplets, n, label_space.num_relations)


def _truth(images: Sequence[SynthImage], label_space: LabelSpace, d_v: int | None) -> _Truth:
    """The ground truth of ``images``, checked.

    A class label outside the label space or invalid ground truth raises
    ``ValueError`` naming the first such image's index. With ``d_v`` so does
    an image unfit to train on: fewer than two objects, other than ``d_v``
    feature columns, or detector scores not over the label space's classes.
    """
    num_classes, num_relations = label_space.num_object_classes, label_space.num_relations

    def per_image(values, dtype=np.int64) -> np.ndarray:
        return np.fromiter(values, dtype=dtype, count=len(images))

    counts = per_image(len(img.labels) for img in images)
    gt_counts = per_image(len(img.gt_triplets) for img in images)
    labels = np.concatenate([img.labels for img in images])
    gt = np.fromiter(
        chain.from_iterable(chain.from_iterable(img.gt_triplets for img in images)),
        dtype=np.int64,
    ).reshape(gt_counts.sum(), 3)
    gt_image = np.repeat(np.arange(len(images)), gt_counts)
    obj_start = _offsets(counts)

    # These array tests judge every image at once; the first image they
    # flag is then checked on its own only to name its fault.
    bad = np.zeros(len(images), dtype=bool)
    if d_v is not None:
        bad = (counts < 2) | per_image(
            (img.features.shape[1] != d_v or img.scores.shape[1] != num_classes for img in images),
            dtype=bool,
        )
    bad_label = (labels < 0) | (labels >= num_classes)
    bad[np.searchsorted(obj_start, np.flatnonzero(bad_label), side="right") - 1] = True
    s, o, r = gt.T
    n = counts[gt_image]
    bad_gt = (s < 0) | (s >= n) | (o < 0) | (o >= n) | (s == o) | (r < 1) | (r > num_relations)
    bad[gt_image[bad_gt]] = True
    if bad.any():
        i = int(np.argmax(bad))
        try:
            _check_image(images[i], label_space, d_v)
        except ValueError as exc:
            raise ValueError(f"image {i}: {exc}") from None
        raise ValueError(f"image {i}: unfit to train on")
    return _Truth(labels=labels, obj_start=obj_start, gt_image=gt_image, gt=gt)


def _pack(
    images: Sequence[SynthImage], truth: _Truth, label_space: LabelSpace, task: str
) -> _Split:
    """Pack ``images``, whose checked ground truth is ``truth``, into a :class:`_Split`."""
    num_relations = label_space.num_relations
    obj_start = truth.obj_start
    counts = np.diff(obj_start)
    pair_counts = counts * (counts - 1)
    pair_start = _offsets(pair_counts)
    ordered = {k: all_ordered_pairs(k) for k in set(counts.tolist())}
    pairs = np.concatenate([ordered[k] for k in counts.tolist()])
    pairs += np.repeat(obj_start[:-1], pair_counts)[:, None]

    # Global pair row and relation, sorted: per image, candidate_index order.
    s, o, r = truth.gt.T
    local = s * (counts[truth.gt_image] - 1) + o - (o > s)
    fg = np.sort((pair_start[truth.gt_image] + local) * num_relations + (r - 1))
    fg_rows, fg_targets = np.divmod(fg, num_relations)
    is_bg = np.ones(len(pairs), dtype=bool)
    is_bg[fg_rows] = False
    bg_rows = np.flatnonzero(is_bg)

    return _Split(
        classes=(
            truth.labels
            if task == "predcls"
            else np.concatenate([img.scores.argmax(axis=1) for img in images])
        ),
        obj_start=obj_start,
        pairs=pairs,
        unions=np.concatenate([img.unions for img in images]),
        fg_rows=fg_rows,
        fg_targets=fg_targets + 1,
        fg_start=_offsets(np.bincount(truth.gt_image, minlength=len(images))),
        bg_rows=bg_rows,
        bg_start=np.searchsorted(bg_rows, pair_start),
    )


def _triplet_stats(truth: _Truth, label_space: LabelSpace) -> TripletStats:
    """Class-level ``(s, o, relation)`` counts of the split's ground truth."""
    num_classes = label_space.num_object_classes
    width = label_space.num_relations + 1
    start = truth.obj_start[truth.gt_image]
    s, o, r = truth.gt.T
    s, o = truth.labels[start + s], truth.labels[start + o]
    dense = np.bincount(
        (s * num_classes + o) * width + r, minlength=num_classes**2 * width
    ).reshape(num_classes, num_classes, width)
    keys = np.argwhere(dense)
    counts = dict(zip(map(tuple, keys.tolist()), dense[tuple(keys.T)].tolist()))
    return TripletStats(label_space=label_space, counts=counts, total=len(truth.gt))


def training_stats(images: Sequence[SynthImage], label_space: LabelSpace) -> TripletStats:
    """Annotation statistics of a dataset at the object-class level; a class
    label outside the label space or invalid ground truth raises
    ``ValueError`` naming the image's index."""
    if not images:
        return TripletStats(label_space=label_space, counts={}, total=0)
    return _triplet_stats(_truth(images, label_space, None), label_space)


def _class_counts(split: _Split, stats: TripletStats) -> np.ndarray:
    """Per-class counts over the full logit space; index 0 counts background pairs."""
    counts, _ = marginal_counts(stats)
    counts = counts.copy()
    counts[0] = len(split.pairs) - len(split.fg_rows)
    return counts


LossFn = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], LossOutput]


def make_loss_fn(config: TrainConfig, bias: Bias | None, class_counts: np.ndarray) -> LossFn:
    """Resolve the configured loss into ``f(logits, targets, s_classes, o_classes)``.

    Training calls it once per batch, with the batch's ``(Σm, C)`` block of
    relation rows; the other three are ``(Σm,)`` arrays: each row's target
    and its pair's subject and object class, by which bias rows are gathered
    as ``table[s_classes, o_classes]``.
    """
    kind = config.loss.kind
    if kind == "ce":
        return lambda z, y, s_classes, o_classes: ce(z, y)
    if kind == "rtpb":
        if bias is None:
            raise ValueError("rtpb loss needs a bias")
        table = bias_table(bias, config.label_space.num_object_classes)
        return lambda z, y, s_classes, o_classes: biased_ce(z, table[s_classes, o_classes], y)
    spec = BaselineSpec(
        kind=kind,
        class_counts=class_counts,
        beta=config.loss.beta,
        gamma=config.loss.gamma,
        alpha=config.loss.alpha,
        margin_c=config.loss.margin_c,
        reweight_normalize=config.loss.reweight_normalize,
    )
    return lambda z, y, s_classes, o_classes: baseline_loss(spec, z, y)


def _draw(
    split: _Split, batch: list[int], background_ratio: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair rows drawn for ``batch``, their targets, and the ``(B + 1,)``
    offsets of each image's block: per image, every foreground pair, then a
    seeded subsample of its background pairs, both in pair order."""
    rows, targets, sizes = [], [], []
    for i in batch:
        fg = slice(split.fg_start[i], split.fg_start[i + 1])
        bg = split.bg_rows[split.bg_start[i] : split.bg_start[i + 1]]
        take = min(len(bg), int(round(background_ratio * max(fg.stop - fg.start, 1))))
        bg = bg[np.sort(rng.choice(len(bg), size=take, replace=False))] if take else bg[:0]
        rows += [split.fg_rows[fg], bg]
        targets += [split.fg_targets[fg], np.zeros_like(bg)]
        sizes.append(fg.stop - fg.start + len(bg))
    return np.concatenate(rows), np.concatenate(targets), _offsets(sizes)


def _batch_loss(
    config: TrainConfig,
    net: Model,
    params: LinearParams | DualEncoderParams,
    grads: LinearParams | DualEncoderParams,
    loss_fn: LossFn,
    split: _Split,
    images: Sequence[SynthImage],
    batch: list[int],
    sample_rng: np.random.Generator,
) -> float:
    """The batch's mean relation loss, plus the weighted mean object loss when
    the model has an object head; adds its parameter gradients into ``grads``.

    The model runs once per image; each loss is called once, on the rows of
    the whole batch, and each image's gradient is added in batch order.
    """
    spec = config.model
    rows, targets, starts = _draw(split, batch, config.background_ratio, sample_rng)
    pairs = split.pairs[rows]
    unions = split.unions[rows]
    local = pairs - np.repeat(split.obj_start[batch], np.diff(starts))[:, None]
    outs = [
        net.forward(images[i], unions[a:b], local[a:b], params, spec, config.task)
        for i, a, b in zip(batch, starts[:-1], starts[1:])
    ]
    logits = np.concatenate([out.relation_logits for out in outs])
    classes = split.classes[pairs]
    rel = loss_fn(logits, targets, classes[:, 0], classes[:, 1])
    d_rel = rel.grad_logits / len(rel.value)
    loss_value = running_sum(rel.value) / len(rel.value)

    # Only a model with an object head returns object logits.
    d_obj = [None] * len(outs)
    w_obj = spec.object_loss_weight
    if w_obj > 0 and outs[0].object_logits is not None:
        labels = np.concatenate([images[i].labels for i in batch])
        obj = ce(np.concatenate([out.object_logits for out in outs]), labels)
        g = obj.grad_logits * (w_obj / len(labels))
        d_obj = np.split(g, np.cumsum([len(out.object_logits) for out in outs])[:-1])
        loss_value += w_obj * running_sum(obj.value) / len(labels)
    for out, g_obj, a, b in zip(outs, d_obj, starts[:-1], starts[1:]):
        net.backward(g_obj, d_rel[a:b], out, params, spec, grads)
    return loss_value


def _non_finite_leaf(tree, vec: np.ndarray) -> str | None:
    """The name of the leaf holding ``vec``'s first non-finite entry, or None;
    ``vec`` is the tree's values in leaf order."""
    finite = np.isfinite(vec)
    if finite.all():
        return None
    ends = np.cumsum([a.size for a in leaves(tree)])
    return leaf_names(tree)[np.searchsorted(ends, np.argmin(finite), side="right")]


def train(
    config: TrainConfig,
    train_images: Sequence[SynthImage],
    loss_fn: LossFn | None = None,
    val_images: Sequence[SynthImage] | None = None,
    eval_every: int = 0,
) -> tuple[Checkpoint, RunLog]:
    """SGD training; returns the final checkpoint and the per-iteration log.

    ``loss_fn`` overrides the configured loss (used by equivalence tests);
    it has the signature of :func:`make_loss_fn`'s result and is called once
    per batch, with the batch's ``(Σm, C)`` rows: the relation logits of
    every pair drawn from its images. The split is packed once, before the
    first iteration; an image unfit to train on (fewer than two objects,
    features or detector scores of the wrong width, a class label outside the
    label space, invalid ground truth) raises ``ValueError`` naming its index.
    With ``eval_every > 0`` and a validation split, R@k/mR@k snapshots are
    recorded in the log every that many iterations.
    """
    if not train_images:
        raise ValueError("empty training dataset")
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    ls = config.label_space
    d_v = train_images[0].features.shape[1]
    truth = _truth(train_images, ls, d_v)
    stats = _triplet_stats(truth, ls)
    split = _pack(train_images, truth, ls, config.task)
    bias = None
    if config.bias is not None:
        bias = compute_bias(config.bias, stats)
        _check_bias_compatible(bias, ls)
    if loss_fn is None:
        loss_fn = make_loss_fn(config, bias, _class_counts(split, stats))

    net = model_for(config.model)
    params = net.init(config.model, ls, d_v, _rng(config.seed, INIT_DOMAIN))
    param_vec = flatten(params)
    params = unflatten(params, param_vec)
    velocity = np.zeros_like(param_vec)
    grad_vec = np.zeros_like(param_vec)
    grads = unflatten(params, grad_vec)

    shuffle_rng = _rng(config.seed, SHUFFLE_DOMAIN)
    sample_rng = _rng(config.seed, SAMPLE_DOMAIN)
    order: list[int] = []
    losses: list[float] = []
    val_metrics: list[dict] = []
    opt = config.optimizer

    for step in range(1, opt.iterations + 1):
        batch: list[int] = []
        while len(batch) < opt.batch_size:
            if not order:
                order = shuffle_rng.permutation(len(train_images)).tolist()
            batch.append(order.pop(0))

        grad_vec.fill(0.0)
        try:
            loss_value = _batch_loss(
                config, net, params, grads, loss_fn, split, train_images, batch, sample_rng
            )
        except FloatingPointError as exc:
            raise FloatingPointError(f"iteration {step}: {exc}") from None
        if not np.isfinite(loss_value):
            raise FloatingPointError(f"iteration {step}: non-finite loss")
        bad = _non_finite_leaf(grads, grad_vec)
        if bad is not None:
            raise FloatingPointError(f"iteration {step}: non-finite gradient of {bad}")
        losses.append(loss_value)

        velocity *= opt.momentum
        velocity += grad_vec
        param_vec -= opt.learning_rate * velocity

        if eval_every and val_images and step % eval_every == 0:
            snapshot = Checkpoint(config=config, iterations=step, params=params)
            results = evaluate(snapshot, val_images)
            val_metrics.append(
                {
                    "iteration": step,
                    "with": _result_summary(results["with"]),
                    "without": _result_summary(results["without"]),
                }
            )

    finished = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    checkpoint = Checkpoint(config=config, iterations=opt.iterations, params=params)
    runlog = RunLog(
        losses=losses,
        started_at=started,
        finished_at=finished,
        config=config.to_dict(),
        val_metrics=val_metrics,
    )
    return checkpoint, runlog


def _result_summary(result: EvalResult) -> dict:
    return {
        "R": {str(k): v for k, v in result.recall_at.items()},
        "mR": {str(k): v for k, v in result.mean_recall_at.items()},
    }


def _check_bias_compatible(bias: Bias, ls: LabelSpace) -> None:
    vec = bias if isinstance(bias, BiasVector) else bias.fallback
    if vec.values.shape[0] != ls.num_relations + 1:
        raise ValueError(
            f"bias length {vec.values.shape[0]} incompatible with "
            f"{ls.num_relations} relations"
        )


class _ScoredImage(NamedTuple):
    """What ranking an image needs from its one forward pass."""

    relation_logits: np.ndarray  # (P, C), pairs in all_ordered_pairs order
    pair_scores: np.ndarray | None  # object-score products in sgcls
    subject_classes: np.ndarray  # (P,) class label of each pair's subject, gathering bias rows
    object_classes: np.ndarray
    gt_index: np.ndarray  # flat candidate index of each gt triplet
    gt_relations: np.ndarray
    gt_matched: np.ndarray  # False where a predicted object label is wrong (sgcls)


def _forward_split(checkpoint: Checkpoint, images: Sequence[SynthImage]) -> list[_ScoredImage]:
    """Forward every image once; invalid ground truth or class labels, and
    non-finite logits, raise ``ValueError`` naming the image's index."""
    if not images:
        raise ValueError("empty evaluation split")
    config = checkpoint.config
    num_relations = config.label_space.num_relations
    net = model_for(config.model)
    out = []
    for i, img in enumerate(images):
        try:
            n = len(img.labels)
            gt_index = candidate_index(img.gt_triplets, n, num_relations)
            labels = _check_classes(
                class_labels(img, config.task), config.label_space.num_object_classes
            )
            pairs = all_ordered_pairs(n)
            fwd = net.forward(
                img, img.unions, pairs, checkpoint.params, config.model, config.task
            )
            if not np.isfinite(fwd.relation_logits).all():
                raise ValueError("non-finite relation logits")
        except ValueError as exc:
            raise ValueError(f"image {i}: {exc}") from None
        matched = np.ones(len(gt_index), dtype=bool)
        if config.task == "sgcls":
            labels = fwd.object_probs.argmax(axis=1)
            matched = (labels == img.labels)[pairs[gt_index // num_relations]].all(axis=1)
        out.append(
            _ScoredImage(
                relation_logits=fwd.relation_logits,
                pair_scores=object_pair_scores(fwd.object_probs, pairs, config.task),
                subject_classes=labels[pairs[:, 0]],
                object_classes=labels[pairs[:, 1]],
                gt_index=gt_index,
                gt_relations=gt_index % num_relations + 1,
                gt_matched=matched,
            )
        )
    return out


def _rank_split(
    config: TrainConfig,
    scored: list[_ScoredImage],
    inference_bias: Bias | None,
    ks: Sequence[int] | None,
) -> dict[str, EvalResult]:
    """Subtract the inference bias, score, rank, and aggregate per constraint."""
    ls = config.label_space
    ks = list(config.eval_ks if ks is None else ks)
    table = None
    if inference_bias is not None:
        _check_bias_compatible(inference_bias, ls)
        table = bias_table(inference_bias, ls.num_object_classes)
    per_image: dict[str, list] = {c: [] for c in CONSTRAINTS}
    for im in scored:
        logits = im.relation_logits
        if table is not None:
            logits = logits - table[im.subject_classes, im.object_classes]
        scores = score_triplets(im.pair_scores, logits)
        for constraint in CONSTRAINTS:
            positions = np.where(im.gt_matched, rank(scores, im.gt_index, constraint), MISS)
            per_image[constraint].append((im.gt_relations, positions))
    return {
        constraint: evaluate_split(per_image[constraint], ks, ls.num_relations, constraint)
        for constraint in CONSTRAINTS
    }


def evaluate(
    checkpoint: Checkpoint,
    images: Sequence[SynthImage],
    inference_bias: Bias | None = None,
    ks: Sequence[int] | None = None,
) -> dict[str, EvalResult]:
    """Forward every image, rank candidates, and aggregate R@k and mR@k.

    ``inference_bias`` is subtracted from the relation logits before scoring
    (pair tables gathered by annotated labels in ``predcls`` and by the
    argmax of the object probabilities in ``sgcls``); by default the
    logits are used as produced, since the training bias is training-only.
    Returns one result per ranking constraint.
    """
    return _rank_split(
        checkpoint.config, _forward_split(checkpoint, images), inference_bias, ks
    )


def sweep(
    checkpoint: Checkpoint,
    stats: TripletStats,
    spec: BiasSpec,
    grid: Sequence[float],
    images: Sequence[SynthImage],
    ks: Sequence[int] | None = None,
) -> list[tuple[float, dict[str, EvalResult]]]:
    """Evaluate with the weakened inference bias at each exponent in ``grid``.

    Each image is forwarded once; every grid point reuses its logits and
    only re-biases, re-scores and re-ranks.
    """
    for a_e in grid:
        if a_e > spec.a:
            raise ValueError(f"a_eval {a_e} exceeds a {spec.a}")
    scored = _forward_split(checkpoint, images)
    rows = []
    for a_e in grid:
        soft = soft_bias(replace(spec, a_eval=float(a_e)), stats)
        rows.append((float(a_e), _rank_split(checkpoint.config, scored, soft, ks)))
    return rows


def sweep_csv(rows: list[tuple[float, dict[str, EvalResult]]], ks: Sequence[int]) -> str:
    lines = ["a_e,constraint,k,R,mR"]
    for a_e, results in rows:
        for constraint in CONSTRAINTS:
            res = results[constraint]
            for k in ks:
                lines.append(
                    f"{a_e},{constraint},{k},{res.recall_at[k]:.6f},{res.mean_recall_at[k]:.6f}"
                )
    return "\n".join(lines) + "\n"


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Write the checkpoint as JSON; non-finite parameters raise ``ValueError``
    naming the leaf, before the file is opened."""
    data = flatten(checkpoint.params)
    bad = _non_finite_leaf(checkpoint.params, data)
    if bad is not None:
        raise ValueError(f"checkpoint parameter {bad} is not finite")
    doc = {
        "config": checkpoint.config.to_dict(),
        "iterations": checkpoint.iterations,
        "param_shapes": [list(a.shape) for a in leaves(checkpoint.params)],
        "param_data": data.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path: str) -> Checkpoint:
    """Rebuild the parameter tree through the model's ``init``, as ``train``
    does, as views of the file's ``param_data``.

    Every stored shape must equal the rebuilt tree's shape at the same leaf
    and every value must be finite, or ``ValueError`` names ``path``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        config = TrainConfig.from_dict(doc["config"])
        spec, ls = config.model, config.label_space
        data = np.asarray(doc["param_data"], dtype=np.float64)
        params = model_for(spec).init(spec, ls, feature_width(spec, ls, data.size))
        expected = [list(a.shape) for a in leaves(params)]
        for i, (want, got) in enumerate(zip_longest(expected, doc["param_shapes"])):
            if want != got:
                raise ValueError(
                    f"checkpoint parameter {i} has shape {got}; the model needs {want}"
                )
        params = unflatten(params, data)
        bad = _non_finite_leaf(params, data)
        if bad is not None:
            raise ValueError(f"checkpoint parameter {bad} is not finite")
        iterations = int(doc["iterations"])
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return Checkpoint(config=config, iterations=iterations, params=params)
