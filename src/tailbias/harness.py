"""Training, evaluation, and the inference-bias sweep, over packed
:class:`~tailbias.synth.Images` splits.

Training is plain SGD with momentum over seeded shuffled image batches. The
split's ground truth is checked once, by array masks (:func:`_truth`), and
the pairs to draw are derived once (:func:`_pack`): every image's ordered
pairs as global object rows, row for row with the split's unions, its sorted
foreground pairs and targets, and its background pairs. Each batch draws
every foreground pair of its images plus a seeded subsample of background
pairs at a configurable ratio; the optimized scalar is the mean relation
loss over the drawn pairs, plus a weighted mean object cross-entropy when
the model has an object head, each loss called once per batch on the rows
of all its images (:func:`_batch_loss`). Bias rows are gathered from a dense
class-pair table by the pair's classes. Parameters, momentum and gradients
are flat buffers, with trees as views of them. A non-finite loss or gradient
stops training with a ``FloatingPointError`` that names the iteration and,
for a gradient, the parameter leaf.

Training and evaluation forward images through one bucket runner
(:class:`_Buckets`): images with the same object count and number of pairs
run as one model call per :data:`FORWARD_CHUNK` of them, on an
:class:`~tailbias.synth.Objects` record gathered once, and a failed call is
run again image by image to name the first faulty image. Evaluation checks
and derives its split as training does, at the checkpoint's feature width,
forwards each image once over all its pairs (:func:`_forward_split`), and
ranks the split's stacked ``(ΣP, L)`` score matrix once per constraint (see
:mod:`tailbias.metrics`); the sweep reuses those logits at every grid point.
In ``sgcls`` evaluation the argmax of the model's object probabilities is
the object label throughout: inference-bias rows are gathered by it, and a
ground-truth triplet can be recalled only when it equals the annotated label
of both its subject and its object; otherwise its rank position is
:data:`~tailbias.metrics.MISS`. Training (and the dual encoder's label
embedding) keeps the detector argmax.

All randomness derives from ``SeedSequence(config.seed, spawn_key=(domain,))``
so identical configs produce bitwise-identical checkpoints. Checkpoints and
metrics are JSON/CSV only.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import zip_longest
from typing import Callable, ClassVar, Iterator, NamedTuple, Sequence

import numpy as np

from . import __version__
from .bias import Bias, BiasSpec, bias_table, compute_bias, soft_bias
from .losses import LOSS_KINDS, LossConfig, LossOutput, baseline_loss, biased_ce, ce
from .metrics import (
    CONSTRAINTS,
    MISS,
    EvalResult,
    candidate_index,
    evaluate_split,
    object_pair_scores,
    rank,
    score_triplets,
    sweep_csv,
)
from .model import (
    MODES,
    DualEncoderParams,
    LinearParams,
    Model,
    ModelOutput,
    ModelSpec,
    class_labels,
    feature_width,
    forward,  # noqa: F401 - perfbench/tests check that tracing restores this binding
    model_for,
)
from .numerics import flatten, leaf_names, leaves, running_sum, unflatten
from .stats import LabelSpace, TripletStats, from_dict, marginal_counts, refuse_first
from .synth import Images, Objects, _offsets, _ranges

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

# Images of one bucket forwarded per model call: a larger chunk holds more
# forward caches at once and runs no faster.
FORWARD_CHUNK = 16

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


def _check_ks(ks: Sequence[int], name: str) -> list[int]:
    """``ks`` as a list, if nonempty, strictly ascending and every k >= 1."""
    ks = list(ks)
    if not ks or ks != sorted(set(ks)) or ks[0] < 1:
        raise ValueError(f"{name} must be nonempty and strictly ascending, every k >= 1")
    return ks


@dataclass(frozen=True)
class TrainConfig:
    config_name: ClassVar[str] = "train config"
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
        _check_ks(self.eval_ks, "eval_ks")
        if self.background_ratio < 0:
            raise ValueError("background_ratio must be nonnegative")
        if self.loss.kind == "rtpb" and self.bias is None:
            raise ValueError("loss kind 'rtpb' needs a bias spec")


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
    version: str = __version__


@dataclass(frozen=True)
class _Split:
    """The pairs of a checked :class:`Images` split: ``classes``, its object
    rows' classes as the task sees them; ``pairs``, every ordered pair as
    global ``(subject, object)`` object rows, row for row with its ``unions``;
    image ``i``'s sorted foreground pair rows and relation targets ``fg_rows``
    / ``fg_targets`` at its ground-truth rows ``gt_start[i]:gt_start[i + 1]``,
    one per triplet; its background pair rows ``bg_rows[bg_start[i]:bg_start[i + 1]]``."""

    classes: np.ndarray
    pairs: np.ndarray
    fg_rows: np.ndarray
    fg_targets: np.ndarray
    bg_rows: np.ndarray
    bg_start: np.ndarray


def _truth(images: Images, label_space: LabelSpace, d_v: int | None) -> np.ndarray:
    """Check the ground truth of ``images`` once for the whole split; return
    each ground-truth triplet's image. ``ValueError`` names the first faulty
    image and its first fault of: with ``d_v``, fewer than two objects, other
    than ``d_v`` feature columns, or detector scores not over the label
    space's classes; a class label outside the label space; an invalid
    ground-truth triplet (an object index out of range, equal subject and
    object, a relation outside ``1..L``)."""
    num_classes, num_relations = label_space.num_object_classes, label_space.num_relations
    counts = np.diff(images.obj_start)
    image = np.arange(len(images))
    gt_image = np.repeat(image, np.diff(images.gt_start))

    def flagged(element_image: np.ndarray, bad: np.ndarray) -> np.ndarray:
        return np.bincount(element_image[bad], minlength=len(images)) > 0

    gt = images.gt
    s, o, r = gt.T
    bad_index = (s < 0) | (o < 0) | (np.maximum(s, o) >= counts[gt_image])
    bad_pair = bad_index | (s == o)
    bad_gt = bad_pair | (r < 1) | (r > num_relations)

    def gt_fault(i: int) -> str:
        t = int(np.argmax(bad_gt & (gt_image == i)))
        why = (
            f"an object index outside 0..{counts[i] - 1}" if bad_index[t]
            else "the same subject and object" if bad_pair[t]
            else f"a relation outside 1..{num_relations}"
        )
        return f"ground-truth triplet {tuple(gt[t].tolist())} has {why}"

    checks = []
    if d_v is not None:  # the widths are the split's, so a wrong one names image 0
        width, classes = images.features.shape[1], images.scores.shape[1]
        checks = [
            (counts < 2, lambda i: "no pairs: need at least two objects"),
            (np.full(len(images), width != d_v),
             lambda i: f"{width} feature columns; the checkpoint has {d_v}"),
            (np.full(len(images), classes != num_classes), lambda i: f"detector scores over "
             f"{classes} classes; the label space has {num_classes}"),
        ]
    labels = images.labels
    refuse_first(checks + [
        (flagged(np.repeat(image, counts), (labels < 0) | (labels >= num_classes)),
         lambda i: f"object class label outside 0..{num_classes - 1}"),
        (flagged(gt_image, bad_gt), gt_fault),
    ], "image")
    return gt_image


def _pack(images: Images, gt_image: np.ndarray, label_space: LabelSpace, task: str) -> _Split:
    """Derive the :class:`_Split` of ``images``, whose triplets' images are ``gt_image``."""
    num_relations = label_space.num_relations
    counts = np.diff(images.obj_start)
    pair_start = images.pair_start
    # Local pair j of an n-object image is (s, t + (t >= s)), s, t = divmod(j, n - 1).
    per_image = np.diff(pair_start)
    s, t = np.divmod(np.arange(pair_start[-1]) - np.repeat(pair_start[:-1], per_image),
                     np.repeat(counts - 1, per_image))
    first = np.repeat(images.obj_start[:-1], per_image)
    pairs = np.stack([first + s, first + t + (t >= s)], axis=1)

    # Global pair row and relation, sorted: per image, candidate_index order.
    local = candidate_index(images.gt, counts[gt_image], num_relations)
    fg = np.sort(pair_start[gt_image] * num_relations + local)
    fg_rows, fg_targets = np.divmod(fg, num_relations)
    is_bg = np.ones(len(pairs), dtype=bool)
    is_bg[fg_rows] = False
    bg_rows = np.flatnonzero(is_bg)
    return _Split(
        classes=class_labels(images, task),
        pairs=pairs,
        fg_rows=fg_rows,
        fg_targets=fg_targets + 1,
        bg_rows=bg_rows,
        bg_start=np.searchsorted(bg_rows, pair_start),
    )


def _triplet_stats(images: Images, gt_image: np.ndarray, label_space: LabelSpace) -> TripletStats:
    """Class-level ``(s, o, relation)`` counts of the split's ground truth."""
    num_classes = label_space.num_object_classes
    width = label_space.num_relations + 1
    start = images.obj_start[gt_image]
    s, o, r = images.gt.T
    s, o = images.labels[start + s], images.labels[start + o]
    dense = np.bincount(
        (s * num_classes + o) * width + r, minlength=num_classes**2 * width
    ).reshape(num_classes, num_classes, width)
    return TripletStats(label_space, dense.astype(np.int64, copy=False))


def training_stats(images: Images, label_space: LabelSpace) -> TripletStats:
    """Annotation statistics of a dataset at the object-class level; a class
    label outside the label space or invalid ground truth raises
    ``ValueError`` naming the image's index."""
    return _triplet_stats(images, _truth(images, label_space, None), label_space)


LossFn = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], LossOutput]


def make_loss_fn(config: TrainConfig, bias: Bias | None, class_counts: np.ndarray) -> LossFn:
    """Resolve the configured loss into ``f(logits, targets, s_classes, o_classes)``.

    Training calls it once per batch, with the batch's ``(Σm, C)`` block of
    relation rows bucket by bucket (see :func:`_batch_loss`), so a row's
    value and gradient must not depend on the other rows or their order; the
    other three are ``(Σm,)`` arrays: each row's target and its pair's subject
    and object class, by which bias rows are gathered as
    ``table[s_classes, o_classes]``.
    """
    kind = config.loss.kind
    if kind == "ce":
        return lambda z, y, s_classes, o_classes: ce(z, y)
    if kind == "rtpb":
        if bias is None:
            raise ValueError("rtpb loss needs a bias")
        table = _check_bias_compatible(bias, config.label_space)
        return lambda z, y, s_classes, o_classes: biased_ce(z, table[s_classes, o_classes], y)
    return lambda z, y, s_classes, o_classes: baseline_loss(config.loss, z, y, class_counts)


def _draw(
    split: _Split, gt_start: np.ndarray, batch: list[int], background_ratio: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair rows drawn for ``batch``, their targets, and the ``(B + 1,)``
    offsets of each image's block: per image, every foreground pair, then a
    seeded subsample of its background pairs, both in pair order."""
    fg_lo, bg_lo, after = gt_start[batch], split.bg_start[batch], np.add(batch, 1)
    n_fg, n_bg = gt_start[after] - fg_lo, split.bg_start[after] - bg_lo
    take = np.minimum(n_bg, np.round(background_ratio * np.maximum(n_fg, 1))).astype(np.int64)
    rows = []
    for lo, n, b_lo, b_n, t in zip(*(a.tolist() for a in (fg_lo, n_fg, bg_lo, n_bg, take))):
        bg = rng.choice(b_n, size=t, replace=False) if t else split.bg_rows[:0]
        bg.sort()
        rows += [split.fg_rows[lo : lo + n], split.bg_rows[b_lo + bg]]
    starts = _offsets(n_fg + take)
    targets = np.zeros(starts[-1], dtype=np.int64)
    targets[_ranges(starts[:-1], n_fg)] = split.fg_targets[_ranges(fg_lo, n_fg)]
    return np.concatenate(rows), targets, starts


class _Gradient:
    """A batch's gradient under ``params``: the flat buffer ``vec`` and its
    tree ``tree``, and ``rows``, a ``(batch_size, N)`` buffer of per-image
    gradients: it holds the last batch's, and each backward overwrites every
    leaf of its rows, so it is never zeroed. The tree of a slice
    ``rows[lo:hi]`` is made once, on first use."""

    def __init__(self, params: LinearParams | DualEncoderParams, batch_size: int):
        self.vec = np.zeros(flatten(params).size)
        self.tree = unflatten(params, self.vec)
        self.rows = np.zeros((batch_size, self.vec.size))
        self._params = params
        self._row_trees: dict[tuple[int, int], LinearParams | DualEncoderParams] = {}

    def row_tree(self, lo: int, hi: int) -> LinearParams | DualEncoderParams:
        if (lo, hi) not in self._row_trees:
            self._row_trees[lo, hi] = unflatten(self._params, self.rows[lo:hi])
        return self._row_trees[lo, hi]


class _Buckets:
    """The images ``index`` of a split, image ``k`` over its pair rows
    ``rows[starts[k]:starts[k + 1]]``, in buckets of the same object count
    ``n`` and number ``m`` of pair rows, in order of first appearance, with
    one model call per :data:`FORWARD_CHUNK` images of a bucket. In bucket
    order (``order``, list positions): the split's ``objects`` rows, ``rel``
    positions in ``rows``, the arrays the calls read, each gathered once, and
    ``calls``, each ``(b, n, m, o, r)``: ``b`` images from object ``o``, pair ``r``."""

    def __init__(self, images: Images, split: _Split, index: np.ndarray, rows: np.ndarray,
                 starts: np.ndarray):
        first = images.obj_start[index]
        self.index, self.counts = index, images.obj_start[index + 1] - first
        sizes = starts[1:] - starts[:-1]
        buckets: dict[tuple[int, int], list[int]] = {}
        for pos, key in enumerate(zip(self.counts.tolist(), sizes.tolist())):
            buckets.setdefault(key, []).append(pos)
        self.calls, o, r = [], 0, 0
        for (n, m), at in buckets.items():
            for lo in range(0, len(at), FORWARD_CHUNK):
                b = min(FORWARD_CHUNK, len(at) - lo)
                self.calls.append((b, n, m, o, r))
                o, r = o + b * n, r + b * m
        self.order = order = np.array([pos for at in buckets.values() for pos in at])
        self.objects = _ranges(first[order], self.counts[order])
        self.rel = _ranges(starts[order], sizes[order])
        at = rows[self.rel]
        self.pairs, self.unions = split.pairs[at], images.unions[at]
        self.record = images.objects(self.objects)
        self.local = self.pairs - first[order].repeat(sizes[order])[:, None]

    def run(self, forward: Callable, *args) -> Iterator[tuple[tuple, ModelOutput]]:
        """Yield each call with its ``forward(objects, unions, pairs, *args)``.
        After a failed call every image is forwarded alone, in the list's
        order, to raise the first failure again with its split index as
        ``image``; if no image fails alone, the call's error is raised."""
        record, unions, local = self.record, self.unions, self.local
        for b, n, m, o, r in self.calls:
            try:
                out = forward(Objects(*(a[o : o + b * n].reshape((b, n) + a.shape[1:])
                                        for a in record)),
                              unions[r : r + b * m].reshape(b, m, unions.shape[-1]),
                              local[r : r + b * m].reshape(b, m, 2), *args)
            except (ValueError, FloatingPointError):
                alone = [(o + j * n, n, r + j * m, m) for b, n, m, o, r in self.calls
                         for j in range(b)]
                for k, q in enumerate(np.argsort(self.order).tolist()):
                    o1, n1, r1, m1 = alone[q]
                    try:
                        forward(Objects(*(a[o1 : o1 + n1] for a in record)),
                                unions[r1 : r1 + m1], local[r1 : r1 + m1], *args)
                    except (ValueError, FloatingPointError) as exc:
                        exc.image = int(self.index[k])
                        raise
                raise
            yield (b, n, m, o, r), out


def _batch_loss(
    config: TrainConfig,
    net: Model,
    params: LinearParams | DualEncoderParams,
    grad: _Gradient,
    loss_fn: LossFn,
    split: _Split,
    images: Images,
    batch: list[int],
    drawn: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> float:
    """The batch's mean relation loss over its ``drawn`` pairs (see
    :func:`_draw`), plus the weighted mean object loss when the model has an
    object head; adds its gradient into ``grad.vec``.

    The batch runs in buckets (:class:`_Buckets`), one forward and one
    backward per call, and each loss once, on the rows of the whole batch
    bucket by bucket; only its per-row values are added in batch order. Each
    image's gradient is written into its own row of ``grad.rows``, and the
    rows are added into ``grad.vec`` in batch order; the rows of a gathered
    table (the label embedding, to which one image may add one class row
    twice) by one ``np.add.at`` over the batch's objects in batch order. So
    every leaf gets the per-image gradients in the order one forward and
    backward per image gives them, and checkpoints are bit-identical to it.
    """
    spec = config.model
    rows, targets, starts = drawn
    plan = _Buckets(images, split, np.asarray(batch), rows, starts)
    runs = list(plan.run(net.forward, params, spec, config.task))
    width = config.label_space.num_relations + 1
    relation_logits = np.concatenate([out.relation_logits.reshape(-1, width) for _, out in runs])
    rel, classes = plan.rel, split.classes[plan.pairs]
    rel_loss = loss_fn(relation_logits, targets[rel], classes[:, 0], classes[:, 1])
    d_rel = np.divide(rel_loss.grad_logits, len(rel), out=rel_loss.grad_logits)
    loss_value = running_sum(_batch_order(rel_loss.value, rel)) / len(rel)

    # Only a model with an object head returns object logits and gathers table
    # rows; ``slot`` gives each object's position in batch order.
    d_obj, w_obj = None, spec.object_loss_weight
    object_logits = [out.object_logits.reshape(b * n, -1) for (b, n, m, o, r), out in runs
                     if out.object_logits is not None]
    counts, order = plan.counts, plan.order
    slot = _ranges(_offsets(counts)[order], counts[order]) if object_logits else None
    if w_obj > 0 and object_logits:
        labels = plan.record.labels
        obj_loss = ce(np.concatenate(object_logits), labels)
        d_obj = np.multiply(obj_loss.grad_logits, w_obj / labels.size, out=obj_loss.grad_logits)
        loss_value += w_obj * running_sum(_batch_order(obj_loss.value, slot)) / labels.size

    gathered, lo = [], 0
    for (b, n, m, o, r), out in runs:
        g_obj = None if d_obj is None else d_obj[o : o + b * n].reshape(b, n, -1)
        g_rel = d_rel[r : r + b * m].reshape(b, m, width)
        net.backward(g_obj, g_rel, out, params, spec, grad.row_tree(lo, lo + b), gathered)
        lo += b
    for j in np.argsort(order):  # in batch order, in place: gathering the rows copies them
        grad.vec += grad.rows[j]
    tables: dict[str, list] = {}
    for name, index, table_rows in gathered:  # one row per object, bucket by bucket
        table_rows = table_rows.reshape(index.size, table_rows.shape[-1])
        tables.setdefault(name, []).append((index.ravel(), table_rows))
    for name, parts in tables.items():
        index, table_rows = (_batch_order(np.concatenate(p), slot) for p in zip(*parts))
        np.add.at(getattr(grad.tree, name), index, table_rows)
    return loss_value


def _batch_order(bucketed: np.ndarray, position: np.ndarray) -> np.ndarray:
    """Rows taken bucket by bucket, put at their batch ``position``."""
    out = np.empty_like(bucketed)
    out[position] = bucketed
    return out


def _non_finite_leaf(tree, vec: np.ndarray) -> str | None:
    """The name of the leaf holding ``vec``'s first non-finite entry, or None;
    ``vec`` is the tree's values in leaf order."""
    finite = np.isfinite(vec)
    if finite.all():
        return None
    ends = np.cumsum([a.size for a in leaves(tree)])
    return leaf_names(tree)[np.searchsorted(ends, np.argmin(finite), side="right")]


def _prepare(
    config: TrainConfig, images: Images, loss_fn: LossFn | None = None
) -> tuple[_Split, LossFn]:
    """Check ``images`` for training and pack them; with no ``loss_fn``, the
    configured loss, whose bias comes from the split's statistics."""
    ls = config.label_space
    gt_image = _truth(images, ls, images.features.shape[1])
    stats = _triplet_stats(images, gt_image, ls)
    split = _pack(images, gt_image, ls, config.task)
    bias = None if config.bias is None else compute_bias(config.bias, stats)
    if loss_fn is None:
        class_counts = marginal_counts(stats)[0].copy()
        class_counts[0] = len(split.pairs) - len(split.fg_rows)  # background pairs
        loss_fn = make_loss_fn(config, bias, class_counts)
    return split, loss_fn


def train(
    config: TrainConfig, train_images: Images, loss_fn: LossFn | None = None
) -> tuple[Checkpoint, RunLog]:
    """SGD training; returns the final checkpoint and the per-iteration log.

    ``loss_fn`` overrides the configured loss (used by equivalence tests),
    with the contract of :func:`make_loss_fn`'s result; its gradient array is
    scaled in place. The split's ground truth is checked once, before the
    first iteration; an image unfit to train on (fewer than two objects,
    detector scores of the wrong width, a class label outside the label
    space, invalid ground truth) raises ``ValueError`` naming its index, and
    a batch that draws no pair one naming the iteration.
    """
    if not len(train_images):
        raise ValueError("empty training dataset")
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    ls = config.label_space
    d_v = train_images.features.shape[1]
    split, loss_fn = _prepare(config, train_images, loss_fn)

    net = model_for(config.model)
    opt = config.optimizer
    params = net.init(config.model, ls, d_v, _rng(config.seed, INIT_DOMAIN))
    param_vec = flatten(params)
    params = unflatten(params, param_vec)
    velocity = np.zeros_like(param_vec)
    grad = _Gradient(params, opt.batch_size)

    shuffle_rng, sample_rng = _rng(config.seed, SHUFFLE_DOMAIN), _rng(config.seed, SAMPLE_DOMAIN)
    order: list[int] = []
    losses: list[float] = []

    for step in range(1, opt.iterations + 1):
        batch: list[int] = []
        while len(batch) < opt.batch_size:
            if not order:
                order = shuffle_rng.permutation(len(train_images)).tolist()
            batch.append(order.pop(0))

        drawn = _draw(split, train_images.gt_start, batch, config.background_ratio, sample_rng)
        if not len(drawn[0]):
            raise ValueError(f"iteration {step}: the batch draws no pairs (its images "
                             "have no ground truth and background_ratio is 0)")
        grad.vec.fill(0.0)
        try:
            loss_value = _batch_loss(
                config, net, params, grad, loss_fn, split, train_images, batch, drawn
            )
        except FloatingPointError as exc:
            raise FloatingPointError(f"iteration {step}: {exc}") from None
        if not np.isfinite(loss_value):
            raise FloatingPointError(f"iteration {step}: non-finite loss")
        bad = _non_finite_leaf(grad.tree, grad.vec)
        if bad is not None:
            raise FloatingPointError(f"iteration {step}: non-finite gradient of {bad}")
        losses.append(loss_value)

        velocity *= opt.momentum
        velocity += grad.vec
        param_vec -= opt.learning_rate * velocity

    finished = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    checkpoint = Checkpoint(config=config, iterations=opt.iterations, params=params)
    runlog = RunLog(
        losses=losses, started_at=started, finished_at=finished, config=asdict(config)
    )
    return checkpoint, runlog


def _check_bias_compatible(bias: Bias, ls: LabelSpace) -> np.ndarray:
    table = bias_table(bias, ls.num_object_classes)
    if table.shape[-1] != ls.num_relations + 1:
        raise ValueError(
            f"bias length {table.shape[-1]} incompatible with {ls.num_relations} relations"
        )
    return table


class _Scored(NamedTuple):
    """A split's one forward pass, as ranking needs it; pair rows are the
    :class:`_Split`'s and ``gt_index`` a flat index into its ``(ΣP, L)`` scores."""

    relation_logits: np.ndarray  # (ΣP, C)
    pair_scores: np.ndarray | None  # object-score products in sgcls
    pair_classes: np.ndarray  # (ΣP, 2) subject and object class, gathering bias rows
    pair_start: np.ndarray
    gt_index: np.ndarray
    gt_relations: np.ndarray
    gt_image: np.ndarray
    gt_matched: np.ndarray  # False where a predicted object label is wrong (sgcls)


def _forward_split(checkpoint: Checkpoint, images: Images) -> _Scored:
    """Check the split's ground truth as for training, at the checkpoint's
    feature width, and forward every image once over all its ordered pairs,
    in buckets (:class:`_Buckets`); each call's outputs are scattered into
    split-wide arrays before the next call runs. An image failing the check,
    its forward, or with non-finite logits raises ``ValueError`` naming its
    index (see :meth:`_Buckets.run`).
    """
    if not len(images):
        raise ValueError("empty evaluation split")
    config, ls = checkpoint.config, checkpoint.config.label_space
    d_v = feature_width(config.model, ls, sum(a.size for a in leaves(checkpoint.params)))
    gt_image = _truth(images, ls, d_v)
    split = _pack(images, gt_image, ls, config.task)
    pair_start = images.pair_start
    net, params = model_for(config.model), checkpoint.params

    def forward(*args) -> ModelOutput:
        out = net.forward(*args)
        if not np.isfinite(out.relation_logits).all():
            raise ValueError("non-finite relation logits")
        return out

    plan = _Buckets(images, split, np.arange(len(images)), np.arange(pair_start[-1]), pair_start)
    logits = np.empty((pair_start[-1], ls.num_relations + 1))
    object_probs = np.empty(images.scores.shape)
    try:
        for (b, n, m, o, r), out in plan.run(forward, params, config.model, config.task):
            logits[plan.rel[r : r + b * m]] = out.relation_logits.reshape(b * m, -1)
            object_probs[plan.objects[o : o + b * n]] = out.object_probs.reshape(b * n, -1)
    except (ValueError, FloatingPointError) as exc:
        if not hasattr(exc, "image"):
            raise
        raise ValueError(f"image {exc.image}: {exc}") from None
    classes, matched = images.labels, np.ones(len(split.fg_rows), dtype=bool)
    if config.task == "sgcls":
        classes = object_probs.argmax(axis=1)
        matched = (classes == images.labels)[split.pairs[split.fg_rows]].all(axis=1)
    return _Scored(
        relation_logits=logits,
        pair_scores=object_pair_scores(object_probs, split.pairs, config.task),
        pair_classes=classes[split.pairs],
        pair_start=pair_start,
        gt_index=split.fg_rows * ls.num_relations + split.fg_targets - 1,
        gt_relations=split.fg_targets,
        gt_image=gt_image,
        gt_matched=matched,
    )


def _rank_split(
    config: TrainConfig, scored: _Scored, inference_bias: Bias | None, ks: list[int]
) -> dict[str, EvalResult]:
    """Subtract the inference bias, score, rank, and aggregate per constraint."""
    ls = config.label_space
    logits = scored.relation_logits
    if inference_bias is not None:
        table = _check_bias_compatible(inference_bias, ls)
        logits = logits - table[scored.pair_classes[:, 0], scored.pair_classes[:, 1]]
    scores = score_triplets(scored.pair_scores, logits)
    return {
        c: evaluate_split(
            scored.gt_relations,
            np.where(scored.gt_matched, rank(scores, scored.pair_start, scored.gt_index, c), MISS),
            scored.gt_image, len(scored.pair_start) - 1, ks, ls.num_relations, c,
        )
        for c in CONSTRAINTS
    }


def evaluate(
    checkpoint: Checkpoint,
    images: Images,
    inference_bias: Bias | None = None,
    ks: Sequence[int] | None = None,
) -> dict[str, EvalResult]:
    """Forward every image, rank candidates, and aggregate R@k and mR@k.

    ``inference_bias`` is subtracted from the relation logits before scoring
    (pair tables gathered by annotated labels in ``predcls`` and by the
    argmax of the object probabilities in ``sgcls``); by default the
    logits are used as produced, since the training bias is training-only.
    ``ks`` defaults to the config's ``eval_ks`` and is checked by the same
    rule. Returns one result per ranking constraint.
    """
    ks = _check_ks(checkpoint.config.eval_ks if ks is None else ks, "ks")
    return _rank_split(checkpoint.config, _forward_split(checkpoint, images), inference_bias, ks)


def sweep(
    checkpoint: Checkpoint,
    stats: TripletStats,
    spec: BiasSpec,
    grid: Sequence[float],
    images: Images,
    ks: Sequence[int] | None = None,
) -> list[tuple[float, dict[str, EvalResult]]]:
    """Evaluate with the weakened inference bias at each exponent in ``grid``.

    Each image is forwarded once; every grid point reuses the split's logits
    and only re-biases, re-scores and re-ranks. An empty ``grid`` raises
    ``ValueError``.
    """
    ks = _check_ks(checkpoint.config.eval_ks if ks is None else ks, "ks")
    if not len(grid):
        raise ValueError("empty sweep grid")
    for a_e in grid:
        if a_e > spec.a:
            raise ValueError(f"a_eval {a_e} exceeds a {spec.a}")
    scored = _forward_split(checkpoint, images)
    rows = []
    for a_e in grid:
        soft = soft_bias(replace(spec, a_eval=float(a_e)), stats)
        rows.append((float(a_e), _rank_split(checkpoint.config, scored, soft, ks)))
    return rows


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Write the checkpoint as JSON; non-finite parameters raise ``ValueError``
    naming the leaf, before the file is opened."""
    data = flatten(checkpoint.params)
    bad = _non_finite_leaf(checkpoint.params, data)
    if bad is not None:
        raise ValueError(f"checkpoint parameter {bad} is not finite")
    doc = {
        "config": asdict(checkpoint.config),
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
        if not isinstance(doc, dict):
            raise ValueError("checkpoint must be an object")
        config = from_dict(TrainConfig, doc["config"])
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
