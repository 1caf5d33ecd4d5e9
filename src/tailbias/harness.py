"""Training, evaluation, and the inference-bias sweep, over packed
:class:`~tailbias.synth.Images` splits.

Training is plain SGD with momentum over image batches in a seeded permuted
order. The split's ground truth is checked once, by array masks
(:func:`_truth`), and the pairs to draw are derived once (:func:`_pack`):
every image's ordered pairs as global object rows, row for row with the
split's unions, its sorted foreground pairs and targets, and its background
pairs. Each batch draws every foreground pair of its images plus a seeded
subsample of background pairs at a configurable ratio. The draws depend only
on the seeded order and sampler, so the batches of one epoch of steps are
drawn in one call (:func:`_draw`) and planned in one pass, and each step
takes views of its batch's part; both generators are consumed as one draw
per step would consume them. The window's background subsamples are Floyd's
algorithm over every slot at once, its draws one ``Generator.integers`` call
(:func:`_choices`); a slot taking none or all of its background pairs draws
nothing, as at synth's background fraction 0.7, where an image's 4, 7 or 10
foreground pairs at the default ratio 3 ask for more than its 8, 13 or 20
background pairs. The optimized scalar is the mean relation
loss over the drawn pairs, plus a weighted mean object cross-entropy when
the model has an object head, each loss called once per batch on the rows
of all its images (:func:`_batch_loss`). Bias rows are gathered from a
dense class-pair table by the pair's classes. Parameters, momentum and gradients are flat buffers,
with trees as views of them. A non-finite loss or gradient
stops training with a ``FloatingPointError`` that names the iteration and,
for a gradient, the parameter leaf; a forward that diverges shows as one of them.

Training and evaluation forward images through one bucket planner
(:class:`_Buckets`): within a step, images with the same object count and
number of pairs form a bucket, buckets in ascending ``(n, m)``, on an
:class:`~tailbias.synth.Objects` record gathered once. Training plans every
step of a window in one vectorized pass right after drawing it, so a step
only slices its part of the plan (``BENCH_27.json``: ref_linear training
11525 -> 13691 img/s), and runs each bucket as one model call; evaluation
plans its split as one step. Evaluation checks and derives its split as
training does, at the checkpoint's feature width, and forwards each image
once over all its pairs (:func:`_forward_split`) in the model's two stages:
the object stage over slices of a bucket, the pair stage over
:data:`FORWARD_CHUNK` images of a slice at a time, so the caches held at
once stay bounded whatever the split's size (``BENCH_40.json``: dual_sgcls
evaluation 5096 -> 5837 img/s). It names the first
image whose outputs are not finite, by the same array rule that checks the
ground truth, and ranks the split's stacked ``(ΣP, L)`` score matrix once
per constraint (see :mod:`tailbias.metrics`). The sweep forwards the split
once too, and scores, ranks and counts :data:`GRID_BLOCK` grid points at a
time as one block, the split stacked once per point and the recalls of
every point and constraint counted in one pass (:func:`_rank_split`);
evaluation is that block's one-point case.
Only this module reads the task (:data:`MODES`): each model call's objects
carry the labels of :func:`class_labels`, by which training gathers bias
rows; the object loss reads the annotated ones. In ``sgcls`` evaluation the
argmax of the model's object probabilities is the object label throughout:
inference-bias rows are gathered by it, its object scores weight the
candidates, and a ground-truth triplet can be recalled only when it equals
the annotated label of both its subject and its object; otherwise its rank
position is :data:`~tailbias.metrics.MISS`.

All randomness derives from ``SeedSequence(config.seed, spawn_key=(domain,))``
so identical configs produce bitwise-identical checkpoints. Checkpoints and
metrics are JSON/CSV only.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, zip_longest
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
    evaluate_rows,
    object_pair_scores,
    rank,
    score_triplets,
    sweep_csv,
)
from .model import (
    DualEncoderParams,
    LinearParams,
    Model,
    ModelSpec,
    feature_width,
    forward,  # noqa: F401 - perfbench/tests check that tracing restores this binding
    model_for,
)
from .numerics import flatten, leaf_names, leaves, running_sum, unflatten
from .stats import (
    LabelSpace,
    TripletStats,
    _count,
    _is_int64,
    _loads,
    check_fields,
    check_value,
    flagged,
    from_dict,
    marginal_counts,
    read_json,
    read_numbers,
    refuse_first,
    ruled,
    write_text,
)
from .synth import Images, Objects, _offsets, _ranges, _rng

__all__ = [
    "LOSS_KINDS",
    "MODES",
    "OptimizerConfig",
    "LossConfig",
    "ModelSpec",
    "TrainConfig",
    "class_labels",
    "Checkpoint",
    "RunLog",
    "train",
    "evaluate",
    "sweep",
    "sweep_csv",
    "checkpoint_to_json",
    "save_checkpoint",
    "load_checkpoint",
    "training_stats",
]

# Images of one bucket per pair-stage call in evaluation: a larger chunk
# holds more pair caches at once and runs no faster. An object-stage call
# takes as many object rows as this many images' pair rows.
FORWARD_CHUNK = 16
# Sweep grid points scored and ranked as one block (:func:`_rank_split`): a
# longer grid holds this many points' score arrays at once, not its own.
GRID_BLOCK = 5

MODES = ("predcls", "sgcls")

INIT_DOMAIN = 10
SHUFFLE_DOMAIN = 11
SAMPLE_DOMAIN = 12


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = ruled(0.1, gt=0)
    momentum: float = ruled(0.9, ge=0, lt=1)
    iterations: int = ruled(1000, ge=1)
    batch_size: int = ruled(8, ge=1)

    def __post_init__(self) -> None:
        check_fields(self)


def _check_ks(ks: Sequence[int], name: str) -> list[int]:
    """``ks`` as a list, if 64-bit integers (a larger k recalls every triplet at
    :data:`~tailbias.metrics.MISS`), nonempty, strictly ascending, every k >= 1."""
    ks = list(ks)
    if not all(map(_is_int64, ks)):
        raise ValueError(f"{name} must be a list of 64-bit integers")
    if not ks or ks != sorted(set(ks)) or ks[0] < 1:
        raise ValueError(f"{name} must be nonempty and strictly ascending, every k >= 1")
    return ks


@dataclass(frozen=True)
class TrainConfig:
    config_name: ClassVar[str] = "train config"
    label_space: LabelSpace
    task: str = ruled("predcls", choices=MODES)
    model: ModelSpec = field(default_factory=ModelSpec)
    loss: LossConfig = field(default_factory=LossConfig)
    bias: BiasSpec | None = None
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = ruled(0, ge=0)
    data: tuple[tuple[str, str], ...] = ()
    eval_ks: tuple[int, ...] = (20, 50, 100)
    background_ratio: float = ruled(3.0, ge=0)

    def __post_init__(self) -> None:
        check_fields(self)
        _check_ks(self.eval_ks, "eval_ks")
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
    rows' :func:`class_labels`; ``pairs``, every ordered pair as
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
    space's classes; a class label outside the label space; a ground-truth
    triplet with a relation outside ``1..L``. :meth:`Images.pack` has checked
    the triplets' object indices."""
    num_classes, num_relations = label_space.num_object_classes, label_space.num_relations
    counts = np.diff(images.obj_start)
    image = np.arange(len(images))
    gt_image = np.repeat(image, np.diff(images.gt_start))

    r = images.gt[:, 2]
    bad_gt = (r < 1) | (r > num_relations)

    def gt_fault(i: int) -> str:
        t = int(np.argmax(bad_gt & (gt_image == i)))
        return (f"ground-truth triplet {tuple(images.gt[t].tolist())} has a relation "
                f"outside 1..{num_relations}")

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
        (flagged(np.repeat(image, counts), (labels < 0) | (labels >= num_classes), len(images)),
         lambda i: f"object class label outside 0..{num_classes - 1}"),
        (flagged(gt_image, bad_gt, len(images)), gt_fault),
    ], "image")
    return gt_image


def class_labels(objects: Objects | Images, task: str) -> np.ndarray:
    """The object classes ``task`` sees: annotated in ``predcls``, detector argmax in ``sgcls``."""
    check_value("task", task, choices=MODES)
    if task == "predcls":
        return objects.labels
    return objects.scores.argmax(axis=-1)


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
    start = images.obj_start[gt_image]
    s, o, r = images.gt.T
    keys = np.column_stack([images.labels[start + s], images.labels[start + o], r])
    return TripletStats(label_space, _count(keys, label_space))


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
    split: _Split, gt_start: np.ndarray, slots: Sequence[int], background_ratio: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair rows drawn for the image ``slots`` (one batch, or the batches
    of many steps in a row), their targets, and the ``(S + 1,)`` offsets of
    each slot's block: per slot, every foreground pair, then a seeded
    subsample of its background pairs, both in pair order. The subsamples
    are Floyd's picks, slot by slot, from one ``rng.integers`` call
    (:func:`_choices`), so drawing many batches in one call consumes ``rng``
    as drawing them one call each; a slot taking none or all of its
    background pairs draws nothing."""
    slots = np.asarray(slots, dtype=np.int64)
    fg_lo, bg_lo = gt_start[slots], split.bg_start[slots]
    n_fg, n_bg = gt_start[slots + 1] - fg_lo, split.bg_start[slots + 1] - bg_lo
    take = np.minimum(n_bg, np.round(background_ratio * np.maximum(n_fg, 1))).astype(np.int64)
    picks = _choices(n_bg, take, rng)
    starts = _offsets(n_fg + take)
    rows = np.empty(starts[-1], dtype=np.int64)
    targets = np.zeros(starts[-1], dtype=np.int64)
    fg, fg_at = _ranges(fg_lo, n_fg), _ranges(starts[:-1], n_fg)
    rows[fg_at], targets[fg_at] = split.fg_rows[fg], split.fg_targets[fg]
    rows[_ranges(starts[:-1] + n_fg, take)] = split.bg_rows[picks + bg_lo.repeat(take)]
    return rows, targets, starts


def _choices(n: np.ndarray, t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Each slot's sorted pick of ``t[s]`` of ``range(n[s])``, concatenated in
    slot order, by Floyd's algorithm (Bentley & Floyd, CACM 1987), which
    picks each ``t``-subset with equal probability: for ``j = n - t, …, n - 1``
    a draw ``v`` in ``[0, j]`` picks ``v``, or ``j`` when ``v`` is already
    picked. The draws of every slot with ``0 < t < n``, slot by slot, are one
    ``rng.integers`` call; a slot taking none or all of its ``n`` draws
    nothing."""
    first = _offsets(n)  # slot s's candidates are picked[first[s]:first[s + 1]]
    picked = np.zeros(first[-1], dtype=bool)
    full = t == n
    picked[_ranges(first[:-1][full], n[full])] = True
    part = (t > 0) & ~full
    lo, take = first[:-1][part], t[part]
    bound = _ranges((n - t)[part], take)  # each draw's largest value, slot by slot
    draws = rng.integers(0, bound, endpoint=True)

    # Floyd's steps in turn: step q draws for each slot taking more than q pairs.
    step = _ranges(0 * take, take)
    by_step = np.argsort(step, kind="stable")
    at = lo.repeat(take)[by_step]
    v, j = at + draws[by_step], at + bound[by_step]
    cut = _offsets(np.bincount(step)).tolist()
    for a, b in zip(cut[:-1], cut[1:]):
        pick = v[a:b]
        picked[np.where(picked[pick], j[a:b], pick)] = True
    return np.flatnonzero(picked) - first[:-1].repeat(t)


class _Gradient:
    """A batch's gradient under ``params``: the flat buffer ``vec``, the sum
    in batch order of ``rows``, a ``(batch_size, N)`` buffer of per-image
    gradients: it holds the last batch's, and each backward overwrites every
    leaf of its rows, so it is never zeroed. The tree of a slice
    ``rows[lo:hi]`` is made once, on first use."""

    def __init__(self, params: LinearParams | DualEncoderParams, batch_size: int):
        self.vec = np.zeros(flatten(params).size)
        self.rows = np.zeros((batch_size, self.vec.size))
        self._params = params
        self._row_trees: dict[tuple[int, int], LinearParams | DualEncoderParams] = {}

    def row_tree(self, lo: int, hi: int) -> LinearParams | DualEncoderParams:
        if (lo, hi) not in self._row_trees:
            self._row_trees[lo, hi] = unflatten(self._params, self.rows[lo:hi])
        return self._row_trees[lo, hi]


class _Buckets:
    """The plan of a window of steps: the image ``slots`` of a split,
    ``batch_size`` to a step (the last step may be short), slot ``q`` over its pair rows
    ``rows[starts[q]:starts[q + 1]]`` with their relation ``targets``. Within
    a step, images of the same object count ``n`` and number ``m`` of pair
    rows form a bucket, buckets in ascending ``(n, m)``, and each bucket is
    one call (a training bucket holds at most a batch of images, and a step's
    caches are all held until its backward anyway). The whole window is planned
    in one vectorized pass, so a step only takes views of it; evaluation
    plans its split as one step.

    In plan order (``order``, slot positions, step by step): the split's
    ``objects`` rows, ``rel`` positions in ``rows``, and what the calls and
    the losses read, each gathered once: the annotated ``record`` of the
    objects, the pairs' unions and image-local rows, ``targets`` and the pairs'
    ``classes``. ``calls`` are ``(b, n, m, o, r)``: ``b`` images from object
    ``o``, pair ``r``, and ``views`` each call's model arguments ``(objects,
    unions, pairs)``, reshaped to ``b`` images, the objects labelled by the
    split's ``classes``. Step ``k`` holds the slots
    ``slot_at[k]:slot_at[k + 1]``, the calls ``call_at[k]:…`` (:meth:`step`),
    the objects ``obj_at[k]:…`` and the pair rows ``rel_at[k]:…``; ``obj_slot`` and
    ``rel_slot`` give each object and pair row its position in its step's
    batch order, ``row`` each slot its position in its step's plan order."""

    def __init__(self, images: Images, split: _Split, slots: np.ndarray, rows: np.ndarray,
                 targets: np.ndarray, starts: np.ndarray, batch_size: int):
        slots = np.asarray(slots, dtype=np.int64)
        first = images.obj_start[slots]
        counts, sizes = images.obj_start[slots + 1] - first, np.diff(starts)
        step = np.arange(len(slots)) // batch_size
        self.order = order = np.lexsort((sizes, counts, step))
        n, m, k = counts[order], sizes[order], step[order]

        # A call is a bucket: it starts where the step, n or m changes.
        new = np.ones(len(order), dtype=bool)
        new[1:] = (n[1:] != n[:-1]) | (m[1:] != m[:-1]) | (k[1:] != k[:-1])
        call = np.flatnonzero(new)
        self.calls = list(zip(np.diff(np.append(call, len(order))).tolist(), n[call].tolist(),
                              m[call].tolist(), _offsets(n)[call].tolist(),
                              _offsets(m)[call].tolist()))
        bounds = np.minimum(np.arange(step[-1] + 2) * batch_size, len(slots))
        obj_start = _offsets(counts)  # in slot order
        obj_at, rel_at = obj_start[bounds], starts[bounds] - starts[0]
        self.slot_at, self.obj_at, self.rel_at = bounds.tolist(), obj_at.tolist(), rel_at.tolist()
        self.call_at = np.searchsorted(k[call], np.arange(step[-1] + 2)).tolist()

        self.objects = _ranges(first[order], n)
        self.rel = _ranges(starts[order], m)
        # ``take`` gathers the rows of a 2-D array several times faster than indexing.
        at = rows[self.rel]
        pairs, unions = split.pairs.take(at, axis=0), images.unions.take(at, axis=0)
        self.record = record = Objects(*(a.take(self.objects, axis=0)
                                         for a in images.objects(slice(None))))
        called = record._replace(labels=split.classes.take(self.objects))
        local = pairs - first[order].repeat(m)[:, None]
        self.targets, self.classes = targets[self.rel], split.classes.take(pairs)
        self.obj_slot = _ranges(obj_start[order], n) - obj_at[:-1].repeat(np.diff(obj_at))
        self.rel_slot = self.rel - starts[bounds[:-1]].repeat(np.diff(rel_at))
        self.row = np.empty_like(order)
        self.row[order] = np.arange(len(order)) - k * batch_size
        self.views = [(Objects(*(a[o : o + b * n].reshape((b, n) + a.shape[1:]) for a in called)),
                       unions[r : r + b * m].reshape(b, m, unions.shape[-1]),
                       local[r : r + b * m].reshape(b, m, 2)) for b, n, m, o, r in self.calls]

    def step(self, k: int) -> list[tuple[tuple, tuple]]:
        """Step ``k``'s calls, each with its view ``(objects, unions, pairs)``."""
        first, last = self.call_at[k : k + 2]
        return list(zip(self.calls[first:last], self.views[first:last]))


def _batch_loss(
    config: TrainConfig,
    net: Model,
    params: LinearParams | DualEncoderParams,
    grad: _Gradient,
    loss_fn: LossFn,
    plan: _Buckets,
    k: int,
) -> float:
    """Step ``k`` of ``plan``: the batch's mean relation loss over its drawn
    pairs (see :func:`_draw`), plus the weighted mean object loss when the
    model has an object head; adds its gradient into ``grad.vec``.

    The step takes its part of the window's plan, runs one forward and one
    backward per call, and each loss once, on the rows of the whole batch
    bucket by bucket; only its per-row values are added in batch order. Each
    image's gradient is written into its own row of ``grad.rows``, and the
    rows are added into ``grad.vec`` in batch order, so the gradient is bit
    for bit the sum of one backward per image, added in batch order.
    """
    spec = config.model
    (o0, o1), (r0, r1) = plan.obj_at[k : k + 2], plan.rel_at[k : k + 2]
    runs = [(call, net.forward(*views, params, spec)) for call, views in plan.step(k)]
    width = config.label_space.num_relations + 1
    relation_logits = np.concatenate([out.relation_logits.reshape(-1, width) for _, out in runs])
    classes = plan.classes[r0:r1]
    rel_loss = loss_fn(relation_logits, plan.targets[r0:r1], classes[:, 0], classes[:, 1])
    d_rel = np.divide(rel_loss.grad_logits, r1 - r0, out=rel_loss.grad_logits)
    loss_value = running_sum(_batch_order(rel_loss.value, plan.rel_slot[r0:r1])) / (r1 - r0)

    # Only a model with an object head returns object logits.
    d_obj, w_obj = None, spec.object_loss_weight
    object_logits = [out.object_logits.reshape(b * n, -1) for (b, n, m, o, r), out in runs
                     if out.object_logits is not None]
    if w_obj > 0 and object_logits:
        labels = plan.record.labels[o0:o1]
        obj_loss = ce(np.concatenate(object_logits), labels)
        d_obj = np.multiply(obj_loss.grad_logits, w_obj / labels.size, out=obj_loss.grad_logits)
        loss_value += (w_obj * running_sum(_batch_order(obj_loss.value, plan.obj_slot[o0:o1]))
                       / labels.size)

    lo = 0
    for (b, n, m, o, r), out in runs:
        g_obj = None if d_obj is None else d_obj[o - o0 : o - o0 + b * n].reshape(b, n, -1)
        g_rel = d_rel[r - r0 : r - r0 + b * m].reshape(b, m, width)
        net.backward(g_obj, g_rel, out, params, spec, grad.row_tree(lo, lo + b))
        lo += b
    for j in plan.row[plan.slot_at[k] : plan.slot_at[k + 1]].tolist():
        grad.vec += grad.rows[j]  # in batch order, in place: gathering the rows copies them
    return loss_value


def _batch_order(bucketed: np.ndarray, position: np.ndarray) -> np.ndarray:
    """Rows taken bucket by bucket, put at their batch ``position``."""
    out = np.empty_like(bucketed)
    out[position] = bucketed
    return out


def _first_leaf(tree, bad: np.ndarray) -> str | None:
    """The name of the leaf holding ``bad``'s first true entry, or None;
    ``bad`` is over the tree's values in leaf order."""
    if not bad.any():
        return None
    ends = np.cumsum([a.size for a in leaves(tree)])
    return leaf_names(tree)[np.searchsorted(ends, np.argmax(bad), side="right")]


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
    a batch that draws no pair one naming the iteration. Each window of
    steps is drawn in one call (:func:`_draw`) and planned in one pass
    (:class:`_Buckets`); a step runs its part of the plan (:func:`_batch_loss`).
    A non-finite batch loss or gradient, as a diverging forward gives, raises
    ``FloatingPointError`` naming the iteration.
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

    order_rng, sample_rng = _rng(config.seed, SHUFFLE_DOMAIN), _rng(config.seed, SAMPLE_DOMAIN)
    order = np.zeros(0, dtype=np.int64)
    losses: list[float] = []
    # The steps of one epoch are drawn in one call and planned in one pass, so
    # the drawn rows held at once stay within about the split's own pair rows.
    size = opt.batch_size
    window = -(-len(train_images) // size)

    for step in range(1, opt.iterations + 1):
        k = (step - 1) % window  # the step's place in its window
        if not k:
            need = min(window, opt.iterations - step + 1) * size
            while len(order) < need:  # the permuted order, refilled as it runs out
                order = np.concatenate([order, order_rng.permutation(len(train_images))])
            slots, order = order[:need], order[need:]
            drawn = _draw(split, train_images.gt_start, slots, config.background_ratio, sample_rng)
            plan = _Buckets(train_images, split, slots, *drawn, size)
        if plan.rel_at[k] == plan.rel_at[k + 1]:
            raise ValueError(f"iteration {step}: the batch draws no pairs (its images "
                             "have no ground truth and background_ratio is 0)")
        grad.vec.fill(0.0)
        loss_value = _batch_loss(config, net, params, grad, loss_fn, plan, k)
        if not np.isfinite(loss_value):
            raise FloatingPointError(f"iteration {step}: non-finite loss")
        bad = _first_leaf(params, ~np.isfinite(grad.vec))
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
    """Check the checkpoint's parameters as :func:`save_checkpoint` does and
    the split's ground truth as for training, at the checkpoint's feature
    width; forward every image once over all its ordered pairs, in buckets
    (:class:`_Buckets`), each stage call's outputs scattered into split-wide
    arrays. A bucket of ``b`` images with ``n`` objects and ``m`` pairs each
    runs the model's object stage on slices of at most ``FORWARD_CHUNK * m //
    n`` images, as many object rows as :data:`FORWARD_CHUNK` images have pair
    rows, and its pair stage on at most :data:`FORWARD_CHUNK` images of a
    slice; each stage's cache is dropped as it returns, so the memory held at
    once does not grow with the split. An image failing the check, or with
    non-finite relation logits (or, in ``sgcls``, object probabilities),
    raises ``ValueError`` naming its index.
    """
    if not len(images):
        raise ValueError("empty evaluation split")
    config, ls = checkpoint.config, checkpoint.config.label_space
    net, params = model_for(config.model), checkpoint.params
    d_v = feature_width(config.model, ls, _finite_params(params).size)
    gt_image = _truth(images, ls, d_v)
    split = _pack(images, gt_image, ls, config.task)
    pair_start = images.pair_start

    count = pair_start[-1]  # every pair, as one step; evaluation reads no targets
    plan = _Buckets(images, split, np.arange(len(images)), np.arange(count),
                    np.zeros(count, dtype=np.int64), pair_start, len(images))
    logits = np.empty((count, ls.num_relations + 1))
    object_probs = np.empty(images.scores.shape)
    for (b, n, m, o, r), (objects, unions, pairs) in plan.step(0):
        size = FORWARD_CHUNK * m // n  # images whose object rows are a pair call's pair rows
        for lo in range(0, b, size):
            hi = min(lo + size, b)
            tokens, _, probs, _ = net.object_stage(
                Objects._make(a[lo:hi] for a in objects), params, config.model)
            object_probs[plan.objects[o + lo * n : o + hi * n]] = probs.reshape((hi - lo) * n, -1)
            for at in range(lo, hi, FORWARD_CHUNK):
                to = min(at + FORWARD_CHUNK, hi)
                rel, _ = net.pair_stage(tokens[at - lo : to - lo], unions[at:to], pairs[at:to],
                                        params, config.model)
                logits[plan.rel[r + at * m : r + to * m]] = rel.reshape((to - at) * m, -1)
    outputs = [(logits, pair_start, "non-finite relation logits")]
    classes, matched, pair_scores = images.labels, np.ones(len(split.fg_rows), dtype=bool), None
    if config.task == "sgcls":  # predcls reads no object probabilities
        outputs.append((object_probs, images.obj_start, "non-finite object probabilities"))
        classes = object_probs.argmax(axis=1)
        matched = (classes == images.labels)[split.pairs[split.fg_rows]].all(axis=1)
        pair_scores = object_pair_scores(object_probs, split.pairs)
    if not all(np.isfinite(rows).all() for rows, _, _ in outputs):
        image = np.arange(len(images))
        refuse_first([(flagged(np.repeat(image, np.diff(start)), ~np.isfinite(rows).all(axis=1),
                               len(images)), lambda i, why=why: why)
                      for rows, start, why in outputs], "image")
    return _Scored(
        relation_logits=logits,
        pair_scores=pair_scores,
        pair_classes=classes[split.pairs],
        pair_start=pair_start,
        gt_index=split.fg_rows * ls.num_relations + split.fg_targets - 1,
        gt_relations=split.fg_targets,
        gt_image=gt_image,
        gt_matched=matched,
    )


def _rank_split(
    config: TrainConfig, scored: _Scored, biases: Sequence[Bias | None], ks: list[int]
) -> list[dict[str, EvalResult]]:
    """One result per constraint for each inference bias of ``biases``, in
    order: subtract it, score, rank, and aggregate.

    Up to :data:`GRID_BLOCK` biases are handled as one block of G: bias g's
    logits fill rows ``g·ΣP … (g + 1)·ΣP`` of one ``(G·ΣP, L + 1)`` array,
    scored by one :func:`score_triplets` call (the ``sgcls`` pair scores
    tiled G times) and ranked by one :func:`rank` call per constraint over
    the split stacked G times. Each copy of an image is ranked only against
    itself, so every bias gets the positions it would get alone. The block's
    ``(G·2, T)`` positions, one row per bias and constraint, are counted by
    one :func:`evaluate_rows` call, each row's recalls those it gets alone.
    A lone ``None`` ranks the logits themselves, uncopied.
    """
    ls = config.label_space
    logits, L = scored.relation_logits, ls.num_relations
    count, num_images = len(logits), len(scored.pair_start) - 1
    s, o = scored.pair_classes.T
    results = []
    for lo in range(0, len(biases), GRID_BLOCK):
        tables = [None if b is None else _check_bias_compatible(b, ls)
                  for b in biases[lo : lo + GRID_BLOCK]]
        g = np.arange(len(tables))[:, None]
        block = logits
        if len(tables) > 1 or tables[0] is not None:
            block = np.empty((len(tables) * count, logits.shape[1]))
            for rows, table in zip(np.split(block, len(tables)), tables):
                np.subtract(logits, 0.0 if table is None else table[s, o], out=rows)
        pair_scores = scored.pair_scores
        if pair_scores is not None:
            pair_scores = np.tile(pair_scores, len(tables))
        scores = score_triplets(pair_scores, block)
        starts = np.append((scored.pair_start[:-1] + count * g).ravel(), len(block))
        index = (scored.gt_index + count * L * g).ravel()
        ranked = [rank(scores, starts, index, c).reshape(len(tables), -1) for c in CONSTRAINTS]
        positions = np.where(scored.gt_matched, np.stack(ranked, axis=1), MISS)  # (G, 2, T)
        constraints = CONSTRAINTS * len(tables)  # one row per point and constraint
        rows = evaluate_rows(scored.gt_relations, positions.reshape(len(constraints), -1),
                             scored.gt_image, num_images, ks, L, constraints)
        results += [dict(zip(CONSTRAINTS, rows[i : i + len(CONSTRAINTS)]))
                    for i in range(0, len(rows), len(CONSTRAINTS))]
    return results


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
    rule. Returns one result per ranking constraint: the one-point case of
    :func:`sweep`'s block (:func:`_rank_split`).
    """
    ks = _check_ks(checkpoint.config.eval_ks if ks is None else ks, "ks")
    scored = _forward_split(checkpoint, images)
    return _rank_split(checkpoint.config, scored, [inference_bias], ks)[0]


def sweep(
    checkpoint: Checkpoint,
    stats: TripletStats,
    spec: BiasSpec,
    grid: Sequence[float],
    images: Images,
    ks: Sequence[int] | None = None,
) -> list[tuple[float, dict[str, EvalResult]]]:
    """Evaluate with the weakened inference bias at each exponent in ``grid``.

    Each image is forwarded once; the grid's points re-bias, score and rank
    the split's logits :data:`GRID_BLOCK` points at a time, each point's
    results those :func:`evaluate` gives with its bias (:func:`_rank_split`).
    ``stats`` over another number of object classes or relations than the
    checkpoint's label space, an empty ``grid``, a point that
    :class:`BiasSpec` refuses as ``a_eval``, or one whose bias
    :func:`soft_bias` refuses (the error then names the point's ``a_eval``),
    raises ``ValueError`` before any image is forwarded.
    """
    ks = _check_ks(checkpoint.config.eval_ks if ks is None else ks, "ks")
    sizes = [(space.num_object_classes, space.num_relations)
             for space in (stats.label_space, checkpoint.config.label_space)]
    if sizes[0] != sizes[1]:
        raise ValueError("statistics over {} object classes and {} relations; the checkpoint "
                         "has {} and {}".format(*sizes[0], *sizes[1]))
    if not len(grid):
        raise ValueError("empty sweep grid")
    points, biases = [replace(spec, a_eval=float(a_e)) for a_e in grid], []
    for point in points:
        try:
            biases.append(soft_bias(point, stats))
        except ValueError as exc:
            raise ValueError(f"a_eval {point.a_eval}: {exc}") from None
    scored = _forward_split(checkpoint, images)
    results = _rank_split(checkpoint.config, scored, biases, ks)
    return [(point.a_eval, result) for point, result in zip(points, results)]


def _finite_params(params: LinearParams | DualEncoderParams) -> np.ndarray:
    """The flat parameters; ``ValueError`` names the first leaf holding a
    non-finite value."""
    data = flatten(params)
    bad = _first_leaf(params, ~np.isfinite(data))
    if bad is not None:
        raise ValueError(f"checkpoint parameter {bad} is not finite")
    return data


def checkpoint_to_json(checkpoint: Checkpoint) -> Iterator[str]:
    """The checkpoint as one JSON document in chunks of 1024 parameters, so no more numbers'
    text is held at once; non-finite parameters raise ``ValueError`` naming the leaf."""
    data = _finite_params(checkpoint.params)
    head = json.dumps({"config": asdict(checkpoint.config), "iterations": checkpoint.iterations,
                       "param_shapes": [list(a.shape) for a in leaves(checkpoint.params)],
                       "param_data": []})[:-2]  # up to the parameter list's "["
    numbers = (", " * (lo > 0) + json.dumps(data[lo : lo + 1024].tolist())[1:-1]
               for lo in range(0, data.size, 1024))
    return chain([head], numbers, ["]}"])


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Write :func:`checkpoint_to_json`; a refused checkpoint opens no file."""
    write_text(path, checkpoint_to_json(checkpoint))


def load_checkpoint(path: str) -> Checkpoint:
    """Rebuild the parameter tree through the model's ``init``, as ``train``
    does, as views of the file's ``param_data``.

    Every stored shape must equal the rebuilt tree's shape at the same leaf,
    every value a finite number and ``iterations`` a 64-bit integer >= 1, or
    ``ValueError`` names ``path``; so does a file that is no JSON document
    or nests too deeply to read (see :func:`~tailbias.stats.read_json`).
    """
    return read_json(path, _checkpoint_from_json)


def _checkpoint_from_json(text: str) -> Checkpoint:
    doc = _loads(text, "checkpoint")
    if not isinstance(doc, dict):
        raise ValueError("checkpoint must be an object")
    config = from_dict(TrainConfig, doc["config"])
    spec, ls = config.model, config.label_space
    data, no_number = read_numbers(doc["param_data"], np.float64)
    params = model_for(spec).init(spec, ls, feature_width(spec, ls, data.size))
    expected = [list(a.shape) for a in leaves(params)]
    for i, (want, got) in enumerate(zip_longest(expected, doc["param_shapes"])):
        if want != got:
            raise ValueError(f"checkpoint parameter {i} has shape {got}; the model needs {want}")
    params = unflatten(params, data)
    bad = _first_leaf(params, no_number | ~np.isfinite(data))
    if bad is not None:
        raise ValueError(f"checkpoint parameter {bad} is not a finite number")
    iterations = doc["iterations"]
    if not (_is_int64(iterations) and iterations >= 1):
        raise ValueError("checkpoint key 'iterations' must be a 64-bit integer >= 1")
    return Checkpoint(config=config, iterations=iterations, params=params)
