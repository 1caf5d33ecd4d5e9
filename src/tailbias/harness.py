"""Training, evaluation, and the inference-bias sweep.

Training is plain SGD with momentum over seeded shuffled image batches. Each
batch draws every annotated (foreground) pair of its images plus a subsample
of background pairs at a configurable ratio; the optimized scalar is the mean
relation loss over the drawn pairs, plus a weighted mean object-classification
cross-entropy when the model has an object head. Bias rows are gathered from
a dense class-pair table by the pair's class labels: annotated labels in
``predcls``, detector argmax in ``sgcls``. A step whose loss or any gradient
is non-finite stops training with a ``FloatingPointError`` that names the
iteration and, for a gradient, the parameter leaf.

Evaluation forwards each image once and ranks its ``(pairs, relations)``
score matrix (see :mod:`tailbias.metrics`); the sweep reuses those logits at
every grid point and only re-biases, re-scores and re-ranks.

All randomness derives from ``SeedSequence(config.seed, spawn_key=(domain,))``
so identical configs produce bitwise-identical checkpoints. Checkpoints and
metrics are JSON/CSV only.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .bias import Bias, BiasSpec, BiasVector, bias_table, compute_bias, soft_bias
from .losses import BaselineSpec, LossOutput, baseline_loss, biased_ce, ce
from .metrics import (
    CONSTRAINTS,
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
    ObjectProposal,
    all_ordered_pairs,
    class_labels,
    feature_width,
    forward,  # noqa: F401 - perfbench/tests check that tracing restores this binding
    model_for,
)
from .numerics import flatten, leaf_names, leaves, write_flat, zeros_like_tree
from .stats import LabelSpace, TripletStats, ingest, marginal_counts
from .synth import SynthImage, images_to_triplets

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
        return cls(
            label_space=LabelSpace.from_dict(d["label_space"]),
            task=d.get("task", "predcls"),
            model=ModelSpec(**d.get("model", {})),
            loss=LossConfig(**d.get("loss", {})),
            bias=None if d.get("bias") is None else BiasSpec.from_dict(d["bias"]),
            optimizer=OptimizerConfig(**d.get("optimizer", {})),
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


def training_stats(images: Sequence[SynthImage], label_space: LabelSpace) -> TripletStats:
    """Annotation statistics of a dataset at the object-class level."""
    return ingest(images_to_triplets(images), label_space)


def _class_counts(images: Sequence[SynthImage], stats: TripletStats) -> np.ndarray:
    """Per-class counts over the full logit space; index 0 counts background pairs."""
    counts, _ = marginal_counts(stats)
    background = 0
    for img in images:
        n = len(img.proposals)
        background += n * (n - 1) - len(img.gt_triplets)
    counts = counts.copy()
    counts[0] = background
    return counts


def make_loss_fn(
    config: TrainConfig, bias: Bias | None, class_counts: np.ndarray
) -> Callable[[np.ndarray, int, int, int], LossOutput]:
    """Resolve the configured loss into ``f(logits, y, s_class, o_class)``."""
    kind = config.loss.kind
    if kind == "ce":
        return lambda z, y, s_class, o_class: ce(z, y)
    if kind == "rtpb":
        if bias is None:
            raise ValueError("rtpb loss needs a bias")
        table = bias_table(bias, config.label_space.num_object_classes)
        return lambda z, y, s_class, o_class: biased_ce(z, table[s_class, o_class], y)
    spec = BaselineSpec(
        kind=kind,
        class_counts=class_counts,
        beta=config.loss.beta,
        gamma=config.loss.gamma,
        alpha=config.loss.alpha,
        margin_c=config.loss.margin_c,
        reweight_normalize=config.loss.reweight_normalize,
    )
    return lambda z, y, s_class, o_class: baseline_loss(spec, z, y)


def _class_labels(proposals: Sequence[ObjectProposal], config: TrainConfig) -> np.ndarray:
    """The task's object class labels, which index the dense bias table."""
    labels = class_labels(proposals, config.task)
    n = config.label_space.num_object_classes
    if labels.size and (labels.min() < 0 or labels.max() >= n):
        raise ValueError(f"object class label outside 0..{n - 1}")
    return labels


def _training_pairs(
    img: SynthImage, ratio: float, rng: np.random.Generator
) -> tuple[list[tuple[int, int]], list[int]]:
    """Foreground pairs plus a seeded subsample of background pairs."""
    gt = {(s, o): r for s, o, r in img.gt_triplets}
    fg = sorted(gt)
    bg = [p for p in all_ordered_pairs(len(img.proposals)) if p not in gt]
    take = min(len(bg), int(round(ratio * max(len(fg), 1))))
    if take and bg:
        chosen = rng.choice(len(bg), size=take, replace=False)
        bg = [bg[i] for i in sorted(chosen.tolist())]
    else:
        bg = []
    pairs = fg + bg
    targets = [gt.get(p, 0) for p in pairs]
    return pairs, targets


def _batch_loss(
    config: TrainConfig,
    net: Model,
    params: LinearParams | DualEncoderParams,
    loss_fn: Callable[[np.ndarray, int, int, int], LossOutput],
    batch: Sequence[SynthImage],
    sample_rng: np.random.Generator,
) -> tuple[float, LinearParams | DualEncoderParams]:
    """The batch's mean relation loss, plus the weighted mean object loss when
    the model has an object head, and its parameter gradients."""
    grads = zeros_like_tree(params)
    rel_loss_sum = 0.0
    rel_count = 0
    obj_loss_sum = 0.0
    obj_count = 0
    per_image = []
    for img in batch:
        pairs, targets = _training_pairs(img, config.background_ratio, sample_rng)
        unions = np.stack([img.unions[p] for p in pairs])
        out = net.forward(img.proposals, unions, pairs, params, config.model, config.task)
        lookup = _class_labels(img.proposals, config).tolist()
        d_rel = np.zeros_like(out.relation_logits)
        for q, (s, o) in enumerate(pairs):
            res = loss_fn(out.relation_logits[q], targets[q], lookup[s], lookup[o])
            rel_loss_sum += res.value
            d_rel[q] = res.grad_logits
            rel_count += 1
        per_image.append((img, out, d_rel))

    w_obj = config.model.object_loss_weight
    # Only a model with an object head returns object logits.
    use_obj = w_obj > 0 and out.object_logits is not None
    if use_obj:
        obj_count = sum(len(img.proposals) for img in batch)
    for img, out, d_rel in per_image:
        d_rel = d_rel / rel_count
        d_obj = None
        if use_obj:
            d_obj = np.zeros_like(out.object_logits)
            for i, p in enumerate(img.proposals):
                res = ce(out.object_logits[i], p.label)
                obj_loss_sum += res.value
                d_obj[i] = res.grad_logits * (w_obj / obj_count)
        net.backward(d_obj, d_rel, out, params, config.model, grads)

    loss_value = rel_loss_sum / rel_count
    if use_obj and obj_count:
        loss_value += w_obj * obj_loss_sum / obj_count
    return float(loss_value), grads


def _check_finite_step(step: int, loss_value: float, grads) -> None:
    """Name a diverging step: its non-finite loss or first non-finite gradient leaf."""
    if not np.isfinite(loss_value):
        raise FloatingPointError(f"iteration {step}: non-finite loss")
    for i, g in enumerate(leaves(grads)):
        if not np.isfinite(g).all():
            raise FloatingPointError(
                f"iteration {step}: non-finite gradient of {leaf_names(grads)[i]}"
            )


def train(
    config: TrainConfig,
    train_images: Sequence[SynthImage],
    loss_fn: Callable[[np.ndarray, int, int, int], LossOutput] | None = None,
    val_images: Sequence[SynthImage] | None = None,
    eval_every: int = 0,
) -> tuple[Checkpoint, RunLog]:
    """SGD training; returns the final checkpoint and the per-iteration log.

    ``loss_fn`` overrides the configured loss (used by equivalence tests);
    signature ``f(logits_row, target, s_class, o_class) -> LossOutput``.
    With ``eval_every > 0`` and a validation split, R@k/mR@k snapshots are
    recorded in the log every that many iterations.
    """
    if not train_images:
        raise ValueError("empty training dataset")
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    ls = config.label_space
    stats = training_stats(train_images, ls)
    bias = None
    if config.bias is not None:
        bias = compute_bias(config.bias, stats)
        _check_bias_compatible(bias, ls)
    if loss_fn is None:
        loss_fn = make_loss_fn(config, bias, _class_counts(train_images, stats))

    d_v = train_images[0].proposals[0].feature.shape[0]
    net = model_for(config.model)
    params = net.init(config.model, ls, d_v, _rng(config.seed, INIT_DOMAIN))
    velocity = zeros_like_tree(params)

    shuffle_rng = _rng(config.seed, SHUFFLE_DOMAIN)
    sample_rng = _rng(config.seed, SAMPLE_DOMAIN)
    order: list[int] = []
    losses: list[float] = []
    val_metrics: list[dict] = []
    opt = config.optimizer

    for step in range(1, opt.iterations + 1):
        batch: list[SynthImage] = []
        while len(batch) < opt.batch_size:
            if not order:
                order = shuffle_rng.permutation(len(train_images)).tolist()
            batch.append(train_images[order.pop(0)])

        try:
            loss_value, grads = _batch_loss(config, net, params, loss_fn, batch, sample_rng)
        except FloatingPointError as exc:
            raise FloatingPointError(f"iteration {step}: {exc}") from None
        _check_finite_step(step, loss_value, grads)
        losses.append(loss_value)

        for p_leaf, v_leaf, g_leaf in zip(
            leaves(params), leaves(velocity), leaves(grads), strict=True
        ):
            v_leaf *= opt.momentum
            v_leaf += g_leaf
            p_leaf -= opt.learning_rate * v_leaf

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
    subject_classes: np.ndarray  # (P,) class label of each pair's subject
    object_classes: np.ndarray
    gt_index: np.ndarray  # flat candidate index of each gt triplet
    gt_relations: np.ndarray


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
            n = len(img.proposals)
            gt_index = candidate_index(img.gt_triplets, n, num_relations)
            labels = _class_labels(img.proposals, config)
            pairs = all_ordered_pairs(n)
            unions = np.stack([img.unions[p] for p in pairs])
            fwd = net.forward(
                img.proposals, unions, pairs, checkpoint.params, config.model, config.task
            )
            if not np.isfinite(fwd.relation_logits).all():
                raise ValueError("non-finite relation logits")
        except ValueError as exc:
            raise ValueError(f"image {i}: {exc}") from None
        pair_idx = np.array(pairs, dtype=np.int64)
        out.append(
            _ScoredImage(
                relation_logits=fwd.relation_logits,
                pair_scores=object_pair_scores(fwd.object_probs, pair_idx, config.task),
                subject_classes=labels[pair_idx[:, 0]],
                object_classes=labels[pair_idx[:, 1]],
                gt_index=gt_index,
                gt_relations=gt_index % num_relations + 1,
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
            positions = rank(scores, im.gt_index, constraint)
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
    (pair tables looked up by the task's class-label rule); by default the
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
    arrays = leaves(checkpoint.params)
    for name, a in zip(leaf_names(checkpoint.params), arrays):
        if not np.isfinite(a).all():
            raise ValueError(f"checkpoint parameter {name} is not finite")
    doc = {
        "config": checkpoint.config.to_dict(),
        "iterations": checkpoint.iterations,
        "param_shapes": [list(a.shape) for a in arrays],
        "param_data": flatten(checkpoint.params).tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path: str) -> Checkpoint:
    """Rebuild the parameter tree through the model's ``init``, as ``train``
    does, and fill it from the file.

    Every stored shape must equal the rebuilt tree's shape at the same leaf.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    config = TrainConfig.from_dict(doc["config"])
    spec, ls = config.model, config.label_space
    data = np.asarray(doc["param_data"], dtype=np.float64)
    params = model_for(spec).init(spec, ls, feature_width(spec, ls, data.size))
    expected = [a.shape for a in leaves(params)]
    stored = [tuple(s) for s in doc["param_shapes"]]
    for i, (want, got) in enumerate(zip_longest(expected, stored)):
        if want != got:
            raise ValueError(
                f"checkpoint parameter {i} has shape {got}; the model needs {want}"
            )
    write_flat(params, data)
    return Checkpoint(config=config, iterations=int(doc["iterations"]), params=params)
