"""Triplet ranking and recall metrics over score matrices.

An image's candidates are every (ordered pair, foreground relation)
combination. :func:`score_triplets` scores them into a ``(P, L)`` matrix,
one row per pair in pair order and column ``r - 1`` for relation ``r``; a
candidate's flat index is ``q * L + (r - 1)``. A score is the product of the
two object probabilities and the relation probability; ``predcls`` fixes the
object probabilities to 1. Relation probabilities renormalize the softmax
over foreground labels only, so adding any constant to the foreground logits
(for example a uniform inference bias) leaves every ranking unchanged, and
the background logit never influences scores.

Two ranking protocols, both by stable sorts, so exact ties are broken by
(pair position, relation label) ascending. ``without`` graph constraint
ranks all candidates: ``np.argsort(-scores.ravel(), kind="stable")``.
``with`` keeps only each pair's best relation, the first maximum of its row
(``argmax``), and ranks the pairs by a stable argsort of those scores.

Recall needs only the rank position of each ground-truth triplet, which
:func:`rank` computes once per image and constraint; the triplet is in the
top k exactly when its position is below k, so one ranking serves every k.
Under ``with`` a triplet whose relation is not its pair's best is never
retrieved (position :data:`MISS`).

``recall@k`` is the fraction of an image's ground-truth triplets, matched on
exact ``(s, o, relation)``, found in its top k; the dataset value averages
over images that have ground truth. ``mean recall@k`` pools instances per
relation across the whole split, ``hits_r / instances_r``, and averages the
per-relation recalls over relations that occur at least once. Tang et al.
(arXiv 2002.11949) instead take each relation's recall per image and average
it over the images that contain the relation. Pooling weights every instance
equally: a relation's recall does not depend on how its instances are spread
over images, and it is the same figure the per-relation CSV reports beside
the instance count. The two agree whenever each image holds at most one
instance of each relation.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import row_softmax
from .stats import LabelSpace

__all__ = [
    "CONSTRAINTS",
    "MISS",
    "EvalResult",
    "object_pair_scores",
    "score_triplets",
    "candidate_index",
    "ranking",
    "rank",
    "evaluate_split",
    "metrics_csv",
    "per_relation_csv",
    "METRICS_CSV_HEADER",
]

CONSTRAINTS = ("with", "without")
METRICS_CSV_HEADER = "mode,constraint,k,R,mR"
# Rank position of a candidate the protocol drops; it is above every k.
MISS = np.iinfo(np.int64).max


@dataclass
class EvalResult:
    recall_at: dict[int, float]
    mean_recall_at: dict[int, float]
    per_relation_recall: dict[int, np.ndarray]
    gt_relation_counts: np.ndarray
    num_images: int
    constraint_mode: str


def object_pair_scores(
    object_probs: np.ndarray, pairs: Sequence[tuple[int, int]] | np.ndarray, mode: str
) -> np.ndarray | None:
    """``p(s) * p(o)`` per pair from each object's top probability in
    ``sgcls``; None in ``predcls``, where object scores are fixed to 1."""
    if mode == "predcls":
        return None
    if mode != "sgcls":
        raise ValueError(f"unknown mode {mode!r}")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    top = object_probs.max(axis=1)
    return top[pairs[:, 0]] * top[pairs[:, 1]]


def score_triplets(
    pair_scores: np.ndarray | None, relation_logits: np.ndarray
) -> np.ndarray:
    """``(P, L)`` candidate scores in (pair, relation) order.

    ``pair_scores`` is the :func:`object_pair_scores` of the same pairs.
    """
    rel_probs = row_softmax(relation_logits[:, 1:])
    if pair_scores is None:
        return rel_probs
    if pair_scores.shape != (relation_logits.shape[0],):
        raise ValueError("one object score is required per pair")
    return pair_scores[:, None] * rel_probs


def candidate_index(gt, num_objects: int | np.ndarray, num_relations: int) -> np.ndarray:
    """Flat candidate index of each valid ground-truth triplet, a row ``(s, o, r)`` of ``gt``.

    Ordered pairs enumerate subjects, then objects, skipping ``s == o``, so
    pair ``(s, o)`` sits at ``s * (n - 1) + o - (o > s)``. ``num_objects``
    may be an array giving each triplet's ``n``. The formula picks a wrong
    pair for ``s == o`` or indices out of range; callers check the ground
    truth before indexing it.
    """
    t = np.asarray(gt, dtype=np.int64).reshape(-1, 3)
    s, o, r = t[:, 0], t[:, 1], t[:, 2]
    return (s * (np.asarray(num_objects) - 1) + o - (o > s)) * num_relations + (r - 1)


def ranking(scores: np.ndarray, constraint: str = "with") -> np.ndarray:
    """Flat indices of the ranked candidates, best first."""
    if constraint == "without":
        return np.argsort(-scores.ravel(), kind="stable")
    if constraint != "with":
        raise ValueError(f"unknown constraint {constraint!r}")
    best = scores.argmax(axis=1)
    pairs = np.argsort(-scores[np.arange(best.shape[0]), best], kind="stable")
    return pairs * scores.shape[1] + best[pairs]


def rank(scores: np.ndarray, index: np.ndarray, constraint: str = "with") -> np.ndarray:
    """0-based rank position of the candidates at flat ``index``; :data:`MISS`
    for candidates the protocol drops."""
    order = ranking(scores, constraint)
    position = np.full(scores.size, MISS, dtype=np.int64)
    position[order] = np.arange(order.shape[0])
    return position[index]


def evaluate_split(
    per_image: Sequence[tuple[np.ndarray, np.ndarray]],
    ks: Sequence[int],
    num_relations: int,
    constraint: str,
) -> EvalResult:
    """Aggregate R@k and mR@k for one split under one constraint.

    ``per_image`` holds, per image, the relation label and the rank position
    (from :func:`rank` under ``constraint``) of each ground-truth triplet;
    images without ground truth are skipped for R@k.
    """
    with_gt = [(rel, pos) for rel, pos in per_image if len(rel)]
    empty = [np.zeros(0, dtype=np.int64)]
    rel = np.concatenate(empty + [np.asarray(r, dtype=np.int64) for r, _ in with_gt])
    pos = np.concatenate(empty + [np.asarray(p, dtype=np.int64) for _, p in with_gt])
    sizes = np.array([len(r) for r, _ in with_gt], dtype=np.int64)
    image = np.repeat(np.arange(sizes.shape[0]), sizes)
    gt_counts = np.bincount(rel, minlength=num_relations + 1)
    present = gt_counts > 0
    recall = {}
    mean_recall = {}
    per_rel = {}
    for k in ks:
        if k < 1:
            raise ValueError("k must be >= 1")
        hit = pos < k
        per_image_hits = np.bincount(image, weights=hit, minlength=sizes.shape[0])
        recall[k] = float(np.mean(per_image_hits / sizes)) if with_gt else 0.0
        hits = np.bincount(rel[hit], minlength=num_relations + 1)
        per_rel[k] = np.full(num_relations + 1, np.nan)
        per_rel[k][present] = hits[present] / gt_counts[present]
        mean_recall[k] = float(np.mean(per_rel[k][present])) if present.any() else 0.0
    return EvalResult(
        recall_at=recall,
        mean_recall_at=mean_recall,
        per_relation_recall=per_rel,
        gt_relation_counts=gt_counts,
        num_images=len(per_image),
        constraint_mode=constraint,
    )


def metrics_csv(mode: str, results: dict[str, EvalResult], ks: list[int]) -> str:
    buf = io.StringIO()
    buf.write(METRICS_CSV_HEADER + "\n")
    for constraint in CONSTRAINTS:
        res = results[constraint]
        for k in ks:
            buf.write(
                f"{mode},{constraint},{k},{res.recall_at[k]:.6f},{res.mean_recall_at[k]:.6f}\n"
            )
    return buf.getvalue()


def per_relation_csv(
    label_space: LabelSpace, result: EvalResult, ks: list[int]
) -> str:
    """Per-relation breakdown; recall cells are empty for absent relations."""
    buf = io.StringIO()
    buf.write("relation,name,gt_count," + ",".join(f"recall@{k}" for k in ks) + "\n")
    for r in range(1, label_space.num_relations + 1):
        cells = []
        for k in ks:
            v = result.per_relation_recall[k][r]
            cells.append("" if np.isnan(v) else f"{v:.6f}")
        buf.write(
            f"{r},{label_space.relation_name(r)},{result.gt_relation_counts[r]},"
            + ",".join(cells)
            + "\n"
        )
    return buf.getvalue()
