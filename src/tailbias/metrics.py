"""Triplet ranking and recall metrics.

Candidates are every (ordered pair, foreground relation) combination, scored
by the product of the two object probabilities and the relation probability;
``predcls`` fixes the object probabilities to 1. Relation probabilities
renormalize the softmax over foreground labels only, so adding any constant to
the foreground logits (for example a uniform inference bias) leaves every
ranking unchanged, and the background logit never influences scores.

Two ranking protocols: ``with`` graph constraint keeps only the single best
relation per ordered pair before ranking; ``without`` ranks all candidates.
Ties are broken by candidate construction order, i.e. (pair position, relation
label) ascending.

``recall@k`` is the fraction of ground-truth triplets, matched on exact
``(s, o, relation)``, found in an image's top-k; the dataset value averages
over images that have ground truth. ``mean recall@k`` pools instances per
relation across the whole split and averages the per-relation recalls over
relations that occur at least once.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .numerics import row_softmax
from .stats import LabelSpace

__all__ = [
    "CONSTRAINTS",
    "TripletPrediction",
    "EvalResult",
    "score_triplets",
    "rank",
    "recall_at_k",
    "mean_recall_at_k",
    "evaluate_split",
    "metrics_csv",
    "per_relation_csv",
    "METRICS_CSV_HEADER",
]

CONSTRAINTS = ("with", "without")
METRICS_CSV_HEADER = "mode,constraint,k,R,mR"


@dataclass(frozen=True)
class TripletPrediction:
    s: int
    o: int
    relation: int
    score: float


@dataclass
class EvalResult:
    recall_at: dict[int, float]
    mean_recall_at: dict[int, float]
    per_relation_recall: dict[int, np.ndarray]
    gt_relation_counts: np.ndarray
    num_images: int
    constraint_mode: str


def score_triplets(
    object_probs: np.ndarray,
    relation_logits: np.ndarray,
    pairs: list[tuple[int, int]],
    mode: str = "predcls",
) -> list[TripletPrediction]:
    """Candidate triplets in (pair, relation) order."""
    if relation_logits.shape[0] != len(pairs):
        raise ValueError("one logit row is required per pair")
    rel_probs = row_softmax(relation_logits[:, 1:])
    if mode == "predcls":
        obj_score = None
    elif mode == "sgcls":
        obj_score = object_probs.max(axis=1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out = []
    for q, (s, o) in enumerate(pairs):
        base = 1.0 if obj_score is None else float(obj_score[s] * obj_score[o])
        for r in range(1, relation_logits.shape[1]):
            out.append(
                TripletPrediction(s=s, o=o, relation=r, score=base * float(rel_probs[q, r - 1]))
            )
    return out


def rank(
    predictions: list[TripletPrediction], constraint: str = "with"
) -> list[TripletPrediction]:
    """Sort candidates by descending score under the chosen protocol.

    Relies on the input being in construction order: the stable sort then
    breaks exact ties by (pair position, relation label) ascending.
    """
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    pool = predictions
    if constraint == "with":
        best: dict[tuple[int, int], TripletPrediction] = {}
        for p in predictions:
            cur = best.get((p.s, p.o))
            if cur is None or p.score > cur.score:
                best[(p.s, p.o)] = p
        seen = set()
        pool = []
        for p in predictions:  # preserve first-appearance pair order
            key = (p.s, p.o)
            if key not in seen:
                seen.add(key)
                pool.append(best[key])
    return sorted(pool, key=lambda p: -p.score)


def recall_at_k(
    gt: list[tuple[int, int, int]], ranked: list[TripletPrediction], k: int
) -> float:
    """Fraction of ground-truth triplets present in the top-k, for one image."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not gt:
        raise ValueError("image has no ground truth")
    top = {(p.s, p.o, p.relation) for p in ranked[:k]}
    return sum(1 for t in gt if tuple(t) in top) / len(gt)


def mean_recall_at_k(
    images: list[tuple[list[tuple[int, int, int]], list[TripletPrediction]]],
    k: int,
    num_relations: int,
) -> tuple[float, np.ndarray]:
    """Pooled per-relation recall and its mean over relations present in gt.

    Returns ``(mR, per_relation)`` where ``per_relation`` has length
    ``num_relations + 1``, is indexed by relation label, and holds NaN for
    relations without any ground-truth instance (they are excluded from the
    mean; index 0 is always NaN).
    """
    hits = np.zeros(num_relations + 1)
    totals = np.zeros(num_relations + 1)
    for gt, ranked in images:
        top = {(p.s, p.o, p.relation) for p in ranked[:k]}
        for s, o, r in gt:
            totals[r] += 1
            if (s, o, r) in top:
                hits[r] += 1
    per_relation = np.full(num_relations + 1, np.nan)
    present = totals > 0
    per_relation[present] = hits[present] / totals[present]
    if not present.any():
        return 0.0, per_relation
    return float(np.mean(per_relation[present])), per_relation


def evaluate_split(
    per_image: list[tuple[list[tuple[int, int, int]], list[TripletPrediction]]],
    ks: list[int],
    num_relations: int,
    constraint: str,
) -> EvalResult:
    """Aggregate ranked predictions for one split under one constraint.

    ``per_image`` pairs each image's ground truth with its candidates ranked
    under ``constraint``; images without ground truth are skipped for R@k.
    """
    with_gt = [(gt, ranked) for gt, ranked in per_image if gt]
    gt_counts = np.zeros(num_relations + 1, dtype=np.int64)
    for gt, _ in with_gt:
        for _, _, r in gt:
            gt_counts[r] += 1
    recall = {}
    mean_recall = {}
    per_rel = {}
    for k in ks:
        if with_gt:
            recall[k] = float(np.mean([recall_at_k(gt, ranked, k) for gt, ranked in with_gt]))
        else:
            recall[k] = 0.0
        mean_recall[k], per_rel[k] = mean_recall_at_k(with_gt, k, num_relations)
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
