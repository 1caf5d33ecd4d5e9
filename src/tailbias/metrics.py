"""Triplet ranking and recall metrics over score matrices.

An image's candidates are every (ordered pair, foreground relation)
combination. :func:`score_triplets` scores them into a ``(P, L)`` matrix,
one row per pair in pair order and column ``r - 1`` for relation ``r``; a
candidate's flat index is ``q * L + (r - 1)``. A score is the relation
probability, times the pair's two object scores when the caller gives them
(:func:`object_pair_scores`); without them the object scores are 1. Relation
probabilities renormalize the softmax over foreground labels only, so adding
any constant to the foreground logits (for example a uniform inference bias)
leaves every ranking unchanged, and the background logit never influences
scores.

Two ranking protocols, both by descending score with exact ties broken by
(pair position, relation label) ascending, the order of a stable sort.
``without`` graph constraint ranks all of an image's candidates, as
``np.argsort(-scores.ravel(), kind="stable")`` would. ``with`` keeps only
each pair's best relation, the first maximum of its row (``argmax``), and
ranks the pairs by those scores, ties to the earlier pair.

A split stacks its images' matrices into one ``(ΣP, L)`` matrix, image ``i``
at rows ``starts[i]:starts[i + 1]``. Recall needs only the rank position,
within its image, of each ground-truth triplet, which :func:`rank` computes
for the whole split once per constraint by counting the candidates ahead of
it; the triplet is in the top k exactly when its position is below k, so
one ranking serves every k. Under ``with`` a triplet whose relation is not
its pair's best is never retrieved (position :data:`MISS`). A split may
stack copies of itself, each under other scores (the sweep's grid points,
copy g's rows and ``starts`` shifted by g·ΣP and its flat indices by
g·ΣP·L): a copy of an image is just another image, ranked only against
itself. The recalls of such a stack, one row of positions per copy and
constraint, are counted in one pass (:func:`evaluate_rows`), each row's
exactly as :func:`evaluate_split` counts it alone.

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import row_softmax
from .stats import LabelSpace, check_value
from .synth import _ranges

__all__ = [
    "CONSTRAINTS",
    "MISS",
    "EvalResult",
    "object_pair_scores",
    "score_triplets",
    "candidate_index",
    "rank",
    "evaluate_rows",
    "evaluate_split",
    "metrics_csv",
    "sweep_csv",
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


def object_pair_scores(object_probs: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """``p(s) * p(o)`` per ``(s, o)`` row of ``pairs``, from each object's top probability."""
    top = object_probs.max(axis=1)
    return top[pairs[:, 0]] * top[pairs[:, 1]]


def score_triplets(pair_scores: np.ndarray | None, relation_logits: np.ndarray) -> np.ndarray:
    """``(P, L)`` candidate scores in (pair, relation) order.

    ``pair_scores`` is the :func:`object_pair_scores` of the same pairs, or
    None to score the relations alone.
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
    s, o, r = np.asarray(gt, dtype=np.int64).reshape(-1, 3).T
    return (s * (np.asarray(num_objects) - 1) + o - (o > s)) * num_relations + (r - 1)


def rank(
    scores: np.ndarray, starts: np.ndarray, index: np.ndarray, constraint: str = "with"
) -> np.ndarray:
    """0-based rank position, within its image, of the candidates at flat
    ``index`` of ``scores``; :data:`MISS` for candidates the protocol drops.

    ``scores`` stacks the :func:`score_triplets` matrices of a split, image
    ``i`` at rows ``starts[i]:starts[i + 1]``, all finite. A position counts
    the image's candidates with a higher score, and those with an equal one
    and a lower flat index (pair index under ``with``), by bisection.
    """
    check_value("constraint", constraint, choices=CONSTRAINTS)
    if not np.isfinite(scores).all():
        bad = np.flatnonzero(~np.isfinite(scores).all(axis=1))[0]
        raise ValueError(f"scores row {bad} is not finite")
    index = np.asarray(index, dtype=np.int64)
    ranked, kept, values = np.full(index.shape, MISS), slice(None), scores
    if constraint == "with":  # a pair's one candidate is its first best relation
        row, top = index // scores.shape[1], scores.argmax(axis=1)
        values = scores.ravel()[np.arange(0, scores.size, scores.shape[1]) + top, None]
        kept = top[row] == index % scores.shape[1]
        index = row[kept]
    sizes = np.diff(starts)
    image = np.searchsorted(starts, index // values.shape[1], side="right") - 1
    # Queried image i from row first_row[i] on, bucket by bucket, each sorted by value.
    ordered, first_row, end = np.empty_like(values), np.zeros_like(sizes), 0
    for size in np.flatnonzero(np.bincount(sizes[image])):
        members = np.flatnonzero(sizes == size)
        first_row[members] = end + size * np.arange(members.size)
        block = ordered[end : end + members.size * size].reshape(members.size, size, -1)
        np.take(values, starts[members, None] + np.arange(size), axis=0, out=block)
        block.reshape(members.size, -1).sort(axis=1)
        end += members.size * size
    ordered, flat = ordered.ravel(), values.ravel()
    first, length = first_row[image] * values.shape[1], sizes[image] * values.shape[1]
    last, v = first + length - 1, flat[index]
    # ``above`` ends on the first candidate above v; a probe before the
    # image's start reads its first candidate, which is not above v.
    above = last + 1
    for shift in reversed(range(int(length.max(initial=0)).bit_length())):
        probe = above - (1 << shift)
        above = np.where(ordered[np.maximum(probe, first)] > v, probe, above)
    position = last + 1 - above
    # A tied v's first copy bounds the image's k copies; those ahead are
    # counted on the shorter side of its cell: before it, or k - 1 less after.
    tied = np.flatnonzero((above - 2 >= first) & (ordered[np.maximum(above - 2, first)] == v))
    if tied.size:
        first, above, v = first[tied], above[tied], v[tied]
        below = first - 1  # ends on the last candidate below v
        for shift in reversed(range(int((above - first).max()).bit_length())):
            probe = below + (1 << shift)
            below = np.where(ordered[np.minimum(probe, above - 1)] < v, probe, below)
        lo = starts[image[tied]] * values.shape[1]
        before, after = index[tied] - lo, length[tied] - (index[tied] - lo) - 1
        head, n = before <= after, np.minimum(before, after)
        start, count = np.where(head, lo, index[tied] + 1), np.empty_like(n)
        for part in np.array_split(np.arange(n.size), 1 + n.sum() // scores.size):
            m = n[part]
            equal = np.append(flat[_ranges(start[part], m)] == v[part].repeat(m), False)
            count[part] = np.add.reduceat(equal, np.cumsum(m) - m, dtype=np.int64) * (m > 0)
        position[tied] += np.where(head, count, above - below - 2 - count)
    ranked[kept] = position
    return ranked


def evaluate_rows(
    relations: np.ndarray, positions: np.ndarray, image: np.ndarray, num_images: int,
    ks: Sequence[int], num_relations: int, constraints: Sequence[str],
) -> list[EvalResult]:
    """:func:`evaluate_split` for each row of ``positions``, counted in one pass.

    Row ``j`` of the ``(R, T)`` ``positions`` holds the rank positions of the
    split's T ground-truth triplets under ``constraints[j]``, the others as
    :func:`evaluate_split` takes them. The hits of every (row, k) are counted
    per image by one ``np.bincount`` over a combined ``(row·k, image)``
    index, and per relation the same way; each R@k and mR@k is a 1-D sum
    over its own row's contiguous values divided by their number, as
    ``np.mean`` computes it, so a row's result is bit for bit the one it
    gets alone. No two results share an array.
    """
    if len(constraints) != len(positions):
        raise ValueError("one constraint is required per row of positions")
    ks = np.asarray(ks, dtype=np.int64)
    sizes = np.bincount(image, minlength=num_images)
    with_gt = sizes > 0
    gt_counts = np.bincount(relations, minlength=num_relations + 1)
    present = gt_counts > 0
    cells = len(positions) * ks.size  # one per (row, k), row-major
    cell, t = np.nonzero((positions[:, None, :] < ks[:, None]).reshape(cells, -1))
    per_image = np.bincount(cell * num_images + image[t], minlength=cells * num_images)
    image_recall = per_image.reshape(cells, num_images)[:, with_gt] / sizes[with_gt]
    hits = np.bincount(cell * (num_relations + 1) + relations[t],
                       minlength=cells * (num_relations + 1)).reshape(cells, -1)
    per_rel = np.full(hits.shape, np.nan)
    per_rel[:, present] = hits[:, present] / gt_counts[present]
    relation_recall = per_rel[:, present]
    results, ks = [], ks.tolist()
    for j, constraint in enumerate(constraints):
        recall, mean_recall, per_relation = {}, {}, {}
        for i, k in enumerate(ks):
            c = j * len(ks) + i
            recall[k] = _mean(image_recall[c])
            mean_recall[k] = _mean(relation_recall[c])
            per_relation[k] = per_rel[c].copy()
        results.append(EvalResult(
            recall_at=recall,
            mean_recall_at=mean_recall,
            per_relation_recall=per_relation,
            gt_relation_counts=gt_counts.copy(),
            num_images=num_images,
            constraint_mode=constraint,
        ))
    return results


def _mean(values: np.ndarray) -> float:
    """``np.mean`` of a 1-D contiguous array, bit for bit; 0.0 when it is empty."""
    return float(np.add.reduce(values) / values.size) if values.size else 0.0


def evaluate_split(
    relations: np.ndarray, positions: np.ndarray, image: np.ndarray, num_images: int,
    ks: Sequence[int], num_relations: int, constraint: str,
) -> EvalResult:
    """Aggregate R@k and mR@k for one split under one constraint.

    Ground-truth triplet ``t`` belongs to image ``image[t]`` of
    ``num_images``, has relation label ``relations[t]`` and rank position
    ``positions[t]`` (from :func:`rank` under ``constraint``); images without
    ground truth are skipped for R@k. Every k in ``ks`` is at least 1. The
    one-row case of :func:`evaluate_rows`.
    """
    return evaluate_rows(relations, np.asarray(positions)[None], image, num_images, ks,
                         num_relations, [constraint])[0]


def _rows(first, results: dict[str, EvalResult], ks: Sequence[int]) -> str:
    """One ``first,constraint,k,R,mR`` line per constraint and k."""
    return "".join(
        f"{first},{c},{k},{results[c].recall_at[k]:.6f},{results[c].mean_recall_at[k]:.6f}\n"
        for c in CONSTRAINTS
        for k in ks
    )


def metrics_csv(mode: str, results: dict[str, EvalResult], ks: list[int]) -> str:
    return METRICS_CSV_HEADER + "\n" + _rows(mode, results, ks)


def sweep_csv(rows: list[tuple[float, dict[str, EvalResult]]], ks: Sequence[int]) -> str:
    """One block of :func:`metrics_csv` lines per grid point, keyed by ``a_e``."""
    return "a_e,constraint,k,R,mR\n" + "".join(_rows(a_e, results, ks) for a_e, results in rows)


def per_relation_csv(label_space: LabelSpace, result: EvalResult, ks: list[int]) -> str:
    """Per-relation breakdown; recall cells are empty for absent relations."""
    lines = ["relation,name,gt_count," + ",".join(f"recall@{k}" for k in ks)]
    for r in range(1, label_space.num_relations + 1):
        recalls = [result.per_relation_recall[k][r] for k in ks]
        lines.append(
            f"{r},{label_space.relation_name(r)},{result.gt_relation_counts[r]},"
            + ",".join("" if np.isnan(v) else f"{v:.6f}" for v in recalls)
        )
    return "\n".join(lines) + "\n"
