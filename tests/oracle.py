"""Scalar reference implementation of triplet scoring, ranking and recall.

This is the object-per-candidate evaluation that ``tailbias.metrics`` and
``tailbias.harness`` replaced with score matrices and rank positions. It is
kept only as a test oracle: one :class:`TripletPrediction` per (pair,
relation) candidate, a Python sort, and set membership for recall. The array
path must reproduce its rankings, ties included, and its R@k / mR@k values
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from tailbias.bias import BiasVector, lookup_pair_bias, soft_bias
from tailbias.metrics import CONSTRAINTS, EvalResult
from tailbias.model import all_ordered_pairs, class_labels, model_for
from tailbias.numerics import row_softmax


@dataclass(frozen=True)
class TripletPrediction:
    s: int
    o: int
    relation: int
    score: float


def preds(*rows):
    return [TripletPrediction(s=s, o=o, relation=r, score=sc) for s, o, r, sc in rows]


def score_triplets(object_probs, relation_logits, pairs, mode="predcls"):
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


def rank(predictions, constraint="with"):
    """Sort candidates by descending score under the chosen protocol.

    Relies on the input being in construction order: the stable sort then
    breaks exact ties by (pair position, relation label) ascending.
    """
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    pool = predictions
    if constraint == "with":
        best = {}
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


def recall_at_k(gt, ranked, k):
    """Fraction of ground-truth triplets present in the top-k, for one image."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not gt:
        raise ValueError("image has no ground truth")
    top = {(p.s, p.o, p.relation) for p in ranked[:k]}
    return sum(1 for t in gt if tuple(t) in top) / len(gt)


def mean_recall_at_k(images, k, num_relations):
    """Pooled per-relation recall and its mean over relations present in gt."""
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


def evaluate_split(per_image, ks, num_relations, constraint):
    """Aggregate ranked predictions for one split under one constraint."""
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


def _bias_row(bias, s_class, o_class):
    if isinstance(bias, BiasVector):
        return bias.values
    return lookup_pair_bias(bias, s_class, o_class).values


def evaluate(checkpoint, images, inference_bias=None, ks=None):
    """Forward every image, build and rank its candidates, aggregate recall."""
    config = checkpoint.config
    ks = list(config.eval_ks if ks is None else ks)
    net = model_for(config.model)
    per_image = {c: [] for c in CONSTRAINTS}
    for img in images:
        pairs = all_ordered_pairs(len(img.proposals))
        unions = np.stack([img.unions[p] for p in pairs])
        out = net.forward(
            img.proposals, unions, pairs, checkpoint.params, config.model, config.task
        )
        logits = out.relation_logits
        if inference_bias is not None:
            lookup = class_labels(img.proposals, config.task).tolist()
            rows = np.stack(
                [_bias_row(inference_bias, lookup[s], lookup[o]) for s, o in pairs]
            )
            logits = logits - rows
        candidates = score_triplets(out.object_probs, logits, pairs, config.task)
        for constraint in CONSTRAINTS:
            per_image[constraint].append((img.gt_triplets, rank(candidates, constraint)))
    return {
        c: evaluate_split(per_image[c], ks, config.label_space.num_relations, c)
        for c in CONSTRAINTS
    }


def sweep(checkpoint, stats, spec, grid, images, ks=None):
    """One full evaluation per grid point, each with its weakened bias."""
    return [
        (
            float(a_e),
            evaluate(
                checkpoint,
                images,
                inference_bias=soft_bias(replace(spec, a_eval=float(a_e)), stats),
                ks=ks,
            ),
        )
        for a_e in grid
    ]
