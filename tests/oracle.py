"""Scalar reference implementations of the losses, finite differences,
multi-head attention, triplet scoring, ranking and recall.

The losses are the one-row-at-a-time code that the block losses of
``tailbias.losses`` replaced: a logit vector, an integer target and a bias
vector in, a float value and a gradient vector out. The block losses must
reproduce them row by row: ``ce``, ``biased_ce`` and ``bias_gap`` bit for
bit, the baselines within 1e-12.

The finite-difference checker is the one-coordinate-at-a-time loop that
``tailbias.numerics.grad_check`` replaced with stacks of perturbed copies, one
call of the function per chunk of coordinates; the stacked checker must
report the same error and coordinate bit for bit, and fail on the same
coordinate. Multi-head attention is the per-head loop that a heads axis
replaced; forward and backward must agree bit for bit.

The evaluation is the object-per-candidate code that ``tailbias.metrics`` and
``tailbias.harness`` replaced with score matrices and rank positions: one
:class:`TripletPrediction` per (pair, relation) candidate, a Python sort, and
set membership for recall. The array path must reproduce its rankings, ties
included, and its R@k / mR@k values exactly. :func:`argsort_rank` is the
array ranking that ``tailbias.metrics.rank`` replaced with counting: one
row-wise stable argsort of every candidate of every image; the counting rank
must give the same position for every query.

In ``sgcls`` a candidate also carries the predicted labels of its two
objects (the argmax of each object's probabilities) and a ground-truth
triplet the annotated ones; a hit must match on both. Inference-bias rows
are looked up by the predicted labels too.

Training is the per-image path that ``tailbias.harness`` replaced with a
split packed once: statistics ingested one triplet at a time, each drawn
image's pairs worked out anew from its ground truth, and one forward, one
loss call and one backward per image into a fresh gradient, the gradients
added in batch order. Packed training must reproduce its losses and
parameters bit for bit, and its divergence errors word for word.

Statistics are the sparse ``(s, o, r) -> n`` map that ``tailbias.stats``
replaced with one dense tensor, filled and checked one record at a time and
serialized from its sorted keys; the dense path must give the same counts
and the same JSON bytes. The ground-truth check is the image-by-image check
that ``tailbias.harness._truth`` replaced with array masks over the split,
and the record check is the per-image check of every built image that
``tailbias.synth.Images.pack`` replaced with one check over the split; each
must refuse the same image with the same message.

Bias construction is the per-entry code that ``tailbias.bias`` replaced with
one dense array of rows: a pair table built as one validated ``BiasVector``
per stored class pair, then tiled and scattered into a dense table one entry
at a time. The dense rows, their ``bias_table``, their ``entries`` and their
JSON must equal it bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from tailbias import harness, metrics
from tailbias.bias import (
    GLOBAL_KINDS,
    BiasVector,
    compute_bias,
    lookup_pair_bias,
    soft_bias,
    weights_to_bias,
)
from tailbias.losses import LossOutput
from tailbias.metrics import CONSTRAINTS, EvalResult
from tailbias.model import class_labels, model_for
from tailbias.numerics import (
    GradCheckReport,
    attention,
    attention_backward,
    flatten,
    leaf_names,
    leaves,
    row_softmax,
    running_sum,
    unflatten,
)
from tailbias.stats import TripletStats, marginal_counts, pair_counts, sppo_counts
from tailbias.synth import all_ordered_pairs


# --- losses, one row at a time ------------------------------------------------


def _as_row(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 2:
        raise ValueError("logits must be a 1-D vector with at least two entries")
    return z


def _logsumexp(z: np.ndarray) -> float:
    m = float(np.max(z))
    return m + float(np.log(np.sum(np.exp(z - m))))


def _check_target(z: np.ndarray, y: int) -> int:
    y = int(y)
    if not 0 <= y < z.shape[0]:
        raise ValueError(f"target {y} out of range for {z.shape[0]} classes")
    return y


def ce(z, y: int) -> LossOutput:
    z = _as_row(z)
    y = _check_target(z, y)
    value = _logsumexp(z) - float(z[y])
    grad = row_softmax(z[np.newaxis])[0]
    grad[y] -= 1.0
    return LossOutput(value=value, grad_logits=grad)


def biased_ce(z, b, y: int) -> LossOutput:
    z = _as_row(z)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != z.shape:
        raise ValueError(f"bias shape {b.shape} != logit shape {z.shape}")
    return ce(z - b, y)


def bias_gap(z, b, y: int) -> float:
    z = _as_row(z)
    b = np.asarray(b, dtype=np.float64)
    y = _check_target(z, y)
    return float(b[y]) + _logsumexp(z - b) - _logsumexp(z)


def _require_count(counts: np.ndarray, z: np.ndarray, y: int) -> int:
    if counts.shape[0] != z.shape[0]:
        raise ValueError("class_counts length must match the number of classes")
    n_y = int(counts[y])
    if n_y == 0:
        raise ValueError(f"unobserved class {y}: count is zero")
    return n_y


def _scaled_ce(z: np.ndarray, y: int, weight: float) -> LossOutput:
    inner = ce(z, y)
    return LossOutput(value=weight * inner.value, grad_logits=weight * inner.grad_logits)


def _focal(config, z: np.ndarray, y: int) -> LossOutput:
    ce_val = _logsumexp(z) - float(z[y])
    p = row_softmax(z[np.newaxis])[0]
    u = float(p[y])
    f = (1.0 - u) ** config.gamma
    value = config.alpha * f * ce_val
    if config.gamma == 0.0:
        scale = config.alpha * f
    else:
        scale = config.alpha * (
            config.gamma * u * (1.0 - u) ** (config.gamma - 1.0) * ce_val + f
        )
    grad = p
    grad[y] -= 1.0
    grad *= scale
    return LossOutput(value=value, grad_logits=grad)


def baseline_loss(config, z, y: int, class_counts) -> LossOutput:
    counts = np.asarray(class_counts, dtype=np.int64)
    z = _as_row(z)
    y = _check_target(z, y)
    if config.kind == "reweight":
        n_y = _require_count(counts, z, y)
        weight = 1.0 / n_y
        if config.reweight_normalize:
            observed = counts[counts > 0].astype(np.float64)
            weight *= observed.shape[0] / float(np.sum(1.0 / observed))
        return _scaled_ce(z, y, weight)
    if config.kind == "class_balanced":
        n_y = _require_count(counts, z, y)
        weight = (1.0 - config.beta) / (1.0 - config.beta**n_y)
        return _scaled_ce(z, y, weight)
    if config.kind == "focal":
        return _focal(config, z, y)
    n_y = _require_count(counts, z, y)
    b = np.zeros_like(z)
    b[y] = config.margin_c / n_y**0.25
    return biased_ce(z, b, y)


def row_by_row(f, z, y) -> LossOutput:
    """Stack ``f(q, z[q], y[q])`` over the rows ``q`` of an ``(m, C)`` block."""
    outs = [f(q, row, int(t)) for q, (row, t) in enumerate(zip(z, y))]
    return LossOutput(
        value=np.array([o.value for o in outs]),
        grad_logits=np.array([o.grad_logits for o in outs]).reshape(np.shape(z)),
    )


# --- losses over blocks of rows, in two passes per row ---------------------------


def two_pass_softmax(x) -> np.ndarray:
    """Softmax over the last axis, with numpy's own row maxima, in new arrays."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _block_logsumexp(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1)
    return m + np.log(np.sum(np.exp(z - m[..., np.newaxis]), axis=-1))


def _block_targets(z, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    hot = np.arange(z.shape[-1]) == y[..., np.newaxis]
    return z, y, hot


def block_ce(z, y) -> LossOutput:
    """``losses.ce`` as it took the row maximum, exponential and sum twice:
    in a logsumexp for the value, and in a softmax for the gradient."""
    z, y, hot = _block_targets(z, y)
    return LossOutput(value=_block_logsumexp(z) - z[hot].reshape(y.shape),
                      grad_logits=two_pass_softmax(z) - hot)


def block_biased_ce(z, b, y) -> LossOutput:
    return block_ce(np.asarray(z, dtype=np.float64) - b, y)


def block_baseline_loss(config, z, y, class_counts) -> LossOutput:
    """``losses.baseline_loss`` over :func:`block_ce` and a two-pass focal loss."""
    z, y, hot = _block_targets(z, y)
    if config.kind == "focal":
        ce_val = _block_logsumexp(z) - z[hot].reshape(y.shape)
        p = two_pass_softmax(z)
        u = p[hot].reshape(y.shape)
        f = (1.0 - u) ** config.gamma
        if config.gamma == 0.0:
            scale = config.alpha * f
        else:
            scale = config.alpha * (
                config.gamma * u * (1.0 - u) ** (config.gamma - 1.0) * ce_val + f
            )
        return LossOutput(value=config.alpha * f * ce_val,
                          grad_logits=(p - hot) * scale[..., np.newaxis])
    counts = np.asarray(class_counts, dtype=np.int64)
    n_y = counts[y]
    if config.kind == "ldam":
        return block_biased_ce(z, hot * (config.margin_c / n_y**0.25)[..., np.newaxis], y)
    if config.kind == "reweight":
        weight = 1.0 / n_y
        if config.reweight_normalize:
            observed = counts[counts > 0].astype(np.float64)
            weight = weight * (observed.shape[0] / float(np.sum(1.0 / observed)))
    else:
        weight = (1.0 - config.beta) / (1.0 - config.beta**n_y)
    inner = block_ce(z, y)
    return LossOutput(
        value=weight * inner.value, grad_logits=weight[..., np.newaxis] * inner.grad_logits
    )


# --- finite differences and attention, one coordinate and one head at a time ----


def grad_check(f, x, analytic, *, h=1e-5, tol=1e-4, coords=None) -> GradCheckReport:
    """Central differences one coordinate at a time: ``x`` is moved in place
    to ``orig + h`` and ``orig - h``, ``f(x)`` is called at each, and ``x`` is
    restored."""
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = np.asarray(x, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x.shape:
        raise ValueError("analytic gradient shape must match x")
    idx = range(x.size) if coords is None else coords
    flat = x.reshape(-1)
    worst = -1
    max_rel = 0.0
    for i in idx:
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"function not finite near coordinate {i}")
        fd = (up - down) / (2.0 * h)
        ref = analytic.ravel()[i]
        rel = float(abs(fd - ref) / max(1.0, abs(ref)))
        if rel > max_rel:
            max_rel = rel
            worst = int(i)
    return GradCheckReport(
        max_rel_error=max_rel, worst_coordinate=worst, tolerance=tol, passed=max_rel < tol
    )


def multi_head_attention(x, params, n_h):
    """Heads attended one column slice at a time and written into ``concat``."""
    q, k, v = x @ params.wq, x @ params.wk, x @ params.wv
    d_h = x.shape[1] // n_h
    concat = np.empty_like(x)
    head_caches = []
    for h in range(n_h):
        sl = slice(h * d_h, (h + 1) * d_h)
        concat[:, sl], cache_h = attention(q[:, sl], k[:, sl], v[:, sl])
        head_caches.append(cache_h)
    return concat @ params.wo, (x, params, n_h, concat, head_caches)


def multi_head_attention_backward(g, cache, grads):
    x, params, n_h, concat, head_caches = cache
    d_h = x.shape[1] // n_h
    grads.wo += concat.T @ g
    dconcat = g @ params.wo.T
    dq, dk, dv = (np.empty_like(x) for _ in range(3))
    for h in range(n_h):
        sl = slice(h * d_h, (h + 1) * d_h)
        dq[:, sl], dk[:, sl], dv[:, sl] = attention_backward(dconcat[:, sl], head_caches[h])
    grads.wq += x.T @ dq
    grads.wk += x.T @ dk
    grads.wv += x.T @ dv
    return dq @ params.wq.T + dk @ params.wk.T + dv @ params.wv.T


# --- evaluation -----------------------------------------------------------------


@dataclass(frozen=True)
class TripletPrediction:
    s: int
    o: int
    relation: int
    score: float
    labels: tuple[int, int] | tuple[()] = ()

    @property
    def key(self) -> tuple:
        """What a ground-truth tuple must equal for this prediction to hit it."""
        return (self.s, self.o, self.relation, *self.labels)


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


def argsort_rank(scores, starts, index, constraint="with"):
    """Rank position within its image of the candidates at flat ``index``,
    by one row-wise stable argsort over all images of the same block size."""
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    flat, num_relations = scores.ravel(), scores.shape[1]
    position = np.full(flat.size, metrics.MISS, dtype=np.int64)
    sizes = np.diff(starts)
    for size in np.unique(sizes):
        first = starts[:-1][sizes == size, None]
        # Each image's candidates in tie-break order: every (pair, relation)
        # without the constraint, each pair's best relation with it.
        if constraint == "without":
            cells = first * num_relations + np.arange(size * num_relations)
        else:
            rows = first + np.arange(size)
            cells = rows * num_relations + scores[rows].argmax(axis=2)
        order = np.argsort(-flat[cells], axis=1, kind="stable")
        position[np.take_along_axis(cells, order, axis=1)] = np.arange(cells.shape[1])
    return position[index]


def recall_at_k(gt, ranked, k):
    """Fraction of ground-truth triplets present in the top-k, for one image."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not gt:
        raise ValueError("image has no ground truth")
    top = {p.key for p in ranked[:k]}
    return sum(1 for t in gt if tuple(t) in top) / len(gt)


def mean_recall_at_k(images, k, num_relations):
    """Pooled per-relation recall and its mean over relations present in gt."""
    hits = np.zeros(num_relations + 1)
    totals = np.zeros(num_relations + 1)
    for gt, ranked in images:
        top = {p.key for p in ranked[:k]}
        for t in gt:
            totals[t[2]] += 1
            if tuple(t) in top:
                hits[t[2]] += 1
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
        for t in gt:
            gt_counts[t[2]] += 1
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


def bias_row(bias, s_class, o_class):
    """One bias row by dict lookup: the vector, or the pair entry or fallback."""
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
        pair_array = all_ordered_pairs(len(img.labels))
        pairs = [tuple(p) for p in pair_array.tolist()]
        out = net.forward(
            img, img.unions, pair_array, checkpoint.params, config.model, config.task
        )
        logits = out.relation_logits
        predicted = [int(np.argmax(row)) for row in out.object_probs]
        if inference_bias is not None:
            lookup = predicted if config.task == "sgcls" else img.labels.tolist()
            rows = np.stack(
                [bias_row(inference_bias, lookup[s], lookup[o]) for s, o in pairs]
            )
            logits = logits - rows
        candidates = score_triplets(out.object_probs, logits, pairs, config.task)
        gt = [tuple(t) for t in img.gt.tolist()]
        if config.task == "sgcls":
            annotated = img.labels.tolist()
            candidates = [
                replace(p, labels=(predicted[p.s], predicted[p.o])) for p in candidates
            ]
            gt = [(s, o, r, annotated[s], annotated[o]) for s, o, r in gt]
        for constraint in CONSTRAINTS:
            per_image[constraint].append((gt, rank(candidates, constraint)))
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


# --- training, one image at a time --------------------------------------------


def training_stats(images, label_space):
    """Class-level statistics, one ``(s_class, o_class, relation)`` record
    per ground-truth triplet."""
    records = [
        (img.labels[s], img.labels[o], r) for img in images for s, o, r in img.gt.tolist()
    ]
    return as_stats(ingest(records, label_space), label_space)


def class_counts(images, stats):
    """Per-relation counts; index 0 counts every pair that is not a triplet."""
    counts = marginal_counts(stats)[0].copy()
    counts[0] = sum(
        len(img.labels) * (len(img.labels) - 1) - len(img.gt) for img in images
    )
    return counts


def class_labels_checked(image, config):
    labels = class_labels(image, config.task)
    n = config.label_space.num_object_classes
    if labels.size and (labels.min() < 0 or labels.max() >= n):
        raise ValueError(f"object class label outside 0..{n - 1}")
    return labels


def training_pairs(img, config, rng):
    """Foreground pairs plus a seeded subsample of background pairs, as
    positions in ``all_ordered_pairs`` order, and their target labels."""
    num_relations = config.label_space.num_relations
    gt = np.sort(candidate_index(img.gt, len(img.labels), num_relations))
    fg, fg_targets = np.divmod(gt, num_relations)
    is_bg = np.ones(len(img.unions), dtype=bool)
    is_bg[fg] = False
    bg = np.flatnonzero(is_bg)
    take = min(len(bg), int(round(config.background_ratio * max(len(fg), 1))))
    bg = bg[np.sort(rng.choice(len(bg), size=take, replace=False))] if take else bg[:0]
    return np.concatenate([fg, bg]), np.concatenate([fg_targets + 1, np.zeros_like(bg)])


def batch_loss(config, net, params, grad_vec, loss_fn, batch, sample_rng):
    """One forward, one loss call per head and one backward per image into a
    fresh gradient, added into ``grad_vec`` in batch order. None when no
    image draws a pair."""
    w_obj = config.model.object_loss_weight
    obj_count = sum(len(img.labels) for img in batch)
    draws = [training_pairs(img, config, sample_rng) for img in batch]
    if not sum(len(targets) for _, targets in draws):
        return None
    per_image = []
    for img, (positions, targets) in zip(batch, draws):
        pairs = all_ordered_pairs(len(img.labels))[positions]
        out = net.forward(img, img.unions[positions], pairs, params, config.model, config.task)
        classes = class_labels_checked(img, config)[pairs]
        rel = loss_fn(out.relation_logits, targets, classes[:, 0], classes[:, 1])
        use_obj = w_obj > 0 and out.object_logits is not None
        obj = harness.ce(out.object_logits, img.labels) if use_obj else None
        per_image.append((out, rel, obj))
    rel_values = np.concatenate([rel.value for _, rel, _ in per_image])
    for out, rel, obj in per_image:
        d_obj = None if obj is None else obj.grad_logits * (w_obj / obj_count)
        fresh = np.zeros_like(grad_vec)
        net.backward(d_obj, rel.grad_logits / len(rel_values), out, params, config.model,
                     unflatten(params, fresh))
        grad_vec += fresh
    loss_value = running_sum(rel_values) / len(rel_values)
    if use_obj:
        obj_values = np.concatenate([obj.value for _, _, obj in per_image])
        loss_value += w_obj * running_sum(obj_values) / obj_count
    return loss_value


def train(config, images, loss_fn=None):
    """SGD with momentum over per-image draws; the final flat parameters and
    the per-iteration losses. A forward's ``FloatingPointError``, a non-finite
    loss or a non-finite gradient stops training with a ``FloatingPointError``
    naming the iteration and, for a gradient, the first parameter leaf holding one."""
    ls = config.label_space
    stats = training_stats(images, ls)
    bias = None if config.bias is None else compute_bias(config.bias, stats)
    if loss_fn is None:
        loss_fn = harness.make_loss_fn(config, bias, class_counts(images, stats))
    net = model_for(config.model)
    d_v = images[0].features.shape[1]
    params = net.init(config.model, ls, d_v, harness._rng(config.seed, harness.INIT_DOMAIN))
    param_vec = flatten(params)
    params = unflatten(params, param_vec)
    velocity = np.zeros_like(param_vec)
    grad_vec = np.zeros_like(param_vec)
    shuffle_rng = harness._rng(config.seed, harness.SHUFFLE_DOMAIN)
    sample_rng = harness._rng(config.seed, harness.SAMPLE_DOMAIN)
    order, losses, opt = [], [], config.optimizer
    for step in range(1, opt.iterations + 1):
        batch = []
        while len(batch) < opt.batch_size:
            if not order:
                order = shuffle_rng.permutation(len(images)).tolist()
            batch.append(images[order.pop(0)])
        grad_vec.fill(0.0)
        try:
            loss_value = batch_loss(config, net, params, grad_vec, loss_fn, batch, sample_rng)
        except FloatingPointError as exc:
            raise FloatingPointError(f"iteration {step}: {exc}") from None
        if loss_value is None:
            raise ValueError(
                f"iteration {step}: the batch draws no pairs "
                "(its images have no ground truth and background_ratio is 0)"
            )
        if not np.isfinite(loss_value):
            raise FloatingPointError(f"iteration {step}: non-finite loss")
        for name, leaf in zip(leaf_names(params), leaves(unflatten(params, grad_vec))):
            if not np.isfinite(leaf).all():
                raise FloatingPointError(f"iteration {step}: non-finite gradient of {name}")
        losses.append(loss_value)
        velocity *= opt.momentum
        velocity += grad_vec
        param_vec -= opt.learning_rate * velocity
    return param_vec, losses


# --- statistics and the ground-truth check, one record and one image at a time ---


def _check_key(s, o, r, ls):
    if not 0 <= s < ls.num_object_classes:
        raise ValueError(f"subject class {s} out of range [0, {ls.num_object_classes})")
    if not 0 <= o < ls.num_object_classes:
        raise ValueError(f"object class {o} out of range [0, {ls.num_object_classes})")
    if not 1 <= r <= ls.num_relations:
        raise ValueError(f"relation {r} out of range [1, {ls.num_relations}]")


def ingest(records, label_space):
    """The sparse count map of a triplet stream, checked record by record."""
    counts = {}
    for pos, (s, o, r) in enumerate(records):
        try:
            _check_key(s, o, r, label_space)
        except ValueError as exc:
            raise ValueError(f"record {pos}: {exc}") from None
        key = (int(s), int(o), int(r))
        counts[key] = counts.get(key, 0) + 1
    return counts


def as_stats(counts, label_space):
    """The :class:`TripletStats` holding a sparse count map."""
    ne = label_space.num_object_classes
    dense = np.zeros((ne, ne, label_space.num_relations + 1), dtype=np.int64)
    for key, n in counts.items():
        dense[key] = n
    return TripletStats(label_space, dense)


def stats_to_json(counts, label_space):
    entries = [[s, o, r, n] for (s, o, r), n in sorted(counts.items())]
    return json.dumps({"label_space": asdict(label_space), "counts": entries})


def candidate_index(gt, num_objects, num_relations):
    """Flat candidate indices, refusing a triplet the formula would misplace."""
    n = num_objects
    for s, o, r in gt:
        if not (0 <= s < n and 0 <= o < n):
            why = f"an object index outside 0..{n - 1}"
        elif s == o:
            why = "the same subject and object"
        elif not 1 <= r <= num_relations:
            why = f"a relation outside 1..{num_relations}"
        else:
            continue
        raise ValueError(f"ground-truth triplet {(int(s), int(o), int(r))} has {why}")
    return metrics.candidate_index(gt, n, num_relations)


def check_image(img, label_space, d_v):
    """Raise ``ValueError`` saying what makes ``img``'s annotations invalid
    or, with ``d_v`` (the checkpoint's feature width), the model unable to
    run on it."""
    n = len(img.labels)
    if d_v is not None:
        if n < 2:
            raise ValueError("no pairs: need at least two objects")
        if img.features.shape[1] != d_v:
            raise ValueError(f"{img.features.shape[1]} feature columns; the checkpoint has {d_v}")
        if img.scores.shape[1] != label_space.num_object_classes:
            raise ValueError(
                f"detector scores over {img.scores.shape[1]} classes; "
                f"the label space has {label_space.num_object_classes}"
            )
    labels = img.labels
    num_classes = label_space.num_object_classes
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"object class label outside 0..{num_classes - 1}")
    candidate_index(img.gt.tolist(), n, label_space.num_relations)


def check_split(images, label_space, d_v):
    """Check image after image; the first fault names its image's index."""
    for i, img in enumerate(images):
        try:
            check_image(img, label_space, d_v)
        except ValueError as exc:
            raise ValueError(f"image {i}: {exc}") from None


def check_record(img, first):
    """Raise ``ValueError`` saying what makes the record ``img`` unfit to
    pack beside ``first``, the split's image 0: the check each image ran when
    it was built, its widths against image 0's, and its triplets' object
    indices."""
    boxes, features, labels, scores, unions, gt = (
        np.asarray(getattr(img, name), dtype)
        for name, dtype in (("boxes", float), ("features", float), ("labels", np.int64),
                            ("scores", float), ("unions", float), ("gt", np.int64))
    )
    gt = gt.reshape(0, 3) if not gt.size else gt
    n = len(labels) if labels.ndim == 1 else -1
    if n < 0 or boxes.shape != (n, 4):
        raise ValueError(f"need one label and one 4-number box per object, {n} labels")
    for name, a in (("features", features), ("scores", scores)):
        if a.ndim != 2 or a.shape[0] != n:
            raise ValueError(f"{name} need one row per object ({n})")
    width = np.asarray(first.features).shape[-1] if np.ndim(first.features) == 2 else -1
    if features.shape[1] != width:
        raise ValueError(f"{features.shape[1]} feature columns; image 0 has {width}")
    classes = np.asarray(first.scores).shape[-1] if np.ndim(first.scores) == 2 else -1
    if scores.shape[1] != classes:
        raise ValueError(f"detector scores over {scores.shape[1]} classes; image 0 has {classes}")
    want = (n * (n - 1), features.shape[1])
    if unions.shape != want:
        raise ValueError(f"unions have shape {unions.shape}; {n} objects need {want}")
    if gt.ndim != 2 or gt.shape[1] != 3:
        raise ValueError(f"ground truth has shape {gt.shape}, not (m, 3)")
    for box in boxes.tolist():
        x1, y1, x2, y2 = box
        if not (0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0):
            raise ValueError(f"degenerate or unnormalized box {box}")
    for row in scores:
        if not abs(row.sum() - 1.0) <= 1e-6:
            raise ValueError("detector scores must sum to 1")
    for s, o, r in gt.tolist():
        if not (0 <= s < n and 0 <= o < n):
            raise ValueError(f"ground-truth triplet {(s, o, r)} has an object index outside "
                             f"0..{n - 1}")
        if s == o:
            raise ValueError(f"ground-truth triplet {(s, o, r)} has the same subject and object")


def check_records(images):
    """Check record after record; the first fault names its image's index."""
    for i, img in enumerate(images):
        try:
            check_record(img, images[0])
        except ValueError as exc:
            raise ValueError(f"image {i}: {exc}") from None


def _assemble(spec, foreground, num_relations):
    values = np.empty(num_relations + 1, dtype=np.float64)
    values[0] = (
        math.log(1.0 / num_relations) if spec.background is None else spec.background
    )
    values[1:] = foreground
    return BiasVector(values)


def build_bias(spec, stats, a):
    """The bias of ``spec`` at exponent ``a``: a ``BiasVector`` for a global
    kind, else ``(entries, fallback)``, one assembled vector per stored pair."""
    ls = stats.label_space
    n_rel = ls.num_relations
    uniform = _assemble(spec, weights_to_bias(np.ones(n_rel), a, spec.epsilon), n_rel)

    if spec.kind in GLOBAL_KINDS:
        relation, valid = marginal_counts(stats)
        w = relation[1:] if spec.kind == "cb" else valid[1:]
        if a > 0 and w.sum() == 0:
            raise ValueError(f"{spec.kind} bias needs nonempty statistics when a > 0")
        return _assemble(spec, weights_to_bias(w, a, spec.epsilon), n_rel)

    subjects, objects = np.indices((ls.num_object_classes,) * 2)
    weight_fn = pair_counts if spec.kind == "pb" else sppo_counts
    weights = weight_fn(stats, subjects, objects)[..., 1:]
    stored = weights.sum(axis=-1) > 0
    rows = weights_to_bias(weights[stored], a, spec.epsilon)
    entries = {
        (int(s), int(o)): _assemble(spec, row, n_rel)
        for (s, o), row in zip(np.argwhere(stored), rows)
    }
    return entries, uniform


def dense_table(entries, fallback, n):
    """The fallback tiled over ``n x n`` class pairs, each entry scattered in."""
    table = np.tile(fallback.values, (n, n, 1))
    for (s, o), vec in entries.items():
        if not (0 <= s < n and 0 <= o < n):
            raise ValueError(f"bias entry for class pair {(s, o)} outside {n} object classes")
        table[s, o] = vec.values
    return table


def bias_json(spec, entries, fallback):
    """A pair table's JSON, its entries written in sorted ``(s, o)`` order."""
    doc = asdict(spec)
    doc["entries"] = [[s, o, vec.values.tolist()] for (s, o), vec in sorted(entries.items())]
    doc["fallback"] = fallback.values.tolist()
    return json.dumps(doc)
