"""Finite-difference certification of every analytic gradient.

Each battery draws seeded random instances, compares the analytic gradient
against central differences through :func:`tailbias.numerics.grad_check`, and
reports the worst relative error observed. ``grad_check`` evaluates a chunk
of coordinates per call, on a stack of perturbed copies: a loss takes it as
logit rows, a kernel input as a leading batch axis, and a parameter tree as
batched views (:func:`tailbias.numerics.unflatten`). The loss battery passes
no analytic gradient: a loss computes each row on its own, so the gradient
row of the unperturbed copy ``grad_check`` appends to the stack is the
analytic gradient, and each case is one loss call. The full-model battery
checks every parameter coordinate on a few instances and a random coordinate
sample on many, which keeps the runtime low without leaving any parameter
kind unchecked. The training battery checks the gradient that one training
step takes (``harness._batch_loss``: each bucket's stage backwards, its
images' gradient rows added in batch order) against the batch's loss
written afresh, one :func:`~tailbias.model.forward` per image. A battery
refuses a negative seed, and a count of instances that checks nothing, by
the argument's name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import harness
from .bias import BiasSpec
from .losses import BASELINE_KINDS, LossConfig, baseline_loss, biased_ce, ce
from .model import (
    MODEL_KINDS,
    ModelSpec,
    backward,
    forward,
    init_dual_encoder,
    model_for,
)
from .numerics import (
    GradCheckReport,
    attention,
    attention_backward,
    encoder_layer,
    encoder_layer_backward,
    flatten,
    grad_check,
    init_attention_params,
    init_encoder_layer_params,
    multi_head_attention,
    multi_head_attention_backward,
    running_sum,
    unflatten,
)
from .stats import LabelSpace, check_value
from .synth import Images, SynthImage, all_ordered_pairs

__all__ = [
    "CheckResult",
    "certify_losses",
    "certify_numerics",
    "check_model_instance",
    "certify_model",
    "certify_training",
    "run_certification",
]

# Every battery's central-difference step; a larger one straddles relu kinks often enough
# to spoil the difference itself on a few coordinates per hundred model instances.
STEP = 1e-5
KERNEL_TOL, MODEL_TOL = 1e-4, 1e-3  # of the loss and kernel batteries; of the others
MODEL_COORDS, TRAINING_COORDS = 40, 64  # per sampled model instance; per training case
BASELINE_CONFIGS = {kind: LossConfig(kind) for kind in BASELINE_KINDS}  # the loss battery's, built once


@dataclass
class CheckResult:
    name: str
    instances: int
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: max_rel_error={self.max_rel_error:.3e} "
            f"tol={self.tolerance:.0e} instances={self.instances}"
        )


def _random_instance(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int]:
    dim = int(rng.integers(2, 65))
    z = rng.uniform(-5.0, 5.0, dim)
    b = rng.uniform(-5.0, 5.0, dim)
    y = int(rng.integers(0, dim))
    return z, b, y


def _weighted_sums(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sum(g * o)`` for each ``o`` stacked along ``out``'s first axis."""
    return (g * out).reshape(len(out), -1).sum(axis=1)


def certify_losses(seed: int = 0, instances: int = 100) -> list[CheckResult]:
    """Each loss kind's gradient on ``instances`` seeded logit rows, in one
    loss call per instance and kind."""
    check_value("seed", seed, ge=0)
    check_value("instances", instances, ge=1)
    rng = np.random.default_rng(seed)
    worst = {kind: 0.0 for kind in ("ce", "rtpb", *BASELINE_KINDS)}
    for _ in range(instances):
        z, b, y = _random_instance(rng)
        counts = rng.integers(1, 200, z.shape[0])

        def at(v):  # the target of every row of v
            return np.full(v.shape[:-1], y)

        cases = {
            "ce": lambda v: ce(v, at(v)),
            "rtpb": lambda v: biased_ce(v, np.broadcast_to(b, v.shape), at(v)),
            **{
                kind: lambda v, config=config: baseline_loss(config, v, at(v), counts)
                for kind, config in BASELINE_CONFIGS.items()
            },
        }
        for kind, fn in cases.items():
            report = grad_check(
                lambda v: ((out := fn(v)).value, out.grad_logits), z, h=STEP, tol=KERNEL_TOL
            )
            worst[kind] = max(worst[kind], report.max_rel_error)
    return [CheckResult(f"loss/{k}", instances, v, KERNEL_TOL) for k, v in worst.items()]


def certify_numerics(seed: int = 0, instances: int = 100) -> list[CheckResult]:
    check_value("seed", seed, ge=0)
    check_value("instances", instances, ge=1)
    rng = np.random.default_rng(seed)
    worst = {"matmul": 0.0, "attention": 0.0, "multi_head_attention": 0.0, "encoder_layer": 0.0}

    for _ in range(instances):
        a = rng.normal(0.0, 1.0, (3, 4))
        bm = rng.normal(0.0, 1.0, (4, 2))
        g = rng.normal(0.0, 1.0, (3, 2))
        q = rng.normal(0.0, 1.0, (3, 4))
        k = rng.normal(0.0, 1.0, (5, 4))
        v = rng.normal(0.0, 1.0, (5, 4))
        go = rng.normal(0.0, 1.0, (3, 4))
        dq, dk, dv = attention_backward(go, attention(q, k, v)[1])
        # The matmul gradients of sum(g * (a @ bm)) are in the form every backward writes.
        for name, weight, arr, grad, rebuild in (
            ("matmul", g, a, g @ bm.T, lambda s: s.reshape(-1, 3, 4) @ bm),
            ("matmul", g, bm, a.T @ g, lambda s: a @ s.reshape(-1, 4, 2)),
            ("attention", go, q, dq, lambda s: attention(s.reshape(-1, *q.shape), k, v)[0]),
            ("attention", go, k, dk, lambda s: attention(q, s.reshape(-1, *k.shape), v)[0]),
            ("attention", go, v, dv, lambda s: attention(q, k, s.reshape(-1, *v.shape))[0]),
        ):
            r = grad_check(lambda s: _weighted_sums(weight, rebuild(s)), arr.ravel(),
                           grad.ravel(), h=STEP, tol=KERNEL_TOL)
            worst[name] = max(worst[name], r.max_rel_error)

    mha_instances = max(1, instances // 5)
    for _ in range(mha_instances):
        d = 8
        x = rng.normal(0.0, 1.0, (4, d))
        attn = init_attention_params(d, rng)
        go = rng.normal(0.0, 1.0, x.shape)
        layer = init_encoder_layer_params(d, 16, rng)
        for name, fwd, bwd, tree in (
            ("multi_head_attention", multi_head_attention, multi_head_attention_backward, attn),
            ("encoder_layer", encoder_layer, encoder_layer_backward, layer),
        ):
            vec = flatten(tree)
            dvec = np.zeros_like(vec)
            dx = bwd(go, fwd(x, tree, 2)[1], unflatten(tree, dvec))
            for arg, grad, f in (
                (x, dx, lambda s: _weighted_sums(go, fwd(s.reshape(-1, *x.shape), tree, 2)[0])),
                (vec, dvec, lambda s: _weighted_sums(go, fwd(x, unflatten(tree, s), 2)[0])),
            ):
                r = grad_check(f, arg, grad, h=STEP, tol=KERNEL_TOL)
                worst[name] = max(worst[name], r.max_rel_error)

    counts = {
        "matmul": 2 * instances,
        "attention": 3 * instances,
        "multi_head_attention": 2 * mha_instances,
        "encoder_layer": 2 * mha_instances,
    }
    return [CheckResult(f"numerics/{k}", counts[k], v, KERNEL_TOL) for k, v in worst.items()]


TOY_LABELS = LabelSpace(num_object_classes=3, num_relations=3)
TOY_SPEC = ModelSpec(kind="dual_encoder", d_model=16, d_e=4, d_pos=4, n_h=2, n_o=2, n_r=1, d_ff=16)
TOY_D_V = 4


def _toy_image(rng: np.random.Generator, n: int, gt=()) -> SynthImage:
    """``n`` random objects of the toy label space, with ground truth ``gt``."""
    ls, d_v = TOY_LABELS, TOY_D_V
    rows = []
    for _ in range(n):
        x1, y1 = rng.uniform(0.0, 0.5, 2)
        scores = rng.uniform(0.1, 1.0, ls.num_object_classes)
        scores /= scores.sum()
        box = [x1, y1, x1 + rng.uniform(0.1, 0.4), y1 + rng.uniform(0.1, 0.4)]
        feature = rng.normal(0.0, 1.0, d_v)
        rows.append((box, feature, int(rng.integers(0, ls.num_object_classes)), scores))
    boxes, features, labels, scores = (np.array(col) for col in zip(*rows))
    unions = rng.normal(0.0, 1.0, (n * (n - 1), d_v))
    return SynthImage(boxes, features, labels, scores, unions,
                      gt=np.array(gt, dtype=np.int64).reshape(-1, 3))


def _toy_setup(rng: np.random.Generator):
    ls, spec = TOY_LABELS, TOY_SPEC
    params = init_dual_encoder(spec, ls, TOY_D_V, rng)
    image = _toy_image(rng, 3)
    pairs = all_ordered_pairs(3)
    targets = rng.integers(0, ls.num_relations + 1, len(pairs))
    bias_row = rng.uniform(-1.0, 1.0, ls.num_relations + 1)
    return spec, params, image, pairs, targets, bias_row


def _toy_loss(out, image, targets, bias_row):
    """Mean biased relation loss plus mean object cross-entropy, with the
    gradients at both classifier outputs; over a batched forward's leading
    axis, one loss per parameter copy."""
    m = len(targets)
    n = len(image.labels)
    rel_logits, obj_logits = out.relation_logits, out.object_logits
    rel = biased_ce(
        rel_logits,
        np.broadcast_to(bias_row, rel_logits.shape),
        np.broadcast_to(targets, rel_logits.shape[:-1]),
    )
    obj = ce(obj_logits, np.broadcast_to(image.labels, obj_logits.shape[:-1]))
    total = running_sum(np.concatenate([rel.value / m, obj.value / n], axis=-1))
    return total, obj.grad_logits / n, rel.grad_logits / m


def check_model_instance(
    rng: np.random.Generator,
    coords_per_instance: int | None = None,
    h: float = STEP,
    tol: float = MODEL_TOL,
) -> GradCheckReport:
    """Draw one toy dual-encoder problem and check its analytic gradient.

    The finite differences run the forward pass only. ``coords_per_instance``
    checks a seeded random subset of coordinates instead of all of them.
    """
    spec, params, image, pairs, targets, bias_row = _toy_setup(rng)
    out = forward(image, image.unions, pairs, params, spec)
    _, d_obj, d_rel = _toy_loss(out, image, targets, bias_row)
    vec = flatten(params)
    dvec = np.zeros_like(vec)
    backward(d_obj, d_rel, out, params, spec, unflatten(params, dvec))

    def loss_at(stack):
        out = forward(image, image.unions, pairs, unflatten(params, stack), spec)
        return _toy_loss(out, image, targets, bias_row)[0]

    coords = None
    if coords_per_instance is not None:
        coords = rng.choice(vec.size, size=min(coords_per_instance, vec.size), replace=False)
    return grad_check(loss_at, vec, dvec, h=h, tol=tol, coords=coords)


def certify_model(
    seed: int = 0, full_instances: int = 2, sampled_instances: int = 100
) -> list[CheckResult]:
    """Whole-model gradient check at toy scale.

    ``full_instances`` passes sweep every coordinate; the remaining instances
    probe :data:`MODEL_COORDS` seeded random coordinates each; only
    ``full_instances`` may be 0.
    """
    check_value("seed", seed, ge=0)
    check_value("full_instances", full_instances, ge=0)
    check_value("sampled_instances", sampled_instances, ge=1)
    rng = np.random.default_rng(seed)
    worst = 0.0
    total = full_instances + sampled_instances
    for inst in range(total):
        coords = None if inst < full_instances else MODEL_COORDS
        report = check_model_instance(rng, coords)
        worst = max(worst, report.max_rel_error)
    return [CheckResult("model/dual_encoder", total, worst, MODEL_TOL)]


def _batch_objective(config, stack, loss_fn, images: Images, batch, drawn) -> np.ndarray:
    """The training loss of ``batch`` over its ``drawn`` pairs at each copy of
    ``stack``, a parameter tree of ``(k, ...)`` leaves: one forward per image on
    its own ordered pairs with its task labels, relation rows (and object rows)
    concatenated along the row axis in batch order, bias rows gathered by each
    image's task labels, the object loss reading its annotated ones."""
    spec = config.model
    rows, targets, starts = drawn
    relation, classes, objects, labels = [], [], [], []
    for i, lo, hi in zip(batch, starts[:-1], starts[1:]):
        image = images[i]
        task_labels = harness.class_labels(image, config.task)
        at = rows[lo:hi] - images.pair_start[i]  # the image's own ordered pairs
        pairs = all_ordered_pairs(len(image.labels))[at]
        out = forward(replace(image, labels=task_labels), image.unions[at], pairs, stack, spec)
        relation.append(out.relation_logits)
        classes.append(task_labels[pairs])
        if out.object_logits is not None:
            objects.append(out.object_logits)
            labels.append(image.labels)
    z = np.concatenate(relation, axis=-2)
    lead = z.shape[:-1]
    s, o = np.concatenate(classes).T
    rel = loss_fn(z, *(np.broadcast_to(a, lead) for a in (targets, s, o)))
    value = running_sum(rel.value) / len(targets)
    if spec.object_loss_weight > 0 and objects:
        z_obj, y = np.concatenate(objects, axis=-2), np.concatenate(labels)
        obj = ce(z_obj, np.broadcast_to(y, z_obj.shape[:-1]))
        value = value + spec.object_loss_weight * running_sum(obj.value) / len(y)
    return value


def certify_training(seed: int = 0) -> list[CheckResult]:
    """The gradient of one training step, against central differences of the
    batch's loss (:func:`_batch_objective`), for both model kinds, both
    tasks, ``ce``, rtpb with a ``cb`` vector and with a ``pb`` table, and the
    four baselines.

    The packed split holds images of 3, 2, 3 and 4 objects, batched in the
    order 2, 1, 3, 0: the two 3-object images draw as many pairs and run as
    one bucket, the 2-object image has no ground truth, and with three
    classes the 4-object image has two objects of one class. Each case
    checks :data:`TRAINING_COORDS` seeded coordinates (all of a smaller model).
    """
    check_value("seed", seed, ge=0)
    rng = np.random.default_rng(seed)
    images = Images.pack([
        _toy_image(rng, 3, [(0, 1, 1)]),
        _toy_image(rng, 2),
        _toy_image(rng, 3, [(2, 0, 3)]),
        _toy_image(rng, 4, [(0, 1, 2), (3, 2, 1)]),
    ])
    batch = [2, 1, 3, 0]
    losses = [("ce", None), ("rtpb", "cb"), ("rtpb", "pb")]
    losses += [(kind, None) for kind in BASELINE_KINDS]
    worst, cases = 0.0, 0
    for kind, task, (loss, bias) in product(MODEL_KINDS, harness.MODES, losses):
        config = harness.TrainConfig(
            label_space=TOY_LABELS,
            task=task,
            model=TOY_SPEC if kind == "dual_encoder" else ModelSpec(kind=kind),
            loss=LossConfig(kind=loss),
            bias=None if bias is None else BiasSpec(kind=bias, a=1.0, epsilon=1e-3),
        )
        split, loss_fn = harness._prepare(config, images)
        net = model_for(config.model)
        params = net.init(config.model, TOY_LABELS, TOY_D_V, rng)
        vec = flatten(params)
        params = unflatten(params, vec)
        drawn = harness._draw(split, images.gt_start, batch, config.background_ratio, rng)
        grad = harness._Gradient(params, len(batch))
        plan = harness._Buckets(images, split, batch, *drawn, len(batch))
        harness._batch_loss(config, net, params, grad, loss_fn, plan, 0)
        report = grad_check(
            lambda stack: _batch_objective(
                config, unflatten(params, stack), loss_fn, images, batch, drawn
            ),
            vec, grad.vec, h=STEP, tol=MODEL_TOL,
            coords=rng.choice(vec.size, size=min(TRAINING_COORDS, vec.size), replace=False),
        )
        worst, cases = max(worst, report.max_rel_error), cases + 1
    return [CheckResult("training/batch_loss", cases, worst, MODEL_TOL)]


def run_certification(seed: int = 0, instances: int = 100) -> list[CheckResult]:
    """Full battery: losses, kernels, the toy model, and the training step."""
    results = certify_losses(seed, instances=instances)
    results += certify_numerics(seed + 1, instances=instances)
    results += certify_model(seed + 2, sampled_instances=instances)
    results += certify_training(seed + 3)
    return results
