"""Finite-difference certification of every analytic gradient.

Each battery draws seeded random instances, compares the analytic gradient
against central differences through :func:`tailbias.numerics.grad_check`, and
reports the worst relative error observed. ``grad_check`` evaluates a chunk
of coordinates per call, on a stack of perturbed copies: a loss takes it as
logit rows, a kernel input as a leading batch axis, and a parameter tree as
batched views (:func:`tailbias.numerics.unflatten`). The full-model battery
checks every parameter coordinate on a few instances and a random coordinate
sample on many, which keeps the runtime low without leaving any parameter
kind unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import BASELINE_KINDS, LossConfig, baseline_loss, biased_ce, ce
from .model import ModelSpec, backward, forward, init_dual_encoder
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
    matmul_backward,
    multi_head_attention,
    multi_head_attention_backward,
    running_sum,
    unflatten,
)
from .stats import LabelSpace
from .synth import SynthImage, all_ordered_pairs

__all__ = [
    "CheckResult",
    "certify_losses",
    "certify_numerics",
    "check_model_instance",
    "certify_model",
    "run_certification",
]


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


def certify_losses(
    seed: int = 0, instances: int = 100, h: float = 1e-5, tol: float = 1e-4
) -> list[CheckResult]:
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
                kind: lambda v, config=LossConfig(kind): baseline_loss(config, v, at(v), counts)
                for kind in BASELINE_KINDS
            },
        }
        for kind, fn in cases.items():
            report = grad_check(
                lambda v: fn(v).value, z, fn(z).grad_logits, h=h, tol=tol
            )
            worst[kind] = max(worst[kind], report.max_rel_error)
    return [CheckResult(f"loss/{k}", instances, v, tol) for k, v in worst.items()]


def certify_numerics(
    seed: int = 0, instances: int = 100, h: float = 1e-5, tol: float = 1e-4
) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = {"matmul": 0.0, "attention": 0.0, "multi_head_attention": 0.0, "encoder_layer": 0.0}

    for _ in range(instances):
        a = rng.normal(0.0, 1.0, (3, 4))
        bm = rng.normal(0.0, 1.0, (4, 2))
        g = rng.normal(0.0, 1.0, (3, 2))
        da, db = matmul_backward(g, a, bm)
        r = grad_check(lambda s: _weighted_sums(g, s.reshape(-1, 3, 4) @ bm), a.ravel(), da.ravel(), h=h, tol=tol)
        worst["matmul"] = max(worst["matmul"], r.max_rel_error)
        r = grad_check(lambda s: _weighted_sums(g, a @ s.reshape(-1, 4, 2)), bm.ravel(), db.ravel(), h=h, tol=tol)
        worst["matmul"] = max(worst["matmul"], r.max_rel_error)

        q = rng.normal(0.0, 1.0, (3, 4))
        k = rng.normal(0.0, 1.0, (5, 4))
        v = rng.normal(0.0, 1.0, (5, 4))
        go = rng.normal(0.0, 1.0, (3, 4))
        out, cache = attention(q, k, v)
        dq, dk, dv = attention_backward(go, cache)
        for arr, grad, rebuild in (
            (q, dq, lambda s: attention(s.reshape(-1, *q.shape), k, v)[0]),
            (k, dk, lambda s: attention(q, s.reshape(-1, *k.shape), v)[0]),
            (v, dv, lambda s: attention(q, k, s.reshape(-1, *v.shape))[0]),
        ):
            r = grad_check(
                lambda s: _weighted_sums(go, rebuild(s)), arr.ravel(), grad.ravel(), h=h, tol=tol
            )
            worst["attention"] = max(worst["attention"], r.max_rel_error)

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
                r = grad_check(f, arg, grad, h=h, tol=tol)
                worst[name] = max(worst[name], r.max_rel_error)

    counts = {
        "matmul": 2 * instances,
        "attention": 3 * instances,
        "multi_head_attention": 2 * mha_instances,
        "encoder_layer": 2 * mha_instances,
    }
    return [CheckResult(f"numerics/{k}", counts[k], v, tol) for k, v in worst.items()]


def _toy_setup(rng: np.random.Generator):
    ls = LabelSpace(num_object_classes=3, num_relations=3)
    spec = ModelSpec(
        kind="dual_encoder", d_model=16, d_e=4, d_pos=4, n_h=2, n_o=2, n_r=1, d_ff=16
    )
    d_v = 4
    params = init_dual_encoder(spec, ls, d_v, rng)
    n = 3
    rows = []
    for _ in range(n):
        x1, y1 = rng.uniform(0.0, 0.5, 2)
        scores = rng.uniform(0.1, 1.0, ls.num_object_classes)
        scores /= scores.sum()
        box = [x1, y1, x1 + rng.uniform(0.1, 0.4), y1 + rng.uniform(0.1, 0.4)]
        feature = rng.normal(0.0, 1.0, d_v)
        rows.append((box, feature, int(rng.integers(0, ls.num_object_classes)), scores))
    boxes, features, labels, scores = (np.array(col) for col in zip(*rows))
    pairs = all_ordered_pairs(n)
    unions = rng.normal(0.0, 1.0, (len(pairs), d_v))
    image = SynthImage(boxes, features, labels, scores, unions, gt=np.zeros((0, 3), np.int64))
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
    h: float = 1e-5,
    tol: float = 1e-3,
) -> GradCheckReport:
    """Draw one toy dual-encoder problem and check its analytic gradient.

    The finite differences run the forward pass only. ``coords_per_instance``
    checks a seeded random subset of coordinates instead of all of them.
    """
    spec, params, image, pairs, targets, bias_row = _toy_setup(rng)
    out = forward(image, image.unions, pairs, params, spec, "predcls")
    _, d_obj, d_rel = _toy_loss(out, image, targets, bias_row)
    vec = flatten(params)
    dvec = np.zeros_like(vec)
    backward(d_obj, d_rel, out, params, spec, unflatten(params, dvec))

    def loss_at(stack):
        out = forward(image, image.unions, pairs, unflatten(params, stack), spec, "predcls")
        return _toy_loss(out, image, targets, bias_row)[0]

    coords = None
    if coords_per_instance is not None:
        coords = rng.choice(vec.size, size=min(coords_per_instance, vec.size), replace=False)
    return grad_check(loss_at, vec, dvec, h=h, tol=tol, coords=coords)


def certify_model(
    seed: int = 0,
    full_instances: int = 2,
    sampled_instances: int = 100,
    coords_per_instance: int = 40,
    h: float = 1e-5,
    tol: float = 1e-3,
) -> list[CheckResult]:
    """Whole-model gradient check at toy scale.

    ``full_instances`` passes sweep every coordinate; the remaining instances
    probe a seeded random subset of coordinates each. The step stays at 1e-5:
    larger steps straddle relu kinks often enough to corrupt the central
    difference itself on a few coordinates per hundred instances.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    total = full_instances + sampled_instances
    for inst in range(total):
        coords = None if inst < full_instances else coords_per_instance
        report = check_model_instance(rng, coords, h=h, tol=tol)
        worst = max(worst, report.max_rel_error)
    return [CheckResult("model/dual_encoder", total, worst, tol)]


def run_certification(seed: int = 0, instances: int = 100) -> list[CheckResult]:
    """Full battery: losses, kernels, and the toy model."""
    results = certify_losses(seed, instances=instances)
    results += certify_numerics(seed + 1, instances=instances)
    results += certify_model(seed + 2, sampled_instances=instances)
    return results
