"""Softmax cross-entropy variants with analytic gradients.

Every loss returns the scalar value together with its exact gradient with
respect to the logits; bias vectors are treated as constants. The biased
cross-entropy subtracts a per-class bias from the logits before the softmax,
which decomposes instance-wise as ``biased = plain + gap`` where the gap

    gap = b[y] + log sum_j exp(-b[j]) * p[j]

acts as a dynamic per-instance weight: it grows with the bias assigned to the
true class, so heavily-resisted (tail) classes contribute more loss. Four
reference cost-sensitive losses are provided for comparison: inverse-frequency
re-weighting, effective-number re-weighting, the focal loss, and the
per-class-margin loss (which is exactly the biased cross-entropy with a
one-hot bias of ``margin_c / n_y**0.25`` at the true class).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .bias import BiasVector
from .numerics import row_softmax

__all__ = [
    "LossOutput",
    "BaselineSpec",
    "ce",
    "biased_ce",
    "bias_gap",
    "baseline_loss",
    "BASELINE_KINDS",
]

BASELINE_KINDS = ("reweight", "class_balanced", "focal", "ldam")


@dataclass(frozen=True)
class LossOutput:
    value: float
    grad_logits: np.ndarray


def _as_array(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 2:
        raise ValueError("logits must be a 1-D vector with at least two entries")
    return z


def _bias_values(bias) -> np.ndarray:
    if isinstance(bias, BiasVector):
        return bias.values
    return np.asarray(bias, dtype=np.float64)


def _logsumexp(z: np.ndarray) -> float:
    m = float(np.max(z))
    return m + float(np.log(np.sum(np.exp(z - m))))


def _check_target(z: np.ndarray, y: int) -> int:
    y = int(y)
    if not 0 <= y < z.shape[0]:
        raise ValueError(f"target {y} out of range for {z.shape[0]} classes")
    return y


def ce(z, y: int) -> LossOutput:
    """Cross-entropy ``-log softmax(z)[y]`` and its gradient ``p - onehot(y)``."""
    z = _as_array(z)
    y = _check_target(z, y)
    value = _logsumexp(z) - float(z[y])
    grad = row_softmax(z[np.newaxis])[0]
    grad[y] -= 1.0
    return LossOutput(value=value, grad_logits=grad)


def biased_ce(z, bias, y: int) -> LossOutput:
    """Cross-entropy on bias-shifted logits ``z - b``.

    The gradient is with respect to ``z``; the bias is a constant, so it is
    simply ``softmax(z - b) - onehot(y)``.
    """
    z = _as_array(z)
    b = _bias_values(bias)
    if b.shape != z.shape:
        raise ValueError(f"bias shape {b.shape} != logit shape {z.shape}")
    inner = ce(z - b, y)
    return LossOutput(value=inner.value, grad_logits=inner.grad_logits)


def bias_gap(z, bias, y: int) -> float:
    """Additive gap between the biased and plain cross-entropy on one instance.

    Evaluates ``b[y] + log sum_j exp(-b[j]) p[j]`` with ``p = softmax(z)``,
    which equals ``logsumexp(z - b) - logsumexp(z) + b[y]``.
    """
    z = _as_array(z)
    b = _bias_values(bias)
    if b.shape != z.shape:
        raise ValueError(f"bias shape {b.shape} != logit shape {z.shape}")
    y = _check_target(z, y)
    return float(b[y]) + _logsumexp(z - b) - _logsumexp(z)


@dataclass(frozen=True)
class BaselineSpec:
    """Reference cost-sensitive loss configuration.

    ``class_counts`` holds per-class training sample counts aligned with the
    logit vector. ``reweight_normalize`` rescales inverse-frequency weights to
    average 1 over observed classes, keeping step sizes comparable; set it to
    False for the raw ``1/n_y`` weight.
    """

    kind: str
    class_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    beta: float = 0.999
    gamma: float = 2.0
    alpha: float = 0.25
    margin_c: float = 0.5
    reweight_normalize: bool = True

    def __post_init__(self) -> None:
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        counts = np.asarray(self.class_counts, dtype=np.int64)
        object.__setattr__(self, "class_counts", counts)
        if np.any(counts < 0):
            raise ValueError("class counts must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "class_counts": self.class_counts.tolist(),
            "beta": self.beta,
            "gamma": self.gamma,
            "alpha": self.alpha,
            "margin_c": self.margin_c,
            "reweight_normalize": self.reweight_normalize,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "BaselineSpec":
        return cls(
            kind=str(d["kind"]),
            class_counts=np.asarray(d.get("class_counts", []), dtype=np.int64),
            beta=float(d.get("beta", 0.999)),
            gamma=float(d.get("gamma", 2.0)),
            alpha=float(d.get("alpha", 0.25)),
            margin_c=float(d.get("margin_c", 0.5)),
            reweight_normalize=bool(d.get("reweight_normalize", True)),
        )


def _require_count(spec: BaselineSpec, z: np.ndarray, y: int) -> int:
    counts = spec.class_counts
    if counts.shape[0] != z.shape[0]:
        raise ValueError("class_counts length must match the number of classes")
    n_y = int(counts[y])
    if n_y == 0:
        raise ValueError(f"unobserved class {y}: count is zero")
    return n_y


def _scaled_ce(z: np.ndarray, y: int, weight: float) -> LossOutput:
    inner = ce(z, y)
    return LossOutput(value=weight * inner.value, grad_logits=weight * inner.grad_logits)


def _focal(spec: BaselineSpec, z: np.ndarray, y: int) -> LossOutput:
    ce_val = _logsumexp(z) - float(z[y])
    p = row_softmax(z[np.newaxis])[0]
    u = float(p[y])
    f = (1.0 - u) ** spec.gamma
    value = spec.alpha * f * ce_val
    # scale = -u * dL/du; sharing p keeps the gamma=0, alpha=1 case equal to ce.
    if spec.gamma == 0.0:
        scale = spec.alpha * f
    else:
        scale = spec.alpha * (
            spec.gamma * u * (1.0 - u) ** (spec.gamma - 1.0) * ce_val + f
        )
    grad = p
    grad[y] -= 1.0
    grad *= scale
    return LossOutput(value=value, grad_logits=grad)


def baseline_loss(spec: BaselineSpec, z, y: int) -> LossOutput:
    """Evaluate the reference loss named by ``spec.kind`` on one instance."""
    z = _as_array(z)
    y = _check_target(z, y)
    if spec.kind == "reweight":
        n_y = _require_count(spec, z, y)
        weight = 1.0 / n_y
        if spec.reweight_normalize:
            observed = spec.class_counts[spec.class_counts > 0].astype(np.float64)
            weight *= observed.shape[0] / float(np.sum(1.0 / observed))
        return _scaled_ce(z, y, weight)
    if spec.kind == "class_balanced":
        n_y = _require_count(spec, z, y)
        weight = (1.0 - spec.beta) / (1.0 - spec.beta**n_y)
        return _scaled_ce(z, y, weight)
    if spec.kind == "focal":
        return _focal(spec, z, y)
    # per-class margin: biased cross-entropy with a one-hot bias at the target
    n_y = _require_count(spec, z, y)
    b = np.zeros_like(z)
    b[y] = spec.margin_c / n_y**0.25
    return biased_ce(z, b, y)
