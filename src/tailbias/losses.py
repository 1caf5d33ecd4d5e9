"""Softmax cross-entropy variants with analytic gradients, over blocks of rows.

Every loss takes logits of shape ``(..., C)``, integer targets of the leading
shape ``(...)`` and, where it has one, a bias of the logits' shape; the last
axis holds the classes. It returns the per-row values, of the leading shape,
together with their exact gradient with respect to the logits; biases are
treated as constants. A single row of shape ``(C,)`` with a scalar target is
a block of one, with a 0-d value. Training calls each loss once per batch and
head, on the ``(Σm, C)`` logit block of the pairs drawn from all its images.

The biased cross-entropy subtracts a per-class bias from the logits before
the softmax, which decomposes instance-wise as ``biased = plain + gap`` where
the gap

    gap = b[y] + log sum_j exp(-b[j]) * p[j]

acts as a dynamic per-instance weight: it grows with the bias assigned to the
true class, so heavily-resisted (tail) classes contribute more loss. Four
reference cost-sensitive losses, configured with the loss kind by one
:class:`LossConfig`, are provided for comparison: inverse-frequency
re-weighting, effective-number re-weighting, the focal loss, and the
per-class-margin loss (which is exactly the biased cross-entropy with a
one-hot bias of ``margin_c / n_y**0.25`` at the true class).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import row_softmax

__all__ = [
    "LOSS_KINDS",
    "BASELINE_KINDS",
    "LossConfig",
    "LossOutput",
    "ce",
    "biased_ce",
    "bias_gap",
    "baseline_loss",
]

BASELINE_KINDS = ("reweight", "class_balanced", "focal", "ldam")
LOSS_KINDS = ("ce", "rtpb", *BASELINE_KINDS)


@dataclass(frozen=True)
class LossOutput:
    value: np.ndarray  # per-row values, of the logits' leading shape
    grad_logits: np.ndarray  # same shape as the logits


def _as_array(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim < 1 or z.shape[-1] < 2:
        raise ValueError("logits need a last axis of at least two classes")
    return z


def _as_bias(z: np.ndarray, bias) -> np.ndarray:
    b = np.asarray(bias, dtype=np.float64)
    if b.shape != z.shape:
        raise ValueError(f"bias shape {b.shape} != logit shape {z.shape}")
    return b


def _targets(z: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
    """Checked targets and their one-hot mask over the last axis of ``z``."""
    y = np.asarray(y, dtype=np.int64)
    if y.shape != z.shape[:-1]:
        raise ValueError(f"targets of shape {y.shape} for logits of shape {z.shape}")
    hot = np.arange(z.shape[-1]) == y[..., np.newaxis]
    if np.count_nonzero(hot) != y.size:
        bad = y[(y < 0) | (y >= z.shape[-1])]
        raise ValueError(f"target {int(bad[0])} out of range for {z.shape[-1]} classes")
    return y, hot


def _logsumexp(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1)
    return m + np.log(np.sum(np.exp(z - m[..., np.newaxis]), axis=-1))


def _at(a: np.ndarray, hot: np.ndarray) -> np.ndarray:
    """Each row's entry at its target, of the leading shape."""
    return a[hot].reshape(hot.shape[:-1])


def ce(z, y) -> LossOutput:
    """Cross-entropy ``-log softmax(z)[y]`` and its gradient ``p - onehot(y)``."""
    z = _as_array(z)
    _, hot = _targets(z, y)
    return LossOutput(value=_logsumexp(z) - _at(z, hot), grad_logits=row_softmax(z) - hot)


def biased_ce(z, bias, y) -> LossOutput:
    """Cross-entropy on bias-shifted logits ``z - b``.

    The gradient is with respect to ``z``; the bias is a constant, so it is
    simply ``softmax(z - b) - onehot(y)``.
    """
    z = _as_array(z)
    return ce(z - _as_bias(z, bias), y)


def bias_gap(z, bias, y) -> np.ndarray:
    """Additive gap between the biased and plain cross-entropy of each row.

    Evaluates ``b[y] + log sum_j exp(-b[j]) p[j]`` with ``p = softmax(z)``,
    which equals ``logsumexp(z - b) - logsumexp(z) + b[y]``.
    """
    z = _as_array(z)
    b = _as_bias(z, bias)
    _, hot = _targets(z, y)
    return _at(b, hot) + _logsumexp(z - b) - _logsumexp(z)


@dataclass(frozen=True)
class LossConfig:
    """The configured loss: its ``kind`` and the reference losses' options.

    ``beta`` is the class-balanced loss's, ``gamma`` and ``alpha`` the focal
    loss's and ``margin_c`` the per-class-margin loss's. ``reweight_normalize``
    rescales inverse-frequency weights to average 1 over observed classes,
    keeping step sizes comparable; set it to False for the raw ``1/n_y`` weight.
    """

    kind: str = "ce"
    beta: float = 0.999
    gamma: float = 2.0
    alpha: float = 0.25
    margin_c: float = 0.5
    reweight_normalize: bool = True

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")


def _require_counts(counts: np.ndarray, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    if np.any(counts < 0):
        raise ValueError("class counts must be nonnegative")
    if counts.shape[0] != z.shape[-1]:
        raise ValueError("class_counts length must match the number of classes")
    n_y = counts[y]
    if np.any(n_y == 0):
        raise ValueError(f"unobserved class {int(y[n_y == 0][0])}: count is zero")
    return n_y


def _focal(config: LossConfig, z: np.ndarray, hot: np.ndarray) -> LossOutput:
    ce_val = _logsumexp(z) - _at(z, hot)
    p = row_softmax(z)
    u = _at(p, hot)
    f = (1.0 - u) ** config.gamma
    value = config.alpha * f * ce_val
    # scale = -u * dL/du; sharing p keeps the gamma=0, alpha=1 case equal to ce.
    if config.gamma == 0.0:
        scale = config.alpha * f
    else:
        scale = config.alpha * (
            config.gamma * u * (1.0 - u) ** (config.gamma - 1.0) * ce_val + f
        )
    return LossOutput(value=value, grad_logits=(p - hot) * scale[..., np.newaxis])


def baseline_loss(config: LossConfig, z, y, class_counts) -> LossOutput:
    """Evaluate the reference loss named by ``config.kind`` on every row.

    ``class_counts`` holds per-class training sample counts aligned with the
    logit vector; every loss but ``focal`` reads it.
    """
    if config.kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {config.kind!r}")
    z = _as_array(z)
    y, hot = _targets(z, y)
    if config.kind == "focal":
        return _focal(config, z, hot)
    counts = np.asarray(class_counts, dtype=np.int64)
    n_y = _require_counts(counts, z, y)
    if config.kind == "ldam":
        # per-class margin: biased cross-entropy with a one-hot bias at the target
        return biased_ce(z, hot * (config.margin_c / n_y**0.25)[..., np.newaxis], y)
    if config.kind == "reweight":
        weight = 1.0 / n_y
        if config.reweight_normalize:
            observed = counts[counts > 0].astype(np.float64)
            weight = weight * (observed.shape[0] / float(np.sum(1.0 / observed)))
    else:
        weight = (1.0 - config.beta) / (1.0 - config.beta**n_y)
    inner = ce(z, y)
    return LossOutput(
        value=weight * inner.value, grad_logits=weight[..., np.newaxis] * inner.grad_logits
    )
