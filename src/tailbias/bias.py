"""Resistance-bias construction from annotation statistics.

A resistance bias is a per-relation constant subtracted from classification
logits during training: rarely annotated relations receive larger values, so
the model trains against heavier resistance exactly where data is scarce. The
basic form for a foreground weight vector ``w`` is

    b_i = -log( w_i**a / sum_j w_j**a + epsilon )

with ``a`` controlling how spread out the biases are and ``epsilon`` capping
the largest one. Four weight choices are supported: per-relation sample counts
(``cb``), distinct valid-pair counts (``vb``), pair-conditional counts
(``pb``), and the geometric-mean estimated counts (``eb``). ``cb``/``vb``
yield one global vector; ``pb``/``eb`` yield a table keyed by ordered class
pair with a uniform-weight fallback. :func:`bias_table` turns either into one
dense ``(L_e, L_e, C)`` array, from which training and evaluation gather the
rows of whole label arrays at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .stats import TripletStats, check_keys, marginal_counts, pair_counts, sppo_counts

__all__ = [
    "GLOBAL_KINDS",
    "PAIR_KINDS",
    "BiasSpec",
    "BiasVector",
    "PairBiasTable",
    "weights_to_bias",
    "compute_bias",
    "soft_bias",
    "lookup_pair_bias",
    "bias_table",
    "bias_to_json",
    "bias_from_json",
]

GLOBAL_KINDS = ("cb", "vb")
PAIR_KINDS = ("pb", "eb")


@dataclass(frozen=True)
class BiasSpec:
    """Configuration for one bias construction.

    ``a_eval`` is the weakened exponent used when re-deriving the bias for
    inference; it must not exceed ``a``. ``background`` overrides the constant
    stored in the background slot of every produced vector. When left unset
    the slot is ``log(1/num_relations)``, i.e. the literal (negative) constant;
    pass ``-log(1/num_relations)`` to flip the sign convention, or the
    ``a = 0`` foreground value to make the whole vector uniform.
    """

    kind: str
    a: float = 1.0
    epsilon: float = 0.0
    a_eval: float = 0.0
    background: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GLOBAL_KINDS + PAIR_KINDS:
            raise ValueError(f"unknown bias kind {self.kind!r}")
        if self.a < 0:
            raise ValueError("a must be >= 0")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 0.0 <= self.a_eval <= self.a:
            raise ValueError("a_eval must lie in [0, a]")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "a": self.a,
            "epsilon": self.epsilon,
            "a_eval": self.a_eval,
            "background": self.background,
        }

    @classmethod
    def from_dict(cls, d: Mapping, extra: tuple[str, ...] = ()) -> "BiasSpec":
        """The spec of ``d``, whose keys besides its fields may only be ``extra``."""
        check_keys(d, cls, "bias spec", extra)
        return cls(
            kind=str(d["kind"]),
            a=float(d.get("a", 1.0)),
            epsilon=float(d.get("epsilon", 0.0)),
            a_eval=float(d.get("a_eval", 0.0)),
            background=None if d.get("background") is None else float(d["background"]),
        )


@dataclass(frozen=True)
class BiasVector:
    """Length ``num_relations + 1`` bias values; index 0 is the background slot."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.shape[0] < 2:
            raise ValueError("bias vector must be 1-D with a background slot")
        if not np.all(np.isfinite(values)):
            raise ValueError(
                "bias vector has non-finite entries; raise epsilon or drop zero-weight relations"
            )

    @property
    def foreground(self) -> np.ndarray:
        return self.values[1:]

    @property
    def background(self) -> float:
        return float(self.values[0])


@dataclass(frozen=True)
class PairBiasTable:
    """Per-(subject class, object class) bias vectors with a shared fallback."""

    entries: dict[tuple[int, int], BiasVector]
    fallback: BiasVector


Bias = Union[BiasVector, PairBiasTable]


def weights_to_bias(w: np.ndarray, a: float, epsilon: float) -> np.ndarray:
    """Foreground bias ``-log(w**a / sum(w**a) + epsilon)`` over the last axis.

    ``w`` is one weight vector or a stack of them; each is normalized on its
    own. Uses the ``0**0 = 1`` convention so ``a = 0`` ignores the weights
    entirely and yields the constant ``-log(1/len(w) + epsilon)``. Weights
    must be nonnegative; all-zero weights are rejected unless ``a = 0``. With
    ``epsilon = 0`` a zero weight produces an infinite entry, which
    :class:`BiasVector` refuses to store.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim < 1 or w.shape[-1] < 1:
        raise ValueError("weights must be nonempty vectors")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    powered = w**float(a)
    norm = powered.sum(axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise ValueError("degenerate weights: all zero with a > 0")
    with np.errstate(divide="ignore"):
        return -np.log(powered / norm + epsilon)


def _assemble(spec: BiasSpec, foreground: np.ndarray, num_relations: int) -> BiasVector:
    values = np.empty(num_relations + 1, dtype=np.float64)
    values[0] = (
        math.log(1.0 / num_relations) if spec.background is None else spec.background
    )
    values[1:] = foreground
    return BiasVector(values)


def _build(spec: BiasSpec, stats: TripletStats, a: float) -> Bias:
    ls = stats.label_space
    n_rel = ls.num_relations
    uniform = _assemble(spec, weights_to_bias(np.ones(n_rel), a, spec.epsilon), n_rel)

    if spec.kind in GLOBAL_KINDS:
        relation, valid = marginal_counts(stats)
        w = relation[1:] if spec.kind == "cb" else valid[1:]
        if a > 0 and w.sum() == 0:
            raise ValueError(f"{spec.kind} bias needs nonempty statistics when a > 0")
        return _assemble(spec, weights_to_bias(w, a, spec.epsilon), n_rel)

    # One weight row per ordered class pair. eb estimates a distribution for
    # every pair whose side marginals intersect, including pairs never
    # annotated together; a pair with no weight falls back to uniform.
    subjects, objects = np.indices((ls.num_object_classes,) * 2)
    weight_fn = pair_counts if spec.kind == "pb" else sppo_counts
    weights = weight_fn(stats, subjects, objects)[..., 1:]
    stored = weights.sum(axis=-1) > 0
    rows = weights_to_bias(weights[stored], a, spec.epsilon)
    entries = {
        (int(s), int(o)): _assemble(spec, row, n_rel)
        for (s, o), row in zip(np.argwhere(stored), rows)
    }
    return PairBiasTable(entries=entries, fallback=uniform)


def compute_bias(spec: BiasSpec, stats: TripletStats) -> Bias:
    """Build the training-time bias named by ``spec`` from ``stats``."""
    return _build(spec, stats, spec.a)


def soft_bias(spec: BiasSpec, stats: TripletStats) -> Bias:
    """Same construction as :func:`compute_bias` but with exponent ``a_eval``.

    Subtracting this weakened vector at inference time trades tail recall back
    toward head recall without retraining.
    """
    return _build(spec, stats, spec.a_eval)


def lookup_pair_bias(table: PairBiasTable, s: int, o: int) -> BiasVector:
    """Bias vector for the ordered class pair ``(s, o)``, or the fallback."""
    return table.entries.get((s, o), table.fallback)


def bias_table(bias: Bias, num_object_classes: int) -> np.ndarray:
    """The bias as a dense ``(L_e, L_e, C)`` table of rows.

    ``table[s_classes, o_classes]`` gathers the rows for arrays of (subject,
    object) class labels in one step. A global vector is broadcast to every
    pair as a read-only view; a pair table holds its stored entries and the
    fallback row everywhere else.
    """
    n = num_object_classes
    if isinstance(bias, BiasVector):
        return np.broadcast_to(bias.values, (n, n, bias.values.shape[0]))
    table = np.tile(bias.fallback.values, (n, n, 1))
    for (s, o), vec in bias.entries.items():
        if not (0 <= s < n and 0 <= o < n):
            raise ValueError(f"bias entry for class pair {(s, o)} outside {n} object classes")
        table[s, o] = vec.values
    return table


def bias_to_json(spec: BiasSpec, bias: Bias) -> str:
    doc: dict = spec.to_dict()
    if isinstance(bias, BiasVector):
        doc["values"] = bias.values.tolist()
    else:
        doc["entries"] = [
            [s, o, vec.values.tolist()] for (s, o), vec in sorted(bias.entries.items())
        ]
        doc["fallback"] = bias.fallback.values.tolist()
    return json.dumps(doc)


def bias_from_json(text: str) -> tuple[BiasSpec, Bias]:
    """Parse :func:`bias_to_json` output; a pair table's ``entries`` must be a
    list of ``[s, o, values]`` with ``values`` as long as the fallback."""
    doc = json.loads(text)
    spec = BiasSpec.from_dict(doc, extra=("values", "entries", "fallback"))
    if "values" in doc:
        return spec, BiasVector(np.asarray(doc["values"], dtype=np.float64))
    fallback = BiasVector(np.asarray(doc["fallback"], dtype=np.float64))
    raw = doc["entries"]
    if not isinstance(raw, list):
        raise ValueError("bias entries must be a list of [s, o, values]")
    entries = {}
    for i, entry in enumerate(raw):
        s, o, values = entry if isinstance(entry, list) and len(entry) == 3 else (None,) * 3
        if not (isinstance(s, int) and isinstance(o, int)):
            raise ValueError(f"bias entry {i} is not [s, o, values]")
        try:
            vec = BiasVector(np.asarray(values, dtype=np.float64))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bias entry {i} for class pair {(s, o)}: {exc}") from None
        if vec.values.shape != fallback.values.shape:
            raise ValueError(
                f"bias entry {i} for class pair {(s, o)} has {len(vec.values)} values; "
                f"the fallback has {len(fallback.values)}"
            )
        entries[(s, o)] = vec
    return spec, PairBiasTable(entries=entries, fallback=fallback)
