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
yield one global vector; ``pb``/``eb`` a :class:`PairBiasTable` of dense
``(L_e, L_e, C)`` rows, uniform where a class pair has no weight.
:func:`bias_table` gives either as such an array, to gather rows at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import ClassVar, Union

import numpy as np

from .stats import (
    TripletStats,
    _loads,
    check_fields,
    from_dict,
    marginal_counts,
    pair_counts,
    read_numbers,
    refuse_first,
    ruled,
    sppo_counts,
)

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

    config_name: ClassVar[str] = "bias spec"
    kind: str = ruled(choices=GLOBAL_KINDS + PAIR_KINDS)
    a: float = ruled(1.0, ge=0)
    epsilon: float = ruled(0.0, ge=0, le=1)
    a_eval: float = 0.0
    background: float | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 <= self.a_eval <= self.a:
            raise ValueError(f"a_eval {self.a_eval} must lie in [0, a], a = {self.a}")


@dataclass(frozen=True)
class BiasVector:
    """Length ``num_relations + 1`` bias values; index 0 is the background slot."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.shape[0] < 2:
            raise ValueError("bias vector must be 1-D with a background slot")
        _check_finite(values)

    @property
    def foreground(self) -> np.ndarray:
        return self.values[1:]

    @property
    def background(self) -> float:
        return float(self.values[0])


@dataclass(frozen=True)
class PairBiasTable:
    """Per-(subject class, object class) bias rows: ``rows[s, o]`` is the pair's
    own row where ``stored[s, o]`` and the fallback's values elsewhere. ``rows``
    must be finite and is made read-only, as :func:`bias_table` shares it."""

    rows: np.ndarray  # (L_e, L_e, C) float64
    stored: np.ndarray  # (L_e, L_e) bool
    fallback: BiasVector

    def __post_init__(self) -> None:
        _check_finite(self.rows)
        self.rows.flags.writeable = False

    @cached_property
    def entries(self) -> dict[tuple[int, int], BiasVector]:
        """Views of the stored rows keyed by ``(s, o)``, in row-major order."""
        pairs = np.argwhere(self.stored).tolist()
        return {(s, o): BiasVector(self.rows[s, o]) for s, o in pairs}


Bias = Union[BiasVector, PairBiasTable]


def _check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("bias vector has non-finite entries; raise epsilon or drop "
                         "zero-weight relations")


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


def _build(spec: BiasSpec, stats: TripletStats, a: float) -> Bias:
    ls = stats.label_space
    n_rel = ls.num_relations
    background = math.log(1.0 / n_rel) if spec.background is None else spec.background

    if spec.kind in GLOBAL_KINDS:
        relation, valid = marginal_counts(stats)
        w = relation[1:] if spec.kind == "cb" else valid[1:]
        if a > 0 and w.sum() == 0:
            raise ValueError(f"{spec.kind} bias needs nonempty statistics when a > 0")
        return BiasVector(np.append(background, weights_to_bias(w, a, spec.epsilon)))

    # One weight row per ordered class pair. eb estimates a distribution for
    # every pair whose side marginals intersect, including pairs never
    # annotated together; a pair with no weight falls back to uniform.
    subjects, objects = np.indices((ls.num_object_classes,) * 2)
    weight_fn = pair_counts if spec.kind == "pb" else sppo_counts
    weights = weight_fn(stats, subjects, objects)[..., 1:]
    stored = weights.sum(axis=-1) > 0
    uniform = BiasVector(np.append(background, weights_to_bias(np.ones(n_rel), a, spec.epsilon)))
    rows = np.tile(uniform.values, (*stored.shape, 1))
    rows[stored, 1:] = weights_to_bias(weights[stored], a, spec.epsilon)
    return PairBiasTable(rows=rows, stored=stored, fallback=uniform)


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
    pair as a read-only view, and a pair table of ``num_object_classes``
    classes is its own read-only ``rows``. A smaller table, as read from a
    file, is padded with its fallback row; a stored pair outside
    ``num_object_classes`` raises ``ValueError``.
    """
    n = num_object_classes
    if isinstance(bias, BiasVector):
        return np.broadcast_to(bias.values, (n, n, bias.values.shape[0]))
    size = len(bias.stored)
    if size == n:
        return bias.rows
    outside = [pair for pair in bias.entries if max(pair) >= n]
    if outside:
        raise ValueError(f"bias entry for class pair {outside[0]} outside {n} object classes")
    table = np.tile(bias.fallback.values, (n, n, 1))
    table[:size, :size] = bias.rows[:n, :n]
    return table


def bias_to_json(spec: BiasSpec, bias: Bias) -> str:
    doc: dict = asdict(spec)
    if isinstance(bias, BiasVector):
        doc["values"] = bias.values.tolist()
    else:
        doc["entries"] = [[s, o, vec.values.tolist()] for (s, o), vec in bias.entries.items()]
        doc["fallback"] = bias.fallback.values.tolist()
    return json.dumps(doc)


def bias_from_json(text: str, num_object_classes: int | None = None) -> tuple[BiasSpec, Bias]:
    """Parse :func:`bias_to_json` output; a pair table spans classes up to the
    largest. ``ValueError`` names ``values`` or ``fallback`` unless it is two
    or more finite numbers, and the first of a pair table's ``entries`` that
    is no ``[s, o, values]`` with classes ``s, o >= 0`` (below
    ``num_object_classes``, if given), the fallback's number of finite values
    and an ``(s, o)`` of its own. Text that is no JSON document, or one nested
    too deeply to read, raises ``ValueError``."""
    doc = _loads(text, "bias file")
    spec = from_dict(BiasSpec, doc, extra=("values", "entries", "fallback"))
    pair = spec.kind in PAIR_KINDS
    key = "fallback" if pair else "values"
    for k in ("entries", key) if pair else (key,):
        if k not in doc:
            raise ValueError(f"missing key {k!r} in bias file")
    raw = doc["entries"] if pair else []
    if not isinstance(raw, list):
        raise ValueError("bias entries must be a list of [s, o, values]")
    entries = [e if isinstance(e, list) and len(e) == 3 else [None] * 3 for e in raw]
    # Row 0 is the key's vector, and an entry's values must be as long.
    rows, bad_rows = read_numbers([doc[key]] + [e[2] for e in entries], np.float64, -1)
    bad_rows |= ~np.isfinite(rows).all(axis=1)
    if bad_rows[0] or rows.shape[1] < 2:
        raise ValueError(f"bias key {key!r} must be a list of two or more finite numbers")
    fallback = BiasVector(rows[0])
    if not pair:
        return spec, fallback
    pairs, bad_pairs = read_numbers([e[:2] for e in entries], np.int64, 2)
    limit = math.inf if num_object_classes is None else num_object_classes
    repeat = np.ones(len(pairs), dtype=bool)
    repeat[np.unique(pairs, axis=0, return_index=True)[1]] = False

    def entry(i: int) -> str:
        return f"bias entry {i} for class pair {tuple(pairs[i].tolist())}"

    refuse_first([
        (bad_pairs | (pairs < 0).any(axis=1),
         lambda i: f"bias entry {i} is not [s, o, values] with classes s, o >= 0"),
        ((pairs >= limit).any(axis=1), lambda i: f"{entry(i)} outside {limit} object classes"),
        (bad_rows[1:],
         lambda i: f"{entry(i)} needs {rows.shape[1]} finite numbers, as many as the fallback"),
        (repeat, lambda i: f"{entry(i)} repeats entry {np.argmax((pairs == pairs[i]).all(1))}"),
    ], None)
    size = 1 + int(pairs.max(initial=-1))
    table, stored = np.tile(rows[0], (size, size, 1)), np.zeros((size, size), dtype=bool)
    table[tuple(pairs.T)], stored[tuple(pairs.T)] = rows[1:], True
    return spec, PairBiasTable(rows=table, stored=stored, fallback=fallback)
