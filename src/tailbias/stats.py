"""Triplet annotation statistics.

Counts are kept as a sparse map ``(subject_class, object_class, relation)
-> n`` and, filled once from it, as one dense ``(L_e, L_e, L + 1)`` tensor
from which every marginal and pair lookup is read. Object classes are
``0..num_object_classes-1``. Relation labels are
``1..num_relations`` (label 0 is the background slot of downstream logit
vectors and never appears in annotations), so every count vector returned here
has length ``num_relations + 1`` and is indexed directly by relation label,
with index 0 permanently zero.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from numbers import Integral, Real
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "check_keys",
    "LabelSpace",
    "TripletStats",
    "ingest",
    "marginal_counts",
    "pair_counts",
    "sppo_counts",
    "read_triplets_jsonl",
    "stats_to_json",
    "stats_from_json",
]


# What :func:`check_keys` requires of a scalar field, and the types that pass.
_SCALARS = {
    "int": ("an integer", Integral),
    "float": ("a number", Real),
    "bool": ("a boolean", bool),
    "str": ("a string", str),
}


def check_keys(d: Mapping, cls, where: str, extra: Iterable[str] = ()) -> None:
    """Raise ``ValueError`` naming ``where`` unless ``d`` is a mapping with every
    field of the dataclass ``cls`` that has no default, no other key but
    ``extra``, and a value of its type (not a bool for a number) in each scalar field."""
    if not isinstance(d, Mapping):
        raise ValueError(f"{where} must be an object")
    known = {f.name: f for f in fields(cls)}
    unknown = [key for key in d if key not in known and key not in extra]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")
    for name, f in known.items():
        if name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing key {name!r} in {where}")
    for key in (name for name in known if name in d):
        annotation, value = str(known[key].type), d[key]
        what, types = _SCALARS.get(annotation.removesuffix(" | None"), (None, None))
        if what is None or (value is None and annotation.endswith(" | None")):
            continue
        if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
            raise ValueError(f"{where} key {key!r} must be {what}")


@dataclass(frozen=True)
class LabelSpace:
    """Sizes and names of the object-class and relation label sets."""

    num_object_classes: int
    num_relations: int
    object_names: tuple[str, ...] = ()
    relation_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.num_object_classes < 1:
            raise ValueError("num_object_classes must be >= 1")
        if self.num_relations < 1:
            raise ValueError("num_relations must be >= 1")
        if not self.object_names:
            object.__setattr__(
                self,
                "object_names",
                tuple(f"obj_{i}" for i in range(self.num_object_classes)),
            )
        if not self.relation_names:
            object.__setattr__(
                self,
                "relation_names",
                tuple(f"rel_{r}" for r in range(1, self.num_relations + 1)),
            )
        if len(self.object_names) != self.num_object_classes:
            raise ValueError("object_names length must equal num_object_classes")
        if len(self.relation_names) != self.num_relations:
            raise ValueError("relation_names length must equal num_relations")
        if len(set(self.object_names)) != len(self.object_names):
            raise ValueError("object_names must be unique")
        if len(set(self.relation_names)) != len(self.relation_names):
            raise ValueError("relation_names must be unique")

    def relation_name(self, relation: int) -> str:
        """Name of foreground relation label ``relation`` (1-based)."""
        return self.relation_names[relation - 1]

    def to_dict(self) -> dict:
        return {
            "num_object_classes": self.num_object_classes,
            "num_relations": self.num_relations,
            "object_names": list(self.object_names),
            "relation_names": list(self.relation_names),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "LabelSpace":
        check_keys(d, cls, "label space")
        return cls(
            num_object_classes=int(d["num_object_classes"]),
            num_relations=int(d["num_relations"]),
            object_names=tuple(d.get("object_names", ())),
            relation_names=tuple(d.get("relation_names", ())),
        )


@dataclass
class TripletStats:
    """Immutable multiset of annotated ``(s, o, relation)`` triplets.

    Built through :func:`ingest`; treat instances as read-only. ``counts``
    stores only strictly positive entries and ``total`` equals their sum.
    """

    label_space: LabelSpace
    counts: dict[tuple[int, int, int], int]
    total: int
    dense: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ls = self.label_space
        for (s, o, r), n in self.counts.items():
            if n <= 0:
                raise ValueError(f"stored count for {(s, o, r)} must be positive")
            _check_key(s, o, r, ls)
        if self.total != sum(self.counts.values()):
            raise ValueError("total does not match the sum of stored counts")
        ne = ls.num_object_classes
        self.dense = np.zeros((ne, ne, ls.num_relations + 1), dtype=np.int64)
        keys = np.array(list(self.counts), dtype=np.int64).reshape(-1, 3)
        self.dense[keys[:, 0], keys[:, 1], keys[:, 2]] = list(self.counts.values())


def _check_key(s: int, o: int, r: int, ls: LabelSpace) -> None:
    if not 0 <= s < ls.num_object_classes:
        raise ValueError(f"subject class {s} out of range [0, {ls.num_object_classes})")
    if not 0 <= o < ls.num_object_classes:
        raise ValueError(f"object class {o} out of range [0, {ls.num_object_classes})")
    if not 1 <= r <= ls.num_relations:
        raise ValueError(f"relation {r} out of range [1, {ls.num_relations}]")


def ingest(
    records: Iterable[tuple[int, int, int]], label_space: LabelSpace
) -> TripletStats:
    """Accumulate a stream of ``(s, o, relation)`` triplets into counts.

    Raises ValueError naming the offending stream position when a record falls
    outside ``label_space``.
    """
    counts: dict[tuple[int, int, int], int] = {}
    total = 0
    for pos, (s, o, r) in enumerate(records):
        try:
            _check_key(s, o, r, label_space)
        except ValueError as exc:
            raise ValueError(f"record {pos}: {exc}") from None
        key = (int(s), int(o), int(r))
        counts[key] = counts.get(key, 0) + 1
        total += 1
    return TripletStats(label_space=label_space, counts=counts, total=total)


def marginal_counts(stats: TripletStats) -> tuple[np.ndarray, np.ndarray]:
    """Per-relation sample counts and distinct valid-pair counts.

    Returns ``(relation_counts, valid_pair_counts)``, both of length
    ``num_relations + 1`` and indexed by relation label (index 0 unused).
    ``relation_counts[i]`` sums every annotation of relation ``i``;
    ``valid_pair_counts[i]`` counts the distinct ordered class pairs observed
    with relation ``i`` at least once, regardless of multiplicity.
    """
    return stats.dense.sum(axis=(0, 1)), (stats.dense > 0).sum(axis=(0, 1))


def pair_counts(stats: TripletStats, s, o) -> np.ndarray:
    """Counts of each relation observed for the ordered class pair ``(s, o)``.

    ``s`` and ``o`` may be equal-shaped index arrays; the result then has
    their shape plus a trailing relation axis.
    """
    _check_pair(stats, s, o)
    return stats.dense[s, o].copy()


def sppo_counts(stats: TripletStats, s, o) -> np.ndarray:
    """Geometric-mean estimate of per-relation counts for the pair ``(s, o)``.

    Entry ``i`` is ``sqrt(subject_marginal[s, i] * object_marginal[o, i])``:
    zero exactly when relation ``i`` was never seen with subject ``s`` or never
    seen with object ``o``. Index arrays work as in :func:`pair_counts`.
    """
    _check_pair(stats, s, o)
    subject_side = stats.dense.sum(axis=1).astype(np.float64)
    object_side = stats.dense.sum(axis=0).astype(np.float64)
    return np.sqrt(subject_side[s] * object_side[o])


def _check_pair(stats: TripletStats, s, o) -> None:
    ne = stats.label_space.num_object_classes
    for side, idx in (("subject", s), ("object", o)):
        if not np.all((np.asarray(idx) >= 0) & (np.asarray(idx) < ne)):
            raise ValueError(f"{side} class {idx} out of range [0, {ne})")


def read_triplets_jsonl(path: str) -> list[tuple[int, int, int]]:
    """Read annotation records, one JSON object ``{"s":…,"o":…,"r":…}`` per line."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            out.append((int(rec["s"]), int(rec["o"]), int(rec["r"])))
    return out


def stats_to_json(stats: TripletStats) -> str:
    """Serialize to a single JSON document with deterministically ordered counts."""
    entries = [[s, o, r, n] for (s, o, r), n in sorted(stats.counts.items())]
    doc = {"label_space": stats.label_space.to_dict(), "counts": entries}
    return json.dumps(doc)


def stats_from_json(text: str) -> TripletStats:
    doc = json.loads(text)
    ls = LabelSpace.from_dict(doc["label_space"])
    counts = {(int(s), int(o), int(r)): int(n) for s, o, r, n in doc["counts"]}
    return TripletStats(label_space=ls, counts=counts, total=sum(counts.values()))
