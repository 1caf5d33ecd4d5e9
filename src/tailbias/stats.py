"""Triplet annotation statistics.

Counts are one dense ``(L_e, L_e, L + 1)`` int64 tensor, indexed
``[subject_class, object_class, relation]``, from which every marginal and
pair lookup is read. Object classes are ``0..num_object_classes-1``.
Relation labels are ``1..num_relations`` (label 0 is the background slot of
downstream logit vectors and never appears in annotations), so every count
vector returned here has length ``num_relations + 1`` and is indexed directly
by relation label, with index 0 permanently zero. The JSON form lists the
nonzero cells as ``[s, o, r, n]`` entries in ``(s, o, r)`` order.

Every file the package reads goes through :func:`read_json` or
:func:`read_jsonl`, which raise each fault as a ``ValueError`` naming the file,
and each list of numbers in it through :func:`read_numbers`; every file it
writes goes through :func:`write_text`. A config's types are checked by
:func:`from_dict`, its :func:`ruled` values by :func:`check_fields`;
:func:`read_config` reads a config document by both.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from itertools import chain
from numbers import Integral, Real
from types import UnionType
from typing import Callable, ClassVar, Iterable, Mapping, get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "from_dict",
    "ruled",
    "check_fields",
    "check_value",
    "LabelSpace",
    "TripletStats",
    "ingest",
    "marginal_counts",
    "pair_counts",
    "sppo_counts",
    "refuse_first",
    "flagged",
    "read_json",
    "write_text",
    "read_config",
    "read_jsonl",
    "read_numbers",
    "read_triplets_jsonl",
    "stats_to_json",
    "stats_from_json",
]


def _is_int64(value) -> bool:
    # Testing ``type(value) is int`` first spares the slow ABC check for most values.
    integral = type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)
    return integral and -(2**63) <= value < 2**63


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _is_name_pair(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(
        isinstance(v, str) for v in value)


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


# What a config field of each annotation must hold, the test its value (each
# item, for a tuple) must pass, and the cast it is stored by.
_FIELD_RULES = {
    int: ("an integer", lambda v: isinstance(v, Integral) and not isinstance(v, bool), int),
    float: ("a number", _is_real, _float),
    bool: ("a boolean", lambda v: isinstance(v, bool), bool),
    str: ("a string", lambda v: isinstance(v, str), str),
    tuple[int, ...]: ("a list of 64-bit integers", _is_int64, tuple),
    tuple[str, ...]: ("a list of strings", lambda v: isinstance(v, str), tuple),
    tuple[tuple[str, str], ...]: (
        "a list of [name, path] string pairs", _is_name_pair, lambda v: tuple(map(tuple, v))),
}


def from_dict(cls, d: Mapping, extra: Iterable[str] = (), where: str | None = None):
    """The config dataclass ``cls`` read from the mapping ``d``.

    Each field present in ``d`` is read by its annotation: a nested config
    dataclass from its own mapping, ``X | None`` as ``None`` or ``X``, and
    every other annotation by its :data:`_FIELD_RULES` entry, a float as a
    finite float. A field left out takes its default. ``ValueError`` names
    ``where`` (by default ``cls.config_name``, and a nested section's
    ``config_name`` or ``config section '<key>'``) when ``d`` is no mapping,
    has a key that is neither a field nor in ``extra``, lacks a field
    without a default, or holds a value its field's rule refuses. A nested
    section's own refusal (a :func:`ruled` rule, say) starts ``"<where>: "``."""
    return cls(**_read_fields(cls, d, extra, where or getattr(cls, "config_name", cls.__name__)))


def _read_fields(cls, d: Mapping, extra: Iterable[str], where: str) -> dict:
    """The fields present in ``d``, each read by :func:`_field`, for :func:`from_dict`."""
    if not isinstance(d, Mapping):
        raise ValueError(f"{where} must be an object")
    known = {f.name: f for f in fields(cls)}
    unknown = [key for key in d if key not in known and key not in extra]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")
    for name, f in known.items():
        if name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing key {name!r} in {where}")
    hints = get_type_hints(cls)
    return {key: _field(hints[key], d[key], where, key) for key in known if key in d}


def _field(annotation, value, where: str, key: str):
    """``value`` read as a ``key`` field of ``annotation`` for :func:`from_dict`."""
    if is_dataclass(annotation):
        name = getattr(annotation, "config_name", f"config section {key!r}")
        read = _read_fields(annotation, value, (), name)
        try:
            return annotation(**read)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    if get_origin(annotation) is UnionType:  # X | None
        return None if value is None else _field(get_args(annotation)[0], value, where, key)
    what, test, cast = _FIELD_RULES[annotation]
    if get_origin(annotation) is tuple:
        valid = isinstance(value, (list, tuple)) and all(map(test, value))
    else:
        valid = test(value)
    if not valid:
        raise ValueError(f"{where} key {key!r} must be {what}")
    value = cast(value)
    if annotation is float and not math.isfinite(value):
        raise ValueError(f"{where} key {key!r} must be a finite number")
    return value


# The sign of each bound of a rule, whose test is the ``operator`` of its name.
_SIGNS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}


def ruled(default=MISSING, **rule):
    """A config field of ``default`` (required if none) with the metadata
    ``rule``: bounds ``ge``, ``gt``, ``le``, ``lt``, or a tuple of ``choices``."""
    return field(default=default, metadata=rule)


def check_value(key: str, value, choices: tuple | None = None, **bounds) -> None:
    """Raise ``ValueError`` naming ``key`` when ``value`` is not one of
    ``choices`` (``kind must be one of 'a', 'b', not 'c'``) or breaks one of
    the :func:`ruled` ``bounds`` (``d_model must be >= 1``), or when it is a
    float outside the finite numbers and has bounds (``a must be a finite
    number``), as :func:`from_dict` refuses NaN and ±inf by their key."""
    if choices is not None and value not in choices:
        raise ValueError(f"{key} must be one of {', '.join(map(repr, choices))}, not {value!r}")
    if bounds and isinstance(value, float | np.floating) and not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number")
    for end, bound in bounds.items():
        if not getattr(operator, end)(value, bound):
            raise ValueError(f"{key} must be {_SIGNS[end]} {bound}")


def check_fields(config) -> None:
    """:func:`check_value` of each field of ``config`` by its :func:`ruled` rule;
    every config's ``__post_init__`` calls it, so :func:`from_dict`, direct
    construction and ``dataclasses.replace`` meet the same rules."""
    for f in fields(config):
        check_value(f.name, getattr(config, f.name), **f.metadata)


@dataclass(frozen=True)
class LabelSpace:
    """Sizes and names of the object-class and relation label sets."""

    config_name: ClassVar[str] = "label space"
    num_object_classes: int = ruled(ge=1)
    num_relations: int = ruled(ge=1)
    object_names: tuple[str, ...] = ()
    relation_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.object_names:
            names = tuple(f"obj_{i}" for i in range(self.num_object_classes))
            object.__setattr__(self, "object_names", names)
        if not self.relation_names:
            names = tuple(f"rel_{r}" for r in range(1, self.num_relations + 1))
            object.__setattr__(self, "relation_names", names)
        for key, size in (("object_names", "num_object_classes"),
                          ("relation_names", "num_relations")):
            names = getattr(self, key)
            if len(names) != getattr(self, size):
                raise ValueError(f"{key} length must equal {size}")
            if len(set(names)) != len(names):
                raise ValueError(f"{key} must be unique")

    def relation_name(self, relation: int) -> str:
        """Name of foreground relation label ``relation`` (1-based)."""
        return self.relation_names[relation - 1]


@dataclass(eq=False)
class TripletStats:
    """Immutable multiset of annotated ``(s, o, relation)`` triplets.

    Built through :func:`ingest`; treat instances as read-only. ``dense`` is
    the ``(L_e, L_e, L + 1)`` int64 count tensor, indexed ``[s, o, relation]``
    and zero at relation 0; ``total`` is its sum.
    """

    label_space: LabelSpace
    dense: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        shape, d = _shape(self.label_space), self.dense
        if d.shape != shape or d.dtype != np.int64 or (d < 0).any() or d[..., 0].any():
            raise ValueError(f"counts must be an int64 {shape} tensor, >= 0 and 0 at relation 0")

    @property
    def total(self) -> int:
        return int(self.dense.sum())


def _shape(ls: LabelSpace) -> tuple[int, int, int]:
    return (ls.num_object_classes, ls.num_object_classes, ls.num_relations + 1)


def refuse_first(checks: list[tuple[np.ndarray, Callable[[int], str]]], what: str | None) -> None:
    """Raise ``ValueError`` naming ``what`` (if any) and the first row any ``(mask,
    message)`` check flags, with ``message(row)`` of its first failed check;
    the error's ``row`` attribute is that row."""
    if any(mask.any() for mask, _ in checks):
        bad = np.stack([mask for mask, _ in checks])
        i = int(np.argmax(bad.any(axis=0)))
        message = checks[int(np.argmax(bad[:, i]))][1](i)
        refusal = ValueError(message if what is None else f"{what} {i}: {message}")
        refusal.row = i
        raise refusal


def flagged(row_of: np.ndarray, bad: np.ndarray, rows: int) -> np.ndarray:
    """Whether each of ``rows`` rows owns a ``bad`` element, element ``j``
    belonging to row ``row_of[j]``: a :func:`refuse_first` mask."""
    return np.bincount(row_of[bad], minlength=rows) > 0


def _range_checks(keys: np.ndarray, ls: LabelSpace) -> list:
    """:func:`refuse_first` checks of ``(s, o, relation)`` rows against ``ls``."""
    ne, nr = ls.num_object_classes, ls.num_relations
    s, o, r = keys.T
    return [
        ((s < 0) | (s >= ne), lambda i: f"subject class {s[i]} out of range [0, {ne})"),
        ((o < 0) | (o >= ne), lambda i: f"object class {o[i]} out of range [0, {ne})"),
        ((r < 1) | (r > nr), lambda i: f"relation {r[i]} out of range [1, {nr}]"),
    ]


def _count(keys: np.ndarray, ls: LabelSpace, counts=1) -> np.ndarray:
    """The dense count tensor of ``(s, o, relation)`` rows inside ``ls``."""
    dense = np.zeros(_shape(ls), dtype=np.int64)
    np.add.at(dense, tuple(keys.T), counts)
    return dense


def ingest(records: Iterable[tuple[int, int, int]], label_space: LabelSpace) -> TripletStats:
    """Accumulate a stream of ``(s, o, relation)`` triplets into counts.

    Raises ValueError naming the offending stream position when a record is
    not three 64-bit integers or falls outside ``label_space``.
    """
    keys, bad = read_numbers(list(records), np.int64, 3)
    refuse_first([(bad, lambda i: "not three 64-bit integers (s, o, relation)")]
                 + _range_checks(keys, label_space), "record")
    return TripletStats(label_space, _count(keys, label_space))


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


def _loads(text: str, what: str):
    """``json.loads(text)``; a document nested too deeply for the parser
    raises ``ValueError`` naming ``what``, as a malformed one does."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} nests too deeply to read") from None


def _parsed(where: str, parse: Callable, raw: bytes):
    """``parse`` of ``raw`` decoded as UTF-8; a bad byte, or a ``KeyError``,
    ``TypeError``, ``ValueError`` (bad JSON is one), ``OverflowError`` or
    ``RecursionError`` of ``parse``, raises ``ValueError`` starting ``"<where>: "``."""
    try:
        return parse(raw.decode("utf-8"))
    except KeyError as exc:
        raise ValueError(f"{where}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_json(path: str, parse: Callable):
    """``parse`` of the text of the one-document file ``path``, faults named
    by :func:`_parsed` as ``"<path>: "``."""
    with open(path, "rb") as fh:
        return _parsed(path, parse, fh.read())


def write_text(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, a ``str`` or ``str`` chunks in turn, to ``path`` as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines((text,) if isinstance(text, str) else text)


def read_config(cls, path: str):
    """The ``cls`` config document at ``path``, read by :func:`from_dict` under
    :func:`read_json`'s rule."""
    return read_json(path, lambda text: from_dict(cls, json.loads(text)))


def read_jsonl(path: str, parse: Callable, gather: Callable = list):
    """``gather`` of the list of ``parse`` of each nonblank line's JSON document,
    lines ending at ``\\n``; a fault of a line (see :func:`_parsed`), or a
    :func:`refuse_first` refusal of document ``i`` by ``gather``, raises
    ``ValueError`` starting ``"<path>:<line>: "``."""
    out, lines = [], []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                out.append(_parsed(f"{path}:{line_no}", lambda text: parse(json.loads(text)), line))
                lines.append(line_no)
    try:
        return gather(out)
    except ValueError as exc:
        if not hasattr(exc, "row"):
            raise
        raise ValueError(f"{path}:{lines[exc.row]}: {exc}") from None


# Per dtype: the exact types of the fast path, the test of each value, its cast.
_NUMBERS = {np.int64: ({int}, _is_int64, int), np.float64: ({int, float}, _is_real, _float)}


def read_numbers(values, dtype, width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The decoded JSON list ``values`` as a ``dtype`` array and the mask of
    its bad items, read as zeros: with no ``width`` an item must be a number,
    with one a list of ``width`` numbers (``-1``: as many as item 0's). An
    int64 number is an integer in its range; a float64 one an integer or float,
    an integer beyond the float range reading as ``±inf`` as ``1e400`` does. A
    bool, string or null is none. ``values`` that is no list raises ``ValueError``."""
    if not isinstance(values, list):
        raise ValueError(f"{type(values).__name__} where a list of numbers belongs")
    exact, is_number, cast = _NUMBERS[dtype]
    if width is not None and width < 0:
        width = len(values[0]) if values and isinstance(values[0], (list, tuple)) else 0
    shape = (len(values),) if width is None else (len(values), width)
    try:  # a number for a row, a row of another length or a huge integer takes the slow path
        if set(map(type, values if width is None else chain.from_iterable(values))) <= exact:
            return np.array(values, dtype).reshape(shape), np.zeros(len(values), dtype=bool)
    except (TypeError, ValueError, OverflowError):
        pass
    if width is None:
        good = [cast(v) if is_number(v) else None for v in values]
    else:
        good = [list(map(cast, row)) if isinstance(row, (list, tuple)) and len(row) == width
                and all(map(is_number, row)) else None for row in values]
    bad = np.array([v is None for v in good], dtype=bool)
    zero = 0 if width is None else [0] * width
    return np.array([zero if v is None else v for v in good], dtype).reshape(shape), bad


def _triplet(doc) -> tuple[int, int, int]:
    if not isinstance(doc, Mapping):
        raise ValueError("a triplet record must be an object")
    for key in ("s", "o", "r"):
        if not _is_int64(doc[key]):
            raise ValueError(f"key {key!r} must be a 64-bit integer")
    return doc["s"], doc["o"], doc["r"]


def read_triplets_jsonl(path: str) -> list[tuple[int, int, int]]:
    """Read annotation records, one JSON object ``{"s":…,"o":…,"r":…}`` of
    64-bit integers per line; a malformed line is named as in :func:`read_jsonl`."""
    return read_jsonl(path, _triplet)


def stats_to_json(stats: TripletStats) -> str:
    """Serialize to a single JSON document, counts in ``(s, o, relation)`` order."""
    keys = np.argwhere(stats.dense)
    entries = np.column_stack([keys, stats.dense[tuple(keys.T)]]).tolist()
    return json.dumps({"label_space": asdict(stats.label_space), "counts": entries})


def stats_from_json(text: str) -> TripletStats:
    """Parse :func:`stats_to_json` output.

    Every ``counts`` entry must be four integers ``[s, o, r, n]`` with
    ``(s, o, r)`` inside the label space, ``n >= 1`` and no ``(s, o, r)``
    repeated, or ``ValueError`` names the entry's index. Text that is no
    JSON document, or one nested too deeply to read, raises ``ValueError``.
    """
    doc = _loads(text, "statistics file")
    if not (isinstance(doc, Mapping) and isinstance(doc.get("counts"), list)):
        raise ValueError("statistics must be an object with a list of [s, o, r, n] counts")
    ls = from_dict(LabelSpace, doc.get("label_space"))
    table, bad = read_numbers(doc["counts"], np.int64, 4)
    keys, n = table[:, :3], table[:, 3]
    # Row-major cell; a row out of range is named before a repeat it may fake.
    cell = (keys[:, 0] * ls.num_object_classes + keys[:, 1]) * (ls.num_relations + 1) + keys[:, 2]
    repeat = np.ones(len(cell), dtype=bool)
    repeat[np.unique(cell, return_index=True)[1]] = False
    refuse_first([(bad, lambda i: "not four 64-bit integers [s, o, r, n]")]
                 + _range_checks(keys, ls) + [
        (n < 1, lambda i: f"count {n[i]} must be >= 1"),
        (repeat, lambda i: f"repeats the (s, o, r) of entry {np.argmax(cell == cell[i])}"),
    ], "statistics entry")
    return TripletStats(ls, _count(keys, ls, n))
