"""Deterministic synthetic scene-graph data with a long-tailed relation prior.

A seeded world model fixes per-class object feature prototypes, per-relation
union-feature prototypes, and a pair-conditional relation table whose marginal
over uniformly sampled class pairs matches the Zipf target up to quantization
(each table row mixes the Zipf prior with a one-hot pair preference; the
preferences are quota-allocated to follow the same Zipf law). Images then
sample objects, assign foreground relations to a fixed fraction of ordered
pairs, and emit noisy features.

Randomness: every stream is a ``numpy`` PCG64 generator keyed by
``SeedSequence(seed, spawn_key=(domain, index))``. Domain 0 is the world;
domains 1/2/3 are the train/val/test splits with one child per image index.
PCG64 output for a given seed is platform-independent, and splits never share
a stream, so regenerating any single split reproduces it bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar, Iterator, NamedTuple, Sequence

import numpy as np

from .stats import (
    LabelSpace, check_fields, check_value, flagged, read_jsonl, read_numbers, refuse_first, ruled,
    write_text,
)

__all__ = [
    "SynthConfig",
    "SynthImage",
    "Objects",
    "Images",
    "all_ordered_pairs",
    "World",
    "zipf_weights",
    "build_world",
    "generate_split",
    "images_to_jsonl",
    "write_images_jsonl",
    "read_images_jsonl",
]

WORLD_DOMAIN = 0
SPLIT_DOMAINS = {"train": 1, "val": 2, "test": 3}


@dataclass(frozen=True)
class SynthConfig:
    config_name: ClassVar[str] = "synth config"
    label_space: LabelSpace
    num_train: int = ruled(ge=0)
    num_val: int = ruled(ge=0)
    num_test: int = ruled(ge=0)
    zipf_s: float = ruled(1.5, ge=0)
    objects_min: int = ruled(4, ge=2)
    objects_max: int = 6
    d_v: int = ruled(16, ge=1)
    noise_sigma: float = ruled(0.3, gt=0)
    background_fraction: float = ruled(0.7, ge=0, lt=1)
    detector_sharpness: float = ruled(4.0, ge=0)
    detector_noise: float = ruled(0.5, ge=0)
    seed: int = ruled(0, ge=0)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.objects_max < self.objects_min:
            raise ValueError("objects_max must be >= objects_min")


def all_ordered_pairs(n: int) -> np.ndarray:
    """The ``(n(n-1), 2)`` ordered pairs ``(s, o)``, ``s != o``, subjects first."""
    return np.argwhere(~np.eye(n, dtype=bool))


class Objects(NamedTuple):
    """The object rows a model reads: ``boxes`` ``(..., n, 4)``, ``features``
    ``(..., n, d_v)``, ``labels`` ``(..., n)`` and detector ``scores`` ``(..., n,
    L_e)``, with an optional leading bucket axis ``B``."""

    boxes: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    scores: np.ndarray


@dataclass
class SynthImage:
    """One image's unchecked JSONL record: ``boxes`` ``(n, 4)`` as ``[x1, y1, x2, y2]``,
    ``features`` ``(n, d_v)``, ``labels`` ``(n,)``, detector ``scores`` ``(n, L_e)``,
    ``unions`` ``(n(n-1), d_v)`` in :func:`all_ordered_pairs` order, and ``gt``
    ``(m, 3)`` annotated ``(s, o, relation)`` triplets by object index."""

    boxes: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    scores: np.ndarray
    unions: np.ndarray
    gt: np.ndarray


def _offsets(counts) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _ranges(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The ranges ``lo[i], …, lo[i] + n[i] - 1``, concatenated."""
    ends = n.cumsum()
    return (lo - ends + n).repeat(n) + np.arange(ends[-1] if len(ends) else 0)


@dataclass(frozen=True, eq=False)
class Images:
    """A split packed by :meth:`pack`: image ``i``'s record is object rows
    ``obj_start[i]:obj_start[i + 1]``, union rows ``pair_start[i]:…`` and int64
    ``gt`` rows ``gt_start[i]:…`` (object indices local to the image).
    ``split[a:b]`` is a split of views, offsets rebased; ``split[i]`` a record."""

    boxes: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    scores: np.ndarray
    obj_start: np.ndarray
    unions: np.ndarray
    gt: np.ndarray
    gt_start: np.ndarray
    pair_start: np.ndarray

    def __len__(self) -> int:
        return len(self.obj_start) - 1

    def __getitem__(self, key: int | slice) -> "SynthImage | Images":
        offsets = (self.obj_start, self.pair_start, self.gt_start)
        if isinstance(key, slice):
            a, b, step = key.indices(len(self))
            if step != 1:
                raise ValueError("a split slices only with step 1")
            o, p, g = (s[a : max(a, b) + 1] for s in offsets)
            return Images(
                *self.objects(slice(o[0], o[-1])),
                obj_start=o - o[0], unions=self.unions[p[0] : p[-1]],
                gt=self.gt[g[0] : g[-1]], gt_start=g - g[0], pair_start=p - p[0],
            )
        i = range(len(self))[key]  # an IndexError past the end ends iteration
        o, p, g = (slice(s[i], s[i + 1]) for s in offsets)
        return SynthImage(*self.objects(o), self.unions[p], self.gt[g])

    def objects(self, rows: np.ndarray | slice) -> Objects:
        """The split's object ``rows``."""
        return Objects(self.boxes[rows], self.features[rows], self.labels[rows], self.scores[rows])

    @classmethod
    def pack(cls, images: Sequence[SynthImage]) -> "Images":
        """Pack records into one split, checked once: ``ValueError`` names the
        first faulty image and its first fault of: ``labels`` not 1-D or
        ``boxes`` not ``(n, 4)``; nonempty ``labels`` not of a 64-bit integer
        type; ``features`` or ``scores`` not ``n`` rows or not as wide as image
        0's; ``unions`` not ``(n(n-1), d_v)``; ``gt`` not ``(m, 3)``; nonempty
        ``gt`` not of a 64-bit integer type; a box not ``0 <= x1 < x2 <= 1``,
        ``0 <= y1 < y2 <= 1``; a score row not summing to 1 within 1e-6; a
        feature or union value that is not finite; a ground-truth triplet with
        an object index out of range or equal subject and object."""
        boxes, features, scores, unions, labels, gt = (
            [np.asarray(getattr(img, name), dtype) for img in images]
            for name, dtype in (("boxes", np.float64), ("features", np.float64),
                                ("scores", np.float64), ("unions", np.float64),
                                ("labels", None), ("gt", None))
        )
        # A float or bool would be truncated by a cast; an empty list is float.
        not_int = [
            np.array([a.size > 0 and (a.dtype == bool or not np.can_cast(a.dtype, np.int64))
                      for a in arrays], dtype=bool)
            for arrays in (labels, gt)
        ]
        labels, gt = (
            [a if bad else a.astype(np.int64, copy=False) for a, bad in zip(arrays, flags)]
            for arrays, flags in zip((labels, gt), not_int)
        )
        gt = [t if t.size else t.reshape(0, 3) for t in gt]

        def shapes(arrays: list, ndim: int) -> np.ndarray:  # -1s for another rank
            rows = [a.shape if a.ndim == ndim else (-1,) * ndim for a in arrays]
            return np.array(rows, dtype=np.int64).reshape(-1, ndim).T

        (n,), (box_rows, box_cols), (feat_rows, width), (score_rows, classes), union_shape = (
            shapes(labels, 1), shapes(boxes, 2), shapes(features, 2), shapes(scores, 2),
            shapes(unions, 2),
        )
        want_unions = np.stack([n * (n - 1), width])
        first = (width[0], classes[0]) if len(images) else (0, 0)
        checks = [
            ((n < 0) | (box_rows != n) | (box_cols != 4),
             lambda i: f"need one label and one 4-number box per object, {n[i]} labels"),
            (not_int[0], lambda i: f"labels of type {labels[i].dtype}, not 64-bit integers"),
            (feat_rows != n, lambda i: f"features need one row per object ({n[i]})"),
            (score_rows != n, lambda i: f"scores need one row per object ({n[i]})"),
            (width != first[0], lambda i: f"{width[i]} feature columns; image 0 has {first[0]}"),
            (classes != first[1],
             lambda i: f"detector scores over {classes[i]} classes; image 0 has {first[1]}"),
            ((union_shape != want_unions).any(axis=0), lambda i: f"unions have shape "
             f"{unions[i].shape}; {n[i]} objects need {tuple(want_unions[:, i].tolist())}"),
            (shapes(gt, 2)[1] != 3, lambda i: f"ground truth has shape {gt[i].shape}, not (m, 3)"),
            (not_int[1], lambda i: f"ground truth of type {gt[i].dtype}, not 64-bit integers"),
        ]
        # Object and pair values of the images of the right shape.
        ok = ~np.any([bad for bad, _ in checks], axis=0)
        box, score, feature, union = (
            np.concatenate([np.zeros((0, cols)), *(a for a, keep in zip(arrays, ok) if keep)])
            for arrays, cols in ((boxes, 4), (scores, max(first[1], 0)),
                                 (features, max(first[0], 0)), (unions, max(first[0], 0)))
        )
        row_image, pair_image = (np.repeat(np.flatnonzero(ok), c[ok]) for c in (n, n * (n - 1)))
        kept_gt = [t for t, keep in zip(gt, ok) if keep]
        triplets = np.concatenate([np.zeros((0, 3), dtype=np.int64), *kept_gt])
        gt_image = np.repeat(np.flatnonzero(ok), [len(t) for t in kept_gt])
        x1, y1, x2, y2 = box.T
        outside = ~((0.0 <= x1) & (x1 < x2) & (x2 <= 1.0) & (0.0 <= y1) & (y1 < y2) & (y2 <= 1.0))
        unnormalised = ~(np.abs(score.sum(axis=1) - 1.0) <= 1e-6)
        bad_feature, bad_union = (~np.isfinite(rows).all(1) for rows in (feature, union))
        s, o, _ = triplets.T
        bad_index = (np.minimum(s, o) < 0) | (np.maximum(s, o) >= n[gt_image])
        bad_pair = bad_index | (s == o)

        def gt_fault(i: int) -> str:
            t = int(np.argmax(bad_pair & (gt_image == i)))
            why = (f"an object index outside 0..{n[i] - 1}" if bad_index[t]
                   else "the same subject and object")
            return f"ground-truth triplet {tuple(triplets[t].tolist())} has {why}"

        m = len(images)
        refuse_first(checks + [
            (flagged(row_image, outside, m), lambda i: "degenerate or unnormalized box "
             f"{box[np.argmax(outside & (row_image == i))].tolist()}"),
            (flagged(row_image, unnormalised, m), lambda i: "detector scores must sum to 1"),
            (flagged(row_image, bad_feature, m), lambda i: "features must be finite"),
            (flagged(pair_image, bad_union, m), lambda i: "unions must be finite"),
            (flagged(gt_image, bad_pair, m), gt_fault),
        ], "image")
        return cls(
            boxes=box, features=feature,
            labels=np.concatenate([np.zeros(0, dtype=np.int64), *labels]), scores=score,
            obj_start=_offsets(n), unions=union,
            gt=np.concatenate([np.zeros((0, 3), dtype=np.int64), *gt]),
            gt_start=_offsets([len(t) for t in gt]), pair_start=_offsets(n * (n - 1)),
        )


@dataclass
class World:
    object_prototypes: np.ndarray  # (L_e, d_v)
    relation_prototypes: np.ndarray  # (L_r + 1, d_v), row 0 all zeros
    relation_table: np.ndarray  # (L_e, L_e, L_r), rows sum to 1
    zipf: np.ndarray  # (L_r,) target marginal over foreground relations


def _rng(seed: int, domain: int, index: int | None = None) -> np.random.Generator:
    key = (domain,) if index is None else (domain, index)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def zipf_weights(num: int, s: float) -> np.ndarray:
    """Normalized weights proportional to ``1 / rank**s`` for ranks 1..num."""
    check_value("num", num, ge=1)
    check_value("s", s, ge=0)
    w = np.arange(1, num + 1, dtype=np.float64) ** (-float(s))
    return w / w.sum()


def build_world(config: SynthConfig) -> World:
    ls = config.label_space
    rng = _rng(config.seed, WORLD_DOMAIN)
    object_prototypes = rng.normal(0.0, 1.0, (ls.num_object_classes, config.d_v))
    rel_fg = rng.normal(0.0, 1.0, (ls.num_relations, config.d_v))
    relation_prototypes = np.vstack([np.zeros((1, config.d_v)), rel_fg])
    zipf = zipf_weights(ls.num_relations, config.zipf_s)
    # Preferred relation per class pair, allocated by largest-remainder quota
    # so the preference histogram itself matches the Zipf target up to one
    # count per relation, then mixed half-and-half with the prior: the table's
    # pair-uniform marginal stays within quantization error of Zipf while rows
    # still differ per pair.
    num_pairs = ls.num_object_classes**2
    ideal = zipf * num_pairs
    quota = np.floor(ideal).astype(np.int64)
    remainder_order = np.argsort(-(ideal - quota), kind="stable")
    quota[remainder_order[: num_pairs - quota.sum()]] += 1
    pref_flat = np.repeat(np.arange(ls.num_relations), quota)
    pref = rng.permutation(pref_flat).reshape(ls.num_object_classes, ls.num_object_classes)
    table = np.tile(0.5 * zipf, (ls.num_object_classes, ls.num_object_classes, 1))
    s_grid, o_grid = np.indices((ls.num_object_classes,) * 2)
    table[s_grid, o_grid, pref] += 0.5
    return World(object_prototypes, relation_prototypes, table, zipf)


def _sample_image(config: SynthConfig, world: World, rng: np.random.Generator) -> SynthImage:
    ls = config.label_space
    n = int(rng.integers(config.objects_min, config.objects_max + 1))
    labels = rng.integers(0, ls.num_object_classes, n)

    cx = rng.uniform(0.1, 0.9, n)
    cy = rng.uniform(0.1, 0.9, n)
    bw = rng.uniform(0.05, 0.2, n)
    bh = rng.uniform(0.05, 0.2, n)
    feats = world.object_prototypes[labels] + rng.normal(0.0, config.noise_sigma, (n, config.d_v))
    # Finite logits give scores that sum to 1, however far apart they lie.
    with np.errstate(over="ignore"):
        det_logits = config.detector_sharpness * np.eye(ls.num_object_classes)[labels]
        det_logits += rng.normal(0.0, config.detector_noise, det_logits.shape)
        if not np.isfinite(det_logits).all():
            raise ValueError("detector logits are not finite: detector_sharpness or "
                             "detector_noise is too large")
        det_logits -= det_logits.max(axis=1, keepdims=True)
        e = np.exp(det_logits)
    scores = e / e.sum(axis=1, keepdims=True)
    boxes = np.stack([cx - bw / 2, cy - bh / 2, cx + bw / 2, cy + bh / 2], axis=1)

    pairs = all_ordered_pairs(n)
    num_fg = math.ceil((1.0 - config.background_fraction) * len(pairs))
    fg = np.sort(rng.permutation(len(pairs))[:num_fg])
    # One inverse-CDF draw per foreground pair, as ``rng.choice(p=row)`` draws:
    # the row's cumsum over its last entry, searched right of a uniform.
    cdf = world.relation_table[labels[pairs[fg, 0]], labels[pairs[fg, 1]]].cumsum(axis=1)
    cdf /= cdf[:, -1:]
    relations = np.zeros(len(pairs), dtype=np.int64)
    relations[fg] = (cdf <= rng.random(num_fg)[:, None]).sum(axis=1) + 1

    s_labels, o_labels = labels[pairs[:, 0]], labels[pairs[:, 1]]
    unions = (
        0.5 * (world.object_prototypes[s_labels] + world.object_prototypes[o_labels])
        + world.relation_prototypes[relations]
        + rng.normal(0.0, config.noise_sigma, (len(pairs), config.d_v))
    )
    gt = np.column_stack([pairs[fg], relations[fg]])
    return SynthImage(boxes, feats, labels, scores, unions, gt)


def generate_split(config: SynthConfig, split: str) -> Images:
    """Generate one split; independent of whether other splits are generated."""
    check_value("split", split, choices=tuple(SPLIT_DOMAINS))
    world = build_world(config)
    count = {"train": config.num_train, "val": config.num_val, "test": config.num_test}[split]
    domain = SPLIT_DOMAINS[split]
    return Images.pack(
        [_sample_image(config, world, _rng(config.seed, domain, i)) for i in range(count)]
    )


def _pair_list(n: int, built: dict[int, list]) -> list:
    """:func:`all_ordered_pairs` of ``n`` as lists, built once per ``n`` in ``built``."""
    if n not in built:
        built[n] = all_ordered_pairs(n).tolist()
    return built[n]


def images_to_jsonl(images: Images) -> Iterator[str]:
    """Each image's JSON document as one line, made as it is asked for."""
    pair_lists: dict[int, list] = {}
    for img in images:
        rows = (a.tolist() for a in (img.boxes, img.features, img.labels, img.scores))
        pairs = _pair_list(len(img.labels), pair_lists)
        objects = [{"box": box, "feat": feat, "label": label, "scores": scores}
                   for box, feat, label, scores in zip(*rows)]
        unions = [[s, o, vec] for (s, o), vec in zip(pairs, img.unions.tolist())]
        yield json.dumps({"objects": objects, "unions": unions, "gt": img.gt.tolist()}) + "\n"


def write_images_jsonl(images: Images, path: str) -> None:
    write_text(path, images_to_jsonl(images))


def _image_from_doc(doc: dict, pair_lists: dict[int, list]) -> SynthImage:
    objects, unions = doc["objects"], doc["unions"]
    n = len(objects)
    if [[s, o] for s, o, _ in unions] != _pair_list(n, pair_lists):
        raise ValueError(f"union pairs are not the ordered pairs of {n} objects in order")
    (box, bad_box), (feat, bad_feat), (label, bad_label), (scores, bad_scores) = (
        read_numbers([obj[key] for obj in objects], dtype, width) for key, dtype, width in (
            ("box", np.float64, 4), ("feat", np.float64, -1), ("label", np.int64, None),
            ("scores", np.float64, -1)))
    union, bad_union = read_numbers([vec for _, _, vec in unions], np.float64, feat.shape[1])
    gt, bad_gt = read_numbers(doc["gt"], np.int64, 3)

    def numbers(i: int) -> str:  # object 0's row sets the width the others need
        return "a list of numbers" + (" as long as object 0's" if i else "")

    refuse_first([(bad_box, lambda i: "box is not 4 numbers"),
                  (bad_feat, lambda i: f"feat is not {numbers(i)}"),
                  (bad_label, lambda i: "label is not a 64-bit integer"),
                  (bad_scores, lambda i: f"scores is not {numbers(i)}")], "object")
    refuse_first([(bad_union, lambda i: "not a list of numbers as long as a feat")], "union")
    refuse_first([(bad_gt, lambda i: "not three 64-bit integers [s, o, r]")], "ground-truth entry")
    return SynthImage(box, feat, label, scores, union, gt)


def read_images_jsonl(path: str) -> Images:
    """Read images written by :func:`write_images_jsonl` into one packed split;
    a malformed document (a missing key, union pairs out of order, an object,
    union or ground-truth entry that :func:`~tailbias.stats.read_numbers`
    refuses), or an image :meth:`Images.pack` refuses, raises ``ValueError``
    starting ``"<path>:<line>: "``."""
    pair_lists: dict[int, list] = {}
    return read_jsonl(path, lambda doc: _image_from_doc(doc, pair_lists), Images.pack)
