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
from typing import Mapping

import numpy as np

from .stats import LabelSpace, check_keys, read_jsonl

__all__ = [
    "SynthConfig",
    "SynthImage",
    "all_ordered_pairs",
    "World",
    "zipf_weights",
    "build_world",
    "generate_split",
    "write_images_jsonl",
    "read_images_jsonl",
]

WORLD_DOMAIN = 0
SPLIT_DOMAINS = {"train": 1, "val": 2, "test": 3}


@dataclass(frozen=True)
class SynthConfig:
    label_space: LabelSpace
    num_train: int
    num_val: int
    num_test: int
    zipf_s: float = 1.5
    objects_min: int = 4
    objects_max: int = 6
    d_v: int = 16
    noise_sigma: float = 0.3
    background_fraction: float = 0.7
    detector_sharpness: float = 4.0
    detector_noise: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.objects_min < 2 or self.objects_max < self.objects_min:
            raise ValueError("objects_per_image range must be nonempty with min >= 2")
        if not 0.0 <= self.background_fraction < 1.0:
            raise ValueError("background_fraction must lie in [0, 1)")
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be positive")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be nonnegative")

    def to_dict(self) -> dict:
        return {**vars(self), "label_space": self.label_space.to_dict()}

    @classmethod
    def from_dict(cls, d: Mapping) -> "SynthConfig":
        check_keys(d, cls, "synth config")
        d = dict(d)
        d["label_space"] = LabelSpace.from_dict(d["label_space"])
        return cls(**d)


def all_ordered_pairs(n: int) -> np.ndarray:
    """The ``(n(n-1), 2)`` ordered pairs ``(s, o)``, ``s != o``, subjects first."""
    return np.argwhere(~np.eye(n, dtype=bool))


@dataclass
class SynthImage:
    """One image as packed arrays, one row per object or ordered pair.

    ``boxes`` ``(n, 4)`` are normalised ``[x1, y1, x2, y2]`` with ``x1 < x2``
    and ``y1 < y2``; ``features`` ``(n, d_v)``; ``labels`` ``(n,)`` annotated
    classes; ``scores`` ``(n, L_e)`` detector probabilities, each row summing
    to 1. ``unions`` ``(n(n-1), d_v)`` holds the union-box feature of each
    ordered pair in :func:`all_ordered_pairs` order. ``gt_triplets`` lists the
    annotated ``(s, o, relation)`` triplets by object index.
    """

    boxes: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    scores: np.ndarray
    unions: np.ndarray
    gt_triplets: list[tuple[int, int, int]]

    def __post_init__(self) -> None:
        self.boxes = np.asarray(self.boxes, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.unions = np.asarray(self.unions, dtype=np.float64)
        n = len(self.labels)
        if self.labels.ndim != 1 or self.boxes.shape != (n, 4):
            raise ValueError(f"need one label and one 4-number box per object, {n} labels")
        for name in ("features", "scores"):
            if getattr(self, name).ndim != 2 or getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} need one row per object ({n})")
        want = (n * (n - 1), self.features.shape[1])
        if self.unions.shape != want:
            raise ValueError(
                f"unions have shape {self.unions.shape}; {n} objects need {want}"
            )
        x1, y1, x2, y2 = self.boxes.T
        bad = ~((0.0 <= x1) & (x1 < x2) & (x2 <= 1.0) & (0.0 <= y1) & (y1 < y2) & (y2 <= 1.0))
        if bad.any():
            raise ValueError(f"degenerate or unnormalized box {self.boxes[bad][0].tolist()}")
        if not (np.abs(self.scores.sum(axis=1) - 1.0) <= 1e-6).all():
            raise ValueError("detector scores must sum to 1")


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
    if num < 1:
        raise ValueError("need at least one class")
    if s < 0:
        raise ValueError("skew must be nonnegative")
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
    pref = rng.permutation(pref_flat).reshape(
        ls.num_object_classes, ls.num_object_classes
    )
    table = np.tile(0.5 * zipf, (ls.num_object_classes, ls.num_object_classes, 1))
    s_grid, o_grid = np.meshgrid(
        np.arange(ls.num_object_classes), np.arange(ls.num_object_classes), indexing="ij"
    )
    table[s_grid, o_grid, pref] += 0.5
    return World(
        object_prototypes=object_prototypes,
        relation_prototypes=relation_prototypes,
        relation_table=table,
        zipf=zipf,
    )


def _sample_image(
    config: SynthConfig, world: World, rng: np.random.Generator
) -> SynthImage:
    ls = config.label_space
    n = int(rng.integers(config.objects_min, config.objects_max + 1))
    labels = rng.integers(0, ls.num_object_classes, n)

    cx = rng.uniform(0.1, 0.9, n)
    cy = rng.uniform(0.1, 0.9, n)
    bw = rng.uniform(0.05, 0.2, n)
    bh = rng.uniform(0.05, 0.2, n)
    feats = world.object_prototypes[labels] + rng.normal(
        0.0, config.noise_sigma, (n, config.d_v)
    )
    det_logits = config.detector_sharpness * np.eye(ls.num_object_classes)[labels]
    det_logits += rng.normal(0.0, config.detector_noise, det_logits.shape)
    det_logits -= det_logits.max(axis=1, keepdims=True)
    e = np.exp(det_logits)
    scores = e / e.sum(axis=1, keepdims=True)
    boxes = np.stack([cx - bw / 2, cy - bh / 2, cx + bw / 2, cy + bh / 2], axis=1)

    pairs = all_ordered_pairs(n)
    num_fg = math.ceil((1.0 - config.background_fraction) * len(pairs))
    fg_positions = np.sort(rng.permutation(len(pairs))[:num_fg])
    relations = np.zeros(len(pairs), dtype=np.int64)
    for pos in fg_positions:
        row = world.relation_table[labels[pairs[pos, 0]], labels[pairs[pos, 1]]]
        relations[pos] = int(rng.choice(ls.num_relations, p=row)) + 1

    s_labels, o_labels = labels[pairs[:, 0]], labels[pairs[:, 1]]
    unions = (
        0.5 * (world.object_prototypes[s_labels] + world.object_prototypes[o_labels])
        + world.relation_prototypes[relations]
        + rng.normal(0.0, config.noise_sigma, (len(pairs), config.d_v))
    )
    gt = [(*pairs[q].tolist(), int(relations[q])) for q in fg_positions]
    return SynthImage(
        boxes=boxes, features=feats, labels=labels, scores=scores, unions=unions, gt_triplets=gt
    )


def generate_split(config: SynthConfig, split: str) -> list[SynthImage]:
    """Generate one split; independent of whether other splits are generated."""
    if split not in SPLIT_DOMAINS:
        raise ValueError(f"unknown split {split!r}")
    world = build_world(config)
    count = {"train": config.num_train, "val": config.num_val, "test": config.num_test}[
        split
    ]
    domain = SPLIT_DOMAINS[split]
    return [
        _sample_image(config, world, _rng(config.seed, domain, i)) for i in range(count)
    ]


def write_images_jsonl(images: list[SynthImage], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for img in images:
            doc = {
                "objects": [
                    {"box": box, "feat": feat, "label": label, "scores": scores}
                    for box, feat, label, scores in zip(
                        img.boxes.tolist(),
                        img.features.tolist(),
                        img.labels.tolist(),
                        img.scores.tolist(),
                    )
                ],
                "unions": [
                    [s, o, vec]
                    for (s, o), vec in zip(
                        all_ordered_pairs(len(img.labels)).tolist(), img.unions.tolist()
                    )
                ],
                "gt": [list(t) for t in img.gt_triplets],
            }
            fh.write(json.dumps(doc) + "\n")


def _matrix(rows: list, name: str, width: int = 0) -> np.ndarray:
    """Equal-length number lists as one float array; ``(0, width)`` when empty."""
    try:
        out = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{name} rows are ragged or not numeric") from None
    return out if rows else out.reshape(0, width)


def _image_from_doc(doc: dict) -> SynthImage:
    objects = doc["objects"]
    n = len(objects)
    features = _matrix([obj["feat"] for obj in objects], "feat")
    union_pairs = [[s, o] for s, o, _ in doc["unions"]]
    if union_pairs != all_ordered_pairs(n).tolist():
        raise ValueError(f"union pairs are not the ordered pairs of {n} objects in order")
    return SynthImage(
        boxes=_matrix([obj["box"] for obj in objects], "box", 4),
        features=features,
        labels=np.array([int(obj["label"]) for obj in objects], dtype=np.int64),
        scores=_matrix([obj["scores"] for obj in objects], "scores"),
        unions=_matrix([vec for _, _, vec in doc["unions"]], "union", features.shape[1]),
        gt_triplets=[(int(s), int(o), int(r)) for s, o, r in doc["gt"]],
    )


def read_images_jsonl(path: str) -> list[SynthImage]:
    """Read images written by :func:`write_images_jsonl`.

    A malformed document raises ``ValueError`` starting ``"<path>:<line>: "``.
    """
    return read_jsonl(path, _image_from_doc)
