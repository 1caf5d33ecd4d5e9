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

from .model import ObjectProposal, all_ordered_pairs
from .stats import LabelSpace

__all__ = [
    "SynthConfig",
    "SynthImage",
    "World",
    "zipf_weights",
    "build_world",
    "generate_split",
    "write_images_jsonl",
    "read_images_jsonl",
    "images_to_triplets",
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
        return {
            "label_space": self.label_space.to_dict(),
            "num_train": self.num_train,
            "num_val": self.num_val,
            "num_test": self.num_test,
            "zipf_s": self.zipf_s,
            "objects_min": self.objects_min,
            "objects_max": self.objects_max,
            "d_v": self.d_v,
            "noise_sigma": self.noise_sigma,
            "background_fraction": self.background_fraction,
            "detector_sharpness": self.detector_sharpness,
            "detector_noise": self.detector_noise,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "SynthConfig":
        d = dict(d)
        d["label_space"] = LabelSpace.from_dict(d["label_space"])
        return cls(**d)


@dataclass
class SynthImage:
    proposals: list[ObjectProposal]
    unions: dict[tuple[int, int], np.ndarray]
    gt_triplets: list[tuple[int, int, int]]


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

    proposals = [
        ObjectProposal(
            box=(
                float(cx[i] - bw[i] / 2),
                float(cy[i] - bh[i] / 2),
                float(cx[i] + bw[i] / 2),
                float(cy[i] + bh[i] / 2),
            ),
            feature=feats[i],
            label=int(labels[i]),
            scores=scores[i],
        )
        for i in range(n)
    ]

    pairs = all_ordered_pairs(n)
    num_fg = math.ceil((1.0 - config.background_fraction) * len(pairs))
    fg_positions = sorted(rng.permutation(len(pairs))[:num_fg].tolist())
    relation_of: dict[tuple[int, int], int] = {}
    for pos in fg_positions:
        s, o = pairs[pos]
        row = world.relation_table[labels[s], labels[o]]
        relation_of[pairs[pos]] = int(rng.choice(ls.num_relations, p=row)) + 1

    unions: dict[tuple[int, int], np.ndarray] = {}
    for s, o in pairs:
        r = relation_of.get((s, o), 0)
        base = 0.5 * (world.object_prototypes[labels[s]] + world.object_prototypes[labels[o]])
        unions[(s, o)] = (
            base
            + world.relation_prototypes[r]
            + rng.normal(0.0, config.noise_sigma, config.d_v)
        )
    gt = [(s, o, r) for (s, o), r in sorted(relation_of.items())]
    return SynthImage(proposals=proposals, unions=unions, gt_triplets=gt)


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


def images_to_triplets(images: list[SynthImage]) -> list[tuple[int, int, int]]:
    """Class-level annotation records ``(s_class, o_class, relation)`` from gt."""
    records = []
    for img in images:
        for s, o, r in img.gt_triplets:
            records.append((img.proposals[s].label, img.proposals[o].label, r))
    return records


def write_images_jsonl(images: list[SynthImage], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for img in images:
            doc = {
                "objects": [
                    {
                        "box": list(p.box),
                        "feat": p.feature.tolist(),
                        "label": p.label,
                        "scores": p.scores.tolist(),
                    }
                    for p in img.proposals
                ],
                "unions": [
                    [s, o, img.unions[(s, o)].tolist()]
                    for (s, o) in sorted(img.unions)
                ],
                "gt": [list(t) for t in img.gt_triplets],
            }
            fh.write(json.dumps(doc) + "\n")


def read_images_jsonl(path: str) -> list[SynthImage]:
    images = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            proposals = [
                ObjectProposal(
                    box=tuple(obj["box"]),
                    feature=np.asarray(obj["feat"], dtype=np.float64),
                    label=int(obj["label"]),
                    scores=np.asarray(obj["scores"], dtype=np.float64),
                )
                for obj in doc["objects"]
            ]
            unions = {
                (int(s), int(o)): np.asarray(vec, dtype=np.float64)
                for s, o, vec in doc["unions"]
            }
            gt = [(int(s), int(o), int(r)) for s, o, r in doc["gt"]]
            images.append(SynthImage(proposals=proposals, unions=unions, gt_triplets=gt))
    return images
