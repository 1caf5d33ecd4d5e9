import numpy as np
import pytest

from tailbias.stats import LabelSpace
from tailbias.synth import (
    SynthConfig,
    build_world,
    generate_split,
    images_to_triplets,
    read_images_jsonl,
    write_images_jsonl,
    zipf_weights,
)

ZIPF3 = (6 / 11, 3 / 11, 2 / 11)  # harmonic normalization 1 + 1/2 + 1/3 = 11/6


def small_config(**overrides):
    defaults = dict(
        label_space=LabelSpace(num_object_classes=5, num_relations=6),
        num_train=40,
        num_val=8,
        num_test=12,
        zipf_s=1.2,
        objects_min=3,
        objects_max=5,
        d_v=8,
        noise_sigma=0.3,
        background_fraction=0.6,
        seed=17,
    )
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestZipfWeights:
    def test_uniform_at_zero_skew(self):
        assert zipf_weights(3, 0.0) == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_harmonic_pair(self):
        assert zipf_weights(2, 1.0) == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    def test_harmonic_triple(self):
        assert zipf_weights(3, 1.0) == pytest.approx(ZIPF3, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(3, -0.1)


class TestWorld:
    def test_same_seed_identical(self):
        cfg = small_config()
        a = build_world(cfg)
        b = build_world(cfg)
        assert np.array_equal(a.object_prototypes, b.object_prototypes)
        assert np.array_equal(a.relation_table, b.relation_table)

    def test_conditional_rows_normalized(self):
        world = build_world(small_config())
        sums = world.relation_table.sum(axis=2)
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_marginal_matches_zipf_target(self):
        # Monte-Carlo oracle: sample pairs uniformly, draw relations from the
        # conditional table, compare the empirical marginal to the target.
        cfg = small_config()
        world = build_world(cfg)
        rng = np.random.default_rng(123)
        n = 100_000
        ne = cfg.label_space.num_object_classes
        s = rng.integers(0, ne, n)
        o = rng.integers(0, ne, n)
        rows = world.relation_table[s, o]
        u = rng.uniform(size=(n, 1))
        drawn = (rows.cumsum(axis=1) < u).sum(axis=1)
        hist = np.bincount(drawn, minlength=cfg.label_space.num_relations)
        empirical = hist / n
        tv = 0.5 * np.abs(empirical - world.zipf).sum()
        assert tv < 0.02

    def test_background_prototype_is_zero(self):
        world = build_world(small_config())
        assert not world.relation_prototypes[0].any()


class TestGenerate:
    def test_empty_split(self):
        cfg = small_config(num_val=0)
        assert generate_split(cfg, "val") == []

    def test_background_fraction_zero_fills_all_pairs(self):
        cfg = small_config(background_fraction=0.0, num_train=5)
        for img in generate_split(cfg, "train"):
            n = len(img.proposals)
            assert len(img.gt_triplets) == n * (n - 1)

    def test_gt_structure(self):
        cfg = small_config()
        for img in generate_split(cfg, "train")[:10]:
            n = len(img.proposals)
            assert cfg.objects_min <= n <= cfg.objects_max
            seen_pairs = set()
            for s, o, r in img.gt_triplets:
                assert 0 <= s < n and 0 <= o < n and s != o
                assert 1 <= r <= cfg.label_space.num_relations
                assert (s, o) not in seen_pairs
                seen_pairs.add((s, o))
            assert len(img.unions) == n * (n - 1)

    def test_train_histogram_tracks_zipf(self):
        cfg = small_config(num_train=2000, objects_min=4, objects_max=6, zipf_s=1.5)
        images = generate_split(cfg, "train")
        world = build_world(cfg)
        hist = np.zeros(cfg.label_space.num_relations)
        for _, _, r in images_to_triplets(images):
            hist[r - 1] += 1
        empirical = hist / hist.sum()
        tv = 0.5 * np.abs(empirical - world.zipf).sum()
        assert tv < 0.05

    def test_full_determinism(self):
        cfg = small_config()
        a = [generate_split(cfg, split) for split in ("train", "val", "test")]
        b = [generate_split(cfg, split) for split in ("train", "val", "test")]
        for split_a, split_b in zip(a, b):
            for img_a, img_b in zip(split_a, split_b):
                assert img_a.gt_triplets == img_b.gt_triplets
                for pa, pb in zip(img_a.proposals, img_b.proposals):
                    assert pa.box == pb.box
                    assert np.array_equal(pa.feature, pb.feature)
                    assert np.array_equal(pa.scores, pb.scores)
                for key in img_a.unions:
                    assert np.array_equal(img_a.unions[key], img_b.unions[key])

    def test_splits_are_independent_streams(self):
        cfg = small_config()
        test_alone = generate_split(cfg, "test")
        # generating the other splits first leaves the test split as it was
        generate_split(cfg, "train")
        generate_split(cfg, "val")
        test_with_rest = generate_split(cfg, "test")
        for img_a, img_b in zip(test_alone, test_with_rest):
            assert img_a.gt_triplets == img_b.gt_triplets
            assert np.array_equal(img_a.proposals[0].feature, img_b.proposals[0].feature)
        # different splits differ
        train = generate_split(cfg, "train")
        assert not np.array_equal(
            train[0].proposals[0].feature, test_alone[0].proposals[0].feature
        )

    def test_class_separability(self):
        # nearest-prototype object classification must clear 95%
        cfg = small_config(d_v=16, noise_sigma=0.5, num_train=300)
        world = build_world(cfg)
        images = generate_split(cfg, "train")
        hits = 0
        total = 0
        for img in images:
            for p in img.proposals:
                d = np.linalg.norm(world.object_prototypes - p.feature, axis=1)
                hits += int(np.argmin(d) == p.label)
                total += 1
        assert hits / total > 0.95

    def test_detector_scores_rarely_disagree(self):
        cfg = small_config(num_train=200)
        images = generate_split(cfg, "train")
        agree = [
            int(np.argmax(p.scores)) == p.label
            for img in images
            for p in img.proposals
        ]
        assert np.mean(agree) > 0.95


class TestJsonl:
    def test_round_trip(self, tmp_path):
        cfg = small_config(num_train=6)
        images = generate_split(cfg, "train")
        path = tmp_path / "train.jsonl"
        write_images_jsonl(images, str(path))
        again = read_images_jsonl(str(path))
        assert len(again) == len(images)
        for img_a, img_b in zip(images, again):
            assert img_a.gt_triplets == img_b.gt_triplets
            for pa, pb in zip(img_a.proposals, img_b.proposals):
                assert pa.box == pb.box
                assert np.array_equal(pa.feature, pb.feature)
                assert pa.label == pb.label
            for key in img_a.unions:
                assert np.array_equal(img_a.unions[key], img_b.unions[key])

    def test_serialization_is_byte_stable(self, tmp_path):
        cfg = small_config(num_train=4)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_images_jsonl(generate_split(cfg, "train"), str(p1))
        write_images_jsonl(generate_split(cfg, "train"), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def test_config_validation():
    ls = LabelSpace(num_object_classes=2, num_relations=2)
    with pytest.raises(ValueError):
        SynthConfig(label_space=ls, num_train=1, num_val=0, num_test=0, objects_min=1)
    with pytest.raises(ValueError):
        SynthConfig(label_space=ls, num_train=1, num_val=0, num_test=0, background_fraction=1.0)
    with pytest.raises(ValueError):
        SynthConfig(label_space=ls, num_train=1, num_val=0, num_test=0, noise_sigma=0.0)


def test_config_round_trip():
    cfg = small_config()
    assert SynthConfig.from_dict(cfg.to_dict()) == cfg
