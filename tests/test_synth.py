import hashlib
import json
import math
import re

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbias.stats import LabelSpace, from_dict
from tailbias.synth import (
    Images,
    SynthConfig,
    SynthImage,
    all_ordered_pairs,
    build_world,
    generate_split,
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


# A number row of image 1 in a JSONL document, and the fault named when one of
# its values is no number or not finite (regex-safe; a box's also shows the row).
NUMBER_ROWS = {
    "feat": lambda d: d["objects"][1]["feat"],
    "box": lambda d: d["objects"][1]["box"],
    "scores": lambda d: d["objects"][1]["scores"],
    "union": lambda d: d["unions"][2][2],
}
NO_NUMBER = {
    "feat": "object 1: feat is not a list of numbers as long as object 0's",
    "box": "object 1: box is not 4 numbers",
    "scores": "object 1: scores is not a list of numbers as long as object 0's",
    "union": "union 2: not a list of numbers as long as a feat",
}
NON_FINITE = {
    "feat": "image 1: features must be finite",
    "box": "image 1: degenerate or unnormalized box",
    "scores": "image 1: detector scores must sum to 1",
    "union": "image 1: unions must be finite",
}

IMAGE_FIELDS = ("boxes", "features", "labels", "scores", "unions", "gt")
SPLIT_FIELDS = (
    "boxes", "features", "labels", "scores", "obj_start", "unions", "pair_start", "gt", "gt_start"
)


def assert_same_image(a, b):
    for name in IMAGE_FIELDS:
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def assert_same_split(a, b):
    assert len(a) == len(b)
    for name in SPLIT_FIELDS:
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name


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
        split = generate_split(cfg, "val")
        assert len(split) == 0 and list(split) == []
        assert split.obj_start.tolist() == split.gt_start.tolist() == [0]

    def test_background_fraction_zero_fills_all_pairs(self):
        cfg = small_config(background_fraction=0.0, num_train=5)
        for img in generate_split(cfg, "train"):
            n = len(img.labels)
            assert img.gt.shape == (n * (n - 1), 3)

    def test_gt_structure(self):
        cfg = small_config()
        for img in generate_split(cfg, "train")[:10]:
            n = len(img.labels)
            assert cfg.objects_min <= n <= cfg.objects_max
            seen_pairs = set()
            for s, o, r in img.gt.tolist():
                assert 0 <= s < n and 0 <= o < n and s != o
                assert 1 <= r <= cfg.label_space.num_relations
                assert (s, o) not in seen_pairs
                seen_pairs.add((s, o))
            assert img.unions.shape == (n * (n - 1), cfg.d_v)

    def test_train_histogram_tracks_zipf(self):
        cfg = small_config(num_train=2000, objects_min=4, objects_max=6, zipf_s=1.5)
        images = generate_split(cfg, "train")
        world = build_world(cfg)
        hist = np.zeros(cfg.label_space.num_relations)
        for r in images.gt[:, 2]:
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
                assert_same_image(img_a, img_b)

    def test_splits_are_independent_streams(self):
        cfg = small_config()
        test_alone = generate_split(cfg, "test")
        # generating the other splits first leaves the test split as it was
        generate_split(cfg, "train")
        generate_split(cfg, "val")
        test_with_rest = generate_split(cfg, "test")
        for img_a, img_b in zip(test_alone, test_with_rest):
            assert np.array_equal(img_a.gt, img_b.gt)
            assert np.array_equal(img_a.features, img_b.features)
        # different splits differ
        train = generate_split(cfg, "train")
        assert not np.array_equal(train[0].features[0], test_alone[0].features[0])

    def test_class_separability(self):
        # nearest-prototype object classification must clear 95%
        cfg = small_config(d_v=16, noise_sigma=0.5, num_train=300)
        world = build_world(cfg)
        images = generate_split(cfg, "train")
        hits = 0
        total = 0
        for img in images:
            d = np.linalg.norm(world.object_prototypes - img.features[:, None], axis=2)
            hits += int((d.argmin(axis=1) == img.labels).sum())
            total += len(img.labels)
        assert hits / total > 0.95

    def test_detector_scores_rarely_disagree(self):
        cfg = small_config(num_train=200)
        images = generate_split(cfg, "train")
        agree = np.concatenate([img.scores.argmax(axis=1) == img.labels for img in images])
        assert np.mean(agree) > 0.95


class TestJsonl:
    def test_round_trip(self, tmp_path):
        cfg = small_config(num_train=6)
        images = generate_split(cfg, "train")
        path = tmp_path / "train.jsonl"
        write_images_jsonl(images, str(path))
        again = read_images_jsonl(str(path))
        assert_same_split(again, images)
        for img_a, img_b in zip(images, again):
            assert_same_image(img_a, img_b)

    def test_serialization_is_byte_stable(self, tmp_path):
        cfg = small_config(num_train=4)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_images_jsonl(generate_split(cfg, "train"), str(p1))
        write_images_jsonl(generate_split(cfg, "train"), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_generator_output_is_pinned(self, tmp_path):
        # sha256 of this split's JSONL as written before images were packed
        # into arrays; the packed generator and writer must reproduce it.
        cfg = small_config(num_train=6)
        path = tmp_path / "a.jsonl"
        write_images_jsonl(generate_split(cfg, "train"), str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "c87e47949c588ddbc7908568748eb337959428d3212fa125461b8eb64d25150b"
        again = tmp_path / "b.jsonl"
        write_images_jsonl(read_images_jsonl(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "corrupt, why",
        [
            (lambda d: d["objects"][1].pop("scores"), "missing key 'scores'"),
            (lambda d: d.pop("gt"), "missing key 'gt'"),
            (lambda d: d["objects"][1]["feat"].pop(),
             "object 1: feat is not a list of numbers as long as object 0's"),
            (lambda d: d["objects"][0]["scores"].append(0.0),
             "object 1: scores is not a list of numbers as long as object 0's"),
            (lambda d: d["objects"][0].__setitem__("scores", "0.5"),
             "object 0: scores is not a list of numbers$"),
            (lambda d: d["objects"][0].__setitem__("feat", None),
             "object 0: feat is not a list of numbers$"),
            (lambda d: d["unions"][2][2].pop(), "union 2: not a list of numbers as long as a feat"),
            (lambda d: d["unions"].pop(), "union pairs are not the ordered pairs"),
            (lambda d: d["unions"].reverse(), "union pairs are not the ordered pairs"),
            (lambda d: d["objects"][2]["box"].__setitem__(2, 0.0), "degenerate"),
            (lambda d: d["objects"][0]["box"].pop(), "object 0: box is not 4 numbers"),
            (lambda d: d["objects"][1]["scores"].__setitem__(0, 2.0), "sum to 1"),
            (lambda d: d["objects"][1].__setitem__("label", 1.7),
             "object 1: label is not a 64-bit integer"),
            (lambda d: d["objects"][0].__setitem__("label", True),
             "object 0: label is not a 64-bit integer"),
            (lambda d: d["objects"][0].__setitem__("label", 2**63),
             "object 0: label is not a 64-bit integer"),
            (lambda d: d["gt"][0].__setitem__(2, 1.9),
             r"ground-truth entry 0: not three 64-bit integers \[s, o, r\]"),
            (lambda d: d["gt"].append([0, 1]), r"ground-truth entry \d+: not three"),
            (lambda d: d["gt"].append([0, 9, 1]),
             r"image 1: ground-truth triplet \(0, 9, 1\) has an object index outside 0\.\.\d+$"),
            (lambda d: d["gt"].append([1, 1, 2]),
             r"image 1: ground-truth triplet \(1, 1, 2\) has the same subject and object$"),
            # An integer beyond the float range reads as inf, as JSON's 1e400 does.
            *[(lambda d, at=at: NUMBER_ROWS[at](d).__setitem__(0, 10**400), NON_FINITE[at])
              for at in NUMBER_ROWS],
            # A value that is no number is refused, not converted.
            *[(lambda d, at=at, v=v: NUMBER_ROWS[at](d).__setitem__(0, v), NO_NUMBER[at])
              for v in ("0.5", True, None) for at in NUMBER_ROWS],
            *[(lambda d, at=at, v=v: NUMBER_ROWS[at](d).__setitem__(0, v), NON_FINITE[at])
              for v in (math.nan, math.inf) for at in NUMBER_ROWS],
        ],
        ids=[
            "missing-object-key", "missing-gt", "ragged-feat", "ragged-scores",
            "string-scores-of-object-0", "null-feat-of-object-0",
            "ragged-union", "missing-union-pair", "union-pairs-out-of-order", "bad-box",
            "short-box", "unnormalised-scores", "float-label", "bool-label", "huge-label",
            "float-gt", "short-gt", "gt-index", "gt-self-pair",
            *(f"huge-{at}" for at in NUMBER_ROWS),
            *(f"{v}-{at}" for v in ("string", "bool", "null", "nan", "infinity")
              for at in NUMBER_ROWS),
        ],
    )
    def test_malformed_document_names_its_line(self, tmp_path, corrupt, why):
        images = generate_split(small_config(num_train=3), "train")
        path = tmp_path / "train.jsonl"
        write_images_jsonl(images, str(path))
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        corrupt(doc)
        lines[1] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: .*{why}"):
            read_images_jsonl(str(path))


def record(rng, n, d_v=3, classes=4, num_gt=1):
    """A valid random image record with ``n`` objects and ``num_gt`` triplets."""
    x1, y1 = rng.uniform(0.05, 0.4, (2, n))
    scores = rng.uniform(0.05, 1.0, (n, classes))
    pairs = all_ordered_pairs(n)[: num_gt]
    return SynthImage(
        boxes=np.stack([x1, y1, x1 + 0.3, y1 + 0.3], axis=1),
        features=rng.normal(size=(n, d_v)),
        labels=rng.integers(0, classes, n),
        scores=scores / scores.sum(axis=1, keepdims=True),
        unions=rng.normal(size=(n * (n - 1), d_v)),
        gt=np.column_stack([pairs, rng.integers(1, 4, len(pairs))]),
    )


def bad_box(img):
    boxes = img.boxes.copy()
    boxes[1, 2] = boxes[1, 0]
    return replace(img, boxes=boxes)


def unnormalised(img):
    scores = img.scores.copy()
    scores[2, 0] += 0.01
    return replace(img, scores=scores)


class TestPack:
    """One check over the whole split names the first faulty image."""

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda img: replace(img, labels=img.labels[:, None]),
             "need one label and one 4-number box per object, -1 labels"),
            (lambda img: replace(img, boxes=img.boxes[:, :3]),
             "need one label and one 4-number box per object, 3 labels"),
            (lambda img: replace(img, boxes=img.boxes[:2]),
             "need one label and one 4-number box per object, 3 labels"),
            (lambda img: replace(img, features=img.features[:2]),
             "features need one row per object (3)"),
            (lambda img: replace(img, scores=img.scores[:, 0]),
             "scores need one row per object (3)"),
            (lambda img: replace(img, features=img.features[:, :2], unions=img.unions[:, :2]),
             "2 feature columns; image 0 has 3"),
            (lambda img: replace(img, scores=np.full((3, 5), 0.2)),
             "detector scores over 5 classes; image 0 has 4"),
            (lambda img: replace(img, unions=img.unions[:5]),
             "unions have shape (5, 3); 3 objects need (6, 3)"),
            (lambda img: replace(img, unions=img.unions[:, :2]),
             "unions have shape (6, 2); 3 objects need (6, 3)"),
            (lambda img: replace(img, gt=img.gt[:, :2]),
             "ground truth has shape (1, 2), not (m, 3)"),
            (bad_box, "degenerate or unnormalized box"),
            (unnormalised, "detector scores must sum to 1"),
            (lambda img: replace(img, features=img.features * [1.0, np.nan, 1.0]),
             "features must be finite"),
            (lambda img: replace(img, unions=img.unions * [np.inf, 1.0, 1.0]),
             "unions must be finite"),
        ],
        ids=["labels-rank", "box-width", "box-rows", "feature-rows", "score-rows",
             "feature-width", "score-width", "union-rows", "union-width", "gt-width", "bad-box",
             "unnormalised-scores", "nan-feature", "infinite-union"],
    )
    def test_refusal_names_the_first_faulty_image(self, corrupt, message):
        rng = np.random.default_rng(0)
        images = [record(rng, 3) for _ in range(4)]
        images[2] = corrupt(images[2])
        images[3] = unnormalised(images[3])  # a later fault is not the one named
        with pytest.raises(ValueError, match=f"^image 2: {re.escape(message)}"):
            Images.pack(images)

    def test_a_value_fault_ahead_of_a_shape_fault_is_named_first(self):
        rng = np.random.default_rng(1)
        images = [record(rng, 3) for _ in range(3)]
        images[1] = bad_box(images[1])
        images[2] = replace(images[2], features=images[2].features[:1])
        with pytest.raises(ValueError, match=r"^image 1: degenerate or unnormalized box \["):
            Images.pack(images)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda img: replace(img, labels=img.labels + 0.7), "labels of type float64"),
            (lambda img: replace(img, labels=img.labels.tolist()[:2] + [1.9]),
             "labels of type float64"),
            (lambda img: replace(img, labels=img.labels > 0), "labels of type bool"),
            (lambda img: replace(img, gt=[[0, 1, 1.6]]), "ground truth of type float64"),
            (lambda img: replace(img, gt=img.gt.astype(float)), "ground truth of type float64"),
            (lambda img: replace(img, gt=img.gt > 0), "ground truth of type bool"),
        ],
        ids=["float-labels", "float-label-list", "bool-labels", "float-gt-list", "float-gt",
             "bool-gt"],
    )
    def test_non_integer_labels_and_ground_truth_are_refused(self, corrupt, message):
        """A cast to int64 would truncate them silently, as ``1.9`` to ``1``."""
        rng = np.random.default_rng(3)
        images = [record(rng, 3) for _ in range(3)]
        images[1] = corrupt(images[1])
        with pytest.raises(ValueError, match=f"^image 1: {message}, not 64-bit integers$"):
            Images.pack(images)

    def test_narrower_integers_and_empty_lists_pack_as_int64(self):
        rng = np.random.default_rng(4)
        img = record(rng, 3)
        narrow = replace(img, labels=img.labels.astype(np.int32), gt=img.gt.astype(np.uint8))
        assert_same_split(Images.pack([narrow]), Images.pack([img]))
        assert Images.pack([replace(img, gt=[])]).gt.dtype == np.int64

    def test_records_of_lists_pack_as_arrays(self):
        rng = np.random.default_rng(2)
        img = record(rng, 2)
        listed = SynthImage(*(getattr(img, name).tolist() for name in IMAGE_FIELDS))
        assert_same_split(Images.pack([listed]), Images.pack([img]))
        assert Images.pack([replace(img, gt=[])]).gt.shape == (0, 3)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: [obj["box"].pop() for obj in d["objects"]],
             "object 0: box is not 4 numbers"),
            (lambda d: [v.pop() for v in [o["feat"] for o in d["objects"]]
                        + [u[2] for u in d["unions"]]],
             "image 1: 2 feature columns; image 0 has 3"),
            (lambda d: [obj["scores"].pop() for obj in d["objects"]],
             "image 1: detector scores over 3 classes; image 0 has 4"),
            (lambda d: [u[2].pop() for u in d["unions"]],
             "union 0: not a list of numbers as long as a feat"),
            (lambda d: d["objects"][1]["box"].__setitem__(2, 0.0),
             "image 1: degenerate or unnormalized box"),
            (lambda d: d["objects"][2]["scores"].__setitem__(0, 2.0),
             "image 1: detector scores must sum to 1"),
        ],
        ids=["box-width", "feature-width", "score-width", "union-width", "bad-box",
             "unnormalised-scores"],
    )
    def test_reader_names_the_line_and_the_image(self, tmp_path, corrupt, message):
        """Only the image faults here can reach the check from a JSONL line:
        the reader builds one feature and score row per object, three-integer
        ground-truth rows, and refuses itself, by object or union index, a box
        of other than 4 numbers or a union row not as wide as the features."""
        rng = np.random.default_rng(3)
        path = tmp_path / "split.jsonl"
        write_images_jsonl(Images.pack([record(rng, 3) for _ in range(3)]), str(path))
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        corrupt(doc)
        lines[1] = json.dumps(doc)
        path.write_text("\n" + "\n".join(lines) + "\n")  # image 1 is on line 3
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {message}')}"):
            read_images_jsonl(str(path))


@st.composite
def records(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=6))
    return [record(rng, n, num_gt=min(m, n * (n - 1))) for n, m in sizes]


@given(records(), st.integers(-8, 8), st.integers(-8, 8), st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_slices_and_images_equal_packing_their_records(images, a, b, pick):
    split = Images.pack(images)
    assert len(split) == len(images)

    def assert_slice(got, records):
        if records:
            assert_same_split(got, Images.pack(records))
        else:  # an empty slice keeps the split's widths
            assert len(got) == 0 and got.obj_start.tolist() == got.gt_start.tolist() == [0]

    assert_slice(split[a:b], images[a:b])
    assert_slice(split[a:b][1:], images[a:b][1:])
    if images:
        i = pick % len(images) - (pick % 2) * len(images)  # negative indices too
        assert_same_image(split[i], Images.pack([images[i]])[0])
    for got, want in zip(split, images):
        assert_same_image(got, Images.pack([want])[0])


def test_all_ordered_pairs():
    assert all_ordered_pairs(3).tolist() == [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]
    assert all_ordered_pairs(1).shape == all_ordered_pairs(0).shape == (0, 2)


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
    assert from_dict(SynthConfig, asdict(cfg)) == cfg


def test_config_keys_are_checked():
    doc = asdict(small_config())
    with pytest.raises(ValueError, match="^unknown key 'seedd' in synth config$"):
        from_dict(SynthConfig, {**doc, "seedd": 1})
    del doc["num_train"]
    with pytest.raises(ValueError, match="^missing key 'num_train' in synth config$"):
        from_dict(SynthConfig, doc)
