import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import mean_recall_at_k, preds, recall_at_k
from tailbias.metrics import (
    MISS,
    METRICS_CSV_HEADER,
    candidate_index,
    evaluate_split,
    metrics_csv,
    object_pair_scores,
    per_relation_csv,
    rank,
    ranking,
    score_triplets,
)
from tailbias.numerics import row_softmax
from tailbias.stats import LabelSpace


class TestScoreTriplets:
    def test_enumerates_pair_relation_grid(self, rng):
        logits = rng.normal(size=(1, 3))  # background + 2 relations
        assert score_triplets(None, logits).shape == (1, 2)
        assert candidate_index([(0, 1, 1), (0, 1, 2)], 2, 2).tolist() == [0, 1]
        # pairs of three objects: (0,1) (0,2) (1,0) (1,2) (2,0) (2,1)
        gt = [(s, o, 2) for s in range(3) for o in range(3) if s != o]
        assert candidate_index(gt, 3, 2).tolist() == [1, 3, 5, 7, 9, 11]

    def test_predcls_scores_are_relation_probs(self, rng):
        logits = rng.normal(size=(2, 4))
        assert object_pair_scores(None, [(0, 1), (1, 0)], "predcls") is None
        got = score_triplets(None, logits)
        assert got == pytest.approx(row_softmax(logits[:, 1:]), abs=1e-12)

    def test_sgcls_hand_product(self):
        # object probabilities 0.5 and 0.4; relation probability 0.3
        object_probs = np.array([[0.5, 0.3, 0.2], [0.4, 0.35, 0.25]])
        logits = np.concatenate([[[0.0]], np.log([[0.3, 0.7]])], axis=1)
        pair_scores = object_pair_scores(object_probs, [(0, 1)], "sgcls")
        assert score_triplets(pair_scores, logits)[0, 0] == pytest.approx(
            0.5 * 0.4 * 0.3, abs=1e-12
        )

    def test_foreground_renormalization_ignores_background(self, rng):
        logits = rng.normal(size=(2, 4))
        shifted = logits.copy()
        shifted[:, 0] += 123.0  # background slot must not matter
        a = score_triplets(None, logits)
        b = score_triplets(None, shifted)
        assert a == pytest.approx(b, abs=1e-12)


class TestRank:
    def test_with_constraint_keeps_best_per_pair(self):
        scores = np.array([[0.2, 0.7]])
        assert ranking(scores, "with").tolist() == [1]
        assert rank(scores, np.array([0, 1]), "with").tolist() == [MISS, 0]

    def test_without_constraint_keeps_all(self):
        scores = np.array([[0.2, 0.7]])
        assert ranking(scores, "without").tolist() == [1, 0]
        assert rank(scores, np.array([0, 1]), "without").tolist() == [1, 0]

    def test_tie_breaks_by_construction_order(self):
        scores = np.array([[0.5, 0.5], [0.5, 0.1]])
        assert ranking(scores, "without").tolist() == [0, 1, 2, 3]
        assert ranking(scores[:1], "with").tolist() == [0]
        assert ranking(scores, "with").tolist() == [0, 2]

    def test_with_is_subset_of_without(self, rng):
        scores = rng.uniform(size=(6, 3))
        assert set(ranking(scores, "with").tolist()) <= set(ranking(scores, "without").tolist())

    def test_unknown_constraint(self):
        with pytest.raises(ValueError):
            rank(np.zeros((1, 2)), np.array([0]), "sometimes")


class TestRecallAtK:
    def test_all_found(self):
        ranked = preds((0, 1, 1, 0.9), (1, 0, 2, 0.8))
        assert recall_at_k([(0, 1, 1), (1, 0, 2)], ranked, 5) == 1.0

    def test_none_found(self):
        ranked = preds((0, 1, 1, 0.9))
        assert recall_at_k([(0, 1, 2)], ranked, 5) == 0.0

    def test_half_found(self):
        ranked = preds((0, 1, 1, 0.9), (1, 0, 2, 0.8))
        assert recall_at_k([(0, 1, 1), (2, 0, 1)], ranked, 5) == 0.5

    def test_k_window(self):
        ranked = preds((0, 1, 1, 0.9), (1, 0, 2, 0.8))
        assert recall_at_k([(1, 0, 2)], ranked, 1) == 0.0
        assert recall_at_k([(1, 0, 2)], ranked, 2) == 1.0

    def test_rejects_empty_gt_or_bad_k(self):
        with pytest.raises(ValueError):
            recall_at_k([], [], 5)
        with pytest.raises(ValueError):
            recall_at_k([(0, 1, 1)], [], 0)


class TestMeanRecall:
    def test_perfect_predictor(self):
        images = [([(0, 1, 1), (1, 0, 2)], preds((0, 1, 1, 0.9), (1, 0, 2, 0.8)))]
        mr, per = mean_recall_at_k(images, 5, 3)
        assert mr == 1.0
        assert per[1] == 1.0 and per[2] == 1.0 and np.isnan(per[3])

    def test_head_only_predictor_bounded(self):
        # predictor only ever emits relation 1; two relations present
        images = [
            ([(0, 1, 1)], preds((0, 1, 1, 0.9))),
            ([(0, 1, 2)], preds((0, 1, 1, 0.9))),
        ]
        mr, per = mean_recall_at_k(images, 5, 2)
        assert per[1] == 1.0 and per[2] == 0.0
        assert mr == 0.5

    def test_head_tail_split_vs_plain_recall(self):
        # nine head instances recalled, one tail missed: R is high, mR is 0.5
        images = [([(0, 1, 1)], preds((0, 1, 1, 0.9)))] * 9 + [
            ([(0, 1, 2)], preds((0, 1, 1, 0.9)))
        ]
        mr, _ = mean_recall_at_k(images, 5, 2)
        r = float(np.mean([recall_at_k(gt, ranked, 5) for gt, ranked in images]))
        assert mr == 0.5
        assert r == 0.9


def image(relations, positions):
    """One image's ground truth as evaluate_split takes it."""
    return np.array(relations, dtype=np.int64), np.array(positions, dtype=np.int64)


class TestEvaluateSplit:
    def _random_images(self, rng, n_images, num_relations=4, constraint="with"):
        images = []
        for _ in range(n_images):
            gt = [(0, 1, int(rng.integers(1, num_relations + 1)))]
            scores = rng.uniform(size=(2, num_relations))
            index = candidate_index(gt, 2, num_relations)
            images.append(image([gt[0][2]], rank(scores, index, constraint)))
        return images

    def test_monotone_in_k(self, rng):
        images = self._random_images(rng, 30)
        res = evaluate_split(images, [1, 2, 3, 4], 4, "with")
        rs = [res.recall_at[k] for k in (1, 2, 3, 4)]
        mrs = [res.mean_recall_at[k] for k in (1, 2, 3, 4)]
        assert rs == sorted(rs)
        assert mrs == sorted(mrs)

    def test_duplicated_dataset_invariant(self, rng):
        images = self._random_images(rng, 20)
        once = evaluate_split(images, [2, 4], 4, "with")
        twice = evaluate_split(images + images, [2, 4], 4, "with")
        for k in (2, 4):
            assert once.recall_at[k] == pytest.approx(twice.recall_at[k], abs=1e-12)
            assert once.mean_recall_at[k] == pytest.approx(
                twice.mean_recall_at[k], abs=1e-12
            )

    def test_without_ge_with_at_equal_k(self, rng):
        num_relations = 4
        per_with = []
        per_without = []
        for _ in range(25):
            gt = [(0, 1, int(rng.integers(1, 5))), (1, 0, int(rng.integers(1, 5)))]
            scores = rng.uniform(size=(2, num_relations))
            index = candidate_index(gt, 2, num_relations)
            relations = [r for _, _, r in gt]
            per_with.append(image(relations, rank(scores, index, "with")))
            per_without.append(image(relations, rank(scores, index, "without")))
        res_with = evaluate_split(per_with, [1, 2, 4, 8], num_relations, "with")
        res_without = evaluate_split(per_without, [1, 2, 4, 8], num_relations, "without")
        for k in (1, 2, 4, 8):
            assert res_without.recall_at[k] >= res_with.recall_at[k] - 1e-12

    def test_images_without_gt_are_excluded(self):
        images = [image([], []), image([1], [0])]
        res = evaluate_split(images, [1], 2, "with")
        assert res.recall_at[1] == 1.0
        assert res.num_images == 2

    def test_gt_counts(self):
        images = [image([1, 1, 2], [MISS, MISS, MISS])]
        res = evaluate_split(images, [1], 3, "with")
        assert res.gt_relation_counts.tolist() == [0, 2, 1, 0]


class TestCsv:
    def test_metrics_csv_schema(self, rng):
        images = [image([1], [0])]
        results = {
            "with": evaluate_split(images, [1, 5], 2, "with"),
            "without": evaluate_split(images, [1, 5], 2, "without"),
        }
        text = metrics_csv("predcls", results, [1, 5])
        lines = text.strip().split("\n")
        assert lines[0] == METRICS_CSV_HEADER == "mode,constraint,k,R,mR"
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("predcls,with,1,")

    def test_per_relation_csv(self):
        ls = LabelSpace(num_object_classes=2, num_relations=2)
        res = evaluate_split([image([1], [0])], [1], 2, "with")
        text = per_relation_csv(ls, res, [1])
        lines = text.strip().split("\n")
        assert lines[0] == "relation,name,gt_count,recall@1"
        assert lines[1] == "1,rel_1,1,1.000000"
        assert lines[2] == "2,rel_2,0,"  # absent relation: empty recall cell


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_rank_is_sorted_and_stable(row):
    scores = np.array([row])  # a single pair
    for constraint in ("with", "without"):
        ranked = scores.ravel()[ranking(scores, constraint)]
        assert ranked.tolist() == sorted(ranked.tolist(), reverse=True)
    assert len(ranking(scores, "with")) == 1
