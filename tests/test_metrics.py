import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbias.metrics import (
    METRICS_CSV_HEADER,
    TripletPrediction,
    evaluate_split,
    mean_recall_at_k,
    metrics_csv,
    per_relation_csv,
    rank,
    recall_at_k,
    score_triplets,
)
from tailbias.numerics import row_softmax
from tailbias.stats import LabelSpace


def preds(*rows):
    return [TripletPrediction(s=s, o=o, relation=r, score=sc) for s, o, r, sc in rows]


class TestScoreTriplets:
    def test_enumerates_pair_relation_grid(self, rng):
        logits = rng.normal(size=(1, 3))  # background + 2 relations
        out = score_triplets(None, logits, [(0, 1)], "predcls")
        assert [(p.s, p.o, p.relation) for p in out] == [(0, 1, 1), (0, 1, 2)]

    def test_predcls_scores_are_relation_probs(self, rng):
        logits = rng.normal(size=(2, 4))
        out = score_triplets(None, logits, [(0, 1), (1, 0)], "predcls")
        expected = row_softmax(logits[:, 1:])
        got = np.array([p.score for p in out]).reshape(2, 3)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_sgcls_hand_product(self):
        # object probabilities 0.5 and 0.4; relation probability 0.3
        object_probs = np.array([[0.5, 0.3, 0.2], [0.4, 0.35, 0.25]])
        third = np.log(np.array([[0.2, 0.3, 0.5]]))  # fg softmax over cols 1:
        logits = np.concatenate([[[0.0]], np.log([[0.3, 0.7]])], axis=1)
        out = score_triplets(object_probs, logits, [(0, 1)], "sgcls")
        assert out[0].score == pytest.approx(0.5 * 0.4 * 0.3, abs=1e-12)

    def test_foreground_renormalization_ignores_background(self, rng):
        logits = rng.normal(size=(2, 4))
        shifted = logits.copy()
        shifted[:, 0] += 123.0  # background slot must not matter
        a = score_triplets(None, logits, [(0, 1), (1, 0)], "predcls")
        b = score_triplets(None, shifted, [(0, 1), (1, 0)], "predcls")
        for pa, pb in zip(a, b):
            assert pa.score == pytest.approx(pb.score, abs=1e-12)


class TestRank:
    def test_with_constraint_keeps_best_per_pair(self):
        out = rank(preds((0, 1, 1, 0.2), (0, 1, 2, 0.7)), "with")
        assert [(p.relation, p.score) for p in out] == [(2, 0.7)]

    def test_without_constraint_keeps_all(self):
        out = rank(preds((0, 1, 1, 0.2), (0, 1, 2, 0.7)), "without")
        assert [p.relation for p in out] == [2, 1]

    def test_tie_breaks_by_construction_order(self):
        out = rank(preds((0, 1, 1, 0.5), (0, 1, 2, 0.5), (1, 0, 1, 0.5)), "without")
        assert [(p.s, p.o, p.relation) for p in out] == [(0, 1, 1), (0, 1, 2), (1, 0, 1)]
        out = rank(preds((0, 1, 1, 0.5), (0, 1, 2, 0.5)), "with")
        assert [(p.relation,) for p in out] == [(1,)]

    def test_with_is_subset_of_without(self, rng):
        candidates = preds(
            *[
                (s, o, r, float(rng.uniform()))
                for s in range(3)
                for o in range(3)
                if s != o
                for r in (1, 2, 3)
            ]
        )
        with_set = {(p.s, p.o, p.relation) for p in rank(candidates, "with")}
        without_set = {(p.s, p.o, p.relation) for p in rank(candidates, "without")}
        assert with_set <= without_set

    def test_unknown_constraint(self):
        with pytest.raises(ValueError):
            rank([], "sometimes")


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


class TestEvaluateSplit:
    def _random_images(self, rng, n_images, num_relations=4):
        images = []
        for _ in range(n_images):
            gt = [(0, 1, int(rng.integers(1, num_relations + 1)))]
            candidates = preds(
                *[(0, 1, r, float(rng.uniform())) for r in range(1, num_relations + 1)]
            )
            images.append((gt, rank(candidates, "with")))
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
            candidates = preds(
                *[
                    (s, o, r, float(rng.uniform()))
                    for (s, o) in ((0, 1), (1, 0))
                    for r in range(1, 5)
                ]
            )
            per_with.append((gt, rank(candidates, "with")))
            per_without.append((gt, rank(candidates, "without")))
        res_with = evaluate_split(per_with, [1, 2, 4, 8], num_relations, "with")
        res_without = evaluate_split(per_without, [1, 2, 4, 8], num_relations, "without")
        for k in (1, 2, 4, 8):
            assert res_without.recall_at[k] >= res_with.recall_at[k] - 1e-12

    def test_images_without_gt_are_excluded(self):
        images = [([], []), ([(0, 1, 1)], preds((0, 1, 1, 0.9)))]
        res = evaluate_split(images, [1], 2, "with")
        assert res.recall_at[1] == 1.0
        assert res.num_images == 2

    def test_gt_counts(self):
        images = [([(0, 1, 1), (1, 0, 1), (0, 1, 2)], [])]
        res = evaluate_split(images, [1], 3, "with")
        assert res.gt_relation_counts.tolist() == [0, 2, 1, 0]


class TestCsv:
    def test_metrics_csv_schema(self, rng):
        images = [([(0, 1, 1)], preds((0, 1, 1, 0.9)))]
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
        images = [([(0, 1, 1)], preds((0, 1, 1, 0.9)))]
        res = evaluate_split(images, [1], 2, "with")
        text = per_relation_csv(ls, res, [1])
        lines = text.strip().split("\n")
        assert lines[0] == "relation,name,gt_count,recall@1"
        assert lines[1] == "1,rel_1,1,1.000000"
        assert lines[2] == "2,rel_2,0,"  # absent relation: empty recall cell


@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.floats(0.0, 1.0)), min_size=1, max_size=30
    )
)
@settings(max_examples=80, deadline=None)
def test_rank_is_sorted_and_stable(items):
    candidates = [
        TripletPrediction(s=0, o=1, relation=r, score=s) for r, s in items
    ]
    for constraint in ("with", "without"):
        ranked = rank(candidates, constraint)
        scores = [p.score for p in ranked]
        assert scores == sorted(scores, reverse=True)
    assert len(rank(candidates, "with")) == 1  # single pair
