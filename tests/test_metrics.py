import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import argsort_rank, mean_recall_at_k, preds, recall_at_k
from tailbias.metrics import (
    CONSTRAINTS,
    MISS,
    METRICS_CSV_HEADER,
    candidate_index,
    evaluate_split,
    metrics_csv,
    object_pair_scores,
    per_relation_csv,
    rank,
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
        assert object_pair_scores(None, np.array([[0, 1], [1, 0]]), "predcls") is None
        got = score_triplets(None, logits)
        assert got == pytest.approx(row_softmax(logits[:, 1:]), abs=1e-12)

    def test_sgcls_hand_product(self):
        # object probabilities 0.5 and 0.4; relation probability 0.3
        object_probs = np.array([[0.5, 0.3, 0.2], [0.4, 0.35, 0.25]])
        logits = np.concatenate([[[0.0]], np.log([[0.3, 0.7]])], axis=1)
        pair_scores = object_pair_scores(object_probs, np.array([[0, 1]]), "sgcls")
        assert score_triplets(pair_scores, logits)[0, 0] == pytest.approx(
            0.5 * 0.4 * 0.3, abs=1e-12
        )

    def test_unknown_mode_is_refused_by_the_choices_rule(self):
        with pytest.raises(ValueError, match="^mode must be one of 'predcls', 'sgcls', not 'x'$"):
            object_pair_scores(np.ones((2, 3)), np.array([[0, 1]]), "x")

    def test_foreground_renormalization_ignores_background(self, rng):
        logits = rng.normal(size=(2, 4))
        shifted = logits.copy()
        shifted[:, 0] += 123.0  # background slot must not matter
        a = score_triplets(None, logits)
        b = score_triplets(None, shifted)
        assert a == pytest.approx(b, abs=1e-12)


def one_image(scores):
    """The block offsets of a split holding ``scores`` as its only image."""
    return np.array([0, len(scores)])


def ranking(scores, constraint):
    """Flat indices of one image's ranked candidates, best first, read off
    their rank positions."""
    position = rank(scores, one_image(scores), np.arange(scores.size), constraint)
    kept = np.flatnonzero(position != MISS)
    return kept[np.argsort(position[kept])]


class TestRank:
    def test_with_constraint_keeps_best_per_pair(self):
        scores = np.array([[0.2, 0.7]])
        assert ranking(scores, "with").tolist() == [1]
        assert rank(scores, one_image(scores), np.array([0, 1]), "with").tolist() == [MISS, 0]

    def test_without_constraint_keeps_all(self):
        scores = np.array([[0.2, 0.7]])
        assert ranking(scores, "without").tolist() == [1, 0]
        assert rank(scores, one_image(scores), np.array([0, 1]), "without").tolist() == [1, 0]

    def test_tie_breaks_by_construction_order(self):
        scores = np.array([[0.5, 0.5], [0.5, 0.1]])
        assert ranking(scores, "without").tolist() == [0, 1, 2, 3]
        assert ranking(scores[:1], "with").tolist() == [0]
        assert ranking(scores, "with").tolist() == [0, 2]

    def test_with_is_subset_of_without(self, rng):
        scores = rng.uniform(size=(6, 3))
        assert set(ranking(scores, "with").tolist()) <= set(ranking(scores, "without").tolist())

    def test_each_image_is_ranked_on_its_own(self):
        # Image 0 has one pair, image 1 two; positions restart per image.
        scores = np.array([[0.1, 0.2], [0.9, 0.3], [0.5, 0.8]])
        starts = np.array([0, 1, 3])
        every = np.arange(scores.size)
        assert rank(scores, starts, every, "without").tolist() == [1, 0, 0, 3, 2, 1]
        assert rank(scores, starts, every, "with").tolist() == [MISS, 0, 0, MISS, MISS, 1]

    def test_unknown_constraint(self):
        with pytest.raises(ValueError):
            rank(np.zeros((1, 2)), np.array([0, 1]), np.array([0]), "sometimes")

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_are_refused_by_row(self, bad, constraint):
        scores = np.zeros((5, 2))
        scores[3, 1], scores[4, 0] = bad, np.nan
        with pytest.raises(ValueError, match="^scores row 3 is not finite$"):
            rank(scores, np.array([0, 2, 5]), np.array([0]), constraint)


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


def split(*images):
    """Per-image ``(relations, positions)`` lists as the flat arrays
    evaluate_split takes: relations, positions, image, num_images."""
    relations = [np.array(r, dtype=np.int64) for r, _ in images]
    positions = [np.array(p, dtype=np.int64) for _, p in images]
    image = np.repeat(np.arange(len(images)), [len(r) for r in relations])
    return np.concatenate(relations), np.concatenate(positions), image, len(images)


@st.composite
def tied_split(draw):
    """A split of 2- and 3-object images whose scores take few levels, so
    that exact ties occur, with random ground truth (duplicates allowed);
    returns the scores, their per-image starts, the triplets' flat indices,
    relations and images, and the number of relations."""
    num_relations = draw(st.integers(1, 4))
    levels = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.sampled_from([2, 6]), min_size=1, max_size=6))
    starts = np.concatenate([[0], np.cumsum(sizes)])
    size = sum(sizes) * num_relations
    cells = draw(st.lists(st.integers(0, levels - 1), min_size=size, max_size=size))
    scores = np.array(cells, dtype=np.float64).reshape(-1, num_relations) / levels
    triplets = [
        (i, draw(st.integers(0, size - 1)), draw(st.integers(1, num_relations)))
        for i, size in enumerate(sizes) for _ in range(draw(st.integers(0, 3)))
    ]
    image, pair, relations = np.array(triplets, dtype=np.int64).reshape(-1, 3).T
    index = (starts[image] + pair) * num_relations + relations - 1
    return scores, starts, index, relations, image, num_relations


@st.composite
def heavy_ties(draw):
    """A split of images of 0, 1, 2, 6 or 12 pairs whose scores are rounded
    to one decimal, all zero, or drawn freely, queried at no candidate, at
    every candidate in order, or at drawn candidates, unsorted with
    duplicates; returns the scores, their per-image starts and the query."""
    num_relations = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.sampled_from([0, 1, 2, 6, 12]), min_size=1, max_size=6))
    starts = np.concatenate([[0], np.cumsum(sizes)])
    size = sum(sizes) * num_relations
    cells = draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size))
    scores = np.array(cells, dtype=np.float64).reshape(-1, num_relations)
    scores = draw(st.sampled_from([scores.round(1), np.zeros_like(scores), scores]))
    queries = draw(st.sampled_from(["none", "every", "drawn"]))
    if queries == "every":
        return scores, starts, np.arange(size)
    drawn = draw(st.lists(st.integers(0, max(size - 1, 0)), max_size=40 if size else 0))
    return scores, starts, np.array(drawn if queries == "drawn" else [], dtype=np.int64)


@given(st.one_of(tied_split().map(lambda case: case[:3]), heavy_ties()))
@settings(max_examples=200, deadline=None)
def test_counting_rank_equals_the_stable_argsort_oracle(case):
    """Counting the candidates ahead gives every query the position a stable
    argsort of its image gives it, exact ties included."""
    scores, starts, index = case
    for constraint in CONSTRAINTS:
        got = rank(scores, starts, index, constraint)
        assert np.array_equal(got, argsort_rank(scores, starts, index, constraint))


class TestEvaluateSplit:
    def _random_split(self, rng, n_images, num_relations=4, per_image=1):
        """Images of two objects with ``per_image`` ground-truth triplets each,
        drawn image by image, ranked as one split; returns the relations, the
        image of each triplet and the rank positions under each constraint."""
        relations, scores = [], []
        for _ in range(n_images):
            relations.append([int(rng.integers(1, num_relations + 1)) for _ in range(per_image)])
            scores.append(rng.uniform(size=(2, num_relations)))
        starts = np.arange(0, 2 * n_images + 1, 2)
        pairs = [(0, 1), (1, 0)][:per_image]
        gt = [(s, o, r) for row in relations for (s, o), r in zip(pairs, row)]
        image = np.repeat(np.arange(n_images), per_image)
        index = candidate_index(gt, 2, num_relations) + starts[image] * num_relations
        scores = np.concatenate(scores)
        positions = {c: rank(scores, starts, index, c) for c in ("with", "without")}
        return np.ravel(relations), image, positions

    def test_monotone_in_k(self, rng):
        relations, image, positions = self._random_split(rng, 30)
        res = evaluate_split(relations, positions["with"], image, 30, [1, 2, 3, 4], 4, "with")
        rs = [res.recall_at[k] for k in (1, 2, 3, 4)]
        mrs = [res.mean_recall_at[k] for k in (1, 2, 3, 4)]
        assert rs == sorted(rs)
        assert mrs == sorted(mrs)

    def test_duplicated_dataset_invariant(self, rng):
        relations, image, positions = self._random_split(rng, 20)
        pos = positions["with"]
        once = evaluate_split(relations, pos, image, 20, [2, 4], 4, "with")
        twice = evaluate_split(
            np.tile(relations, 2), np.tile(pos, 2), np.concatenate([image, image + 20]), 40,
            [2, 4], 4, "with",
        )
        for k in (2, 4):
            assert once.recall_at[k] == pytest.approx(twice.recall_at[k], abs=1e-12)
            assert once.mean_recall_at[k] == pytest.approx(
                twice.mean_recall_at[k], abs=1e-12
            )

    @given(tied_split())
    @settings(max_examples=200, deadline=None)
    def test_without_at_k_times_l_ge_with_at_k(self, case):
        """A triplet at graph-constrained position p is its pair's first best
        relation, so without the constraint only the at most p * L candidates
        of the p pairs ranked ahead of its pair can be ahead of it: ties go to
        the earlier pair, and within its pair to the lower relation. Hence
        R@(k * L) without the constraint is at least R@k with it; R@k without
        is not, since one pair's relations can fill the top k."""
        scores, starts, index, relations, image, num_relations = case
        with_pos = rank(scores, starts, index, "with")
        without_pos = rank(scores, starts, index, "without")
        hit = with_pos != MISS
        assert (without_pos[hit] <= with_pos[hit] * num_relations).all()
        ks = [1, 2, 3]
        wide = [k * num_relations for k in ks]
        num_images = len(starts) - 1
        res_with = evaluate_split(relations, with_pos, image, num_images, ks, num_relations,
                                  "with")
        res_without = evaluate_split(relations, without_pos, image, num_images, wide,
                                     num_relations, "without")
        for k, k_wide in zip(ks, wide):
            assert res_without.recall_at[k_wide] >= res_with.recall_at[k]
            assert res_without.mean_recall_at[k_wide] >= res_with.mean_recall_at[k]

    def test_images_without_gt_are_excluded(self):
        res = evaluate_split(*split(([], []), ([1], [0]), ([], [])), [1], 2, "with")
        assert res.recall_at[1] == 1.0
        assert res.num_images == 3

    def test_gt_counts(self):
        res = evaluate_split(*split(([1, 1, 2], [MISS, MISS, MISS])), [1], 3, "with")
        assert res.gt_relation_counts.tolist() == [0, 2, 1, 0]


class TestCsv:
    def test_metrics_csv_schema(self, rng):
        images = split(([1], [0]))
        results = {
            "with": evaluate_split(*images, [1, 5], 2, "with"),
            "without": evaluate_split(*images, [1, 5], 2, "without"),
        }
        text = metrics_csv("predcls", results, [1, 5])
        lines = text.strip().split("\n")
        assert lines[0] == METRICS_CSV_HEADER == "mode,constraint,k,R,mR"
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("predcls,with,1,")

    def test_per_relation_csv(self):
        ls = LabelSpace(num_object_classes=2, num_relations=2)
        res = evaluate_split(*split(([1], [0])), [1], 2, "with")
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
