import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbias.stats import (
    LabelSpace,
    ingest,
    marginal_counts,
    pair_counts,
    read_triplets_jsonl,
    sppo_counts,
    stats_from_json,
    stats_to_json,
)

SQRT6 = 2.449489742783178  # sqrt(2 * 3), frozen from exact evaluation


def nonzero(stats):
    """The nonzero cells of the count tensor, as ``{(s, o, r): n}``."""
    return {tuple(k): int(stats.dense[tuple(k)]) for k in np.argwhere(stats.dense).tolist()}


def triplet_streams(max_classes=6, max_relations=5, max_len=60):
    return st.integers(2, max_classes).flatmap(
        lambda ne: st.integers(1, max_relations).flatmap(
            lambda nr: st.tuples(
                st.just(LabelSpace(num_object_classes=ne, num_relations=nr)),
                st.lists(
                    st.tuples(
                        st.integers(0, ne - 1),
                        st.integers(0, ne - 1),
                        st.integers(1, nr),
                    ),
                    max_size=max_len,
                ),
            )
        )
    )


class TestLabelSpace:
    def test_auto_names(self):
        ls = LabelSpace(num_object_classes=2, num_relations=3)
        assert ls.object_names == ("obj_0", "obj_1")
        assert ls.relation_name(1) == "rel_1"
        assert ls.relation_name(3) == "rel_3"

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            LabelSpace(num_object_classes=0, num_relations=1)
        with pytest.raises(ValueError):
            LabelSpace(num_object_classes=1, num_relations=1, object_names=("a", "b"))
        with pytest.raises(ValueError):
            LabelSpace(num_object_classes=2, num_relations=1, object_names=("a", "a"))


class TestIngest:
    def test_empty_stream(self, small_space):
        stats = ingest([], small_space)
        assert nonzero(stats) == {}
        assert stats.total == 0

    def test_multiplicity(self, small_space):
        stats = ingest([(1, 2, 3), (1, 2, 3)], small_space)
        assert nonzero(stats) == {(1, 2, 3): 2}
        assert stats.total == 2

    def test_ordered_pairs_distinct(self, small_space):
        stats = ingest([(1, 2, 3), (2, 1, 3)], small_space)
        assert nonzero(stats) == {(1, 2, 3): 1, (2, 1, 3): 1}

    def test_out_of_range_names_position(self, small_space):
        with pytest.raises(ValueError, match="record 1"):
            ingest([(1, 2, 3), (1, 2, 99)], small_space)
        with pytest.raises(ValueError, match="record 0"):
            ingest([(9, 2, 3)], small_space)
        with pytest.raises(ValueError, match="relation 0"):
            ingest([(1, 2, 0)], small_space)


class TestMarginals:
    def test_empty(self, small_space):
        rel, valid = marginal_counts(ingest([], small_space))
        assert not rel.any() and not valid.any()

    def test_direct_counts(self, small_space):
        stats = ingest([(1, 2, 3)] * 5 + [(4, 5, 3)], small_space)
        rel, valid = marginal_counts(stats)
        assert rel[3] == 6
        assert valid[3] == 2

    def test_indicator_semantics(self, small_space):
        stats = ingest([(1, 2, 3)] * 5, small_space)
        _, valid = marginal_counts(stats)
        assert valid[3] == 1


class TestPairCounts:
    def test_unseen_pair_zero(self, small_space):
        stats = ingest([(1, 2, 3)] * 5, small_space)
        assert not pair_counts(stats, 3, 4).any()

    def test_seen_pair(self, small_space):
        stats = ingest([(1, 2, 3)] * 5, small_space)
        vec = pair_counts(stats, 1, 2)
        assert vec[3] == 5
        assert vec.sum() == 5

    def test_reversed_pair_zero(self, small_space):
        stats = ingest([(1, 2, 3)] * 5, small_space)
        assert not pair_counts(stats, 2, 1).any()

    def test_out_of_range(self, small_space):
        stats = ingest([], small_space)
        with pytest.raises(ValueError):
            pair_counts(stats, 99, 0)


class TestSppo:
    def test_perfect_square(self, small_space):
        # subject side: 4 samples of (1, *, 2); object side: 9 samples of (*, 3, 2)
        records = [(1, 2, 2)] * 4 + [(0, 3, 2)] * 9
        stats = ingest(records, small_space)
        assert sppo_counts(stats, 1, 3)[2] == pytest.approx(6.0, abs=1e-12)

    def test_annihilation(self, small_space):
        stats = ingest([(1, 2, 2)] * 4, small_space)
        # relation 2 never seen with object 4
        assert sppo_counts(stats, 1, 4)[2] == 0.0

    def test_geometric_mean_irrational(self, small_space):
        records = [(1, 2, 2)] * 2 + [(0, 3, 2)] * 3
        stats = ingest(records, small_space)
        assert sppo_counts(stats, 1, 3)[2] == pytest.approx(SQRT6, abs=1e-12)


class TestProperties:
    @given(triplet_streams())
    @settings(max_examples=60, deadline=None)
    def test_relation_counts_sum_to_total(self, case):
        ls, records = case
        stats = ingest(records, ls)
        rel, valid = marginal_counts(stats)
        assert rel.sum() == stats.total
        assert np.all(valid <= rel)

    @given(triplet_streams())
    @settings(max_examples=60, deadline=None)
    def test_sppo_zero_iff_side_missing(self, case):
        ls, records = case
        stats = ingest(records, ls)
        for s in range(ls.num_object_classes):
            for o in range(ls.num_object_classes):
                vec = sppo_counts(stats, s, o)
                for r in range(1, ls.num_relations + 1):
                    subj_seen = any(k[0] == s and k[2] == r for k in nonzero(stats))
                    obj_seen = any(k[1] == o and k[2] == r for k in nonzero(stats))
                    assert (vec[r] == 0.0) == (not subj_seen or not obj_seen)

    @given(triplet_streams(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_ingestion_order_irrelevant(self, case, rnd):
        ls, records = case
        shuffled = records[:]
        rnd.shuffle(shuffled)
        a = ingest(records, ls)
        b = ingest(shuffled, ls)
        assert np.array_equal(a.dense, b.dense)
        for s in range(ls.num_object_classes):
            for o in range(ls.num_object_classes):
                assert np.array_equal(sppo_counts(a, s, o), sppo_counts(b, s, o))

    @given(triplet_streams())
    @settings(max_examples=60, deadline=None)
    def test_double_ingestion(self, case):
        ls, records = case
        once = ingest(records, ls)
        twice = ingest(records + records, ls)
        rel1, valid1 = marginal_counts(once)
        rel2, valid2 = marginal_counts(twice)
        assert np.array_equal(rel2, 2 * rel1)
        assert np.array_equal(valid2, valid1)


def test_json_round_trip(small_space):
    stats = ingest([(1, 2, 3), (1, 2, 3), (4, 5, 1)], small_space)
    again = stats_from_json(stats_to_json(stats))
    assert np.array_equal(again.dense, stats.dense)
    assert again.total == stats.total == 3
    assert again.label_space == stats.label_space


def test_total_is_validated(small_space):
    from tailbias.stats import TripletStats

    dense = ingest([(1, 2, 3), (1, 2, 3)], small_space).dense
    assert TripletStats(label_space=small_space, dense=dense).total == 2
    negative, background = dense.copy(), dense.copy()
    negative[1, 2, 3] = -1
    background[1, 2, 0] = 1
    for bad in (negative, background, dense[:, :, :-1], dense.astype(np.float64)):
        with pytest.raises(ValueError, match=r"^counts must be an int64 \(6, 6, 5\) tensor"):
            TripletStats(label_space=small_space, dense=bad)


def test_marginals_are_copies(small_space):
    stats = ingest([(1, 2, 3)], small_space)
    rel, _ = marginal_counts(stats)
    rel[3] = 99
    rel2, _ = marginal_counts(stats)
    assert rel2[3] == 1


def test_sqrt6_oracle():
    assert math.sqrt(6) == pytest.approx(SQRT6, abs=1e-15)


STATS_SPACE = {"num_object_classes": 3, "num_relations": 2}


@pytest.mark.parametrize(
    "counts, message",
    [
        ([[0, 1, None, 3]], "statistics entry 0 is not four 64-bit integers [s, o, r, n]"),
        ([[0, 1, 1, 3], [0, 1, 1.7, 2]], "statistics entry 1 is not four 64-bit integers"),
        ([[0, 1, 1, True]], "statistics entry 0 is not four 64-bit integers"),
        ([[0, 1, 1]], "statistics entry 0 is not four 64-bit integers"),
        ([[0, 1, 1, 2**64]], "statistics entry 0 is not four 64-bit integers"),
        ([[0, 1, 1, 3], [3, 1, 1, 1]], "statistics entry 1: subject class 3 out of range [0, 3)"),
        ([[0, -1, 1, 3]], "statistics entry 0: object class -1 out of range [0, 3)"),
        ([[0, 1, 0, 3]], "statistics entry 0: relation 0 out of range [1, 2]"),
        ([[0, 1, 1, 3], [0, 1, 2, 0]], "statistics entry 1: count 0 must be >= 1"),
        ([[0, 1, 1, 3], [1, 1, 1, 1], [0, 1, 1, 2]],
         "statistics entry 2: repeats the (s, o, r) of entry 0"),
        ({"0": 1}, "statistics must be an object with a list of [s, o, r, n] counts"),
    ],
    ids=["null", "float", "bool", "short", "huge", "subject", "object", "relation", "zero",
         "repeat", "not-a-list"],
)
def test_stats_from_json_names_a_bad_entry(counts, message):
    text = json.dumps({"label_space": STATS_SPACE, "counts": counts})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        stats_from_json(text)


def test_stats_from_json_reads_the_entries_it_accepts():
    text = json.dumps({"label_space": STATS_SPACE, "counts": [[2, 0, 2, 4], [0, 1, 1, 3]]})
    stats = stats_from_json(text)
    assert nonzero(stats) == {(0, 1, 1): 3, (2, 0, 2): 4}
    assert stats.total == 7
    with pytest.raises(ValueError, match="^statistics must be an object"):
        stats_from_json("[]")


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"s": 0, "o": 1,', "Expecting"),
        ('{"s": 0, "o": 1}', "missing key 'r'"),
        ('{"s": 0, "o": 1, "r": null}', "key 'r' must be a 64-bit integer"),
        ('{"s": 0.0, "o": 1, "r": 1}', "key 's' must be a 64-bit integer"),
        ('{"s": 0, "o": false, "r": 1}', "key 'o' must be a 64-bit integer"),
        ("[0, 1, 1]", "a triplet record must be an object"),
    ],
    ids=["json", "missing-key", "null", "float", "bool", "list"],
)
def test_read_triplets_jsonl_names_the_line(tmp_path, line, message):
    path = tmp_path / "triplets.jsonl"
    path.write_text('{"s": 0, "o": 1, "r": 1}\n\n' + line + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {message}')}"):
        read_triplets_jsonl(str(path))


def test_read_triplets_jsonl_reads_valid_lines(tmp_path):
    path = tmp_path / "triplets.jsonl"
    path.write_text('{"s": 0, "o": 1, "r": 1}\n{"r": 2, "o": 0, "s": 2, "note": "x"}\n')
    assert read_triplets_jsonl(str(path)) == [(0, 1, 1), (2, 0, 2)]
