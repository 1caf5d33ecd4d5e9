import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbias.bias import (
    BiasSpec,
    BiasVector,
    PairBiasTable,
    bias_from_json,
    bias_table,
    bias_to_json,
    compute_bias,
    lookup_pair_bias,
    soft_bias,
    weights_to_bias,
)
from tailbias.stats import LabelSpace, from_dict, ingest

LOG2 = 0.6931471805599453
LOG50 = 3.912023005428146
# head/tail pair for counts [90, 10] at a=1: [-log 0.9, -log 0.1]
HEAD_TAIL = (0.10536051565782628, 2.302585092994046)
# counts [9, 1] at a=2: [log(82/81), log 82]
A2_PAIR = (0.012270092591814348, 4.406719247264253)
# soft exponent 0.5 on counts [90, 10]: weights [3, 1]/4
SOFT_HALF = (0.2876820724517809, 1.3862943611198906)

# zero or comfortably positive: extreme/subnormal weights underflow the
# normalized probabilities and make float-level assertions vacuous
weight_entry = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))
weight_vectors = st.lists(weight_entry, min_size=2, max_size=12).filter(
    lambda w: sum(w) > 0
)


class TestWeightsToBias:
    def test_symmetry(self):
        b = weights_to_bias(np.array([1.0, 1.0]), 1.0, 0.0)
        assert b == pytest.approx([LOG2, LOG2], abs=1e-12)

    def test_a_zero_forces_uniform(self):
        b = weights_to_bias(np.arange(50.0) + 3.0, 0.0, 0.0)
        assert b == pytest.approx([LOG50] * 50, abs=1e-12)
        # 0**0 = 1, so zero weights are fine when a = 0
        b = weights_to_bias(np.zeros(50), 0.0, 0.0)
        assert b == pytest.approx([LOG50] * 50, abs=1e-12)

    def test_nine_to_one(self):
        b = weights_to_bias(np.array([9.0, 1.0]), 1.0, 0.0)
        assert b == pytest.approx(HEAD_TAIL, abs=1e-12)

    def test_nine_to_one_squared(self):
        b = weights_to_bias(np.array([9.0, 1.0]), 2.0, 0.0)
        assert b == pytest.approx(A2_PAIR, abs=1e-12)

    def test_degenerate_weights(self):
        with pytest.raises(ValueError, match="degenerate"):
            weights_to_bias(np.zeros(3), 1.0, 0.0)
        with pytest.raises(ValueError):
            weights_to_bias(np.array([1.0, -1.0]), 1.0, 0.0)

    @given(weight_vectors, st.floats(0.0, 4.0), st.floats(1e-6, 1.0), st.floats(1e-3, 1e3))
    @settings(max_examples=120, deadline=None)
    def test_scale_invariance(self, w, a, eps, c):
        w = np.asarray(w)
        base = weights_to_bias(w, a, eps)
        scaled = weights_to_bias(c * w, a, eps)
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)

    @given(
        st.lists(st.integers(0, 1000), min_size=2, max_size=12).filter(
            lambda w: sum(w) > 0
        ),
        st.floats(0.05, 3.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_order_reversal(self, w, a):
        w = np.asarray(w, dtype=np.float64)
        b = weights_to_bias(w, a, 0.0)
        for i in range(len(w)):
            for j in range(len(w)):
                if w[i] > w[j]:
                    assert b[i] < b[j]

    def test_order_reversal_with_floor(self):
        b = weights_to_bias(np.array([90.0, 9.0, 1.0]), 1.0, 1e-3)
        assert b[0] < b[1] < b[2]

    @pytest.mark.parametrize("a", [1.0, 0.5, 0.37])
    def test_stacked_rows_bit_identical_to_single_rows(self, a):
        # Pair tables build every row in one call; each row must equal the
        # bits of building it alone.
        w = np.random.default_rng(5).integers(0, 40, (20, 20, 30)).astype(np.float64)
        stacked = weights_to_bias(w, a, 1e-3)
        for s in range(20):
            for o in range(20):
                assert stacked[s, o].tobytes() == weights_to_bias(w[s, o], a, 1e-3).tobytes()

    @given(weight_vectors, st.floats(0.0, 4.0), st.floats(1e-6, 1.0))
    @settings(max_examples=120, deadline=None)
    def test_epsilon_bounds(self, w, a, eps):
        b = weights_to_bias(np.asarray(w), a, eps)
        lo = -math.log(1.0 + eps)
        hi = -math.log(eps)
        assert np.all(b >= lo - 1e-12)
        assert np.all(b <= hi + 1e-12)


class TestBiasSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BiasSpec(kind="nope")
        with pytest.raises(ValueError):
            BiasSpec(kind="cb", a=-1.0)
        with pytest.raises(ValueError):
            BiasSpec(kind="cb", epsilon=2.0)
        with pytest.raises(ValueError):
            BiasSpec(kind="cb", a=1.0, a_eval=2.0)

    def test_round_trip(self):
        spec = BiasSpec(kind="eb", a=1.5, epsilon=1e-3, a_eval=0.5, background=-1.0)
        assert from_dict(BiasSpec, asdict(spec)) == spec


class TestComputeBias:
    def test_cb_head_tail(self, skewed_stats):
        vec = compute_bias(BiasSpec(kind="cb", a=1.0, epsilon=0.0), skewed_stats)
        assert vec.foreground == pytest.approx(HEAD_TAIL, abs=1e-12)
        assert vec.background == pytest.approx(math.log(0.5), abs=1e-12)

    def test_vb_uniform_when_one_pair_each(self, binary_space):
        # each relation seen with exactly one (distinct) class pair
        stats = ingest([(0, 1, 1), (0, 1, 1), (1, 0, 2)], binary_space)
        vec = compute_bias(BiasSpec(kind="vb", a=1.0, epsilon=0.0), stats)
        assert vec.foreground == pytest.approx([LOG2, LOG2], abs=1e-12)

    def test_eb_single_relation_with_floor(self, small_space):
        stats = ingest([(1, 2, 3)] * 4, small_space)
        table = compute_bias(BiasSpec(kind="eb", a=1.0, epsilon=1e-3), stats)
        vec = lookup_pair_bias(table, 1, 2)
        assert vec.values[3] == pytest.approx(-math.log(1.0 + 1e-3), abs=1e-15)
        others = [vec.values[r] for r in (1, 2, 4)]
        assert others == pytest.approx([-math.log(1e-3)] * 3, abs=1e-12)

    def test_eb_covers_unannotated_pairs(self, small_space):
        # (1,*,3) and (*,5,3) both seen, so eb can estimate the unseen pair (1,5)
        stats = ingest([(1, 2, 3), (4, 5, 3)], small_space)
        table = compute_bias(BiasSpec(kind="eb", a=1.0, epsilon=1e-3), stats)
        assert (1, 5) in table.entries
        vec = lookup_pair_bias(table, 1, 5)
        assert vec.values[3] == pytest.approx(-math.log(1.0 + 1e-3), abs=1e-12)

    def test_pb_entries_only_for_observed_pairs(self, small_space):
        stats = ingest([(1, 2, 3), (4, 5, 1)], small_space)
        table = compute_bias(BiasSpec(kind="pb", a=1.0, epsilon=1e-3), stats)
        assert set(table.entries) == {(1, 2), (4, 5)}

    def test_zero_weight_at_zero_epsilon_rejected(self, skewed_stats, binary_space):
        # relation 2 unseen: infinite bias at epsilon = 0 must not slip through
        stats = ingest([(0, 1, 1)] * 3, binary_space)
        with pytest.raises(ValueError, match="non-finite"):
            compute_bias(BiasSpec(kind="cb", a=1.0, epsilon=0.0), stats)

    def test_background_override(self, skewed_stats):
        spec = BiasSpec(kind="cb", a=1.0, epsilon=0.0, background=0.25)
        assert compute_bias(spec, skewed_stats).background == 0.25

    def test_empty_stats_rejected_for_positive_a(self, binary_space):
        empty = ingest([], binary_space)
        with pytest.raises(ValueError):
            compute_bias(BiasSpec(kind="cb", a=1.0, epsilon=1e-3), empty)

    def test_a_zero_constant_regardless_of_stats(self, skewed_stats):
        vec = compute_bias(BiasSpec(kind="cb", a=0.0, epsilon=0.0), skewed_stats)
        assert vec.foreground == pytest.approx([LOG2, LOG2], abs=1e-12)


class TestSoftBias:
    def test_a_eval_zero_is_uniform(self, skewed_stats):
        spec = BiasSpec(kind="cb", a=1.0, epsilon=1e-3, a_eval=0.0)
        vec = soft_bias(spec, skewed_stats)
        expected = -math.log(0.5 + 1e-3)
        assert vec.foreground == pytest.approx([expected, expected], abs=1e-12)

    def test_a_eval_equal_a_matches_compute(self, skewed_stats):
        spec = BiasSpec(kind="cb", a=1.0, epsilon=1e-3, a_eval=1.0)
        assert np.array_equal(
            soft_bias(spec, skewed_stats).values,
            compute_bias(spec, skewed_stats).values,
        )

    def test_half_exponent(self, skewed_stats):
        spec = BiasSpec(kind="cb", a=1.0, epsilon=0.0, a_eval=0.5)
        vec = soft_bias(spec, skewed_stats)
        assert vec.foreground == pytest.approx(SOFT_HALF, abs=1e-12)


class TestLookupAndApply:
    def test_lookup_stored_and_fallback(self, small_space):
        stats = ingest([(1, 2, 3)] * 2, small_space)
        table = compute_bias(BiasSpec(kind="pb", a=1.0, epsilon=1e-3), stats)
        assert lookup_pair_bias(table, 1, 2) is table.entries[(1, 2)]
        assert lookup_pair_bias(table, 0, 4) is table.fallback

    def test_fallback_is_uniform(self, small_space):
        # the one observed pair saw every relation, so epsilon = 0 stays finite
        ls50 = LabelSpace(num_object_classes=3, num_relations=50)
        stats = ingest([(0, 1, r) for r in range(1, 51)], ls50)
        table = compute_bias(BiasSpec(kind="pb", a=1.0, epsilon=0.0), stats)
        assert table.fallback.foreground == pytest.approx([LOG50] * 50, abs=1e-12)
        assert lookup_pair_bias(table, 2, 2).foreground == pytest.approx(
            [LOG50] * 50, abs=1e-12
        )

    def test_dense_table_matches_lookup(self, small_space):
        stats = ingest([(1, 2, 3)] * 2 + [(4, 0, 1)], small_space)
        table = compute_bias(BiasSpec(kind="pb", a=1.0, epsilon=1e-3), stats)
        dense = bias_table(table, small_space.num_object_classes)
        assert dense.shape == (6, 6, small_space.num_relations + 1)
        for s in range(6):
            for o in range(6):
                assert np.array_equal(dense[s, o], lookup_pair_bias(table, s, o).values)
        rows = dense[np.array([1, 4, 0]), np.array([2, 0, 0])]
        assert np.array_equal(rows[1], table.entries[(4, 0)].values)

    def test_dense_table_broadcasts_a_vector(self, skewed_stats):
        vec = compute_bias(BiasSpec(kind="cb", a=1.0), skewed_stats)
        dense = bias_table(vec, 2)
        assert dense.shape == (2, 2, 3)
        assert np.shares_memory(dense, vec.values)
        assert np.array_equal(dense[1, 0], vec.values)

    def test_dense_table_rejects_entry_outside_classes(self, small_space):
        stats = ingest([(5, 2, 3)], small_space)
        table = compute_bias(BiasSpec(kind="pb", a=1.0, epsilon=1e-3), stats)
        with pytest.raises(ValueError, match="outside 4 object classes"):
            bias_table(table, 4)


class TestSerialization:
    def test_global_round_trip(self, skewed_stats):
        spec = BiasSpec(kind="cb", a=1.0, epsilon=1e-3)
        vec = compute_bias(spec, skewed_stats)
        text = bias_to_json(spec, vec)
        doc = json.loads(text)
        assert doc["kind"] == "cb" and "values" in doc
        spec2, vec2 = bias_from_json(text)
        assert spec2 == spec
        assert np.array_equal(vec2.values, vec.values)

    def test_unknown_key_is_named(self, skewed_stats):
        with pytest.raises(ValueError, match="^unknown key 'epsilonn' in bias spec$"):
            from_dict(BiasSpec, {"kind": "cb", "epsilonn": 0.5})
        spec = BiasSpec(kind="cb", a=1.0, epsilon=1e-3)
        doc = json.loads(bias_to_json(spec, compute_bias(spec, skewed_stats)))
        with pytest.raises(ValueError, match="^unknown key 'valuez' in bias spec$"):
            bias_from_json(json.dumps({**doc, "valuez": doc["values"]}))
        with pytest.raises(ValueError, match="^missing key 'kind' in bias spec$"):
            from_dict(BiasSpec, {"a": 1.0})

    def test_pair_round_trip(self, small_space):
        stats = ingest([(1, 2, 3), (0, 1, 2)], small_space)
        spec = BiasSpec(kind="pb", a=1.0, epsilon=1e-3)
        table = compute_bias(spec, stats)
        spec2, table2 = bias_from_json(bias_to_json(spec, table))
        assert isinstance(table2, PairBiasTable)
        assert set(table2.entries) == set(table.entries)
        for key, vec in table.entries.items():
            assert np.array_equal(table2.entries[key].values, vec.values)
        assert np.array_equal(table2.fallback.values, table.fallback.values)

    @pytest.mark.parametrize(
        "entries, message",
        [
            (None, r"bias entries must be a list of \[s, o, values\]"),
            ({"0,1": [0.0] * 3}, r"bias entries must be a list"),
            ([[0, 1]], r"bias entry 0 is not \[s, o, values\]"),
            ([[0, 1, [0.0] * 3], ["0", 1, [0.0] * 3]], r"bias entry 1 is not"),
            ([[0, 1, 0.5]], r"bias entry 0 for class pair \(0, 1\): bias vector must be 1-D"),
            (
                [[0, 1, [0.0] * 3], [2, 3, [0.0] * 2]],
                r"bias entry 1 for class pair \(2, 3\) has 2 values; the fallback has 3",
            ),
            ([[0, 1, [0.0, "x", 0.0]]], r"bias entry 0 for class pair \(0, 1\): "),
            ([[0, 1, [0.0, None, 0.0]]], r"bias entry 0 .*non-finite"),
            ([[0, 1, [[0.0], [0.0], [0.0]]]], r"bias entry 0 .*1-D"),
        ],
    )
    def test_malformed_pair_table_names_the_entry(self, entries, message):
        doc = {"kind": "pb", "a": 1.0, "entries": entries, "fallback": [0.0, 1.0, 2.0]}
        with pytest.raises(ValueError, match=message):
            bias_from_json(json.dumps(doc))

    def test_entry_length_checked_beyond_the_fallback(self, small_space):
        # Evaluation checks only the fallback against the label space, so
        # every entry must match the fallback's length when it is read.
        stats = ingest([(1, 2, 3), (0, 1, 2)], small_space)
        spec = BiasSpec(kind="pb", a=1.0, epsilon=1e-3)
        doc = json.loads(bias_to_json(spec, compute_bias(spec, stats)))
        doc["entries"][0][2] = doc["entries"][0][2][:-1]
        with pytest.raises(ValueError, match=r"bias entry 0 for class pair \(0, 1\) has 4"):
            bias_from_json(json.dumps(doc))


def test_bias_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        BiasVector(np.array([0.0, np.inf]))
