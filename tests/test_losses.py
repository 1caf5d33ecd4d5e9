import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracle
from tailbias.losses import (
    LossConfig,
    baseline_loss,
    bias_gap,
    biased_ce,
    ce,
)
from tailbias.numerics import row_softmax

LOG2 = 0.6931471805599453
# ce([1,0,0], 0), frozen from exact evaluation
CE_VALUE = 0.5514447139320511
CE_GRAD = (-0.4238831152341709, 0.21194155761708544, 0.21194155761708544)
# biased ce([0,0], b=[log2,0], 0): softmax([-log2, 0]) = [1/3, 2/3]
RTPB_VALUE = 1.0986122886681098
THETA_VALUE = 0.4054651081081644
FOCAL_VALUE = 0.04332169878499658  # 0.25 * 0.25 * log 2
LDAM_VALUE = 0.8259394198788436  # log(1 + e**0.25), from the margin formula


def fd_grad(f, z, h=1e-5):
    """Central-difference gradient, independent of any library code."""
    g = np.zeros_like(z)
    for i in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2 * h)
    return g


def assert_grad_close(f, z, grad, tol=1e-4):
    fd = fd_grad(f, z)
    denom = np.maximum(1.0, np.abs(grad))
    assert np.max(np.abs(fd - grad) / denom) < tol


def ldam_reference(z, y, counts, margin_c=0.5):
    """Direct evaluation of the per-class margin loss, written independently."""
    delta = margin_c / counts[y] ** 0.25
    shifted = z.astype(np.float64).copy()
    shifted[y] -= delta
    m = shifted.max()
    logsum = m + math.log(np.sum(np.exp(shifted - m)))
    value = logsum - shifted[y]
    p = np.exp(shifted - logsum)
    grad = p.copy()
    grad[y] -= 1.0
    return value, grad


def random_instance(rng, dim_max=64):
    dim = int(rng.integers(2, dim_max + 1))
    z = rng.uniform(-5.0, 5.0, dim)
    b = rng.uniform(-5.0, 5.0, dim)
    y = int(rng.integers(0, dim))
    return z, b, y


def softmax(z) -> np.ndarray:
    """The softmax every loss here uses: one row of ``row_softmax``."""
    return row_softmax(np.array([z], dtype=np.float64))[0]


class TestSoftmax:
    def test_symmetric(self):
        assert softmax([0.0, 0.0]) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_shift_invariance(self):
        for c in (-1000.0, 0.0, 7.5, 1000.0):
            assert softmax([c, c, c]) == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_ratio(self):
        p = softmax([math.log(1.0), math.log(3.0)])
        assert p == pytest.approx([0.25, 0.75], abs=1e-14)

    @given(st.lists(st.floats(-200, 200), min_size=2, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one(self, z):
        p = softmax(z)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0)


class TestCe:
    def test_symmetric_case(self):
        out = ce([0.0, 0.0], 0)
        assert out.value == pytest.approx(LOG2, abs=1e-15)
        assert out.grad_logits == pytest.approx([-0.5, 0.5], abs=1e-15)

    def test_confident_limit(self):
        out = ce([50.0, 0.0, 0.0], 0)
        assert 0.0 <= out.value < 1e-20

    def test_hand_case_with_fd(self):
        z = np.array([1.0, 0.0, 0.0])
        out = ce(z, 0)
        assert out.value == pytest.approx(CE_VALUE, abs=1e-12)
        assert out.grad_logits == pytest.approx(CE_GRAD, abs=1e-12)
        assert_grad_close(lambda v: ce(v, 0).value, z, out.grad_logits, tol=1e-6)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            ce([0.0, 0.0], 2)


class TestBiasedCe:
    def test_constant_bias_cancels(self, rng):
        z = rng.uniform(-3, 3, 5)
        plain = ce(z, 2)
        shifted = biased_ce(z, np.full(5, 0.37), 2)
        assert shifted.value == pytest.approx(plain.value, abs=1e-12)
        assert shifted.grad_logits == pytest.approx(plain.grad_logits, abs=1e-12)

    def test_hand_case(self):
        out = biased_ce(np.zeros(2), np.array([LOG2, 0.0]), 0)
        assert out.value == pytest.approx(RTPB_VALUE, abs=1e-12)
        assert out.grad_logits == pytest.approx([-2 / 3, 2 / 3], abs=1e-12)
        assert_grad_close(
            lambda v: biased_ce(v, np.array([LOG2, 0.0]), 0).value,
            np.zeros(2),
            out.grad_logits,
            tol=1e-6,
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            biased_ce(np.zeros(3), np.zeros(2), 0)

    def test_decomposition_identity(self, rng):
        for _ in range(200):
            z, b, y = random_instance(rng)
            lhs = biased_ce(z, b, y).value
            rhs = ce(z, y).value + bias_gap(z, b, y)
            assert abs(lhs - rhs) < 1e-10


    def test_zero_bias_is_plain_ce(self, rng):
        z = rng.uniform(-3, 3, (7, 5))
        y = rng.integers(0, 5, 7)
        plain = ce(z, y)
        shifted = biased_ce(z, np.zeros_like(z), y)
        assert np.array_equal(shifted.value, plain.value)
        assert np.array_equal(shifted.grad_logits, plain.grad_logits)

    def test_constant_row_shift_cancels(self, rng):
        # Each row may be shifted by its own constant.
        z = rng.uniform(-3, 3, (6, 4))
        y = rng.integers(0, 4, 6)
        shift = np.repeat(rng.uniform(-2, 2, (6, 1)), 4, axis=1)
        plain = ce(z, y)
        shifted = biased_ce(z, shift, y)
        assert np.max(np.abs(shifted.value - plain.value)) < 1e-12
        assert np.max(np.abs(shifted.grad_logits - plain.grad_logits)) < 1e-12


class TestBiasGap:
    def test_constant_bias_zero(self, rng):
        z = rng.uniform(-4, 4, 6)
        assert bias_gap(z, np.full(6, 1.7), 3) == pytest.approx(0.0, abs=1e-13)

    def test_zero_bias_zero(self, rng):
        z = rng.uniform(-4, 4, 6)
        assert bias_gap(z, np.zeros(6), 1) == 0.0

    def test_hand_case(self):
        assert bias_gap(np.zeros(2), np.array([LOG2, 0.0]), 0) == pytest.approx(
            THETA_VALUE, abs=1e-12
        )

    def test_equals_loss_difference(self):
        z = np.zeros(2)
        b = np.array([LOG2, 0.0])
        assert bias_gap(z, b, 0) == pytest.approx(
            biased_ce(z, b, 0).value - ce(z, 0).value, abs=1e-12
        )

    def test_monotone_in_target_bias(self, rng):
        delta = 1e-3
        for _ in range(300):
            z, b, y = random_instance(rng)
            bumped = b.copy()
            bumped[y] += delta
            assert bias_gap(z, bumped, y) > bias_gap(z, b, y)


class TestBaselines:
    def test_class_balanced_single_sample_is_ce(self):
        z = np.array([0.3, -0.2, 1.0])
        out = baseline_loss(LossConfig(kind="class_balanced"), z, 0, np.array([1, 5, 9]))
        ref = ce(z, 0)
        assert out.value == ref.value
        assert np.array_equal(out.grad_logits, ref.grad_logits)

    def test_focal_degenerates_to_ce(self, rng):
        z = rng.uniform(-3, 3, 4)
        config = LossConfig(kind="focal", gamma=0.0, alpha=1.0)
        out = baseline_loss(config, z, 1, np.ones(4, dtype=int))
        ref = ce(z, 1)
        assert out.value == ref.value
        assert np.array_equal(out.grad_logits, ref.grad_logits)

    def test_focal_hand_case(self):
        z = np.zeros(2)
        config, counts = LossConfig(kind="focal", gamma=2.0, alpha=0.25), np.ones(2, dtype=int)
        out = baseline_loss(config, z, 0, counts)
        assert out.value == pytest.approx(FOCAL_VALUE, abs=1e-12)
        assert_grad_close(
            lambda v: baseline_loss(config, v, 0, counts).value, z, out.grad_logits, tol=1e-6
        )

    def test_ldam_hand_case(self):
        z = np.zeros(2)
        out = baseline_loss(LossConfig(kind="ldam", margin_c=0.5), z, 0, np.array([16, 2]))
        assert out.value == pytest.approx(LDAM_VALUE, abs=1e-12)
        ref = biased_ce(z, np.array([0.25, 0.0]), 0)
        assert out.value == ref.value
        assert np.array_equal(out.grad_logits, ref.grad_logits)

    def test_ldam_matches_independent_reference(self, rng):
        for _ in range(200):
            z, _, y = random_instance(rng, dim_max=16)
            counts = rng.integers(1, 500, z.size)
            out = baseline_loss(LossConfig(kind="ldam"), z, y, counts)
            ref_value, ref_grad = ldam_reference(z, y, counts)
            assert abs(out.value - ref_value) < 1e-12
            assert np.max(np.abs(out.grad_logits - ref_grad)) < 1e-12

    def test_reweight_weights(self):
        z = np.array([0.1, 0.2, 0.3])
        counts = np.array([2, 4, 8])
        raw = LossConfig(kind="reweight", reweight_normalize=False)
        assert baseline_loss(raw, z, 0, counts).value == pytest.approx(
            ce(z, 0).value / 2, abs=1e-15
        )
        normalized = LossConfig(kind="reweight")
        # normalized weights average to 1 over the three classes
        weights = [
            baseline_loss(normalized, z, y, counts).value / ce(z, y).value for y in range(3)
        ]
        assert np.mean(weights) == pytest.approx(1.0, abs=1e-12)

    def test_unobserved_class_rejected(self):
        z = np.zeros(3)
        counts = np.array([4, 0, 2])
        for kind in ("reweight", "class_balanced", "ldam"):
            with pytest.raises(ValueError, match="unobserved"):
                baseline_loss(LossConfig(kind=kind), z, 1, counts)

    def test_count_length_must_match(self):
        with pytest.raises(ValueError):
            baseline_loss(LossConfig(kind="reweight"), np.zeros(3), 0, np.array([1, 2]))


class TestGradientFidelity:
    def test_all_kinds_match_finite_differences(self, rng):
        worst = 0.0
        for _ in range(25):
            z, b, y = random_instance(rng)
            counts = rng.integers(1, 300, z.size)
            fns = [
                lambda v: ce(v, y),
                lambda v: biased_ce(v, b, y),
                *(
                    lambda v, kind=kind: baseline_loss(LossConfig(kind=kind), v, y, counts)
                    for kind in ("reweight", "class_balanced", "focal", "ldam")
                ),
            ]
            for fn in fns:
                grad = fn(z).grad_logits
                fd = fd_grad(lambda v: fn(v).value, z)
                rel = np.max(np.abs(fd - grad) / np.maximum(1.0, np.abs(grad)))
                worst = max(worst, rel)
        assert worst < 1e-4

    def test_gradients_sum_to_zero(self, rng):
        for _ in range(100):
            z, b, y = random_instance(rng)
            counts = rng.integers(1, 300, z.size)
            outs = [
                ce(z, y),
                biased_ce(z, b, y),
                *(
                    baseline_loss(LossConfig(kind=kind), z, y, counts)
                    for kind in ("reweight", "class_balanced", "focal", "ldam")
                ),
            ]
            for out in outs:
                assert out.value >= 0.0
                assert np.isfinite(out.value)
                assert abs(out.grad_logits.sum()) < 1e-10


class TestMarginTilt:
    def test_binary_argmax_flips_at_bias_gap(self):
        b = np.array([0.8, -0.4])
        threshold = b[0] - b[1]
        gaps = threshold + np.linspace(-0.5, 0.5, 1001)
        for gap in gaps:
            if abs(gap - threshold) <= 1e-9:
                continue
            adjusted = np.array([gap, 0.0]) - b
            winner = int(np.argmax(adjusted))
            assert winner == (0 if gap > threshold else 1)


def test_logits_must_be_vector():
    # Every row needs its own target and at least two classes.
    with pytest.raises(ValueError):
        ce(np.zeros((2, 2)), 0)
    with pytest.raises(ValueError):
        ce(np.zeros(1), 0)


BASELINE_CONFIGS = {
    "reweight": LossConfig(kind="reweight"),
    "reweight_raw": LossConfig(kind="reweight", reweight_normalize=False),
    "class_balanced": LossConfig(kind="class_balanced"),
    "focal_gamma0": LossConfig(kind="focal", gamma=0.0),
    "focal_gamma2": LossConfig(kind="focal", gamma=2.0),
    "ldam": LossConfig(kind="ldam"),
}


@st.composite
def logit_blocks(draw):
    """An ``(m, C)`` block with targets, bias rows and per-class counts."""
    m = draw(st.integers(1, 40))
    c = draw(st.integers(2, 64))
    values = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    z = draw(arrays(np.float64, (m, c), elements=values))
    b = draw(arrays(np.float64, (m, c), elements=values))
    y = draw(arrays(np.int64, (m,), elements=st.integers(0, c - 1)))
    counts = draw(arrays(np.int64, (c,), elements=st.integers(1, 5000)))
    return z, b, y, counts


def assert_within(got, want, tol=1e-12):
    assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


class TestBlockMatchesScalarOracle:
    """Every block loss equals the scalar oracle of ``tests/oracle.py`` row by row."""

    @given(logit_blocks())
    @settings(max_examples=60, deadline=None)
    def test_ce_biased_ce_and_gap_bit_for_bit(self, block):
        z, b, y, _ = block
        pairs = [
            (ce(z, y), oracle.row_by_row(lambda q, row, t: oracle.ce(row, t), z, y)),
            (
                biased_ce(z, b, y),
                oracle.row_by_row(lambda q, row, t: oracle.biased_ce(row, b[q], t), z, y),
            ),
        ]
        for got, want in pairs:
            assert got.value.shape == y.shape and got.grad_logits.shape == z.shape
            assert np.array_equal(got.value, want.value)
            assert np.array_equal(got.grad_logits, want.grad_logits)
        gaps = [oracle.bias_gap(row, b[q], t) for q, (row, t) in enumerate(zip(z, y))]
        assert np.array_equal(bias_gap(z, b, y), np.array(gaps))

    @pytest.mark.parametrize("kind", sorted(BASELINE_CONFIGS))
    @given(block=logit_blocks())
    @settings(max_examples=40, deadline=None)
    def test_baselines_within_1e_12(self, kind, block):
        z, _, y, counts = block
        config = BASELINE_CONFIGS[kind]
        got = baseline_loss(config, z, y, counts)
        want = oracle.row_by_row(
            lambda q, row, t: oracle.baseline_loss(config, row, t, counts), z, y
        )
        assert_within(got.value, want.value)
        assert_within(got.grad_logits, want.grad_logits)

    def test_leading_axes_are_rows(self, rng):
        z = rng.uniform(-5, 5, (2, 3, 6))
        b = rng.uniform(-5, 5, (2, 3, 6))
        y = rng.integers(0, 6, (2, 3))
        focal, counts = LossConfig(kind="focal"), np.ones(6, dtype=int)
        for loss in (
            lambda z, y, b: ce(z, y),
            lambda z, y, b: biased_ce(z, b, y),
            lambda z, y, b: baseline_loss(focal, z, y, counts),
        ):
            block = loss(z, y, b)
            flat = loss(z.reshape(6, 6), y.reshape(6), b.reshape(6, 6))
            assert block.value.shape == (2, 3)
            assert np.array_equal(block.value.ravel(), flat.value)
            assert np.array_equal(block.grad_logits.reshape(6, 6), flat.grad_logits)

    def test_empty_block(self):
        out = biased_ce(np.zeros((0, 4)), np.zeros((0, 4)), np.zeros(0, dtype=int))
        assert out.value.shape == (0,) and out.grad_logits.shape == (0, 4)

    def test_block_errors_name_the_problem(self):
        with pytest.raises(ValueError, match="target 5 out of range for 3 classes"):
            ce(np.zeros((2, 3)), [0, 5])
        with pytest.raises(ValueError, match="targets of shape"):
            ce(np.zeros((2, 3)), [0, 1, 2])
        with pytest.raises(ValueError, match="unobserved class 1"):
            baseline_loss(LossConfig(kind="ldam"), np.zeros((2, 3)), [0, 1], np.array([3, 0, 2]))
