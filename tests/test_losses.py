import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbias.losses import (
    BaselineSpec,
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
        spec = BaselineSpec(kind="class_balanced", class_counts=np.array([1, 5, 9]))
        out = baseline_loss(spec, z, 0)
        ref = ce(z, 0)
        assert out.value == ref.value
        assert np.array_equal(out.grad_logits, ref.grad_logits)

    def test_focal_degenerates_to_ce(self, rng):
        z = rng.uniform(-3, 3, 4)
        spec = BaselineSpec(
            kind="focal", gamma=0.0, alpha=1.0, class_counts=np.ones(4, dtype=int)
        )
        out = baseline_loss(spec, z, 1)
        ref = ce(z, 1)
        assert out.value == ref.value
        assert np.array_equal(out.grad_logits, ref.grad_logits)

    def test_focal_hand_case(self):
        z = np.zeros(2)
        spec = BaselineSpec(
            kind="focal", gamma=2.0, alpha=0.25, class_counts=np.ones(2, dtype=int)
        )
        out = baseline_loss(spec, z, 0)
        assert out.value == pytest.approx(FOCAL_VALUE, abs=1e-12)
        assert_grad_close(
            lambda v: baseline_loss(spec, v, 0).value, z, out.grad_logits, tol=1e-6
        )

    def test_ldam_hand_case(self):
        z = np.zeros(2)
        spec = BaselineSpec(kind="ldam", margin_c=0.5, class_counts=np.array([16, 2]))
        out = baseline_loss(spec, z, 0)
        assert out.value == pytest.approx(LDAM_VALUE, abs=1e-12)
        ref = biased_ce(z, np.array([0.25, 0.0]), 0)
        assert out.value == ref.value
        assert np.array_equal(out.grad_logits, ref.grad_logits)

    def test_ldam_matches_independent_reference(self, rng):
        for _ in range(200):
            z, _, y = random_instance(rng, dim_max=16)
            counts = rng.integers(1, 500, z.size)
            spec = BaselineSpec(kind="ldam", class_counts=counts)
            out = baseline_loss(spec, z, y)
            ref_value, ref_grad = ldam_reference(z, y, counts)
            assert abs(out.value - ref_value) < 1e-12
            assert np.max(np.abs(out.grad_logits - ref_grad)) < 1e-12

    def test_reweight_weights(self):
        z = np.array([0.1, 0.2, 0.3])
        counts = np.array([2, 4, 8])
        raw = BaselineSpec(kind="reweight", class_counts=counts, reweight_normalize=False)
        assert baseline_loss(raw, z, 0).value == pytest.approx(
            ce(z, 0).value / 2, abs=1e-15
        )
        normalized = BaselineSpec(kind="reweight", class_counts=counts)
        # normalized weights average to 1 over the three classes
        weights = [
            baseline_loss(normalized, z, y).value / ce(z, y).value for y in range(3)
        ]
        assert np.mean(weights) == pytest.approx(1.0, abs=1e-12)

    def test_unobserved_class_rejected(self):
        z = np.zeros(3)
        counts = np.array([4, 0, 2])
        for kind in ("reweight", "class_balanced", "ldam"):
            spec = BaselineSpec(kind=kind, class_counts=counts)
            with pytest.raises(ValueError, match="unobserved"):
                baseline_loss(spec, z, 1)

    def test_count_length_must_match(self):
        spec = BaselineSpec(kind="reweight", class_counts=np.array([1, 2]))
        with pytest.raises(ValueError):
            baseline_loss(spec, np.zeros(3), 0)


class TestGradientFidelity:
    def test_all_kinds_match_finite_differences(self, rng):
        worst = 0.0
        for _ in range(25):
            z, b, y = random_instance(rng)
            counts = rng.integers(1, 300, z.size)
            fns = [
                lambda v: ce(v, y),
                lambda v: biased_ce(v, b, y),
                lambda v: baseline_loss(
                    BaselineSpec(kind="reweight", class_counts=counts), v, y
                ),
                lambda v: baseline_loss(
                    BaselineSpec(kind="class_balanced", class_counts=counts), v, y
                ),
                lambda v: baseline_loss(
                    BaselineSpec(kind="focal", class_counts=counts), v, y
                ),
                lambda v: baseline_loss(
                    BaselineSpec(kind="ldam", class_counts=counts), v, y
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
                baseline_loss(BaselineSpec(kind="reweight", class_counts=counts), z, y),
                baseline_loss(
                    BaselineSpec(kind="class_balanced", class_counts=counts), z, y
                ),
                baseline_loss(BaselineSpec(kind="focal", class_counts=counts), z, y),
                baseline_loss(BaselineSpec(kind="ldam", class_counts=counts), z, y),
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
    with pytest.raises(ValueError):
        ce(np.zeros((2, 2)), 0)
    with pytest.raises(ValueError):
        ce(np.zeros(1), 0)
