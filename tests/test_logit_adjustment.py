"""The count bias as logit adjustment (Menon et al., arXiv 2007.07314).

With a ``cb`` bias, ``epsilon = 0`` and exponent ``tau``, the bias is
``-tau * log(pi) + const`` for the relation prior ``pi``. Training with it is
the logit-adjusted loss, cross-entropy on ``z + tau * log(pi)``; subtracting
the weakened bias at ``a_eval = tau`` is the post-hoc variant, softmax over
``z + tau * log(pi)``.
"""

from dataclasses import replace

import numpy as np
import pytest

from tailbias.bias import BiasSpec, bias_table, compute_bias, soft_bias
from tailbias.losses import biased_ce, ce
from tailbias.metrics import score_triplets
from tailbias.numerics import row_softmax
from tailbias.stats import LabelSpace, ingest

SPACE = LabelSpace(num_object_classes=3, num_relations=5)
# Relation r is annotated COUNTS[r - 1] times; index 0 of PRIOR_COUNTS holds
# the background count, which only the loss identity needs.
COUNTS = np.array([400, 120, 30, 7, 2])
PRIOR_COUNTS = np.concatenate([[900], COUNTS])
STATS = ingest(
    [(r % 3, (r + 1) % 3, r) for r in range(1, 6) for _ in range(COUNTS[r - 1])], SPACE
)


@pytest.mark.parametrize("tau", [0.25, 0.5, 1.0, 1.7])
def test_biased_ce_is_logit_adjusted_ce(tau, rng):
    log_prior = np.log(PRIOR_COUNTS / PRIOR_COUNTS.sum())
    fg = -tau * log_prior[1:]
    # The cb foreground bias is -tau*log(pi) plus one constant; give the
    # background slot the same constant so the whole vector is an adjustment.
    shift = np.log(np.sum(COUNTS**tau)) - tau * np.log(PRIOR_COUNTS.sum())
    spec = BiasSpec(kind="cb", a=tau, epsilon=0.0, background=-tau * log_prior[0] + shift)
    bias = compute_bias(spec, STATS)
    assert bias.values[1:] == pytest.approx(fg + shift, abs=1e-12)
    for _ in range(20):
        z = rng.normal(scale=3.0, size=SPACE.num_relations + 1)
        y = int(rng.integers(0, SPACE.num_relations + 1))
        got = biased_ce(z, bias, y)
        want = ce(z + tau * log_prior, y)
        assert abs(got.value - want.value) <= 1e-12
        assert np.max(np.abs(got.grad_logits - want.grad_logits)) <= 1e-12


@pytest.mark.parametrize("tau", [0.0, 0.3, 0.75, 1.0])
def test_sweep_point_is_post_hoc_logit_adjustment(tau, rng):
    spec = BiasSpec(kind="cb", a=1.0, epsilon=0.0)
    soft = soft_bias(replace(spec, a_eval=tau), STATS)
    table = bias_table(soft, SPACE.num_object_classes)
    z = rng.normal(scale=3.0, size=(12, SPACE.num_relations + 1))
    s_classes = rng.integers(0, SPACE.num_object_classes, size=12)
    o_classes = rng.integers(0, SPACE.num_object_classes, size=12)
    # The scoring step of harness.evaluate and harness.sweep.
    got = score_triplets(None, z - table[s_classes, o_classes])
    want = row_softmax(z[:, 1:] + tau * np.log(COUNTS / COUNTS.sum()))
    assert np.max(np.abs(got - want)) <= 1e-12
