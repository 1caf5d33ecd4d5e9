import math

import pytest

import tailbias.harness
import tailbias.metrics
import workloads
from ledger import CheckFailure, DigestBook, Ledger


def test_raised_exception_counts_as_failed():
    ledger = Ledger()
    assert ledger.run("ok", lambda: 3) == 3
    assert ledger.run("boom", lambda: 1 / 0) is None
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failed_share == 0.5
    assert "ZeroDivisionError" in ledger.errors[0]


def test_digest_mismatch_raises():
    book = DigestBook()
    book.check("a", b"x")
    book.check("a", b"x")
    with pytest.raises(CheckFailure):
        book.check("a", b"y")


def test_non_finite_loss_is_a_failed_operation(tiny_session, monkeypatch):
    s = tiny_session
    s.setup()
    real_train = tailbias.harness.train

    def train_with_nan(*args, **kwargs):
        checkpoint, log = real_train(*args, **kwargs)
        log.losses[-1] = math.nan
        return checkpoint, log

    monkeypatch.setattr(tailbias.harness, "train", train_with_nan)
    s.timed("train", s.train)
    assert (s.ledger.attempted, s.ledger.failed) == (1, 1)
    assert "loss" in s.ledger.errors[0]
    assert s.samples["train"] == []


def test_metrics_digest_mismatch_is_a_failed_operation(tiny_session, monkeypatch):
    s = tiny_session
    s.setup()
    s.train()
    s.ledger.run("eval", lambda: s.evaluate(s.test_images, "all"))
    assert s.ledger.failed == 0, s.ledger.errors
    real_csv = tailbias.metrics.metrics_csv
    monkeypatch.setattr(tailbias.metrics, "metrics_csv", lambda *a: real_csv(*a) + "0\n")
    s.ledger.run("eval", lambda: s.evaluate(s.test_images, "all"))
    assert (s.ledger.attempted, s.ledger.failed) == (2, 1)
    assert "metrics.csv[all] digest" in s.ledger.errors[0]


def test_end_to_end_scales_each_operation_by_its_calibration(tiny_session):
    s = tiny_session
    cal = workloads.CAL_SECONDS
    s.samples["setup"] = [(1.0, 2.0, cal), (1.0, 4.0, 2 * cal), (1.0, 9.0, cal)]
    for key in ("train", "eval", "sweep", *s.CERTIFY):
        s.samples[key] = [(10.0, 1.0, cal), (10.0, 2.0, 2 * cal), (10.0, 0.5, cal / 4)]
    scaled = s.end_to_end()
    assert scaled["setup_s"] == 2.0
    assert scaled["train_images_per_s"] == 10.0
    assert scaled["certify_coords_per_s"] == 10.0
    unscaled = s.end_to_end(normalize=False)
    assert unscaled["setup_s"] == 4.0
    assert unscaled["certify_coords_per_s"] == 10.0


def test_sweep_missing_a_grid_point_is_a_failed_operation(tiny_session, monkeypatch):
    s = tiny_session
    s.setup()
    s.train()
    real_sweep = tailbias.harness.sweep
    monkeypatch.setattr(tailbias.harness, "sweep", lambda *a, **k: real_sweep(*a, **k)[:-1])
    s.timed("sweep", lambda: s.sweep(0))
    assert (s.ledger.attempted, s.ledger.failed) == (1, 1)
    assert "grid" in s.ledger.errors[0]


def test_missing_constraint_is_a_failed_operation(tiny_session, monkeypatch):
    s = tiny_session
    s.setup()
    s.train()
    real_evaluate = tailbias.harness.evaluate

    def with_only(*args, **kwargs):
        return {"with": real_evaluate(*args, **kwargs)["with"]}

    monkeypatch.setattr(tailbias.harness, "evaluate", with_only)
    s.timed("eval", lambda: s.evaluate(s.eval_chunks[0], 0))
    assert (s.ledger.attempted, s.ledger.failed) == (1, 1)
    assert "results for ['with']" in s.ledger.errors[0]


def test_changed_reference_figures_are_a_failed_operation(tiny_session, monkeypatch):
    s = tiny_session
    s.setup()
    s.train()
    s.final_quality()
    s.sweep(0)
    figures = s.reference_figures()
    monkeypatch.setitem(workloads.REFERENCE, "tiny", figures)
    s.ledger.run("reference", s.check_reference)
    assert s.ledger.failed == 0, s.ledger.errors
    shifted = dict(figures, loss_last=figures["loss_last"] * (1 + 1e-5))
    monkeypatch.setitem(workloads.REFERENCE, "tiny", shifted)
    s.ledger.run("reference", s.check_reference)
    assert s.ledger.failed == 1
    assert "loss_last" in s.ledger.errors[0]


def test_cycle_count_fills_whole_chunk_rotations(tiny_session):
    s = tiny_session
    s.setup()
    assert (len(s.eval_chunks), len(s.sweep_chunks)) == (2, 1)
    assert s.cycle_count(0.1) == 2
    assert s.cycle_count(3 * workloads.NOMINAL_CYCLE_SECONDS) == 4
