import numpy as np
import pytest

import tailbias.gradcert
import tailbias.harness
import tailbias.losses
import tailbias.model
import tailbias.numerics
from layers import PROBES, layer_metrics
from spans import Tracer, has_ancestor, self_times, tailbias_modules


def test_self_time_is_span_minus_children():
    #   0 root    [0, 10]
    #   1  a      [1, 4]
    #   2  b      [5, 9]
    #   3   c     [6, 7]   child of b
    #   4 root2   [20, 21]
    start = [0.0, 1.0, 5.0, 6.0, 20.0]
    end = [10.0, 4.0, 9.0, 7.0, 21.0]
    parent = [-1, 0, 0, 2, -1]
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0, 1.0]
    flagged = [False, False, True, False, False]
    assert has_ancestor(parent, flagged).tolist() == [False, False, False, True, False]


def test_tracer_records_nested_spans_with_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer({"losses.ce": None, "losses.biased_ce": None}, clock=lambda: next(ticks))
    with tracer.installed(), tracer.span("bench.cycle"):
        tailbias.losses.biased_ce(np.zeros(3), np.zeros(3), 1)
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    assert names == ["bench.cycle", "losses.biased_ce", "losses.ce"]
    assert a["parent"].tolist() == [-1, 0, 1]
    assert self_times(a["start"], a["end"], a["parent"]).tolist() == [2.0, 2.0, 1.0]


def _wrapped_bindings():
    return [
        (mod.__name__, attr)
        for mod in tailbias_modules()
        for attr, value in vars(mod).items()
        if callable(value) and hasattr(value, "__wrapped__")
    ]


def test_traced_session_restores_every_binding(tiny_session):
    s = tiny_session
    s.setup()
    tracer = Tracer(PROBES)
    with tracer.installed():
        assert hasattr(tailbias.harness.biased_ce, "__wrapped__")
        with tracer.span("bench.setup"):
            s.timed("setup", s.setup)
        with tracer.span("bench.cycle"):
            s.cycle(0)
    assert s.ledger.failed == 0, s.ledger.errors
    assert _wrapped_bindings() == []
    assert tailbias.harness.biased_ce is tailbias.losses.biased_ce
    assert tailbias.harness.ce is tailbias.losses.ce
    assert tailbias.model.encoder_layer is tailbias.numerics.encoder_layer
    assert tailbias.gradcert.encoder_layer is tailbias.numerics.encoder_layer
    assert tailbias.gradcert.grad_check is tailbias.numerics.grad_check
    assert tailbias.harness.forward is tailbias.model.forward

    values = layer_metrics(tracer, overhead_ratio=0.0)
    # Calls made through module globals at run time reach the wrappers too:
    # the make_loss_fn lambda in harness, and biased_ce calling ce.
    assert values["losses.biased_ce.calls"] > 0
    assert values["losses.ce.calls"] >= values["losses.biased_ce.calls"]
    assert values["numerics.layer_norm.self_s"] > 0
    assert values["bias.lookup_pair_bias.calls"] > 0
    assert values["model.linear_forward.calls"] == 0
    assert values["harness.sweep.forwards_per_image_point"] == 1.0
    assert 0 < values["gradcert.useful_backward_ratio"] < 1


def test_bindings_restored_when_traced_code_raises():
    tracer = Tracer(PROBES)
    with pytest.raises(ValueError):
        with tracer.installed():
            tailbias.losses.ce(np.zeros(3), 7)
    assert _wrapped_bindings() == []
