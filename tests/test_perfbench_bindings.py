"""The benchmark in ``perfbench/`` binds program functions and parameter names
when it is imported; a refactor that renames one must fail here, in the
regular suite, rather than at benchmark time."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_probe_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")  # binds probed parameter names
    assert layers.PROBES
    for name in layers.PROBES:
        assert callable(layers._resolve(name)), name
