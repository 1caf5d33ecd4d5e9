import json
import shutil
import subprocess
import sys

from conftest import BENCH, ROOT
from layers import TARGETS
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_have_reasons():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and w["why"].strip()


def test_every_per_layer_metric_names_its_target():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert [m["name"] for m in SPEC["per_layer"]] == list(TARGETS)
    for name, targets in TARGETS.items():
        assert targets, name
        for metric, workloads in targets:
            assert metric in end_to_end, (name, metric)
            assert workloads and set(workloads) <= set(WORKLOADS), (name, workloads)


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref_linear", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
