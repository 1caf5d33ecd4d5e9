"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload ref_linear --seed 0 --seconds 25 --trace 0

Run from the repository root. Seed 0, the default, is the reference
configuration; seed 9001 is held out for confirming later claims. The
program is imported from ``src/``; the benchmark writes only under
``.perfbench_work/`` (removed on exit) and ``.perfbench_out/`` (one JSON
report per run). With ``--trace 0`` the last line of standard output holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run, whose cycles alternate with untraced ones so that the tracing overhead
is measured in the same run. ``--seconds`` sets the number of cycles
(``Session.cycle_count``), not a deadline, so that every commit runs the same
operations. End-to-end times are scaled by a calibration loop timed around
each operation (``Session.end_to_end``). After the cycles, the reference
seed's losses and recalls are checked against ``REFERENCE``. The lines before
the last print every metric by name and unit, the unscaled end-to-end
medians, the quality and failure figures that are checked but not gated,
and the environment.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are small, and a pool adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def git_rev(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without starting a process."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "process_threads": threads,
        "git_rev": git_rev(root),
        "src_lines": src_lines,
    }


def run(args: argparse.Namespace, spec: dict) -> tuple[dict, dict]:
    """Run the workload; return the result object and the extra report fields."""
    from layers import PROBES, layer_metrics
    from spans import Tracer
    from workloads import SETUP_REPEATS, WORKLOADS, Session

    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    s = Session(workload, args.seed, workdir)
    unscaled: dict = {}
    tracer = Tracer(PROBES)
    untraced: list[float] = []
    traced: list[float] = []
    cycles = 0

    # Tracing overhead compares the scaled seconds of the same operations,
    # untraced and traced: set-up, then cycle i twice for each i.
    def timed_setup(trace: bool) -> None:
        if trace:
            with tracer.installed(), tracer.span("bench.setup"):
                traced.append(s.timed("setup", s.setup))
        else:
            untraced.append(s.timed("setup", s.setup))

    def traced_cycle(i: int) -> float:
        with tracer.installed(), tracer.span("bench.cycle"):
            return s.cycle(i)

    try:
        if args.trace:
            timed_setup(False)
            timed_setup(True)
        else:
            for _ in range(SETUP_REPEATS):
                timed_setup(False)
        s.count_coordinates()

        # A traced run spends about half its time in traced cycles.
        cycles = s.cycle_count(args.seconds / 2 if args.trace else args.seconds)
        for i in range(cycles):
            untraced.append(s.cycle(i))
            if args.trace:
                traced.append(traced_cycle(i))
        s.final_quality()
        # Read before the reference check, which may load a second data set.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        s.ledger.run("reference", s.check_reference)

        if args.trace:
            overhead = sum(traced) / sum(untraced) - 1.0
            values = layer_metrics(tracer, overhead)
        else:
            values = s.end_to_end()
            unscaled = s.end_to_end(normalize=False)
            values["peak_rss_mb"] = peak_rss_mb
    except Exception as exc:  # a broken run still reports, as incorrect
        s.ledger.attempted += 1
        s.ledger.failed += 1
        s.ledger.errors.append(f"run: {type(exc).__name__}: {exc}")
        values = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result_metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted
    }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not s.ledger.errors:
        s.ledger.errors.append(f"metrics not computed: {missing}")
    correct = s.ledger.failed == 0 and not missing
    result = {
        "correct": correct,
        "attempted": s.ledger.attempted,
        "failed": s.ledger.failed,
        "metrics": result_metrics,
    }
    extra = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cycles": cycles,
        "failed_op_share": s.ledger.failed_share,
        "errors": s.ledger.errors,
        "quality_graph_constrained": s.quality,
        "operations": s.samples,
        "certify_coords": s.coords,
        "end_to_end_unscaled": unscaled,
    }
    return result, extra


def report(result: dict, extra: dict, env: dict) -> None:
    print(f"workload {extra['workload']} seed {extra['seed']} trace {extra['trace']} "
          f"cycles {extra['cycles']}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    for name, value in extra["end_to_end_unscaled"].items():
        print(f"  {name + ' (unscaled)':48s} {value:14.6g}")
    for name, value in extra["quality_graph_constrained"].items():
        print(f"  {name:48s} {value:14.6g} ratio   (checked, not gated)")
    print(f"  {'failed_op_share':48s} {extra['failed_op_share']:14.6g} ratio   "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for err in extra["errors"]:
        print(f"  error: {err}")
    print("env " + json.dumps(env, sort_keys=True))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "tailbias" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'tailbias'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, extra = run(args, spec)
    env = environment(ROOT)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, **extra, "env": env}, indent=1) + "\n")
    report(result, extra, env)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
