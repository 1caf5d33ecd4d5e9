"""The benchmark's workloads and the session that runs them.

Each workload is one user session through the public API that the CLI
wraps: set-up (``synth``, JSONL write and read-back, ``stats``, ``bias``),
then measured cycles of ``train``, a checkpoint round trip, ``eval``,
``sweep`` and gradient certification. The workloads differ in model, task,
bias kind and data size, so that different layers do most of the work:

* ``ref_linear``: the acceptance-criteria 8-10 reference configuration
  (linear PredCls, ``cb`` bias). Per-row loss calls dominate training and
  building and sorting triplet candidates dominates ``eval`` and ``sweep``.
* ``dual_sgcls``: the dual encoder on SGCls data whose detector argmax is
  wrong for 44 % of objects, with the ``pb`` pair-table bias looked up per
  pair. Encoder-layer forward and backward take about half of training.

Certification runs in every cycle of both workloads: thousands of tiny
model, loss and kernel calls bound by Python overhead, which a batching
change aimed at the large calls must not slow.

Data and training derive from the workload seed: seed 0, the default, is
the reference (synth seed 42, train seed 7) and seed ``n`` shifts both by
``n``. Seed 9001 is held out: it was not used to size the workloads, so a
later claim can be confirmed on it.

A cycle is kept short (a few seconds) so that a run holds ten or more of
them and reports medians: cycle ``i`` evaluates chunk ``i`` of the test
split and sweeps chunk ``i`` of the split cut into ``SWEEP_CHUNK`` images,
both modulo the number of chunks, and ``train`` runs a few dozen
iterations. A run thus evaluates and sweeps the whole test split, whose
mix of object counts varies less from seed to seed than a part's does. A
run holds a number of cycles set by ``--seconds`` alone and rounded up to a
whole number of chunk rotations, so a faster program runs the same
operations, not more of them.

Outputs are checked against figures of the reference seed (``REFERENCE``),
measured on the program as this benchmark was written, so that a change
that alters results rather than speed fails the run.
"""

from __future__ import annotations

import gc
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

from tailbias import bias, gradcert, harness, metrics, numerics, synth
from tailbias.stats import LabelSpace

from layers import grad_check_coords
from ledger import CheckFailure, DigestBook, Ledger, check_finite, check_unit_interval
from spans import Tracer

LABELS = LabelSpace(num_object_classes=20, num_relations=30)
EVAL_KS = (20, 50, 100)
SETUP_REPEATS = 3
BATCH_SIZE = 8
# Images of one sweep; a grid point costs as much as an evaluation of them.
SWEEP_CHUNK = 50
CAL_SECONDS = 0.04
# Seconds one cycle takes at the calibration's reference speed; it converts
# ``--seconds`` into a number of cycles.
NOMINAL_CYCLE_SECONDS = 2.5

# Certification battery sizes, run at a fixed seed: the loss battery draws
# its logit sizes from the seed, which would change the mix of cheap and
# costly coordinates from seed to seed. ``certify_model`` runs sampled
# instances only, because a full-coordinate instance takes about 24 s,
# longer than a whole cycle.
CERT_SEED = 0
LOSS_INSTANCES = 8
NUMERICS_INSTANCES = 4
MODEL_INSTANCES = 3

# Figures of the reference seed, measured on the program as this benchmark
# was written: training losses and, on ref_linear, graph-constrained R@50
# and mR@50 on the whole test split and R@50 at each sweep point on the
# first sweep chunk. Reordered floating-point sums stay within the
# tolerances; changed batches, rankings or candidates do not. The SGCls
# recall of dual_sgcls is not pinned, because the standard SGCls protocol
# (ROADMAP item 4) is to change it.
REFERENCE_SEED = 0
LOSS_RTOL = 1e-6
RECALL_ATOL = 0.005
REFERENCE: dict[str, dict[str, float | tuple[float, ...]]] = {
    "ref_linear": {
        "loss_mean": 1.0860265630934194,
        "loss_last": 1.1472867199410066,
        "R_at_50": 0.6507,
        "mR_at_50": 0.4435,
        "sweep_R_at_50": (0.6400, 0.6890, 0.6859, 0.6960, 0.7079),
    },
    "dual_sgcls": {
        "loss_mean": 4.178031836136841,
        "loss_last": 2.7309915541593233,
    },
}


def calibration_kernel() -> float:
    """A fixed mix of small numpy calls and Python object work, 0.03-0.05 s.

    It is the benchmark's own code, so a change to the program cannot move
    its time; only the host's speed at that moment does.
    """
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 48))
    w = rng.normal(size=(48, 31))
    total = 0.0
    for _ in range(100):
        z = x @ w
        for row in z:
            e = np.exp(row - row.max())
            total += float(e[1] / e.sum())
        ranked = sorted(((v, i) for i, v in enumerate(z.ravel().tolist())), reverse=True)
        total += ranked[0][0]
    return total


@dataclass(frozen=True)
class Workload:
    name: str
    num_train: int
    num_test: int
    task: str
    model: str
    bias_kind: str
    learning_rate: float
    iterations: int
    grid: tuple[float, ...]
    eval_chunk: int
    detector_sharpness: float = 4.0

    def synth_config(self, seed: int) -> synth.SynthConfig:
        return synth.SynthConfig(
            label_space=LABELS,
            num_train=self.num_train,
            num_val=0,
            num_test=self.num_test,
            zipf_s=1.5,
            objects_min=4,
            objects_max=6,
            d_v=16,
            noise_sigma=1.5,
            background_fraction=0.7,
            detector_sharpness=self.detector_sharpness,
            seed=42 + seed,
        )

    def bias_spec(self) -> bias.BiasSpec:
        return bias.BiasSpec(kind=self.bias_kind, a=1.0, epsilon=1e-3)

    def train_config(self, seed: int) -> harness.TrainConfig:
        return harness.TrainConfig(
            label_space=LABELS,
            task=self.task,
            model=harness.ModelSpec(kind=self.model),
            loss=harness.LossConfig(kind="rtpb"),
            bias=self.bias_spec(),
            optimizer=harness.OptimizerConfig(
                learning_rate=self.learning_rate,
                momentum=0.9,
                iterations=self.iterations,
                batch_size=BATCH_SIZE,
            ),
            seed=7 + seed,
            eval_ks=EVAL_KS,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ref_linear",
            num_train=2000,
            num_test=500,
            task="predcls",
            model="linear",
            bias_kind="cb",
            learning_rate=0.3,
            iterations=80,
            grid=(0.0, 0.25, 0.5, 0.75, 1.0),
            eval_chunk=250,
        ),
        Workload(
            name="dual_sgcls",
            num_train=400,
            num_test=200,
            task="sgcls",
            model="dual_encoder",
            bias_kind="pb",
            learning_rate=0.05,
            iterations=20,
            grid=(0.0, 0.5, 1.0),
            eval_chunk=200,
            detector_sharpness=1.0,
        ),
    )
}


def _params_vector(checkpoint: harness.Checkpoint) -> np.ndarray:
    return numerics.flatten(checkpoint.params)


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _check_results(name: str, results) -> None:
    if sorted(results) != sorted(harness.CONSTRAINTS):
        raise CheckFailure(f"{name} results for {sorted(results)}, not {harness.CONSTRAINTS}")
    for res in results.values():
        for k in EVAL_KS:
            check_unit_interval(f"{name} R@{k} {res.constraint_mode}", res.recall_at[k])
            check_unit_interval(f"{name} mR@{k} {res.constraint_mode}", res.mean_recall_at[k])


class Session:
    """State and timings of one benchmark run of one workload.

    Each operation returns ``(work, seconds)``; ``work`` is in the unit of
    the end-to-end metric it feeds (images, image-points, coordinates).
    """

    CERTIFY = ("certify_losses", "certify_numerics", "certify_model")
    KEYS = ("setup", "train", "eval", "sweep", *CERTIFY)

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.ledger = Ledger()
        self.digests = DigestBook()
        self.synth_config = workload.synth_config(seed)
        self.train_config = workload.train_config(seed)
        self.spec = workload.bias_spec()
        self.samples: dict[str, list[tuple[float, float, float]]] = {k: [] for k in self.KEYS}
        self.quality: dict[str, float] = {}
        self.losses: list[float] = []
        self.sweep_recall: list[float] = []
        self.coords: dict[str, int] = {}
        self.train_images: list = []
        self.test_images: list = []
        self.eval_chunks: list[list] = []
        self.sweep_chunks: list[list] = []
        self.stats = None
        self.checkpoint: harness.Checkpoint | None = None
        # The calibration that ended the last timed operation, if nothing
        # has run since; it doubles as the next operation's first one.
        self._last_cal: float | None = None

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    # --- operations -------------------------------------------------------

    def setup(self) -> tuple[float, float]:
        cfg = self.synth_config
        p_train, p_test = self._path("train.jsonl"), self._path("test.jsonl")
        t0 = time.perf_counter()
        train = synth.generate_split(cfg, "train")
        test = synth.generate_split(cfg, "test")
        synth.write_images_jsonl(train, p_train)
        synth.write_images_jsonl(test, p_test)
        train = synth.read_images_jsonl(p_train)
        test = synth.read_images_jsonl(p_test)
        stats = harness.training_stats(train, LABELS)
        computed = bias.compute_bias(self.spec, stats)
        elapsed = time.perf_counter() - t0
        if len(train) != cfg.num_train or len(test) != cfg.num_test:
            raise CheckFailure(f"read back {len(train)}/{len(test)} images")
        self.digests.check("train.jsonl", Path(p_train).read_bytes())
        self.digests.check("test.jsonl", Path(p_test).read_bytes())
        if stats.total < 1:
            raise CheckFailure("no training triplets")
        vectors = [computed] if isinstance(computed, bias.BiasVector) else [
            computed.fallback, *computed.entries.values()
        ]
        check_finite("bias", np.concatenate([v.values for v in vectors]).tolist())
        self.train_images, self.test_images, self.stats = train, test, stats
        self.eval_chunks = _chunks(test, self.w.eval_chunk)
        self.sweep_chunks = _chunks(test, SWEEP_CHUNK)
        return 1.0, elapsed

    def train(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        checkpoint, log = harness.train(self.train_config, self.train_images)
        elapsed = time.perf_counter() - t0
        if len(log.losses) != self.w.iterations:
            raise CheckFailure(f"{len(log.losses)} losses for {self.w.iterations} iterations")
        check_finite("loss", log.losses)
        check_finite("params", _params_vector(checkpoint).tolist())
        self.checkpoint, self.losses = checkpoint, log.losses
        return float(self.w.iterations * BATCH_SIZE), elapsed

    def checkpoint_round_trip(self) -> None:
        path = self._path("checkpoint.json")
        harness.save_checkpoint(self._trained(), path)
        loaded = harness.load_checkpoint(path)
        self.digests.check("checkpoint.json", Path(path).read_bytes())
        if not np.array_equal(_params_vector(loaded), _params_vector(self.checkpoint)):
            raise CheckFailure("loaded checkpoint differs from the trained one")
        self.checkpoint = loaded

    def evaluate(self, images: list, key: object) -> tuple[float, float]:
        """Evaluate ``images``, a test chunk or the whole split named ``key``."""
        checkpoint = self._trained()
        t0 = time.perf_counter()
        results = harness.evaluate(checkpoint, images)
        elapsed = time.perf_counter() - t0
        _check_results("eval", results)
        text = metrics.metrics_csv(self.w.task, results, list(EVAL_KS))
        self.digests.check(f"metrics.csv[{key}]", text.encode())
        if key == "all":
            self.quality = {
                "R_at_50": results["with"].recall_at[50],
                "mR_at_50": results["with"].mean_recall_at[50],
            }
        return float(len(images)), elapsed

    def sweep(self, chunk: int) -> tuple[float, float]:
        checkpoint = self._trained()
        images = self.sweep_chunks[chunk]
        grid = list(self.w.grid)
        t0 = time.perf_counter()
        rows = harness.sweep(checkpoint, self.stats, self.spec, grid, images)
        elapsed = time.perf_counter() - t0
        if [a_e for a_e, _ in rows] != grid:
            raise CheckFailure(f"sweep rows at {[a_e for a_e, _ in rows]}, grid {grid}")
        for _, results in rows:
            _check_results("sweep", results)
        text = harness.sweep_csv(rows, list(EVAL_KS))
        self.digests.check(f"sweep.csv[{chunk}]", text.encode())
        if chunk == 0:
            self.sweep_recall = [results["with"].recall_at[50] for _, results in rows]
        return float(len(grid) * len(images)), elapsed

    def batteries(self) -> dict[str, Callable[[], list]]:
        """The three certification batteries of one unit, by sample key."""
        return {
            "certify_losses": lambda: gradcert.certify_losses(
                CERT_SEED, instances=LOSS_INSTANCES
            ),
            "certify_numerics": lambda: gradcert.certify_numerics(
                CERT_SEED + 1, instances=NUMERICS_INSTANCES
            ),
            "certify_model": lambda: gradcert.certify_model(
                CERT_SEED + 2, full_instances=0, sampled_instances=MODEL_INSTANCES
            ),
        }

    def certify(self, key: str) -> tuple[float, float]:
        battery = self.batteries()[key]
        t0 = time.perf_counter()
        results = battery()
        elapsed = time.perf_counter() - t0
        failed = [r.line() for r in results if not r.passed]
        if failed:
            raise CheckFailure("; ".join(failed))
        self.digests.check(key, "\n".join(r.line() for r in results).encode())
        return float(self.coords.get(key, 0)), elapsed

    def _trained(self) -> harness.Checkpoint:
        if self.checkpoint is None:
            raise CheckFailure("no trained checkpoint")
        return self.checkpoint

    # --- composition ------------------------------------------------------

    def calibrate(self) -> float:
        """Seconds the calibration loop takes now.

        The collector is off meanwhile, so that a collection of the
        program's heap is never charged to the host's speed.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            calibration_kernel()
            return time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()

    def timed(self, key: str, op) -> float:
        """Run one timed operation between two calibrations.

        Keeps ``(work, seconds, calibration seconds)``, the last being the
        mean of the calibrations just before and just after it (operations
        timed back to back share the calibration between them), and returns
        the operation's seconds scaled as in :meth:`end_to_end` (0 if it
        failed). The operations of a cycle take under a second, shorter
        than the host's changes of speed; a set-up takes a few seconds, so
        its scaling corrects less.
        """
        before = self._last_cal if self._last_cal is not None else self.calibrate()
        done = self.ledger.run(key, op)
        after = self._last_cal = self.calibrate()
        if done is None:
            return 0.0
        cal = (before + after) / 2
        self.samples[key].append((done[0], done[1], cal))
        return done[1] * CAL_SECONDS / cal

    def cycle_count(self, seconds: float) -> int:
        """Cycles that fill ``seconds`` at the nominal speed, rounded up to
        whole rotations of the eval and sweep chunks."""
        period = math.lcm(len(self.eval_chunks), len(self.sweep_chunks))
        wanted = math.ceil(seconds / NOMINAL_CYCLE_SECONDS)
        return period * max(1, math.ceil(wanted / period))

    def cycle(self, i: int) -> float:
        """Measured cycle ``i``; returns the scaled seconds of its timed operations."""
        e = i % len(self.eval_chunks)
        sw = i % len(self.sweep_chunks)
        self._last_cal = None
        total = self.timed("train", self.train)
        self.ledger.run("checkpoint", self.checkpoint_round_trip)
        self._last_cal = None
        total += self.timed("eval", lambda: self.evaluate(self.eval_chunks[e], e))
        total += self.timed("sweep", lambda: self.sweep(sw))
        for key in self.CERTIFY:
            total += self.timed(key, lambda: self.certify(key))
        return total

    def count_coordinates(self) -> None:
        """Finite-difference coordinates of each certification battery.

        Counted once, untimed, with ``grad_check`` wrapped; the count depends
        only on the seed and the battery sizes, so the timed units can run
        the unpatched program.
        """
        for key in self.CERTIFY:
            tracer = Tracer({"numerics.grad_check": grad_check_coords})
            with tracer.installed():
                self.ledger.run(key, lambda: self.certify(key))
            self.coords[key] = int(sum(tracer.amount))

    def final_quality(self) -> None:
        """R@50 and mR@50 on the whole test split, untimed."""
        self.ledger.run("eval", lambda: self.evaluate(self.test_images, "all"))

    def reference_figures(self) -> dict[str, float | tuple[float, ...]]:
        """The figures ``REFERENCE`` may pin, from this session's last outputs."""
        return {
            "loss_mean": float(np.mean(self.losses)),
            "loss_last": self.losses[-1],
            **self.quality,
            "sweep_R_at_50": tuple(self.sweep_recall),
        }

    def check_reference(self) -> None:
        """Compare the reference seed's figures with ``REFERENCE``, untimed.

        Uses this session's outputs when it runs the reference seed, and
        otherwise trains and evaluates a session of the reference seed.
        """
        ref = self
        if self.seed != REFERENCE_SEED or not self.quality or not self.sweep_recall:
            ref = Session(self.w, REFERENCE_SEED, self._path("reference"))
            os.makedirs(ref.workdir, exist_ok=True)
            ref.setup()
            ref.train()
            ref.evaluate(ref.test_images, "all")
            ref.sweep(0)
        got = ref.reference_figures()
        for name, want in REFERENCE[self.w.name].items():
            have = got[name]
            if name.startswith("loss"):
                ok = math.isclose(have, want, rel_tol=LOSS_RTOL)
            else:
                ok = np.allclose(have, want, rtol=0.0, atol=RECALL_ATOL)
            if not ok:
                raise CheckFailure(f"reference seed {name} = {have}, expected {want}")

    def end_to_end(self, normalize: bool = True) -> dict[str, float]:
        """Medians over the operations of the run, in the benchmark's units.

        With ``normalize``, each operation's time is first scaled by
        ``CAL_SECONDS`` over the calibration time measured around it: the
        host's speed changes by up to half from second to second, and the
        scaled figure is what the operation would take at the speed where
        the calibration loop takes ``CAL_SECONDS``.
        """

        def seconds(key: str) -> list[tuple[float, float]]:
            return [
                (work, t * CAL_SECONDS / cal if normalize else t)
                for work, t, cal in self.samples[key]
            ]

        rate = {k: median(w / t for w, t in seconds(k)) for k in ("train", "eval", "sweep")}
        # One certification unit per cycle: its coordinates over the summed
        # time of its three batteries, each scaled by its own calibration.
        units = zip(*(seconds(k) for k in self.CERTIFY))
        rate["certify"] = median(sum(w for w, _ in u) / sum(t for _, t in u) for u in units)
        per = {
            "setup_s": median(t for _, t in seconds("setup")),
            "train_images_per_s": rate["train"],
            "eval_images_per_s": rate["eval"],
            "sweep_images_per_s": rate["sweep"],
            "certify_coords_per_s": rate["certify"],
        }
        for name, value in per.items():
            if not (math.isfinite(value) and value > 0):
                raise CheckFailure(f"{name} = {value}")
        return per
