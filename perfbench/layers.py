"""The traced layers: which functions are wrapped, and the per-layer metrics.

Layers are the modules of ``src/tailbias``. Per-layer numbers are reported
per session, one set-up plus one measured cycle, so that they do not depend
on how many cycles fit in a run. ``TARGETS`` records, before any change is
measured, which end-to-end metric each per-layer metric should move and on
which workload.
"""

from __future__ import annotations

import importlib
import os

import numpy as np

from spans import Tracer, arg_reader, has_ancestor, roots, self_times


def _rows(args: tuple, kwargs: dict, result) -> float:
    """Logit rows of a loss call: the first array argument's leading axis."""
    for value in (*args, *kwargs.values()):
        if isinstance(value, np.ndarray):
            return float(value.shape[0]) if value.ndim >= 2 else 1.0
    return 0.0


def _resolve(fn_path: str):
    mod, func = fn_path.rsplit(".", 1)
    return getattr(importlib.import_module(f"tailbias.{mod}"), func)


def _jsonl_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(_write_path(args, kwargs)))


def _pairs(args, kwargs, result) -> float:
    return float(len(_forward_pairs(args, kwargs)))


def _candidates(args, kwargs, result) -> float:
    logits = _score_logits(args, kwargs)
    return float(logits.shape[0] * (logits.shape[1] - 1))


def _image_points(args, kwargs, result) -> float:
    return float(len(_sweep_grid(args, kwargs)) * len(_sweep_images(args, kwargs)))


def _instances(args, kwargs, result) -> float:
    return float(sum(r.instances for r in result))


def grad_check_coords(args, kwargs, result) -> float:
    """Coordinates one ``grad_check`` call differences."""
    coords = _gc_coords(args, kwargs)
    return float(len(coords) if coords is not None else np.asarray(_gc_x(args, kwargs)).size)


_forward_pairs = arg_reader(_resolve("model.forward"), "pairs")
_write_path = arg_reader(_resolve("synth.write_images_jsonl"), "path")
_score_logits = arg_reader(_resolve("metrics.score_triplets"), "relation_logits")
_sweep_grid = arg_reader(_resolve("harness.sweep"), "grid")
_sweep_images = arg_reader(_resolve("harness.sweep"), "images")
_gc_coords = arg_reader(_resolve("numerics.grad_check"), "coords")
_gc_x = arg_reader(_resolve("numerics.grad_check"), "x")

LOSSES = ("losses.ce", "losses.biased_ce", "losses.baseline_loss")
FORWARDS = ("model.forward", "model.linear_forward")

PROBES = {
    "synth.generate_split": None,
    "synth.write_images_jsonl": _jsonl_bytes,
    "synth.read_images_jsonl": None,
    "stats.ingest": None,
    "bias.compute_bias": None,
    "bias.soft_bias": None,
    "bias.lookup_pair_bias": None,
    **{name: _rows for name in LOSSES},
    "model.linear_forward": None,
    "model.linear_backward": None,
    "model.forward": _pairs,
    "model.backward": None,
    "model.embed_objects": None,
    "model.encode_objects": None,
    "model.fuse_pairs": None,
    "model.encode_relations_and_classify": None,
    "numerics.encoder_layer": None,
    "numerics.encoder_layer_backward": None,
    "numerics.multi_head_attention": None,
    "numerics.multi_head_attention_backward": None,
    "numerics.layer_norm": None,
    "numerics.layer_norm_backward": None,
    "numerics.grad_check": grad_check_coords,
    "metrics.score_triplets": _candidates,
    "metrics.rank": None,
    "metrics.evaluate_split": None,
    "harness.train": None,
    "harness.evaluate": None,
    "harness.sweep": _image_points,
    "harness.save_checkpoint": None,
    "harness.load_checkpoint": None,
    "gradcert.certify_losses": None,
    "gradcert.certify_numerics": None,
    "gradcert.certify_model": _instances,
}

SELF_S = tuple(PROBES)
CALLS = (
    "bias.soft_bias", "bias.lookup_pair_bias", *LOSSES,
    "model.linear_forward", "model.linear_backward", "model.forward", "model.backward",
    "numerics.encoder_layer", "numerics.encoder_layer_backward", "numerics.grad_check",
    "metrics.score_triplets", "metrics.rank",
)

TRAIN, EVAL, SWEEP, CERT, SETUP = (
    "train_images_per_s", "eval_images_per_s", "sweep_images_per_s",
    "certify_coords_per_s", "setup_s",
)
BOTH = ("ref_linear", "dual_sgcls")
REF, DUAL = ("ref_linear",), ("dual_sgcls",)
_SETUP_LAYER = [(SETUP, BOTH)]
TARGETS: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    "synth.generate_split.self_s": _SETUP_LAYER,
    "synth.write_images_jsonl.self_s": _SETUP_LAYER,
    "synth.read_images_jsonl.self_s": _SETUP_LAYER,
    "synth.jsonl_bytes": _SETUP_LAYER,
    "stats.ingest.self_s": _SETUP_LAYER,
    "bias.compute_bias.self_s": _SETUP_LAYER,
    "bias.soft_bias.calls": [(SWEEP, BOTH)],
    "bias.soft_bias.self_s": [(SWEEP, BOTH)],
    "bias.lookup_pair_bias.calls": [(TRAIN, DUAL), (SWEEP, DUAL)],
    "bias.lookup_pair_bias.self_s": [(TRAIN, DUAL), (SWEEP, DUAL)],
    **{
        f"{name}.{kind}": [(TRAIN, BOTH), (CERT, BOTH)]
        for name in LOSSES
        for kind in ("calls", "self_s")
    },
    "losses.rows_per_call": [(TRAIN, BOTH), (CERT, BOTH)],
    **{
        f"model.{fn}.{kind}": [(TRAIN, REF), (EVAL, REF)]
        for fn in ("linear_forward", "linear_backward")
        for kind in ("calls", "self_s")
    },
    **{
        f"model.{fn}.{kind}": [(TRAIN, DUAL), (CERT, BOTH)]
        for fn in ("forward", "backward")
        for kind in ("calls", "self_s")
    },
    **{
        f"model.{fn}.self_s": [(TRAIN, DUAL), (CERT, BOTH)]
        for fn in ("embed_objects", "encode_objects", "fuse_pairs", "encode_relations_and_classify")
    },
    "model.pairs_per_forward": [(TRAIN, DUAL), (CERT, BOTH)],
    **{
        f"numerics.{fn}.{kind}": [(TRAIN, DUAL), (CERT, BOTH)]
        for fn in ("encoder_layer", "encoder_layer_backward")
        for kind in ("calls", "self_s")
    },
    **{
        f"numerics.{fn}.self_s": [(TRAIN, DUAL), (CERT, BOTH)]
        for fn in (
            "multi_head_attention", "multi_head_attention_backward",
            "layer_norm", "layer_norm_backward",
        )
    },
    "numerics.grad_check.calls": [(CERT, BOTH)],
    "numerics.grad_check.self_s": [(CERT, BOTH)],
    **{
        f"metrics.{fn}.{kind}": [(EVAL, BOTH), (SWEEP, BOTH)]
        for fn in ("score_triplets", "rank")
        for kind in ("calls", "self_s")
    },
    "metrics.candidates": [(EVAL, BOTH), (SWEEP, BOTH)],
    "metrics.evaluate_split.self_s": [(EVAL, BOTH), (SWEEP, BOTH)],
    "harness.train.self_s": [(TRAIN, BOTH)],
    "harness.evaluate.self_s": [(EVAL, BOTH), (SWEEP, BOTH)],
    "harness.sweep.self_s": [(SWEEP, BOTH)],
    "harness.save_checkpoint.self_s": [(TRAIN, BOTH)],
    "harness.load_checkpoint.self_s": [(TRAIN, BOTH)],
    "harness.sweep.forwards_per_image_point": [(SWEEP, BOTH)],
    "gradcert.certify_losses.self_s": [(CERT, BOTH)],
    "gradcert.certify_numerics.self_s": [(CERT, BOTH)],
    "gradcert.certify_model.self_s": [(CERT, BOTH)],
    "gradcert.useful_backward_ratio": [(CERT, BOTH)],
    "trace.overhead_ratio": [(TRAIN, BOTH), (EVAL, BOTH), (SWEEP, BOTH), (CERT, BOTH)],
}


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics per session from the spans of a traced run.

    The benchmark opens one root span per traced set-up and per traced
    cycle; totals under each kind of root are divided by the number of
    roots of that kind and summed, which gives per-session figures.
    """
    a = tracer.arrays()
    own = self_times(a["start"], a["end"], a["parent"])
    root_name = a["name"][roots(a["parent"])]
    kinds, per_kind = np.unique(root_name[a["parent"] < 0], return_counts=True)

    def per_session(values: np.ndarray, m: np.ndarray) -> float:
        return float(
            sum(values[m & (root_name == k)].sum() / n for k, n in zip(kinds, per_kind))
        )

    def mask(name: str) -> np.ndarray:
        return a["name"] == tracer.names.index(name) if name in tracer.names else np.zeros(len(own), bool)

    ones = np.ones(len(own), dtype=np.int64)

    def calls(name: str, where=True) -> float:
        return per_session(ones, mask(name) & where)

    def amount(name: str) -> float:
        return per_session(a["amount"], mask(name))

    out: dict[str, float] = {}
    for name in SELF_S:
        out[f"{name}.self_s"] = per_session(own, mask(name))
    for name in CALLS:
        out[f"{name}.calls"] = calls(name)
    out["synth.jsonl_bytes"] = amount("synth.write_images_jsonl")
    loss_calls = sum(calls(n) for n in LOSSES)
    out["losses.rows_per_call"] = sum(amount(n) for n in LOSSES) / loss_calls if loss_calls else 0.0
    fwd = calls("model.forward")
    out["model.pairs_per_forward"] = amount("model.forward") / fwd if fwd else 0.0
    out["metrics.candidates"] = amount("metrics.score_triplets")
    in_sweep = has_ancestor(a["parent"], mask("harness.sweep"))
    sweep_forwards = sum(calls(n, in_sweep) for n in FORWARDS)
    points = amount("harness.sweep")
    out["harness.sweep.forwards_per_image_point"] = sweep_forwards / points if points else 0.0
    in_cert = has_ancestor(a["parent"], mask("gradcert.certify_model"))
    backwards = calls("model.backward", in_cert)
    instances = amount("gradcert.certify_model")
    out["gradcert.useful_backward_ratio"] = instances / backwards if backwards else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return out
