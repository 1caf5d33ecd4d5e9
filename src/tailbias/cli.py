"""Command line front end.

Subcommands: ``synth``, ``stats``, ``bias``, ``train``, ``eval``, ``sweep``,
``gradcheck``. Each writes its artifacts under the ``--out`` directory along
with a ``manifest.json`` naming them. A fault of a file read is a ``ValueError``
starting with its path (see :func:`~tailbias.stats.read_json`). Failures print a
machine-readable JSON error object to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .bias import GLOBAL_KINDS, PAIR_KINDS, BiasSpec, bias_from_json, bias_to_json, compute_bias
from .gradcert import run_certification
from .harness import (
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    sweep,
    sweep_csv,
    train,
    training_stats,
)
from .metrics import metrics_csv, per_relation_csv
from .stats import (
    LabelSpace,
    from_dict,
    ingest,
    read_config,
    read_json,
    read_triplets_jsonl,
    stats_from_json,
    stats_to_json,
)
from .synth import SynthConfig, generate_split, read_images_jsonl, write_images_jsonl

__all__ = ["main"]


class CliError(Exception):
    pass


def _print_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"type": kind, "message": message}}), file=sys.stderr)


class JsonArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        _print_error("usage", message)
        raise SystemExit(2)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_manifest(out_dir: str, command: str, outputs: list[str]) -> None:
    doc = {"command": command, "version": __version__, "outputs": sorted(outputs)}
    _write_text(os.path.join(out_dir, "manifest.json"), json.dumps(doc, indent=2) + "\n")


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def cmd_synth(args) -> int:
    config = read_config(SynthConfig, args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    splits = {f"{name}.jsonl": generate_split(config, name) for name in ("train", "val", "test")}
    out = _ensure_out(args.out)
    for name, images in splits.items():
        write_images_jsonl(images, os.path.join(out, name))
    _write_text(os.path.join(out, "labels.json"), json.dumps(asdict(config.label_space)) + "\n")
    _write_text(os.path.join(out, "config.json"), json.dumps(asdict(config)) + "\n")
    _write_manifest(out, "synth", [*splits, "labels.json", "config.json"])
    return 0


def cmd_stats(args) -> int:
    labels = read_config(LabelSpace, args.labels)
    if args.images is not None:
        stats = training_stats(read_images_jsonl(args.images), labels)
    else:
        stats = ingest(read_triplets_jsonl(args.data), labels)
    _write_text(args.out, stats_to_json(stats) + "\n")
    return 0


def cmd_bias(args) -> int:
    stats = read_json(args.stats, stats_from_json)
    keys = ("kind", "a", "epsilon", "a_eval", "background")
    spec = from_dict(BiasSpec, {key: getattr(args, key) for key in keys})
    bias = compute_bias(spec, stats)
    _write_text(args.out, bias_to_json(spec, bias) + "\n")
    return 0


def cmd_train(args) -> int:
    config = read_config(TrainConfig, args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    data = dict(config.data)
    train_path = args.data or data.get("train")
    if not train_path:
        raise CliError("no training data path in config or --data")
    images = read_images_jsonl(train_path)
    checkpoint, runlog = train(config, images)
    out = _ensure_out(args.out)
    save_checkpoint(checkpoint, os.path.join(out, "checkpoint.json"))
    _write_text(os.path.join(out, "runlog.json"), json.dumps(asdict(runlog)) + "\n")
    _write_manifest(out, "train", ["checkpoint.json", "runlog.json"])
    return 0


def _parse_ks(text: str | None, default) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok] if text else list(default)


def cmd_eval(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    images = read_images_jsonl(args.data)
    ks = _parse_ks(args.ks, checkpoint.config.eval_ks)
    inference_bias = None
    if args.bias:
        classes = checkpoint.config.label_space.num_object_classes
        _, inference_bias = read_json(args.bias, lambda text: bias_from_json(text, classes))
    results = evaluate(checkpoint, images, inference_bias=inference_bias, ks=ks)
    files = {"metrics.csv": metrics_csv(checkpoint.config.task, results, ks)}
    for constraint, result in results.items():
        text = per_relation_csv(checkpoint.config.label_space, result, ks)
        files[f"per_relation_{constraint}.csv"] = text
    out = _ensure_out(args.out)
    for name, text in files.items():
        _write_text(os.path.join(out, name), text)
    _write_manifest(out, "eval", list(files))
    return 0


def cmd_sweep(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    stats = read_json(args.stats, stats_from_json)
    images = read_images_jsonl(args.data)
    ks = _parse_ks(args.ks, checkpoint.config.eval_ks)
    spec = checkpoint.config.bias
    if args.kind:
        spec = from_dict(BiasSpec, {"kind": args.kind, "a": args.a, "epsilon": args.epsilon})
    if spec is None:
        raise CliError("checkpoint has no bias spec; pass --kind/--a/--epsilon")
    grid = [float(tok) for tok in args.grid.split(",") if tok]
    rows = sweep(checkpoint, stats, spec, grid, images, ks=ks)
    out = _ensure_out(args.out)
    _write_text(os.path.join(out, "sweep.csv"), sweep_csv(rows, ks))
    _write_manifest(out, "sweep", ["sweep.csv"])
    return 0


def cmd_gradcheck(args) -> int:
    results = run_certification(seed=args.seed, instances=args.instances)
    for r in results:
        print(r.line())
    if args.out:
        out = _ensure_out(args.out)
        doc = [{**vars(r), "passed": r.passed} for r in results]
        _write_text(os.path.join(out, "gradcheck.json"), json.dumps(doc, indent=2) + "\n")
        _write_manifest(out, "gradcheck", ["gradcheck.json"])
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> JsonArgumentParser:
    parser = JsonArgumentParser(prog="tailbias")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic splits")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("stats", help="build annotation statistics")
    p.add_argument("--labels", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--images", help="image JSONL to read gt from")
    source.add_argument("--data", help="triplet JSONL {s,o,r}")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("bias", help="compute a bias from statistics")
    p.add_argument("--kind", required=True, choices=GLOBAL_KINDS + PAIR_KINDS)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--a-eval", dest="a_eval", type=float, default=0.0)
    p.add_argument("--background", type=float, default=None)
    p.add_argument("--stats", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_bias)

    p = sub.add_parser("train", help="train a relation classifier")
    p.add_argument("--config", required=True)
    p.add_argument("--data", default=None, help="override training JSONL path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--bias", default=None, help="optional inference bias JSON")
    p.add_argument("--ks", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="soft-bias exponent sweep")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--grid", required=True, help="comma-separated exponents")
    p.add_argument("--kind", default=None, choices=GLOBAL_KINDS + PAIR_KINDS)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--ks", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference certification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):  # every non-finite value is refused by its own check
            return args.fn(args)
    except (CliError, ValueError, ArithmeticError, OSError, KeyError, RecursionError,
            MemoryError) as exc:
        _print_error(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
