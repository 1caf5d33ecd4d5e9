"""Command line front end.

Subcommands: ``synth``, ``stats``, ``bias``, ``train``, ``eval``, ``sweep``,
``gradcheck``. Each command returns its exit code, its artifacts, and the
files it read, keyed by the flag that named them (``data.<name>`` for a file
a train config names). :func:`main` alone writes the artifacts, through
:func:`~tailbias.stats.write_text`: the text of the one file ``--out`` names
(``stats``, ``bias``), or ``{name: text}`` under the ``--out`` directory with
a ``manifest.json`` of the sha256 digests of the files read and written and
the values of the command's other arguments. A fault of a file read is a
``ValueError`` starting with its path (see :func:`~tailbias.stats.read_json`).
Failures print a machine-readable JSON error object to stderr and exit
nonzero; a refused input writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bias import GLOBAL_KINDS, PAIR_KINDS, BiasSpec, bias_from_json, bias_to_json, compute_bias
from .gradcert import run_certification
from .harness import (
    TrainConfig,
    checkpoint_to_json,
    evaluate,
    load_checkpoint,
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
    write_text,
)
from .synth import SynthConfig, generate_split, images_to_jsonl, read_images_jsonl

__all__ = ["main"]


class CliError(Exception):
    pass


def _print_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"type": kind, "message": message}}), file=sys.stderr)


class JsonArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        _print_error("usage", message)
        raise SystemExit(2)


def _digests(paths: dict[str, str]) -> dict[str, dict[str, str]]:
    return {key: {"sha256": hashlib.sha256(Path(paths[key]).read_bytes()).hexdigest()}
            for key in sorted(paths)}


# Flags that name a file the command reads: ``inputs`` keys their digests.
_FILE_FLAGS = ("config", "data", "labels", "images", "stats", "checkpoint", "bias")


def _write_outputs(args, files: str | dict, inputs: dict) -> None:
    """Write what ``args.command`` returned: a ``str`` as the file ``args.out``,
    or each ``{name: text}`` under the directory ``args.out``, created here,
    then a ``manifest.json`` giving the sha256 of each file in ``inputs``,
    taken before any output is written, and of each file written, and under
    ``arguments`` every other parsed argument, defaults filled in. No
    ``out`` writes nothing."""
    out = args.out
    if out is None:
        return
    if isinstance(files, str):
        return write_text(out, files)
    read = _digests(inputs)
    arguments = {key: value for key, value in sorted(vars(args).items())
                 if key not in ("command", "fn", "out", *_FILE_FLAGS)}
    os.makedirs(out, exist_ok=True)
    for name, text in files.items():
        write_text(os.path.join(out, name), text)
    doc = {"command": args.command, "version": __version__, "numpy": np.__version__,
           "python": platform.python_version(), "arguments": arguments, "inputs": read,
           "outputs": _digests({name: os.path.join(out, name) for name in files})}
    write_text(os.path.join(out, "manifest.json"), json.dumps(doc, indent=2) + "\n")


def _named(args, *flags: str) -> dict[str, str]:
    """``{"--flag": path}`` for each of ``flags`` given a file path."""
    return {f"--{flag}": getattr(args, flag) for flag in flags if getattr(args, flag)}


def cmd_synth(args) -> tuple[int, dict, dict]:
    config = read_config(SynthConfig, args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    splits = {f"{name}.jsonl": images_to_jsonl(generate_split(config, name))  # made as written
              for name in ("train", "val", "test")}
    return 0, {**splits, "labels.json": json.dumps(asdict(config.label_space)) + "\n",
               "config.json": json.dumps(asdict(config)) + "\n"}, _named(args, "config")


def cmd_stats(args) -> tuple[int, str, dict]:
    labels = read_config(LabelSpace, args.labels)
    if args.images is not None:
        stats = training_stats(read_images_jsonl(args.images), labels)
    else:
        stats = ingest(read_triplets_jsonl(args.data), labels)
    return 0, stats_to_json(stats) + "\n", _named(args, "labels", "images", "data")


def cmd_bias(args) -> tuple[int, str, dict]:
    stats = read_json(args.stats, stats_from_json)
    keys = ("kind", "a", "epsilon", "background")
    spec = from_dict(BiasSpec, {key: getattr(args, key) for key in keys})
    bias = compute_bias(spec, stats)
    return 0, bias_to_json(spec, bias) + "\n", _named(args, "stats")


def cmd_train(args) -> tuple[int, dict, dict]:
    config = read_config(TrainConfig, args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    train_path = args.data or dict(config.data).get("train")
    if not train_path:
        raise CliError("no training data path in config or --data")
    images = read_images_jsonl(train_path)
    checkpoint, runlog = train(config, images)
    return 0, {"checkpoint.json": checkpoint_to_json(checkpoint),
               "runlog.json": json.dumps(asdict(runlog)) + "\n"}, {
        "--config": args.config, "--data" if args.data else "data.train": train_path}


def _list_of(cast):
    """An argparse type: a flag's comma-separated ``cast`` values, empty tokens
    skipped; a bad token is a usage error naming the flag."""
    def parse(text: str) -> list:
        return [cast(tok) for tok in text.split(",") if tok]
    parse.__name__ = f"comma-separated {cast.__name__}"  # argparse's "invalid <name> value"
    return parse


def cmd_eval(args) -> tuple[int, dict, dict]:
    checkpoint = load_checkpoint(args.checkpoint)
    images = read_images_jsonl(args.data)
    ks = checkpoint.config.eval_ks if args.ks is None else args.ks
    inference_bias = None
    if args.bias:
        classes = checkpoint.config.label_space.num_object_classes
        _, inference_bias = read_json(args.bias, lambda text: bias_from_json(text, classes))
    results = evaluate(checkpoint, images, inference_bias=inference_bias, ks=ks)
    ls = checkpoint.config.label_space
    return 0, {"metrics.csv": metrics_csv(checkpoint.config.task, results, ks), **{
        f"per_relation_{c}.csv": per_relation_csv(ls, result, ks) for c, result in results.items()}
    }, _named(args, "checkpoint", "data", "bias")


def cmd_sweep(args) -> tuple[int, dict, dict]:
    checkpoint = load_checkpoint(args.checkpoint)
    stats = read_json(args.stats, stats_from_json)
    images = read_images_jsonl(args.data)
    ks = checkpoint.config.eval_ks if args.ks is None else args.ks
    spec = checkpoint.config.bias
    if args.kind:
        spec = from_dict(BiasSpec, {"kind": args.kind, "a": args.a, "epsilon": args.epsilon})
    if spec is None:
        raise CliError("checkpoint has no bias spec; pass --kind/--a/--epsilon")
    rows = sweep(checkpoint, stats, spec, args.grid, images, ks=ks)
    return 0, {"sweep.csv": sweep_csv(rows, ks)}, _named(args, "checkpoint", "stats", "data")


def cmd_gradcheck(args) -> tuple[int, dict, dict]:
    results = run_certification(seed=args.seed, instances=args.instances)
    for r in results:
        print(r.line())
    doc = [{**vars(r), "passed": r.passed} for r in results]
    return int(not all(r.passed for r in results)), {
        "gradcheck.json": json.dumps(doc, indent=2) + "\n"}, {}


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
    p.add_argument("--ks", type=_list_of(int))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="soft-bias exponent sweep")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--grid", required=True, type=_list_of(float), help="exponents")
    p.add_argument("--kind", default=None, choices=GLOBAL_KINDS + PAIR_KINDS)
    p.add_argument("--a", type=float, help="with --kind (default 1.0)")
    p.add_argument("--epsilon", type=float, help="with --kind (default 1e-3)")
    p.add_argument("--ks", type=_list_of(int))
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
        if args.command == "sweep":  # --a and --epsilon shape the bias --kind names
            for flag, default in (("a", 1.0), ("epsilon", 1e-3)):
                if args.kind and getattr(args, flag) is None:
                    setattr(args, flag, default)
                elif not args.kind and getattr(args, flag) is not None:
                    parser.error(f"argument --{flag}: not allowed without argument --kind")
        with np.errstate(all="ignore"):  # every non-finite value is refused by its own check
            code, files, inputs = args.fn(args)
        _write_outputs(args, files, inputs)
        return code
    except (CliError, ValueError, ArithmeticError, OSError, KeyError, RecursionError,
            MemoryError) as exc:
        _print_error(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
