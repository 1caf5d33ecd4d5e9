"""Every file the program reads names its faults by the file.

Each reader goes through :func:`tailbias.stats.read_json` or
:func:`tailbias.stats.read_jsonl`. Hypothesis starts from small valid files and
truncates them, flips bytes, deletes keys and swaps values for ones of another
type. A Python reader then either reads the file or raises a ``ValueError``
starting with its path (``path:line`` for JSONL); it always raises one when a
value in a list of numbers is swapped for one that is no number. A command
either succeeds or exits 1 with exactly one JSON error object on stderr and
nothing under ``--out``. Sizes stay small: a swap puts no number above 1 into
a file, and a byte flip makes a number at most one character longer, so no
label space or model spec asks for a huge allocation.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbias.bias import bias_from_json
from tailbias.cli import main
from tailbias.harness import TrainConfig, load_checkpoint
from tailbias.stats import LabelSpace, read_config, read_json, read_triplets_jsonl, stats_from_json
from tailbias.synth import SynthConfig, read_images_jsonl

SWAPS = [None, True, "x", [], {}, [[0]], 0, -1, 1.5]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Small valid inputs of every reader, written by the commands themselves."""
    root = tmp_path_factory.mktemp("readers")
    space = {"num_object_classes": 3, "num_relations": 3}
    synth = {"label_space": space, "num_train": 6, "num_val": 1, "num_test": 3,
             "objects_min": 2, "objects_max": 3, "d_v": 3, "seed": 4}
    (root / "synth.json").write_text(json.dumps(synth))
    assert main(["synth", "--config", str(root / "synth.json"), "--out", str(root / "data")]) == 0
    (root / "triplets.jsonl").write_text(
        '{"s": 0, "o": 1, "r": 1}\n\n{"s": 2, "o": 0, "r": 3}\n{"s": 1, "o": 2, "r": 2}\n')
    assert main(["stats", "--labels", str(root / "data" / "labels.json"),
                 "--images", str(root / "data" / "train.jsonl"),
                 "--out", str(root / "stats.json")]) == 0
    for kind in ("cb", "pb"):
        assert main(["bias", "--kind", kind, "--stats", str(root / "stats.json"),
                     "--out", str(root / f"bias_{kind}.json")]) == 0
    dual = {"kind": "dual_encoder", "d_model": 4, "n_h": 2, "n_o": 1, "n_r": 1, "d_ff": 4,
            "d_e": 2, "d_pos": 2}
    for name, model in (("linear", {"kind": "linear"}), ("dual", dual)):
        train = {"label_space": space, "task": "sgcls", "model": model,
                 "loss": {"kind": "rtpb"}, "bias": {"kind": "cb", "a": 1.0, "epsilon": 0.001},
                 "optimizer": {"learning_rate": 0.01, "iterations": 3, "batch_size": 2},
                 "seed": 2, "data": [["train", str(root / "data" / "train.jsonl")]],
                 "eval_ks": [5, 10]}
        (root / f"train_{name}.json").write_text(json.dumps(train))
        assert main(["train", "--config", str(root / f"train_{name}.json"),
                     "--out", str(root / f"run_{name}")]) == 0
    return root


def _paths(doc, at=()):
    """The path of ``doc`` and of every value inside it."""
    yield at
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, (*at, key))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _dumps(docs: list, jsonl: bool) -> bytes:
    if not jsonl:
        return json.dumps(docs[0]).encode()
    return "".join(json.dumps(d) + "\n" for d in docs).encode()


@st.composite
def mutated(draw, text: bytes, jsonl: bool) -> bytes:
    """``text`` truncated, with bytes flipped, or with one document's key
    deleted or value swapped for one of another type."""
    how = draw(st.sampled_from(["truncate", "flip", "delete", "swap"]))
    if how == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if how == "flip":
        out = bytearray(text)
        for _ in range(draw(st.integers(1, 3))):
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    docs = [json.loads(line) for line in text.decode().splitlines() if line.strip()]
    i = draw(st.integers(0, len(docs) - 1))
    doc = copy.deepcopy(docs[i])
    paths = [p for p in _paths(doc) if p and (how == "swap" or isinstance(_parent(doc, p), dict))]
    if not paths:
        doc = draw(st.sampled_from(SWAPS))
    else:
        path = draw(st.sampled_from(paths))
        parent = _parent(doc, path)
        if how == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(
                [v for v in SWAPS if type(v) is not type(parent[path[-1]])]))
    docs[i] = doc
    return _dumps(docs, jsonl)


NON_NUMBERS = [v for v in SWAPS if type(v) not in (int, float)]


def _numbers(value) -> bool:
    return isinstance(value, list) and value and all(type(v) in (int, float) for v in value)


@st.composite
def number_swapped(draw, text: bytes, jsonl: bool) -> bytes:
    """``text`` with one value, drawn from every value of a list of numbers in
    its documents, swapped for one that is no number."""
    docs = [json.loads(line) for line in text.decode().splitlines() if line.strip()]
    values = [(i, path) for i, doc in enumerate(docs) for path in _paths(doc)
              if len(path) > 1 and _numbers(_parent(doc, path))]
    i, path = draw(st.sampled_from(values))
    docs[i] = copy.deepcopy(docs[i])
    _parent(docs[i], path)[path[-1]] = draw(st.sampled_from(NON_NUMBERS))
    return _dumps(docs, jsonl)


# reader name: (input file, reader, whether the file is JSONL)
READERS = {
    "synth-config": ("synth.json", lambda p: read_config(SynthConfig, p), False),
    "train-config": ("train_linear.json", lambda p: read_config(TrainConfig, p), False),
    "labels": ("data/labels.json", lambda p: read_config(LabelSpace, p), False),
    "statistics": ("stats.json", lambda p: read_json(p, stats_from_json), False),
    "bias-cb": ("bias_cb.json", lambda p: read_json(p, lambda t: bias_from_json(t, 3)), False),
    "bias-pb": ("bias_pb.json", lambda p: read_json(p, lambda t: bias_from_json(t, 3)), False),
    "checkpoint-linear": ("run_linear/checkpoint.json", load_checkpoint, False),
    "checkpoint-dual": ("run_dual/checkpoint.json", load_checkpoint, False),
    "images": ("data/test.jsonl", read_images_jsonl, True),
    "triplets": ("triplets.jsonl", read_triplets_jsonl, True),
}


@pytest.mark.parametrize("reader", list(READERS))
def test_a_reader_reads_a_mutated_file_or_names_it(files, reader):
    name, read, jsonl = READERS[reader]
    text = (files / name).read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(mutated(text, jsonl))
    def check(bad):
        with tempfile.TemporaryDirectory(dir=files) as tmp:
            path = Path(tmp) / Path(name).name
            path.write_bytes(bad)
            try:
                read(str(path))
            except ValueError as exc:
                assert re.match(re.escape(str(path)) + (r":\d+: " if jsonl else ": "), str(exc))

    check()


@pytest.mark.parametrize("reader", [name for name in READERS if name not in (
    "synth-config", "labels", "triplets")])  # these files hold no list of numbers
def test_a_reader_refuses_a_non_number_in_a_list_of_numbers(files, reader):
    name, read, jsonl = READERS[reader]
    text = (files / name).read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(number_swapped(text, jsonl))
    def check(bad):
        with tempfile.TemporaryDirectory(dir=files) as tmp:
            path = Path(tmp) / Path(name).name
            path.write_bytes(bad)
            prefix = re.escape(str(path)) + (r":\d+: " if jsonl else ": ")
            with pytest.raises(ValueError, match=f"^{prefix}"):
                read(str(path))

    check()


# command name: (file to mutate, argv with {bad} for it and {root} for the inputs)
COMMANDS = {
    "synth-config": ("synth.json", ["synth", "--config", "{bad}"]),
    "train-config": ("train_linear.json", ["train", "--config", "{bad}"]),
    "train-images": ("data/train.jsonl",
                     ["train", "--config", "{root}/train_dual.json", "--data", "{bad}"]),
    "stats-labels": ("data/labels.json",
                     ["stats", "--labels", "{bad}", "--data", "{root}/triplets.jsonl"]),
    "stats-triplets": ("triplets.jsonl",
                       ["stats", "--labels", "{root}/data/labels.json", "--data", "{bad}"]),
    "stats-images": ("data/train.jsonl",
                     ["stats", "--labels", "{root}/data/labels.json", "--images", "{bad}"]),
    "bias-stats": ("stats.json", ["bias", "--kind", "pb", "--stats", "{bad}"]),
    "sweep-stats": ("stats.json",
                    ["sweep", "--checkpoint", "{root}/run_linear/checkpoint.json", "--stats",
                     "{bad}", "--data", "{root}/data/test.jsonl", "--grid", "0,1"]),
    "eval-checkpoint": ("run_dual/checkpoint.json",
                        ["eval", "--checkpoint", "{bad}", "--data", "{root}/data/test.jsonl"]),
    "eval-bias": ("bias_pb.json",
                  ["eval", "--checkpoint", "{root}/run_linear/checkpoint.json",
                   "--data", "{root}/data/test.jsonl", "--bias", "{bad}"]),
    "eval-images": ("data/test.jsonl",
                    ["eval", "--checkpoint", "{root}/run_linear/checkpoint.json",
                     "--data", "{bad}"]),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_command_on_a_mutated_file_succeeds_or_prints_one_json_error(files, command):
    name, argv = COMMANDS[command]
    text = (files / name).read_bytes()

    @settings(max_examples=15, deadline=None)
    @given(mutated(text, name.endswith(".jsonl")))
    def check(bad):
        with tempfile.TemporaryDirectory(dir=files) as tmp:
            path, out = Path(tmp) / Path(name).name, Path(tmp) / "out"
            path.write_bytes(bad)
            args = [a.format(bad=path, root=files) for a in argv]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main([*args, "--out", str(out)])
            if code == 0:
                return
            assert code == 1
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1
            error = json.loads(lines[0])["error"]
            assert set(error) == {"type", "message"}
            assert not out.exists()

    check()
