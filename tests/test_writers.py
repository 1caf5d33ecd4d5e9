"""Every file the program writes goes through one writer.

:func:`tailbias.stats.write_text` is the only place the package opens a file
for writing. A command returns its artifacts and :func:`tailbias.cli.main`
writes them: the one file ``--out`` names for ``stats`` and ``bias``, else each
file under the ``--out`` directory followed by a ``manifest.json`` that gives
the sha256 of every file the command read and wrote, the values of its other
arguments, and the numpy and Python versions that made it.
"""

import ast
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

import tailbias
from tailbias import __version__
from tailbias.cli import main
from tailbias.stats import write_text

SRC = Path(tailbias.__file__).resolve().parent

# The commands whose ``--out`` is a directory, with what each writes there.
OUTPUTS = {
    "data": ["config.json", "labels.json", "test.jsonl", "train.jsonl", "val.jsonl"],
    "run": ["checkpoint.json", "runlog.json"],
    "eval": ["metrics.csv", "per_relation_with.csv", "per_relation_without.csv"],
    "sweep": ["sweep.csv"],
    "gradcheck": ["gradcheck.json"],
}


# The files each of those commands read, by manifest key, relative to the run's root.
INPUTS = {
    "data": {"--config": "synth.json"},
    "run": {"--config": "train.json", "--data": "data/train.jsonl"},
    "eval": {"--checkpoint": "run/checkpoint.json", "--data": "data/test.jsonl",
             "--bias": "bias.json"},
    "sweep": {"--checkpoint": "run/checkpoint.json", "--stats": "stats.json",
              "--data": "data/test.jsonl"},
    "gradcheck": {},
}


def sha256(path: Path) -> dict:
    return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def run_pipeline(root: Path) -> None:
    """A small synth, stats, bias, train, eval, sweep and gradcheck run under
    ``root``; no path is written into an artifact."""
    space = {"num_object_classes": 4, "num_relations": 4}
    synth = {"label_space": space, "num_train": 12, "num_val": 2, "num_test": 6,
             "objects_min": 2, "objects_max": 4, "d_v": 4, "seed": 9}
    (root / "synth.json").write_text(json.dumps(synth))
    train = {"label_space": space, "model": {"kind": "linear"}, "loss": {"kind": "rtpb"},
             "bias": {"kind": "cb", "a": 1.0, "epsilon": 0.001},
             "optimizer": {"learning_rate": 0.1, "iterations": 5, "batch_size": 4},
             "seed": 3, "eval_ks": [5, 10]}
    (root / "train.json").write_text(json.dumps(train))
    data, stats, run = root / "data", root / "stats.json", root / "run"
    checkpoint, test = str(run / "checkpoint.json"), str(data / "test.jsonl")
    for argv in (
        ["synth", "--config", str(root / "synth.json"), "--out", str(data)],
        ["stats", "--labels", str(data / "labels.json"), "--images", str(data / "train.jsonl"),
         "--out", str(stats)],
        ["bias", "--kind", "pb", "--stats", str(stats), "--out", str(root / "bias.json")],
        ["train", "--config", str(root / "train.json"), "--data", str(data / "train.jsonl"),
         "--out", str(run)],
        ["eval", "--checkpoint", checkpoint, "--data", test, "--bias", str(root / "bias.json"),
         "--out", str(root / "eval")],
        ["sweep", "--checkpoint", checkpoint, "--stats", str(stats), "--data", test,
         "--grid", "0,0.5,1", "--out", str(root / "sweep")],
        ["gradcheck", "--instances", "1", "--out", str(root / "gradcheck")],
    ):
        assert main(argv) == 0, argv


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    roots = [tmp_path_factory.mktemp("pipeline") for _ in range(2)]
    for root in roots:
        run_pipeline(root)
    return roots


def manifest(root: Path, out: str) -> dict:
    return json.loads((root / out / "manifest.json").read_text())


def test_write_text_writes_a_str_or_its_chunks_as_utf8(tmp_path):
    whole, chunked = tmp_path / "whole.txt", tmp_path / "chunked.txt"
    write_text(str(whole), "relation «on»\nλ\n")
    write_text(str(chunked), (line for line in ["relation «on»\n", "λ\n"]))
    assert whole.read_bytes() == chunked.read_bytes() == "relation «on»\nλ\n".encode()
    write_text(str(whole), "")  # an existing file is replaced
    assert whole.read_bytes() == b""


def test_write_text_is_the_only_place_the_package_opens_a_file_for_writing():
    """Every ``open`` call in the package reads (``"rb"``), but the one in
    ``stats.write_text``; no module calls ``json.dump``."""
    writers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                name = ast.unparse(call.func)
                mode = call.args[1] if name == "open" and len(call.args) > 1 else None
                if name == "json.dump" or name == "open" and not (
                        isinstance(mode, ast.Constant) and mode.value == "rb"):
                    writers.append(f"{path.stem}.{fn.name}: {name}")
    assert writers == ["stats.write_text: open"]


def test_each_manifest_gives_the_sha256_of_every_file_it_names(pipelines):
    root = pipelines[0]
    for out, names in OUTPUTS.items():
        doc = manifest(root, out)
        assert doc["command"] == {"data": "synth", "run": "train"}.get(out, out)
        assert (doc["version"], doc["numpy"], doc["python"]) == (
            __version__, np.__version__, platform.python_version())
        assert sorted(doc["outputs"]) == names
        assert sorted(p.name for p in (root / out).iterdir()) == sorted(names + ["manifest.json"])
        for name, entry in doc["outputs"].items():
            assert entry == sha256(root / out / name)


def test_each_manifest_gives_the_sha256_of_every_file_it_read(pipelines):
    """Keyed by the flag that named the file, never by its path."""
    root = pipelines[0]
    for out, inputs in INPUTS.items():
        assert manifest(root, out)["inputs"] == {
            key: sha256(root / path) for key, path in inputs.items()}, out


def test_a_train_config_names_its_data_file_as_data_dot_name(pipelines, tmp_path):
    root = pipelines[0]
    config = json.loads((root / "train.json").read_text())
    config["data"] = [["train", str(root / "data" / "train.jsonl")]]
    (tmp_path / "train.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "train.json"),
                 "--out", str(tmp_path / "run")]) == 0
    assert manifest(tmp_path, "run")["inputs"] == {
        "--config": sha256(tmp_path / "train.json"),
        "data.train": sha256(root / "data" / "train.jsonl")}


def test_a_changed_input_gives_a_different_digest(pipelines, tmp_path):
    root = pipelines[0]
    lines = (root / "data" / "test.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "test.jsonl").write_text("".join(lines[:-1]))
    assert main(["eval", "--checkpoint", str(root / "run" / "checkpoint.json"),
                 "--data", str(tmp_path / "test.jsonl"), "--bias", str(root / "bias.json"),
                 "--out", str(tmp_path / "eval")]) == 0
    changed, parent = manifest(tmp_path, "eval")["inputs"], manifest(root, "eval")["inputs"]
    assert changed["--data"] != parent["--data"]
    assert changed["--data"] == sha256(tmp_path / "test.jsonl")
    assert {k: v for k, v in changed.items() if k != "--data"} == {
        k: v for k, v in parent.items() if k != "--data"}


# Each command's arguments but ``--out`` and the files ``inputs`` keys, as
# :func:`run_pipeline` passes them, defaults filled in.
ARGUMENTS = {
    "data": {"seed": None},
    "run": {"seed": None},
    "eval": {"ks": None},
    "sweep": {"a": None, "epsilon": None, "grid": [0.0, 0.5, 1.0], "kind": None, "ks": None},
    "gradcheck": {"instances": 1, "seed": 0},
}


def test_each_manifest_gives_the_commands_other_arguments(pipelines):
    root = pipelines[0]
    for out, arguments in ARGUMENTS.items():
        assert manifest(root, out)["arguments"] == arguments, out


def test_a_sweep_manifest_gives_the_bias_it_swept(pipelines, tmp_path):
    """``--kind`` fills in the defaults of ``--a`` and ``--epsilon``."""
    root = pipelines[0]
    common = ["sweep", "--checkpoint", str(root / "run" / "checkpoint.json"),
              "--stats", str(root / "stats.json"), "--data", str(root / "data" / "test.jsonl"),
              "--grid", "0,0.5", "--ks", "5"]
    assert main([*common, "--kind", "pb", "--a", "0.5", "--out", str(tmp_path / "pb")]) == 0
    assert main([*common, "--kind", "cb", "--out", str(tmp_path / "cb")]) == 0
    assert manifest(tmp_path, "pb")["arguments"] == {
        "a": 0.5, "epsilon": 1e-3, "grid": [0.0, 0.5], "kind": "pb", "ks": [5]}
    assert manifest(tmp_path, "cb")["arguments"] == {
        "a": 1.0, "epsilon": 1e-3, "grid": [0.0, 0.5], "kind": "cb", "ks": [5]}


def test_eval_runs_differing_only_in_ks_give_different_arguments(pipelines, tmp_path):
    root = pipelines[0]
    for ks in ("5", "1,10"):
        assert main(["eval", "--checkpoint", str(root / "run" / "checkpoint.json"),
                     "--data", str(root / "data" / "test.jsonl"), "--ks", ks,
                     "--out", str(tmp_path / ks)]) == 0
    first, second = manifest(tmp_path, "5"), manifest(tmp_path, "1,10")
    assert (first["arguments"], second["arguments"]) == ({"ks": [5]}, {"ks": [1, 10]})
    assert first["inputs"] == second["inputs"]


def test_a_pipeline_run_in_two_directories_gives_equal_manifests(pipelines):
    """Every file read and every artifact is the same in both runs, but the
    run log's timestamps; no manifest holds a path."""
    a, b = pipelines
    for out in OUTPUTS:
        doc_a, doc_b = manifest(a, out), manifest(b, out)
        if out == "run":
            logs = [json.loads((root / "run" / "runlog.json").read_text()) for root in (a, b)]
            for log in logs:
                del log["started_at"], log["finished_at"]
            assert logs[0] == logs[1]
            del doc_a["outputs"]["runlog.json"], doc_b["outputs"]["runlog.json"]
        assert doc_a == doc_b, out
        assert str(a) not in (a / out / "manifest.json").read_text()


def test_stats_and_bias_write_the_one_file_out_names(pipelines):
    root = pipelines[0]
    assert not (root / "manifest.json").exists()
    for name in ("stats.json", "bias.json"):
        assert json.loads((root / name).read_text())


def test_gradcheck_without_out_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gradcheck", "--instances", "1"]) == 0
    assert capsys.readouterr().out.startswith("PASS loss/ce")
    assert list(tmp_path.iterdir()) == []
