import json
import math
import re
from dataclasses import asdict

import pytest

from tailbias.cli import main
from tailbias.gradcert import certify_losses, certify_model, certify_numerics, certify_training
from tailbias.metrics import METRICS_CSV_HEADER
from tailbias.stats import LabelSpace, ingest, stats_to_json
from test_synth import NO_NUMBER, NON_FINITE, NUMBER_ROWS


# The values a test puts into a JSONL number row (see ``test_synth.NUMBER_ROWS``).
VALUES = {"huge": 10**400, "string": "0.5", "bool": True, "null": None, "nan": math.nan,
          "infinity": math.inf}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Full pipeline artifacts: synth -> stats -> bias -> train."""
    root = tmp_path_factory.mktemp("cli")
    ls = LabelSpace(num_object_classes=5, num_relations=6)
    synth_cfg = {
        "label_space": asdict(ls),
        "num_train": 40,
        "num_val": 4,
        "num_test": 10,
        "zipf_s": 1.3,
        "objects_min": 3,
        "objects_max": 4,
        "d_v": 8,
        "noise_sigma": 0.3,
        "background_fraction": 0.6,
        "detector_sharpness": 4.0,
        "detector_noise": 0.5,
        "seed": 31,
    }
    cfg_path = root / "synth.json"
    cfg_path.write_text(json.dumps(synth_cfg))
    data_dir = root / "data"
    assert main(["synth", "--config", str(cfg_path), "--out", str(data_dir)]) == 0

    stats_path = root / "stats.json"
    assert (
        main(
            [
                "stats",
                "--labels", str(data_dir / "labels.json"),
                "--images", str(data_dir / "train.jsonl"),
                "--out", str(stats_path),
            ]
        )
        == 0
    )

    bias_path = root / "bias.json"
    assert (
        main(
            [
                "bias",
                "--kind", "cb",
                "--a", "1.0",
                "--epsilon", "1e-3",
                "--stats", str(stats_path),
                "--out", str(bias_path),
            ]
        )
        == 0
    )

    train_cfg = {
        "label_space": asdict(ls),
        "task": "predcls",
        "model": {"kind": "linear"},
        "loss": {"kind": "rtpb"},
        "bias": {"kind": "cb", "a": 1.0, "epsilon": 1e-3},
        "optimizer": {
            "learning_rate": 0.2,
            "momentum": 0.9,
            "iterations": 30,
            "batch_size": 4,
        },
        "seed": 5,
        "data": [["train", str(data_dir / "train.jsonl")]],
        "eval_ks": [5, 10, 20],
        "background_ratio": 3.0,
    }
    train_cfg_path = root / "train.json"
    train_cfg_path.write_text(json.dumps(train_cfg))
    run_dir = root / "run"
    assert main(["train", "--config", str(train_cfg_path), "--out", str(run_dir)]) == 0
    return root, data_dir, stats_path, bias_path, run_dir


class TestPipeline:
    def test_synth_outputs(self, workspace):
        _, data_dir, _, _, _ = workspace
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "labels.json", "config.json", "manifest.json"):
            assert (data_dir / name).exists()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert "train.jsonl" in manifest["outputs"]

    def test_stats_and_bias_outputs(self, workspace):
        root, _, stats_path, bias_path, _ = workspace
        stats_doc = json.loads(stats_path.read_text())
        assert "counts" in stats_doc and stats_doc["counts"]
        bias_doc = json.loads(bias_path.read_text())
        assert bias_doc["kind"] == "cb"
        assert len(bias_doc["values"]) == 7  # background + 6 relations

    def test_train_outputs(self, workspace):
        _, _, _, _, run_dir = workspace
        assert (run_dir / "checkpoint.json").exists()
        runlog = json.loads((run_dir / "runlog.json").read_text())
        assert len(runlog["losses"]) == 30
        assert runlog["version"]

    def test_eval(self, workspace, tmp_path):
        root, data_dir, _, bias_path, run_dir = workspace
        out = tmp_path / "eval"
        assert (
            main(
                [
                    "eval",
                    "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(data_dir / "test.jsonl"),
                    "--out", str(out),
                ]
            )
            == 0
        )
        text = (out / "metrics.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == METRICS_CSV_HEADER
        assert len(lines) == 1 + 2 * 3  # two constraints, three ks
        assert (out / "per_relation_with.csv").exists()
        assert (out / "per_relation_without.csv").exists()

    def test_eval_deterministic_bytes(self, workspace, tmp_path):
        root, data_dir, _, _, run_dir = workspace
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "eval",
                        "--checkpoint", str(run_dir / "checkpoint.json"),
                        "--data", str(data_dir / "test.jsonl"),
                        "--out", str(out),
                    ]
                )
                == 0
            )
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_eval_with_inference_bias(self, workspace, tmp_path):
        root, data_dir, _, bias_path, run_dir = workspace
        out = tmp_path / "evalb"
        assert (
            main(
                [
                    "eval",
                    "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(data_dir / "test.jsonl"),
                    "--bias", str(bias_path),
                    "--out", str(out),
                ]
            )
            == 0
        )
        assert (out / "metrics.csv").exists()

    def test_sweep(self, workspace, tmp_path):
        root, data_dir, stats_path, _, run_dir = workspace
        out = tmp_path / "sweep"
        assert (
            main(
                [
                    "sweep",
                    "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--stats", str(stats_path),
                    "--data", str(data_dir / "test.jsonl"),
                    "--grid", "0,0.5,1.0",
                    "--out", str(out),
                ]
            )
            == 0
        )
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "a_e,constraint,k,R,mR"
        assert len(lines) == 1 + 3 * 2 * 3

    @pytest.mark.parametrize("flag", ["--a", "--epsilon"])
    def test_sweep_refuses_a_bias_flag_without_kind(self, workspace, tmp_path, capsys, flag):
        """``--a`` and ``--epsilon`` shape the ``--kind`` bias: without it, either
        is a usage error naming the flag, and nothing is written."""
        _, data_dir, stats_path, _, run_dir = workspace
        out = tmp_path / "sweep"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--checkpoint", str(run_dir / "checkpoint.json"), "--stats",
                  str(stats_path), "--data", str(data_dir / "test.jsonl"), "--grid", "0,1",
                  flag, "0.5", "--out", str(out)])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "usage",
                       "message": f"argument {flag}: not allowed without argument --kind"}
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["pb", "cb"])
    def test_sweep_refuses_statistics_of_another_label_space(
        self, workspace, tmp_path, capsys, kind
    ):
        """Statistics over 3 object classes, for a checkpoint over 5: a JSON
        error naming both label spaces' sizes, and nothing is written."""
        _, data_dir, _, _, run_dir = workspace
        stats_path, out = tmp_path / "stats.json", tmp_path / "sweep"
        stats_path.write_text(stats_to_json(ingest([(0, 1, 1)], LabelSpace(3, 6))))
        capsys.readouterr()
        assert main(["sweep", "--checkpoint", str(run_dir / "checkpoint.json"), "--stats",
                     str(stats_path), "--data", str(data_dir / "test.jsonl"), "--grid", "0,1",
                     "--kind", kind, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError", "message": "statistics over 3 object classes and "
                       "6 relations; the checkpoint has 5 and 6"}
        assert not out.exists()

    def test_sweep_kind_without_a_or_epsilon_takes_their_defaults(self, workspace, tmp_path):
        _, data_dir, stats_path, _, run_dir = workspace
        argv = ["sweep", "--checkpoint", str(run_dir / "checkpoint.json"), "--stats",
                str(stats_path), "--data", str(data_dir / "test.jsonl"), "--grid", "0,0.5,1",
                "--kind", "pb"]
        assert main(argv + ["--out", str(tmp_path / "implicit")]) == 0
        assert main(argv + ["--a", "1.0", "--epsilon", "1e-3",
                            "--out", str(tmp_path / "explicit")]) == 0
        assert ((tmp_path / "implicit" / "sweep.csv").read_bytes()
                == (tmp_path / "explicit" / "sweep.csv").read_bytes())

    def test_synth_is_byte_deterministic(self, workspace, tmp_path):
        root, data_dir, _, _, _ = workspace
        again = tmp_path / "again"
        assert main(["synth", "--config", str(root / "synth.json"), "--out", str(again)]) == 0
        for name in ("train.jsonl", "val.jsonl", "test.jsonl"):
            assert (again / name).read_bytes() == (data_dir / name).read_bytes()


class TestGradcheckCommand:
    def test_small_battery(self, tmp_path, capsys):
        out = tmp_path / "gc"
        code = main(["gradcheck", "--seed", "1", "--instances", "4", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        # the battery's output before parameter trees became views of one
        # flat buffer; differencing through the buffer must print the same.
        # The last line is the training step's battery, added after; its
        # batch takes 3 of 5 and 6 of 10 background pairs, so its value
        # follows the background sampler's draws.
        assert printed.splitlines() == [
            "PASS loss/ce: max_rel_error=1.200e-10 tol=1e-04 instances=4",
            "PASS loss/rtpb: max_rel_error=2.285e-10 tol=1e-04 instances=4",
            "PASS loss/reweight: max_rel_error=2.265e-10 tol=1e-04 instances=4",
            "PASS loss/class_balanced: max_rel_error=3.561e-12 tol=1e-04 instances=4",
            "PASS loss/focal: max_rel_error=4.617e-11 tol=1e-04 instances=4",
            "PASS loss/ldam: max_rel_error=1.248e-10 tol=1e-04 instances=4",
            "PASS numerics/matmul: max_rel_error=6.901e-11 tol=1e-04 instances=8",
            "PASS numerics/attention: max_rel_error=4.108e-11 tol=1e-04 instances=12",
            "PASS numerics/multi_head_attention: max_rel_error=1.259e-10 tol=1e-04 instances=2",
            "PASS numerics/encoder_layer: max_rel_error=2.747e-10 tol=1e-04 instances=2",
            "PASS model/dual_encoder: max_rel_error=1.481e-09 tol=1e-03 instances=6",
            "PASS training/batch_loss: max_rel_error=1.732e-10 tol=1e-03 instances=28",
        ]
        doc = json.loads((out / "gradcheck.json").read_text())
        assert all(entry["passed"] for entry in doc)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--instances", "-5"], "instances must be >= 1"),
            (["--instances", "0"], "instances must be >= 1"),
            (["--seed", "-1"], "seed must be >= 0"),
        ],
        ids=["negative-instances", "no-instances", "negative-seed"],
    )
    def test_a_battery_that_checks_nothing_gives_json_error(
        self, tmp_path, capsys, args, message
    ):
        out = tmp_path / "gc"
        code = main(["gradcheck", *args, "--out", str(out)])
        assert code == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        err = json.loads(printed.err.strip())["error"]
        assert err == {"type": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize(
        "battery, kwargs, message",
        [
            (certify_losses, {"instances": 0}, "instances must be >= 1"),
            (certify_numerics, {"instances": -1}, "instances must be >= 1"),
            (certify_model, {"sampled_instances": 0}, "sampled_instances must be >= 1"),
            (certify_model, {"full_instances": -1}, "full_instances must be >= 0"),
            (certify_training, {"seed": -1}, "seed must be >= 0"),
        ],
        ids=["losses", "numerics", "model-sampled", "model-full", "training-seed"],
    )
    def test_each_battery_refuses_a_count_that_checks_nothing(self, battery, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            battery(**kwargs)


@pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)
def test_commands_close_the_files_they_read(workspace, tmp_path):
    _, data_dir, stats_path, bias_path, run_dir = workspace
    checkpoint, test_data = str(run_dir / "checkpoint.json"), str(data_dir / "test.jsonl")
    assert main(["bias", "--kind", "pb", "--stats", str(stats_path),
                 "--out", str(tmp_path / "bias.json")]) == 0
    assert main(["eval", "--checkpoint", checkpoint, "--data", test_data,
                 "--bias", str(bias_path), "--out", str(tmp_path / "eval")]) == 0
    assert main(["sweep", "--checkpoint", checkpoint, "--stats", str(stats_path),
                 "--data", test_data, "--grid", "0,1", "--out", str(tmp_path / "sweep")]) == 0


class TestErrors:
    def test_missing_file_gives_json_error(self, capsys, tmp_path):
        code = main(
            ["stats", "--labels", "nope.json", "--images", "also-nope", "--out", str(tmp_path / "s.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        doc = json.loads(err.strip())
        assert "error" in doc

    @pytest.mark.parametrize("argv", [
        ["bias", "--kind", "zz", "--stats", "s", "--out", "o"],
        # stats reads exactly one source: both flags, or neither, is a usage error
        ["stats", "--labels", "l", "--images", "i", "--data", "d", "--out", "o"],
        ["stats", "--labels", "l", "--out", "o"],
    ], ids=["bad-choice", "stats-both-sources", "stats-no-source"])
    def test_usage_error_is_json(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "usage"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_dual_encoder_gives_json_error(self, tmp_path, capsys):
        # At learning rate 0.3 the encoder's attention overflows within 30 steps.
        ls = LabelSpace(num_object_classes=5, num_relations=6)
        synth_cfg = tmp_path / "synth.json"
        synth_cfg.write_text(json.dumps({
            "label_space": asdict(ls), "num_train": 20, "num_val": 0, "num_test": 0,
            "objects_min": 3, "objects_max": 4, "d_v": 8, "seed": 31,
        }))
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(synth_cfg), "--out", str(data_dir)]) == 0
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({
            "label_space": asdict(ls),
            "model": {"kind": "dual_encoder", "d_model": 16, "n_h": 2, "n_o": 1,
                      "n_r": 1, "d_ff": 16, "d_e": 4, "d_pos": 4},
            "loss": {"kind": "ce"},
            "optimizer": {"learning_rate": 0.3, "momentum": 0.9, "iterations": 30,
                          "batch_size": 4},
            "seed": 5,
            "data": [["train", str(data_dir / "train.jsonl")]],
        }))
        capsys.readouterr()
        code = main(["train", "--config", str(train_cfg), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1  # numpy warns of nothing
        doc = json.loads(err)
        assert doc["error"]["type"] == "FloatingPointError"
        assert re.match(r"iteration \d+: ", doc["error"]["message"])
        assert not (tmp_path / "run").exists()

    def test_out_of_memory_gives_json_error(self, workspace, tmp_path, capsys, monkeypatch):
        """A parameter allocation the host refuses prints one JSON error and
        writes no run. The refusal is made to raise without allocating:
        without an address-space limit the host may overcommit."""
        import tailbias.model
        import tailbias.numerics

        def refuse(rng, scale, shape):
            raise MemoryError(f"Unable to allocate 74.5 GiB for an array with shape {shape}")

        for module in (tailbias.model, tailbias.numerics):
            monkeypatch.setattr(module, "normal_init", refuse)
        root, _, _, _, _ = workspace
        doc = json.loads((root / "train.json").read_text())
        doc["model"] = {"kind": "dual_encoder", "d_model": 100000, "n_h": 2}
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["train", "--config", str(train_cfg), "--out", str(tmp_path / "run")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["type"] == "MemoryError"
        assert err["message"].startswith("Unable to allocate 74.5 GiB")
        assert not (tmp_path / "run").exists()

    def test_invalid_ground_truth_gives_json_error(self, workspace, tmp_path, capsys):
        _, data_dir, _, _, run_dir = workspace
        lines = (data_dir / "test.jsonl").read_text().splitlines()
        doc = json.loads(lines[2])
        doc["gt"].append([0, 0, 1])
        lines[2] = json.dumps(doc)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.json"),
            "--data", str(bad), "--out", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["type"] == "ValueError"
        assert err["message"] == (
            f"{bad}:3: image 2: ground-truth triplet (0, 0, 1) has the same subject and object"
        )
        assert not (tmp_path / "eval").exists()

    def test_invalid_training_image_gives_json_error(self, workspace, tmp_path, capsys):
        root, data_dir, _, _, _ = workspace
        lines = (data_dir / "train.jsonl").read_text().splitlines()
        doc = json.loads(lines[3])
        doc["gt"].append([7, 0, 1])
        lines[3] = json.dumps(doc)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main([
            "train", "--config", str(root / "train.json"), "--data", str(bad),
            "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["type"] == "ValueError"
        assert re.fullmatch(
            re.escape(f"{bad}:4: ")
            + r"image 3: ground-truth triplet \(7, 0, 1\) has an object index outside 0\.\.\d",
            err["message"],
        )
        assert not (tmp_path / "run").exists()

    def test_malformed_jsonl_gives_json_error_naming_the_line(
        self, workspace, tmp_path, capsys
    ):
        _, data_dir, _, _, run_dir = workspace
        lines = (data_dir / "test.jsonl").read_text().splitlines()
        doc = json.loads(lines[2])
        del doc["unions"][4]
        lines[2] = json.dumps(doc)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.json"),
            "--data", str(bad), "--out", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith(f"{bad}:3: union pairs are not the ordered pairs")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: d["objects"][1].__setitem__("label", 1.7),
             "object 1: label is not a 64-bit integer"),
            (lambda d: d["gt"][0].__setitem__(2, 1.9),
             "ground-truth entry 0: not three 64-bit integers [s, o, r]"),
        ],
        ids=["float-label", "float-gt"],
    )
    def test_non_integer_label_or_triplet_gives_json_error(
        self, workspace, tmp_path, capsys, corrupt, message
    ):
        root, data_dir, _, _, _ = workspace
        lines = (data_dir / "train.jsonl").read_text().splitlines()
        doc = json.loads(lines[3])
        corrupt(doc)
        lines[3] = json.dumps(doc)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main([
            "train", "--config", str(root / "train.json"), "--data", str(bad),
            "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError", "message": f"{bad}:4: {message}"}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("eval", "--ks", "10,5,5", "ks must be nonempty and strictly ascending, every k >= 1"),
            ("eval", "--ks", ",", "ks must be nonempty and strictly ascending, every k >= 1"),
            ("eval", "--ks", "0,5", "ks must be nonempty and strictly ascending, every k >= 1"),
            ("sweep", "--ks", "10,5", "ks must be nonempty and strictly ascending, every k >= 1"),
            ("sweep", "--ks", ",", "ks must be nonempty and strictly ascending, every k >= 1"),
            ("sweep", "--grid", ",", "empty sweep grid"),
            ("eval", "--ks", "", "ks must be nonempty and strictly ascending, every k >= 1"),
            ("sweep", "--ks", "", "ks must be nonempty and strictly ascending, every k >= 1"),
            # a dropped triplet's rank position is the int64 maximum, below any larger k
            ("eval", "--ks", "99999999999999999999", "ks must be a list of 64-bit integers"),
            ("sweep", "--ks", "5,9223372036854775808", "ks must be a list of 64-bit integers"),
        ],
        ids=["eval-unordered", "eval-empty", "eval-zero", "sweep-unordered", "sweep-empty",
             "empty-grid", "eval-blank", "sweep-blank", "eval-beyond-int64",
             "sweep-beyond-int64"],
    )
    def test_bad_ks_or_grid_gives_json_error(
        self, workspace, tmp_path, capsys, command, flag, value, message
    ):
        _, data_dir, stats_path, _, run_dir = workspace
        args = {
            "eval": ["eval"],
            "sweep": ["sweep", "--stats", str(stats_path), "--grid", "0,1"],
        }[command] + [
            "--checkpoint", str(run_dir / "checkpoint.json"), "--data",
            str(data_dir / "test.jsonl"), "--out", str(tmp_path / "out"), flag + "=" + value,
        ]
        capsys.readouterr()
        assert main(args) == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError", "message": message}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("eval", "--ks", "a,b", "argument --ks: invalid comma-separated int value: 'a,b'"),
            ("sweep", "--ks", "5,1.5",
             "argument --ks: invalid comma-separated int value: '5,1.5'"),
            ("sweep", "--grid", "0,x",
             "argument --grid: invalid comma-separated float value: '0,x'"),
        ],
        ids=["eval-ks", "sweep-ks", "sweep-grid"],
    )
    def test_a_bad_list_token_is_a_usage_error_naming_its_flag(
        self, workspace, tmp_path, capsys, command, flag, value, message
    ):
        _, data_dir, stats_path, _, run_dir = workspace
        args = [command, "--checkpoint", str(run_dir / "checkpoint.json"), "--data",
                str(data_dir / "test.jsonl"), "--out", str(tmp_path / "out"), flag + "=" + value]
        if command == "sweep":
            args += ["--stats", str(stats_path)] + (["--grid", "0,1"] if flag != "--grid" else [])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "usage", "message": message}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, section, key, where",
        [
            ("train", "model", "d_modle", "config section 'model'"),
            ("train", "loss", "d_modle", "config section 'loss'"),
            ("train", "optimizer", "d_modle", "config section 'optimizer'"),
            ("train", "bias", "epsilonn", "bias spec"),
            ("train", None, "seedd", "train config"),
            ("synth", None, "seedd", "synth config"),
            ("synth", "label_space", "num_relationz", "label space"),
        ],
        ids=["model", "loss", "optimizer", "bias", "train", "synth", "label-space"],
    )
    def test_unknown_config_key_gives_json_error(
        self, workspace, tmp_path, capsys, command, section, key, where
    ):
        root, _, _, _, _ = workspace
        bad_cfg = json.loads((root / f"{command}.json").read_text())
        if section is None:
            bad_cfg[key] = 1
        else:
            bad_cfg[section] = {**bad_cfg.get(section, {}), key: 8}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad_cfg))
        capsys.readouterr()
        code = main([command, "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError", "message": f"{path}: unknown key '{key}' in {where}"}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, section, key, value, message",
        [
            ("synth", None, "objects_min", "3", "synth config key 'objects_min' must be an integer"),
            ("synth", "label_space", "num_relations", 6.0,
             "label space key 'num_relations' must be an integer"),
            ("train", "optimizer", "iterations", "30",
             "config section 'optimizer' key 'iterations' must be an integer"),
            ("train", "optimizer", "learning_rate", "0.2",
             "config section 'optimizer' key 'learning_rate' must be a number"),
            ("train", "loss", "reweight_normalize", 1,
             "config section 'loss' key 'reweight_normalize' must be a boolean"),
            ("train", None, "seed", True, "train config key 'seed' must be an integer"),
            ("train", "bias", "kind", 1, "bias spec key 'kind' must be a string"),
            ("train", None, "eval_ks", [5.7, 20.2],
             "train config key 'eval_ks' must be a list of 64-bit integers"),
            ("train", None, "eval_ks", [True, 20],
             "train config key 'eval_ks' must be a list of 64-bit integers"),
            ("train", "label_space", "object_names", "abcde",
             "label space key 'object_names' must be a list of strings"),
            ("synth", "label_space", "relation_names", [1, 2, 3, 4, 5, 6],
             "label space key 'relation_names' must be a list of strings"),
            ("train", None, "data", [[1, 2]],
             "train config key 'data' must be a list of [name, path] string pairs"),
            ("train", None, "data", "ab",
             "train config key 'data' must be a list of [name, path] string pairs"),
            ("train", None, "data", [["train", "a.jsonl", "b.jsonl"]],
             "train config key 'data' must be a list of [name, path] string pairs"),
        ],
        ids=["synth", "label-space", "iterations", "learning-rate", "bool", "seed", "bias",
             "float-eval-ks", "bool-eval-ks", "string-names", "integer-names", "integer-data",
             "string-data", "triple-data"],
    )
    def test_mistyped_config_value_gives_json_error(
        self, workspace, tmp_path, capsys, command, section, key, value, message
    ):
        root, _, _, _, _ = workspace
        bad_cfg = json.loads((root / f"{command}.json").read_text())
        (bad_cfg if section is None else bad_cfg[section])[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad_cfg))
        capsys.readouterr()
        code = main([command, "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError", "message": f"{path}: {message}"}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, section, key, value, message",
        [
            ("synth", None, "seed", -1, "seed must be >= 0"),
            ("train", None, "seed", -1, "seed must be >= 0"),
            ("synth", None, "num_train", -1, "num_train must be >= 0"),
            ("synth", None, "num_val", -3, "num_val must be >= 0"),
            ("synth", None, "num_test", -1, "num_test must be >= 0"),
            ("synth", None, "d_v", 0, "d_v must be >= 1"),
            ("synth", None, "d_v", -2, "d_v must be >= 1"),
            ("train", "optimizer", "learning_rate", 0.0,
             "config section 'optimizer': learning_rate must be > 0"),
            ("train", "optimizer", "momentum", 5.0,
             "config section 'optimizer': momentum must be < 1"),
            ("train", "loss", "beta", 1.0, "config section 'loss': beta must be < 1"),
            ("train", "loss", "gamma", -1.0, "config section 'loss': gamma must be >= 0"),
            ("train", "loss", "alpha", 0.0, "config section 'loss': alpha must be > 0"),
            ("train", "loss", "margin_c", -0.5, "config section 'loss': margin_c must be >= 0"),
            ("train", "model", "object_loss_weight", -1.0,
             "config section 'model': object_loss_weight must be >= 0"),
            ("synth", None, "detector_sharpness", -4.0, "detector_sharpness must be >= 0"),
        ],
        ids=["synth-seed", "train-seed", "num-train", "num-val", "num-test", "zero-d-v",
             "negative-d-v", "learning-rate", "momentum", "beta", "gamma", "alpha", "margin-c",
             "object-loss-weight", "detector-sharpness"],
    )
    def test_a_value_outside_its_declared_range_gives_json_error(
        self, workspace, tmp_path, capsys, command, section, key, value, message
    ):
        root, _, _, _, _ = workspace
        bad_cfg = json.loads((root / f"{command}.json").read_text())
        (bad_cfg if section is None else bad_cfg[section])[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad_cfg))
        capsys.readouterr()
        code = main([command, "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError", "message": f"{path}: {message}"}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("model", "mlp",
             "config section 'model': kind must be one of 'linear', 'dual_encoder', not 'mlp'"),
            ("loss", "hinge", "config section 'loss': kind must be one of 'ce', 'rtpb', "
             "'reweight', 'class_balanced', 'focal', 'ldam', not 'hinge'"),
            ("bias", "xb", "bias spec: kind must be one of 'cb', 'vb', 'pb', 'eb', not 'xb'"),
        ],
        ids=["model", "loss", "bias"],
    )
    def test_a_refused_kind_names_its_config_section(
        self, workspace, tmp_path, capsys, section, value, message
    ):
        # ``kind`` is a key of three sections; a rule's refusal names which.
        root, _, _, _, _ = workspace
        bad_cfg = json.loads((root / "train.json").read_text())
        bad_cfg[section] = {**(bad_cfg.get(section) or {}), "kind": value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad_cfg))
        capsys.readouterr()
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError", "message": f"{path}: {message}"}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_a_negative_seed_flag_gives_json_error(self, workspace, tmp_path, capsys, command):
        root, _, _, _, _ = workspace
        capsys.readouterr()
        code = main([command, "--config", str(root / f"{command}.json"), "--seed", "-1",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError", "message": "seed must be >= 0"}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, section, key, value, message",
        [
            ("synth", None, "noise_sigma", math.nan,
             "synth config key 'noise_sigma' must be a finite number"),
            ("train", "optimizer", "learning_rate", math.nan,
             "config section 'optimizer' key 'learning_rate' must be a finite number"),
            ("train", None, "background_ratio", math.inf,
             "train config key 'background_ratio' must be a finite number"),
            ("train", "bias", "epsilon", -math.inf,
             "bias spec key 'epsilon' must be a finite number"),
            ("synth", None, "zipf_s", 10**400, "synth config key 'zipf_s' must be a finite number"),
        ],
        ids=["nan-noise-sigma", "nan-learning-rate", "infinite-background-ratio",
             "negative-infinite-epsilon", "huge-integer"],
    )
    def test_non_finite_float_gives_json_error(
        self, workspace, tmp_path, capsys, command, section, key, value, message
    ):
        # json.dump writes NaN and Infinity tokens, which json.load accepts.
        root, _, _, _, _ = workspace
        bad_cfg = json.loads((root / f"{command}.json").read_text())
        (bad_cfg if section is None else bad_cfg[section])[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad_cfg))
        capsys.readouterr()
        code = main([command, "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError", "message": f"{path}: {message}"}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--a", "inf"], "bias spec key 'a' must be a finite number"),
            (["--epsilon", "nan"], "bias spec key 'epsilon' must be a finite number"),
            (["--background=-inf"], "bias spec key 'background' must be a finite number"),
        ],
        ids=["a", "epsilon", "background"],
    )
    def test_non_finite_bias_flag_gives_json_error(
        self, workspace, tmp_path, capsys, args, message
    ):
        _, _, stats_path, _, _ = workspace
        out = tmp_path / "bias.json"
        capsys.readouterr()
        code = main(["bias", "--kind", "cb", "--stats", str(stats_path), "--out", str(out), *args])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_synth_leaves_no_out_directory(self, workspace, tmp_path, capsys):
        # Detector noise this large overflows the detector logits of some image;
        # the refusal names both keys, and numpy warns of nothing.
        root, _, _, _, _ = workspace
        cfg = {**json.loads((root / "synth.json").read_text()), "detector_noise": 1e308}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "data")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError", "message": "detector logits are not finite: "
                       "detector_sharpness or detector_noise is too large"}
        assert not (tmp_path / "data").exists()

    def test_negative_detector_noise_gives_json_error(self, workspace, tmp_path, capsys):
        root, _, _, _, _ = workspace
        cfg = {**json.loads((root / "synth.json").read_text()), "detector_noise": -0.5}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "data")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError",
                       "message": f"{path}: detector_noise must be >= 0"}
        assert not (tmp_path / "data").exists()

    def test_malformed_checkpoint_gives_json_error(self, workspace, tmp_path, capsys):
        _, data_dir, _, _, run_dir = workspace
        doc = json.loads((run_dir / "checkpoint.json").read_text())
        doc["param_data"] = {"w": doc["param_data"]}
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(bad), "--data", str(data_dir / "test.jsonl"),
            "--out", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith(f"{bad}: ")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("doc", [[1, 2], "abc", 3], ids=["list", "string", "number"])
    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_a_document_that_is_no_object_gives_json_error(
        self, workspace, tmp_path, capsys, command, doc
    ):
        """A config given with ``--seed``, or a checkpoint, that is valid JSON
        but no object is refused by its reader, naming what it must be."""
        _, data_dir, _, _, _ = workspace
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", "--config", str(path), "--seed", "3"],
            "train": ["train", "--config", str(path), "--seed", "3",
                      "--data", str(data_dir / "train.jsonl")],
            "eval": ["eval", "--checkpoint", str(path), "--data", str(data_dir / "test.jsonl")],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        message = {"synth": f"{path}: synth config must be an object",
                   "train": f"{path}: train config must be an object",
                   "eval": f"{path}: checkpoint must be an object"}[command]
        assert json.loads(err)["error"] == {"type": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stats-data", "stats-images", "stats-labels", "train"])
    def test_deeply_nested_json_gives_json_error(self, workspace, tmp_path, capsys, command):
        """A document nested 100 000 deep exhausts the decoder's recursion; a
        ``ValueError`` names the file, and a JSONL file's line."""
        _, data_dir, _, _, _ = workspace
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "\n")
        labels, out = str(data_dir / "labels.json"), tmp_path / "out"
        argv = {
            "stats-data": ["stats", "--labels", labels, "--data", str(deep)],
            "stats-images": ["stats", "--labels", labels, "--images", str(deep)],
            "stats-labels": ["stats", "--labels", str(deep), "--data", str(deep)],
            "train": ["train", "--config", str(deep), "--data", str(data_dir / "train.jsonl")],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert "recursion" in error["message"]
        assert error == {"type": "ValueError", "message": error["message"]}
        line = ":1" if command in ("stats-data", "stats-images") else ""
        assert error["message"].startswith(f"{deep}{line}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bias-stats", "sweep-stats", "eval-checkpoint",
                                         "eval-bias"])
    def test_deeply_nested_statistics_bias_or_checkpoint_is_a_value_error(
        self, workspace, tmp_path, capsys, command
    ):
        """The statistics, bias and checkpoint readers refuse a document
        nested 100 000 deep with a ``ValueError`` of their own."""
        _, data_dir, stats_path, _, run_dir = workspace
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "\n")
        test, ck = str(data_dir / "test.jsonl"), str(run_dir / "checkpoint.json")
        out = tmp_path / "out"
        argv, message = {
            "bias-stats": (["bias", "--kind", "cb", "--stats", str(deep)],
                           f"{deep}: statistics file nests too deeply to read"),
            "sweep-stats": (["sweep", "--checkpoint", ck, "--stats", str(deep), "--data", test,
                             "--grid", "0,1"], f"{deep}: statistics file nests too deeply to read"),
            "eval-checkpoint": (["eval", "--checkpoint", str(deep), "--data", test],
                                f"{deep}: checkpoint nests too deeply to read"),
            "eval-bias": (["eval", "--checkpoint", ck, "--data", test, "--bias", str(deep)],
                          f"{deep}: bias file nests too deeply to read"),
        }[command]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == {"type": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"entries": None}, "bias entries must be a list of [s, o, values]"),
            ({"entries": [[0, 1, [0.0, 0.0, 0.0]]]}, "bias entry 0 for class pair (0, 1) needs 7 "
             "finite numbers, as many as the fallback"),
            ({"kind": "cb"}, "missing key 'values' in bias file"),
            ({"kind": "cb", "values": "abc"},
             "bias key 'values' must be a list of two or more finite numbers"),
            ({"entries": [[0, 1, [0.0] * 7], [0, 1, [1.0] * 7]]},
             "bias entry 1 for class pair (0, 1) repeats entry 0"),
            ({"entries": [[0, -1, [0.0] * 7]]},
             "bias entry 0 is not [s, o, values] with classes s, o >= 0"),
            ({"entries": [[False, 1, [0.0] * 7]]},
             "bias entry 0 is not [s, o, values] with classes s, o >= 0"),
            ({"entries": [[1, 2, [0.0] * 7], [7, 0, [0.0] * 7]]},
             "bias entry 1 for class pair (7, 0) outside 5 object classes"),
        ],
        ids=["null-entries", "short-entry", "no-values", "values-string", "repeat", "negative",
             "bool", "outside-classes"],
    )
    def test_malformed_bias_json_gives_json_error(
        self, workspace, tmp_path, capsys, fields, message
    ):
        _, data_dir, _, _, run_dir = workspace
        bias = tmp_path / "bias.json"
        bias.write_text(json.dumps(
            {"kind": "pb", "a": 1.0, "entries": [], "fallback": [0.0] * 7, **fields}
        ))
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.json"),
            "--data", str(data_dir / "test.jsonl"), "--bias", str(bias),
            "--out", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError", "message": f"{bias}: {message}"}
        assert not (tmp_path / "eval").exists()

    def test_huge_bias_class_is_refused_before_allocating(self, workspace, tmp_path, capsys):
        # Sized by its largest class, this table would need 51 TiB.
        _, data_dir, _, _, run_dir = workspace
        bias = tmp_path / "bias.json"
        bias.write_text(json.dumps({"kind": "pb", "a": 1.0, "fallback": [0.0] * 7,
                                    "entries": [[1000000, 0, [0.0] * 7]]}))
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.json"),
            "--data", str(data_dir / "test.jsonl"), "--bias", str(bias),
            "--out", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == {
            "type": "ValueError",
            "message": f"{bias}: bias entry 0 for class pair (1000000, 0) outside 5 object classes",
        }
        assert not (tmp_path / "eval").exists()

    def test_smaller_bias_table_is_padded_with_its_fallback(self, workspace, tmp_path):
        # A pair table read from a file spans only up to its largest class.
        _, data_dir, _, _, run_dir = workspace
        fallback = [0.0] + [1.0] * 6
        out = {}
        for name, entries in (("padded", [[0, 1, fallback]]), ("full", [[4, 4, fallback]])):
            bias = tmp_path / f"{name}.json"
            bias.write_text(json.dumps(
                {"kind": "pb", "a": 1.0, "entries": entries, "fallback": fallback}
            ))
            assert main([
                "eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                "--data", str(data_dir / "test.jsonl"), "--bias", str(bias),
                "--out", str(tmp_path / name),
            ]) == 0
            out[name] = (tmp_path / name / "metrics.csv").read_bytes()
        assert out["padded"] == out["full"]

    @pytest.mark.parametrize("command", ["bias", "sweep"])
    @pytest.mark.parametrize(
        "counts, message",
        [
            ([[0, 1, None, 3]], "statistics entry 0: not four 64-bit integers [s, o, r, n]"),
            ([[0, 1, 1, 3], [0, 1, 1, 2]], "statistics entry 1: repeats the (s, o, r) of entry 0"),
            ([[0, 1, 1, 1.7]], "statistics entry 0: not four 64-bit integers [s, o, r, n]"),
            ([[0, 1, 9, 3]], "statistics entry 0: relation 9 out of range [1, 6]"),
        ],
        ids=["null", "repeat", "float", "relation"],
    )
    def test_malformed_stats_json_gives_json_error(
        self, workspace, tmp_path, capsys, command, counts, message
    ):
        _, data_dir, stats_path, _, run_dir = workspace
        doc = json.loads(stats_path.read_text())
        doc["counts"] = counts
        bad = tmp_path / "stats.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        args = {
            "bias": ["bias", "--kind", "cb", "--stats", str(bad), "--out", str(out)],
            "sweep": [
                "sweep", "--checkpoint", str(run_dir / "checkpoint.json"), "--stats", str(bad),
                "--data", str(data_dir / "test.jsonl"), "--grid", "0,1", "--out", str(out),
            ],
        }[command]
        capsys.readouterr()
        assert main(args) == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ValueError", "message": f"{bad}: {message}"}
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["truncated", "bad-byte"])
    @pytest.mark.parametrize("command", ["synth-config", "train-config", "stats-labels",
                                         "stats-triplets", "bias-stats", "sweep-stats",
                                         "eval-checkpoint", "eval-bias"])
    def test_unreadable_file_gives_one_json_error_naming_it(
        self, workspace, tmp_path, capsys, command, fault
    ):
        """A file cut short, or with a byte that is no UTF-8, is named by its
        path (and line, for JSONL) in one JSON ``ValueError``."""
        root, data_dir, stats_path, bias_path, run_dir = workspace
        labels, test = str(data_dir / "labels.json"), str(data_dir / "test.jsonl")
        ck = str(run_dir / "checkpoint.json")
        triplets = tmp_path / "triplets.jsonl"
        triplets.write_text('{"s": 0, "o": 1, "r": 2}\n{"s": 1, "o": 0, "r": 3}\n')
        source, argv, where = {
            "synth-config": (root / "synth.json", ["synth", "--config"], ""),
            "train-config": (root / "train.json", ["train", "--config"], ""),
            "stats-labels": (data_dir / "labels.json",
                             ["stats", "--data", str(triplets), "--labels"], ""),
            "stats-triplets": (triplets, ["stats", "--labels", labels, "--data"], ":2"),
            "bias-stats": (stats_path, ["bias", "--kind", "cb", "--stats"], ""),
            "sweep-stats": (stats_path, ["sweep", "--checkpoint", ck, "--data", test,
                                         "--grid", "0,1", "--stats"], ""),
            "eval-checkpoint": (run_dir / "checkpoint.json",
                                ["eval", "--data", test, "--checkpoint"], ""),
            "eval-bias": (bias_path, ["eval", "--checkpoint", ck, "--data", test, "--bias"], ""),
        }[command]
        raw = source.read_bytes()
        bad = tmp_path / f"bad-{source.name}"
        bad.write_bytes(raw[:-6] if fault == "truncated" else raw[:-6] + b"\xff" + raw[-6:])
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        prefix = f"{bad}{where}: " + ("'utf-8' codec can't decode byte 0xff" if fault == "bad-byte"
                                      else "")
        assert error["message"].startswith(prefix)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stats", "train"])
    @pytest.mark.parametrize("triplet, why", [
        ([0, 9, 1], "has an object index outside 0..{last}"),
        ([1, 1, 2], "has the same subject and object"),
    ], ids=["index", "self-pair"])
    def test_a_ground_truth_object_fault_names_the_jsonl_line(
        self, workspace, tmp_path, capsys, triplet, why, command
    ):
        """A ground-truth triplet with an object index out of range, or equal
        subject and object, fails ``stats --images`` and ``train --data`` with
        one JSON error naming the line and the image."""
        root, data_dir, _, _, _ = workspace
        lines = (data_dir / "train.jsonl").read_text().splitlines()
        doc = json.loads(lines[1])
        doc["gt"].append(triplet)
        lines[1] = json.dumps(doc)
        bad = tmp_path / "train.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = {
            "stats": ["stats", "--labels", str(data_dir / "labels.json"), "--images", str(bad)],
            "train": ["train", "--config", str(root / "train.json"), "--data", str(bad)],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        message = (f"{bad}:2: image 1: ground-truth triplet {tuple(triplet)} "
                   + why.format(last=len(doc["objects"]) - 1))
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize(
        "at, value, command",
        [*((at, "huge", "stats") for at in NUMBER_ROWS),
         *((at, value, command) for value in ("string", "bool", "null", "nan", "infinity")
           for at in NUMBER_ROWS for command in ("stats", "train"))],
        ids=[*NUMBER_ROWS, *(f"{at}-{value}-{command}"
                             for value in ("string", "bool", "null", "nan", "infinity")
                             for at in NUMBER_ROWS for command in ("stats", "train"))],
    )
    def test_number_beyond_the_float_range_names_the_jsonl_line(
        self, workspace, tmp_path, capsys, at, value, command
    ):
        """A number row's value beyond the float range (read as inf), not
        finite or no number at all fails ``stats --images`` and ``train
        --data`` with one JSON error naming the line, and the object, union or
        image."""
        root, data_dir, _, _, _ = workspace
        lines = (data_dir / "train.jsonl").read_text().splitlines()
        doc = json.loads(lines[1])
        row = NUMBER_ROWS[at](doc)
        row[0] = VALUES[value]
        lines[1] = json.dumps(doc)
        bad = tmp_path / "train.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = {
            "stats": ["stats", "--labels", str(data_dir / "labels.json"), "--images", str(bad)],
            "train": ["train", "--config", str(root / "train.json"), "--data", str(bad)],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        if value in ("string", "bool", "null"):
            message = NO_NUMBER[at]
        else:
            shown = [math.inf if x == 10**400 else x for x in row]
            message = NON_FINITE[at] + (f" {shown}" if at == "box" else "")
        assert json.loads(err)["error"] == {"type": "ValueError", "message": f"{bad}:2: {message}"}
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"s": 0, "o": 1', "Expecting"),
            ('{"s": 0, "o": 1}', "missing key 'r'"),
            ('{"s": 0, "o": 1, "r": null}', "key 'r' must be a 64-bit integer"),
        ],
        ids=["json", "missing-key", "null"],
    )
    def test_malformed_triplet_jsonl_gives_json_error_naming_the_line(
        self, workspace, tmp_path, capsys, line, message
    ):
        _, data_dir, _, _, _ = workspace
        bad = tmp_path / "triplets.jsonl"
        bad.write_text('{"s": 0, "o": 1, "r": 2}\n' + line + "\n")
        out = tmp_path / "stats.json"
        capsys.readouterr()
        code = main([
            "stats", "--labels", str(data_dir / "labels.json"), "--data", str(bad),
            "--out", str(out),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith(f"{bad}:2: {message}")
        assert not out.exists()

    def test_unknown_loss_kind_rejected(self, workspace, tmp_path, capsys):
        root, data_dir, _, _, _ = workspace
        bad_cfg = json.loads((root / "train.json").read_text())
        bad_cfg["loss"] = {"kind": "mystery"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad_cfg))
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 1
        doc = json.loads(capsys.readouterr().err.strip())
        assert "mystery" in doc["error"]["message"]
