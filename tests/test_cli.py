import json
import re

import pytest

from tailbias.cli import main
from tailbias.metrics import METRICS_CSV_HEADER
from tailbias.stats import LabelSpace


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Full pipeline artifacts: synth -> stats -> bias -> train."""
    root = tmp_path_factory.mktemp("cli")
    ls = LabelSpace(num_object_classes=5, num_relations=6)
    synth_cfg = {
        "label_space": ls.to_dict(),
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
        "label_space": ls.to_dict(),
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
        assert "PASS loss/ce" in printed
        doc = json.loads((out / "gradcheck.json").read_text())
        assert all(entry["passed"] for entry in doc)


class TestErrors:
    def test_missing_file_gives_json_error(self, capsys, tmp_path):
        code = main(
            ["stats", "--labels", "nope.json", "--images", "also-nope", "--out", str(tmp_path / "s.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        doc = json.loads(err.strip())
        assert "error" in doc

    def test_usage_error_is_json(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bias", "--kind", "zz", "--stats", "s", "--out", "o"])
        assert exc.value.code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "usage"

    @pytest.mark.filterwarnings(
        "ignore:overflow encountered:RuntimeWarning",
        "ignore:invalid value encountered:RuntimeWarning",
    )
    def test_diverging_dual_encoder_gives_json_error(self, tmp_path, capsys):
        # At learning rate 0.3 the encoder's attention overflows within 30 steps.
        ls = LabelSpace(num_object_classes=5, num_relations=6)
        synth_cfg = tmp_path / "synth.json"
        synth_cfg.write_text(json.dumps({
            "label_space": ls.to_dict(), "num_train": 20, "num_val": 0, "num_test": 0,
            "objects_min": 3, "objects_max": 4, "d_v": 8, "seed": 31,
        }))
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(synth_cfg), "--out", str(data_dir)]) == 0
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({
            "label_space": ls.to_dict(),
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
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "FloatingPointError"
        assert re.match(r"iteration \d+: ", doc["error"]["message"])
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
            "image 2: ground-truth triplet (0, 0, 1) has the same subject and object"
        )
        assert not (tmp_path / "eval").exists()

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
