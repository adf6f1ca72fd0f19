import json
import os
import struct

import pytest

from alignrec import cli
from alignrec.config import ConfigError, load_config


def base_config(tmp_path, **over):
    cfg = {
        "seed": 3,
        "out_dir": str(tmp_path / "run"),
        "data": {
            "generator": {"n_users": 60, "n_items": 40, "n_clusters": 4,
                          "min_events": 10, "max_events": 16, "noise_rate": 0.1},
            "max_len": 10, "min_interactions": 0,
        },
        "model": {"d": 12, "d_s": 6, "conv_width": 3, "dropout": 0.0},
        "losses": {"mu1_train": 0.1, "mu2_train": 0.01},
        "train": {"lr": 0.02, "epochs": 4, "batch_size": 64, "eval_every": 2},
        "adapt": {"steps": 1, "lr": 0.05, "batch_policy": "whole"},
    }
    for key, val in over.items():
        if isinstance(val, dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


def rewrite_manifest(raw, edit):
    """Checkpoint bytes with the JSON manifest replaced by its edited copy."""
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16:16 + mlen])
    edit(manifest)
    blob = json.dumps(manifest).encode()
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + mlen:]


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_presets_carry_published_values(self):
        main = load_config({"data": {"generator": {"n_users": 5}}}, preset="main")
        assert main.train.lr == 0.001
        assert main.adapt.lr == 0.005
        assert main.adapt.mu1_test == 1e-2 and main.adapt.mu2_test == 1e-1
        appx = load_config({"data": {"generator": {"n_users": 5}}}, preset="appendix")
        assert appx.train.lr == 0.01
        assert appx.adapt.lr == 0.05
        assert appx.adapt.mu1_test == 1e-3 and appx.adapt.mu2_test == 1e-2

    def test_defaults_mirror_published_table(self):
        cfg = load_config({"data": {"generator": {"n_users": 5}}})
        assert cfg.model.d == 64 and cfg.model.d_s == 32
        assert cfg.model.conv_width == 4 and cfg.model.dropout == 0.2
        assert cfg.train.batch_size == 4096 and cfg.train.epochs == 500
        assert cfg.train.eval_every == 10 and cfg.train.patience == 3
        assert cfg.adapt.steps == 1 and cfg.model.n_blocks == 1

    def test_problems_collected_together(self):
        bad = {"data": {"max_len": 0, "pad_side": "up"},
               "train": {"lr": -1.0}, "model": {"dropout": 2.0}}
        with pytest.raises(ConfigError) as exc:
            load_config(bad)
        msg = str(exc.value)
        assert "max_len" in msg and "pad_side" in msg
        assert "lr" in msg and "dropout" in msg

    def test_ablation_flags(self):
        src = {"data": {"generator": {"n_users": 5}}}
        cfg = load_config(src, ablate=["time"])
        assert cfg.losses.mu1_train == 0.0 and cfg.losses.mu2_train != 0.0
        cfg = load_config(src, ablate=["state-test"])
        assert cfg.adapt.use_state_loss is False and cfg.adapt.use_time_loss is True
        cfg = load_config(src, ablate=["both-test"])
        assert not cfg.adapt.use_state_loss and not cfg.adapt.use_time_loss
        with pytest.raises(ConfigError):
            load_config(src, ablate=["everything"])


class TestGen:
    def test_deterministic_output(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert cli.main(["gen", "--config", path]) == 0
        first = open(tmp_path / "run" / "dataset.tsv", "rb").read()
        assert cli.main(["gen", "--config", path]) == 0
        assert open(tmp_path / "run" / "dataset.tsv", "rb").read() == first

    def test_manifest_written(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        cli.main(["gen", "--config", path])
        man = json.load(open(tmp_path / "run" / "gen_manifest.json"))
        assert man["seed"] == 3 and man["n_users"] == 60


class TestTrainCommand:
    def test_training_halves_the_loss(self, tmp_path):
        cfg = base_config(tmp_path, train={"lr": 0.02, "epochs": 12,
                                           "batch_size": 64, "eval_every": 6})
        path = write_config(tmp_path, cfg)
        assert cli.main(["train", "--config", path]) == 0
        log = [json.loads(line) for line in
               open(tmp_path / "run" / "train_log.jsonl")]
        assert log[-1]["loss"] <= 0.5 * log[0]["loss"]
        assert os.path.exists(tmp_path / "run" / "checkpoint.bin")

    def test_same_seed_identical_logs(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        cli.main(["train", "--config", path])
        first = open(tmp_path / "run" / "train_log.jsonl", "rb").read()
        cli.main(["train", "--config", path])
        assert open(tmp_path / "run" / "train_log.jsonl", "rb").read() == first

    def test_manifest_echoes_resolved_config(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        cli.main(["train", "--config", path])
        man = json.load(open(tmp_path / "run" / "manifest.json"))
        assert man["config"]["model"]["d"] == 12
        assert man["config"]["adapt"]["steps"] == 1
        assert "checkpoint_digest" in man and "lam" in man


class TestEvalCommand:
    @pytest.fixture
    def trained(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        cli.main(["train", "--config", path])
        return path, str(tmp_path / "run" / "checkpoint.bin"), tmp_path

    def test_frozen_eval_twice_identical(self, trained):
        path, ck, tmp = trained
        assert cli.main(["eval", "--config", path, "--checkpoint", ck,
                         "--ttt", "off"]) == 0
        first = open(tmp / "run" / "metrics_frozen.json", "rb").read()
        cli.main(["eval", "--config", path, "--checkpoint", ck, "--ttt", "off"])
        assert open(tmp / "run" / "metrics_frozen.json", "rb").read() == first

    def test_ttt_with_zero_steps_equals_frozen(self, trained, tmp_path):
        path, ck, tmp = trained
        cli.main(["eval", "--config", path, "--checkpoint", ck, "--ttt", "off"])
        frozen = json.load(open(tmp / "run" / "metrics_frozen.json"))
        cfg = base_config(tmp_path, adapt={"steps": 0, "lr": 0.05,
                                           "batch_policy": "whole"})
        path2 = write_config(tmp_path, cfg, name="cfg0.json")
        cli.main(["eval", "--config", path2, "--checkpoint", ck, "--ttt", "on"])
        ttt = json.load(open(tmp / "run" / "metrics_ttt.json"))
        for key in ("recall_at_k", "mrr_at_k", "ndcg_at_k"):
            assert ttt[key] == frozen[key]

    def test_segment_report_written(self, trained):
        path, ck, tmp = trained
        cli.main(["eval", "--config", path, "--checkpoint", ck, "--ttt", "on"])
        segs = json.load(open(tmp / "run" / "segments_ttt.json"))["segments"]
        assert len(segs) == 4
        assert all("ndcg_delta" in s for s in segs)

    def test_test_time_ablation_flags(self, trained):
        path, ck, tmp = trained
        assert cli.main(["eval", "--config", path, "--checkpoint", ck,
                         "--ttt", "on", "--ablate", "time-test"]) == 0
        assert cli.main(["eval", "--config", path, "--checkpoint", ck,
                         "--ttt", "on", "--ablate", "state-test"]) == 0

    def test_architecture_mismatch_is_config_error(self, trained, tmp_path):
        path, ck, tmp = trained
        bad = base_config(tmp_path, model={"d": 16, "d_s": 8, "conv_width": 3,
                                           "dropout": 0.0})
        path_bad = write_config(tmp_path, bad, name="bad.json")
        assert cli.main(["eval", "--config", path_bad, "--checkpoint", ck,
                         "--ttt", "off"]) == 2

    @pytest.mark.parametrize("damage", [
        lambda raw: raw[:-100],                      # payload cut short
        lambda raw: raw[:10],                        # header cut short
        lambda raw: raw[:16] + b"\xff" * 8 + raw[24:],   # manifest not UTF-8
        lambda raw: rewrite_manifest(raw, lambda m: m["config"].update(bogus=1)),
        lambda raw: rewrite_manifest(raw, lambda m: m.pop("tensors")),
        lambda raw: rewrite_manifest(raw, lambda m: m["tensors"][0].update(offset=1.5)),
    ], ids=["cut-100-bytes", "ten-bytes", "manifest-undecodable",
            "unknown-config-key", "no-tensor-list", "float-offset"])
    def test_damaged_checkpoint_is_numeric_error(self, trained, damage, capsys):
        path, ck, tmp = trained
        bad = tmp / "damaged.bin"
        bad.write_bytes(damage(open(ck, "rb").read()))
        capsys.readouterr()
        assert cli.main(["eval", "--config", path, "--checkpoint", str(bad),
                         "--ttt", "off"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path):
        path = write_config(tmp_path, {"data": {}})
        assert cli.main(["train", "--config", path]) == 2

    def test_gradcheck_passes_on_tiny_config(self, tmp_path):
        cfg = base_config(tmp_path, model={"d": 8, "d_s": 4, "conv_width": 3,
                                           "dropout": 0.0})
        path = write_config(tmp_path, cfg)
        assert cli.main(["gradcheck", "--config", path]) == 0
        rep = json.load(open(tmp_path / "run" / "gradcheck.json"))
        assert set(rep) == {"rec", "time", "state", "total"}
        assert all(v["failures"] == 0 for v in rep.values())


class TestSweep:
    def test_small_grid_writes_csv(self, tmp_path):
        cfg = base_config(tmp_path, train={"lr": 0.02, "epochs": 2,
                                           "batch_size": 64, "eval_every": 2})
        path = write_config(tmp_path, cfg)
        assert cli.main(["sweep", "--config", path, "--grid", "0.1,1"]) == 0
        rows = open(tmp_path / "run" / "sweep.csv").read().strip().splitlines()
        assert rows[0].startswith("mu1_train,mu2_train")
        assert len(rows) == 1 + 4  # header + 2x2 grid


class TestReproducibilityPipeline:
    def test_rerun_from_manifest_reproduces_reports(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        cli.main(["train", "--config", path])
        ck = str(tmp_path / "run" / "checkpoint.bin")
        cli.main(["eval", "--config", path, "--checkpoint", ck, "--ttt", "on"])
        metrics = open(tmp_path / "run" / "metrics_ttt.json", "rb").read()

        man = json.load(open(tmp_path / "run" / "manifest.json"))
        man["config"]["out_dir"] = str(tmp_path / "rerun")
        path2 = write_config(tmp_path, man["config"], name="from_manifest.json")
        cli.main(["train", "--config", path2])
        ck2 = str(tmp_path / "rerun" / "checkpoint.bin")
        assert open(ck, "rb").read() == open(ck2, "rb").read()
        cli.main(["eval", "--config", path2, "--checkpoint", ck2, "--ttt", "on"])
        assert open(tmp_path / "rerun" / "metrics_ttt.json", "rb").read() == metrics
