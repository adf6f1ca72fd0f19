import json
import os
import re
import subprocess
import sys

import pytest

from alignrec import cli
from alignrec.adapt import AdaptConfig
from alignrec.config import ConfigError, DataConfig, RunConfig, TrainConfig, load_config
from alignrec.ingest import GeneratorSpec
from alignrec.losses import LossWeights
from alignrec.model import ModelConfig
from conftest import rewrite_manifest


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


def keep_only_embedding_with_no_blocks(manifest):
    manifest["config"]["n_blocks"] = 0
    manifest["tensors"] = [t for t in manifest["tensors"] if t["name"] == "E"]


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def one_line_error(capsys, argv):
    """Run the CLI; return its exit code after checking that stderr holds
    exactly one error line and no traceback."""
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return code


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
        assert cfg.adapt.mu2_test == 0.0 and cfg.adapt.mu1_test == 1e-2
        cfg = load_config(src, ablate=["both-test"])
        assert cfg.adapt.mu1_test == 0.0 and cfg.adapt.mu2_test == 0.0
        with pytest.raises(ConfigError):
            load_config(src, ablate=["everything"])


    @pytest.mark.parametrize("over", [
        {"model": {"d_ff": -1}},
        {"adapt": {"batch_size": 0, "batch_policy": "fixed"}},
        {"adapt": {"steps": 1.5}},
        {"losses": {"dilution_power": 1.5}},
        {"data": {"max_len": 2.5}},
        {"model": {"dropout": "x"}},
        {"train": {"epochs": "3"}},
        {"losses": {"lam": [1]}},
        {"data": {"generator": {"bogus": 1}}},
        {"data": {"generator": {"n_users": "x"}}},
        {"model": {"extension_history": "foo"}},
        {"model": {"extension_history": "batch"}},
        {"data": {"pad_side": "right"}},
    ], ids=["negative-d_ff", "zero-adapt-batch", "float-steps",
            "float-dilution-power", "float-max-len", "string-dropout",
            "string-epochs", "list-lam", "unknown-generator-key",
            "string-generator-users", "unknown-extension-history",
            "removed-extension-history-field", "right-pad-side"])
    def test_bad_field_is_config_error(self, tmp_path, capsys, over):
        path = write_config(tmp_path, base_config(tmp_path, **over))
        assert one_line_error(capsys, ["train", "--config", path]) == 2
        assert not (tmp_path / "run" / "checkpoint.bin").exists()


    @pytest.mark.parametrize("build, field", [
        (lambda: LossWeights(lam=float("nan")), "lam"),
        (lambda: LossWeights(lam=float("inf")), "lam"),
        (lambda: LossWeights(lam=True), "lam"),
        (lambda: LossWeights(mu1_train=float("nan")), "mu1_train"),
        (lambda: AdaptConfig(batch_size=0), "batch_size"),
        (lambda: ModelConfig(vocab_size=9, dtype="float16"), "dtype"),
        (lambda: GeneratorSpec(regime_weights=[None]), "regime_weights"),
        (lambda: GeneratorSpec(regime_weights=[None, None, None]), "exactly two regimes"),
        (lambda: TrainConfig(lr=-1.0), "lr"),
        (lambda: TrainConfig(epochs=0), "epochs"),
        (lambda: DataConfig(pad_side="up"), "pad_side"),
        (lambda: DataConfig(pad_side="right"), "pad_side"),
        (lambda: DataConfig(max_len=2.5), "max_len"),
        (lambda: RunConfig(precision="float16"), "precision"),
        (lambda: RunConfig(seed=-1), "seed"),
        (lambda: DataConfig(generator={"bogus": 1}), "generator"),
    ], ids=["nan-lam", "inf-lam", "bool-lam", "nan-mu1-train",
            "zero-adapt-batch", "float16-dtype",
            "one-regime", "three-regimes", "negative-train-lr", "zero-epochs", "bad-pad-side",
            "right-pad-side",
            "float-max-len", "float16-precision", "negative-seed",
            "unknown-generator-key"])
    def test_section_type_rejects_out_of_range_value(self, build, field):
        # each section's type holds its own ranges, whoever builds it
        with pytest.raises(ValueError, match=field):
            build()

    @pytest.mark.parametrize("over", [
        {"train": {"lr": float("nan")}},
        {"adapt": {"lr": float("inf")}},
        {"adapt": {"lr": float("nan")}},
        {"losses": {"lam": float("nan")}},
        {"losses": {"mu2_train": float("nan")}},
        {"train": {"eps": float("inf")}},
    ], ids=["nan-train-lr", "inf-adapt-lr", "nan-adapt-lr", "nan-lam",
            "nan-mu2-train", "inf-eps"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, over):
        path = write_config(tmp_path, base_config(tmp_path, **over))
        assert one_line_error(capsys, ["train", "--config", path]) == 2
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("gen", [
        {"n_clusters": 0},
        {"regime_weights": [["a"], None]},
        {"regime_weights": [[1, 1, 1, -1], None]},
        {"n_users": -3},
        {"max_events": 5},
        {"gap_mean_pre": 0.0},
        {"noise_rate": 1.5},
        {"regime_weights": [None, None, None]},
    ], ids=["zero-clusters", "string-regime-weight", "negative-regime-weight",
            "negative-users", "max-below-min-events", "zero-gap", "noise-above-one",
            "three-regimes"])
    def test_generator_out_of_range_is_config_error(self, tmp_path, capsys, gen):
        cfg = base_config(tmp_path)
        cfg["data"]["generator"].update(gen)
        path = write_config(tmp_path, cfg)
        assert one_line_error(capsys, ["gen", "--config", path]) == 2
        assert not (tmp_path / "run" / "dataset.tsv").exists()


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

    def test_checkpoint_serves_in_its_own_dtype(self, tmp_path):
        path64 = write_config(tmp_path, base_config(tmp_path, precision="float64"),
                              name="cfg64.json")
        cli.main(["train", "--config", path64])
        ck = str(tmp_path / "run" / "checkpoint.bin")
        out = {}
        for precision in ("float64", "float32"):
            cfg = base_config(tmp_path, precision=precision)
            path = write_config(tmp_path, cfg, name=f"eval-{precision}.json")
            assert cli.main(["eval", "--config", path, "--checkpoint", ck,
                             "--ttt", "on", "--ranks-csv"]) == 0
            out[precision] = [open(tmp_path / "run" / name, "rb").read()
                              for name in ("metrics_ttt.json", "ranks_ttt.csv")]
        assert out["float32"] == out["float64"]

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

    def test_both_test_ablation_equals_frozen(self, trained, capsys):
        path, ck, tmp = trained
        assert cli.main(["eval", "--config", path, "--checkpoint", ck,
                         "--ttt", "off"]) == 0
        frozen = json.load(open(tmp / "run" / "metrics_frozen.json"))
        assert cli.main(["eval", "--config", path, "--checkpoint", ck,
                         "--ttt", "on", "--ablate", "both-test"]) == 0
        ttt = json.load(open(tmp / "run" / "metrics_ttt.json"))
        for key in ("recall_at_k", "mrr_at_k", "ndcg_at_k"):
            assert ttt[key] == frozen[key]
        assert "Traceback" not in capsys.readouterr().err

    def test_negative_test_weight_is_config_error(self, trained, tmp_path, capsys):
        path, ck, tmp = trained
        bad = base_config(tmp_path, adapt={"mu1_test": -1})
        path_bad = write_config(tmp_path, bad, name="bad_mu.json")
        capsys.readouterr()
        assert cli.main(["eval", "--config", path_bad, "--checkpoint", ck,
                         "--ttt", "on"]) == 2
        err = capsys.readouterr().err
        assert "mu1_test" in err and err.count("\n") == 1
        assert "Traceback" not in err

    def test_architecture_mismatch_is_config_error(self, trained, tmp_path, capsys):
        # the checkpoint was trained with d=12, d_s=6, conv_width=3 and defaults
        path, ck, tmp = trained
        cases = [
            ({"d": 16}, ["d=12", "d=16", "d_ff=48", "d_ff=64"]),   # d_ff 0 is 4 * d
            ({"d_s": 8}, ["d_s=6", "d_s=8"]),
            ({"conv_width": 4}, ["conv_width=3", "conv_width=4"]),
            ({"n_blocks": 2}, ["n_blocks=1", "n_blocks=2"]),
            ({"d_ff": 24}, ["d_ff=48", "d_ff=24"]),
            ({"detach_extension": False}, ["detach_extension=True",
                                           "detach_extension=False"]),
        ]
        for i, (over, expected) in enumerate(cases):
            bad = base_config(tmp_path, model=over)
            path_bad = write_config(tmp_path, bad, name=f"bad{i}.json")
            capsys.readouterr()
            assert cli.main(["eval", "--config", path_bad, "--checkpoint", ck,
                             "--ttt", "off"]) == 2, over
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert all(text in err for text in expected), (over, err)

    def test_dropout_and_resolved_d_ff_are_not_mismatches(self, trained, tmp_path):
        # eval never applies dropout, and d_ff=0 means 4 * d = 48
        path, ck, tmp = trained
        cfg = base_config(tmp_path, model={"dropout": 0.5, "d_ff": 48})
        path_ok = write_config(tmp_path, cfg, name="ok.json")
        assert cli.main(["eval", "--config", path_ok, "--checkpoint", ck,
                         "--ttt", "off"]) == 0

    def test_checkpoint_naming_the_batch_extension_history_loads(self, trained):
        # earlier checkpoints store the removed extension_history field
        path, ck, tmp = trained
        old = tmp / "old.bin"
        old.write_bytes(rewrite_manifest(
            open(ck, "rb").read(), lambda m: m["config"].update(extension_history="batch")))
        written = []
        for checkpoint in (ck, str(old)):
            assert cli.main(["eval", "--config", path, "--checkpoint", checkpoint,
                             "--ttt", "on"]) == 0
            written.append(open(tmp / "run" / "metrics_ttt.json", "rb").read())
        assert written[0] == written[1]

    @pytest.mark.parametrize("damage", [
        lambda raw: raw[:-100],                      # payload cut short
        lambda raw: raw[:10],                        # header cut short
        lambda raw: raw[:16] + b"\xff" * 8 + raw[24:],   # manifest not UTF-8
        lambda raw: rewrite_manifest(raw, lambda m: m["config"].update(bogus=1)),
        lambda raw: rewrite_manifest(raw, lambda m: m.pop("tensors")),
        lambda raw: rewrite_manifest(raw, lambda m: m["tensors"][0].update(offset=1.5)),
        lambda raw: rewrite_manifest(raw, lambda m: m["extra"].update(lam="abc")),
        lambda raw: rewrite_manifest(raw, lambda m: m["extra"].update(lam=None)),
        lambda raw: rewrite_manifest(raw, lambda m: m["extra"].update(lam=-5)),
        lambda raw: rewrite_manifest(raw, keep_only_embedding_with_no_blocks),
        lambda raw: rewrite_manifest(raw, lambda m: m["config"].update(d=4.0)),
        lambda raw: rewrite_manifest(raw, lambda m: m["config"].update(conv_width=2.5)),
        lambda raw: rewrite_manifest(raw, lambda m: m["config"].update(vocab_size=9.0)),
        lambda raw: rewrite_manifest(raw, lambda m: m["config"].update(dtype="float16")),
        lambda raw: rewrite_manifest(
            raw, lambda m: m["config"].update(detach_extension="no")),
        lambda raw: rewrite_manifest(raw, lambda m: m["tensors"][0].update(dtype="O")),
        lambda raw: rewrite_manifest(raw, lambda m: m["tensors"][0].update(dtype="int64")),
        lambda raw: rewrite_manifest(raw, lambda m: m["tensors"][0].update(
            dtype="float64" if m["config"]["dtype"] == "float32" else "float32")),
        lambda raw: rewrite_manifest(raw, lambda m: m["tensors"].append(m["tensors"][0])),
        lambda raw: rewrite_manifest(raw, lambda m: m["tensors"][0].update(name=["E"])),
        lambda raw: rewrite_manifest(raw, lambda m: m.update(extra="lam")),
        lambda raw: rewrite_manifest(
            raw, lambda m: m["config"].update(extension_history="zeros")),
    ], ids=["cut-100-bytes", "ten-bytes", "manifest-undecodable",
            "unknown-config-key", "no-tensor-list", "float-offset",
            "lam-string", "lam-null", "lam-negative", "zero-blocks",
            "float-d", "float-conv-width", "float-vocab-size", "float16-dtype",
            "string-detach-extension", "object-tensor-dtype", "int64-tensor-dtype",
            "other-float-tensor-dtype", "duplicate-tensor", "list-tensor-name",
            "string-extra", "zeros-extension-history"])
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

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert one_line_error(capsys, ["train", "--config", missing]) == 2

    @pytest.mark.parametrize("text", ['{"seed": ', "[1, 2]"],
                             ids=["invalid-json", "json-list"])
    def test_malformed_config_file_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert one_line_error(capsys, ["train", "--config", str(path)]) == 2

    def test_missing_checkpoint_is_numeric_error(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        missing = str(tmp_path / "nope.bin")
        assert one_line_error(capsys, ["eval", "--config", path,
                                       "--checkpoint", missing]) == 3

    def test_missing_data_file_is_config_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path, data={"path": str(tmp_path / "nope.tsv")})
        path = write_config(tmp_path, cfg)
        assert one_line_error(capsys, ["train", "--config", path]) == 2

    def test_data_file_not_utf8_is_config_error(self, tmp_path, capsys):
        tsv = tmp_path / "data.tsv"
        tsv.write_bytes(b"user_id\titem_id\ttimestamp\nu1\t\xff\t10\n")
        path = write_config(tmp_path, base_config(tmp_path, data={"path": str(tsv)}))
        capsys.readouterr()
        assert cli.main(["train", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(tsv) in err and "Traceback" not in err

    def test_timestamp_beyond_int64_is_config_error(self, tmp_path, capsys):
        tsv = tmp_path / "data.tsv"
        tsv.write_text("user_id\titem_id\ttimestamp\n"
                       + "".join(f"u1\ti{k}\t{10 * k}\n" for k in range(1, 5))
                       + f"u1\ti5\t{10 ** 20}\n")
        path = write_config(tmp_path, base_config(tmp_path, data={"path": str(tsv)}))
        capsys.readouterr()
        assert cli.main(["train", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{tsv}:6:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_negative_seed_in_config_is_config_error(self, tmp_path, capsys, command):
        path = write_config(tmp_path, base_config(tmp_path, seed=-1))
        assert one_line_error(capsys, [command, "--config", path]) == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys, command):
        path = write_config(tmp_path, base_config(tmp_path))
        assert one_line_error(capsys, [command, "--config", path, "--seed", "-5"]) == 2
        assert not (tmp_path / "run").exists()

    def test_empty_out_dir_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path, out_dir=""))
        assert one_line_error(capsys, ["gen", "--config", path]) == 2

    def test_out_dir_that_is_a_file_is_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        path = write_config(tmp_path, base_config(tmp_path, out_dir=str(taken)))
        assert one_line_error(capsys, ["gen", "--config", path]) == 2
        assert taken.read_text() == "not a directory"

    @pytest.mark.parametrize("grid", ["abc", ","])
    def test_bad_sweep_grid_is_config_error(self, tmp_path, capsys, grid):
        path = write_config(tmp_path, base_config(tmp_path))
        assert one_line_error(capsys, ["sweep", "--config", path,
                                       "--grid", grid]) == 2

    def test_gradcheck_passes_on_tiny_config(self, tmp_path):
        cfg = base_config(tmp_path, model={"d": 8, "d_s": 4, "conv_width": 3,
                                           "dropout": 0.0})
        path = write_config(tmp_path, cfg)
        assert cli.main(["gradcheck", "--config", path]) == 0
        rep = json.load(open(tmp_path / "run" / "gradcheck.json"))
        assert set(rep) == {"rec", "time", "state", "total"}
        assert all(v["failures"] == 0 for v in rep.values())

    def test_gradcheck_runs_in_float64_whatever_the_precision(self, tmp_path):
        cfg = base_config(tmp_path, precision="float32",
                          model={"d": 8, "d_s": 4, "conv_width": 3, "dropout": 0.0})
        path = write_config(tmp_path, cfg)
        assert cli.main(["gradcheck", "--config", path]) == 0
        rep = json.load(open(tmp_path / "run" / "gradcheck.json"))
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


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_runs_without_scipy():
    # numpy is the one dependency: with scipy unimportable the CLI, pipeline
    # and adaptation still import, and a small adapted request runs
    src = os.path.join(ROOT, "src")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        f"sys.path.insert(0, {src!r})\n"
        "import numpy as np\n"
        "from alignrec import adapt, cli, ingest, pipeline\n"
        "from alignrec.config import load_config\n"
        "cfg = load_config({'seed': 0, 'data': {'generator': {'n_users': 40,\n"
        "    'n_items': 30, 'n_clusters': 3, 'min_events': 8, 'max_events': 12},\n"
        "    'max_len': 8, 'min_interactions': 0}, 'model': {'d': 8, 'd_s': 4},\n"
        "    'adapt': {'steps': 2, 'batch_policy': 'fixed', 'batch_size': 4}})\n"
        "ds = pipeline.load_dataset(cfg)\n"
        "split = ingest.leave_one_out_split(ds)\n"
        "params = pipeline.build_model(cfg, ds.vocab_size, np.random.default_rng(0))\n"
        "batch = pipeline.test_batches(cfg, split)[0]\n"
        "logits, rep = adapt.adapt_and_predict(\n"
        "    params, batch, cfg.adapt, pipeline.resolve_weights(cfg, split.train))\n"
        "assert np.isfinite(logits).all() and not rep.aborted, rep\n"
        "assert len(rep.time_losses) == 2, rep\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    with open(os.path.join(ROOT, "pyproject.toml")) as f:
        deps = re.search(r"^dependencies = (\[.*\])$", f.read(), re.M).group(1)
    assert [d.split(">")[0] for d in json.loads(deps)] == ["numpy"], deps
