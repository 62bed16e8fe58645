import ast
import csv
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from gcmr import cli, data_io, trainer
from gcmr.classifier import incremental_terms
from gcmr.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, ConfigError,
                      load_run_config, main)


def write_config(path, **overrides):
    config = {
        "version": 1,
        "train": {"base_epochs": 4, "incr_epochs": 6, "base_lr": 0.05,
                  "incr_lr": 0.02, "batch_size": 16, "seed": 5, "hidden_dim": 8},
        "loss": {"c": 0.3, "beta": 0.7},
        "protocol": {"total_classes": 8, "base_classes": 4, "n_way": 2,
                     "k_shot": 5, "seed": 3, "test_per_class": 5},
        "synthetic": {"d": 12, "g": 4, "n_classes": 8, "class_mean_norm": 4.0,
                      "within_class_sigma": 2.0, "examples_per_class": 20,
                      "seed": 3},
    }
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            config[section][field] = value
        else:
            config[section] = value
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def config_file(tmp_path):
    return write_config(tmp_path / "config.json")


@pytest.fixture
def dataset_file(tmp_path, config_file):
    out = tmp_path / "data.gcmr"
    assert main(["synth", "--spec", str(config_file), "--out", str(out)]) == 0
    return out


class TestConfigParsing:
    def test_valid_config_loads(self, config_file):
        config = load_run_config(config_file)
        assert config["train"].batch_size == 16
        assert config["train"].loss.beta == 0.7
        assert set(config) == {"train", "protocol", "synthetic"}
        assert config["protocol"].n_way == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", **{"train.learning_rate": 0.1})
        with pytest.raises(ConfigError, match="learning_rate"):
            load_run_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", extras={"x": 1})
        with pytest.raises(ConfigError):
            load_run_config(path)

    @pytest.mark.parametrize("section", ["train", "loss"])
    def test_section_that_is_not_an_object_rejected(self, tmp_path, section):
        # a train section of 5 used to raise TypeError
        path = write_config(tmp_path / "c.json", **{section: 5})
        with pytest.raises(ConfigError, match=f"^{section} must be a JSON object"):
            load_run_config(path)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        with pytest.raises(ConfigError, match="version"):
            load_run_config(path)

    def test_invalid_value_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", **{"loss.beta": 2.0})
        with pytest.raises(ConfigError):
            load_run_config(path)

    @pytest.mark.parametrize("key, value", [
        ("train.base_epochs", 1.5), ("train.base_epochs", 2.0), ("train.seed", "7"),
        ("train.batch_size", True), ("train.memory_regularization", 0),
        ("train.memory_regularization", "no"), ("train.memory_regularization", None),
        ("train.base_lr", False), ("train.hidden_dim", 8.0), ("train.hidden_dim", "8"),
        ("train.dropout_rate", "0.1"), ("loss.beta", True), ("loss.c", "0.3"),
        ("protocol.k_shot", 2.5), ("protocol.test_per_class", None),
        ("synthetic.d", 12.0), ("synthetic.within_class_sigma", True),
    ])
    def test_value_of_the_wrong_type_rejected(self, tmp_path, key, value):
        path = write_config(tmp_path / "c.json", **{key: value})
        with pytest.raises(ConfigError, match=rf"^{key.replace('.', '[.]')} must be "):
            load_run_config(path)

    @pytest.mark.parametrize("key, value, expected", [
        ("train.base_lr", 1, 1), ("loss.beta", 0, 0), ("synthetic.class_mean_norm", 4, 4),
        ("train.dropout_rate", 0, 0), ("train.hidden_dim", 6, 6),
        ("train.memory_regularization", False, False), ("protocol.seed", 0, 0),
    ])
    def test_value_of_the_field_type_accepted(self, tmp_path, key, value, expected):
        config = load_run_config(write_config(tmp_path / "c.json", **{key: value}))
        section, field = key.split(".")
        holder = config["train"].loss if section == "loss" else config[section]
        assert getattr(holder, field) == expected


class TestSynth:
    def test_valid_spec_creates_file(self, tmp_path, config_file, capsys):
        out = tmp_path / "data.gcmr"
        assert main(["synth", "--spec", str(config_file), "--out", str(out)]) == 0
        assert out.exists()
        assert "wrote 160 examples" in capsys.readouterr().out

    @pytest.mark.parametrize("out, expected", [("missing/data.gcmr", "not in an existing"),
                                               (".", "is a directory")])
    def test_unusable_out_exits_2_before_generating(self, tmp_path, config_file, capsys,
                                                    monkeypatch, out, expected):
        def no_generation(spec):
            raise AssertionError("generated a dataset for an unusable --out")

        monkeypatch.setattr("gcmr.data_io.generate_synthetic", no_generation)
        out = tmp_path / out
        assert main(["synth", "--spec", str(config_file), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --out") and expected in err
        assert not (tmp_path / "missing").exists()

    def test_nonpositive_sigma_exits_2_naming_field(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", **{"synthetic.within_class_sigma": -1.0})
        assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "d")]) == EXIT_CONFIG
        assert "within_class_sigma" in capsys.readouterr().err

    def test_one_feature_tokens_exit_2_without_output(self, tmp_path, capsys):
        # a run could not use it: the base encoder's layer norm needs two features
        path = write_config(tmp_path / "c.json", **{"synthetic.d": 1})
        out = tmp_path / "d"
        assert main(["synth", "--spec", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "d must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("synthetic, reason", [
        ({"class_mean_norm": 1e308}, "features contain non-finite entries"),
        ({"within_class_sigma": 1e308}, "features contain non-finite entries"),
        ({"n_classes": 100000, "examples_per_class": 1000, "g": 4096, "d": 4096},
         "Unable to allocate 11.9 PiB"),
        ({"n_classes": 10 ** 22}, "Maximum allowed dimension exceeded"),
    ], ids=["huge mean", "huge sigma", "11.9 PiB", "1e22 classes"])
    def test_spec_that_cannot_be_generated_exits_2_with_one_line(self, tmp_path, synthetic,
                                                                 reason):
        # each spec passes SyntheticSpec; a fresh process shows what a user
        # sees (numpy's overflow warnings, a traceback). Both sizes lie past
        # any user address space, so numpy refuses them without allocating.
        spec = {"d": 8, "g": 2, "n_classes": 3, "class_mean_norm": 1.0,
                "within_class_sigma": 1.0, "examples_per_class": 4, **synthetic}
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"version": 1, "synthetic": spec}))
        out = tmp_path / "d.gcmr"
        done = _fresh_python("-m", "gcmr", "synth", "--spec", str(config), "--out", str(out))
        assert done.returncode == EXIT_CONFIG, done.stderr
        assert re.fullmatch(f"config error: synthetic dataset cannot be generated: "
                            f".*{re.escape(reason)}.*\n", done.stderr), done.stderr
        assert list(tmp_path.iterdir()) == [config]

    def test_same_seed_byte_identical_outputs(self, tmp_path, config_file):
        a, b = tmp_path / "a.gcmr", tmp_path / "b.gcmr"
        main(["synth", "--spec", str(config_file), "--out", str(a)])
        main(["synth", "--spec", str(config_file), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_synthetic_section(self, tmp_path, capsys):
        config = json.loads(write_config(tmp_path / "c.json").read_text())
        del config["synthetic"]
        path = tmp_path / "c2.json"
        path.write_text(json.dumps(config))
        assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "d")]) == EXIT_CONFIG


class TestRun:
    def test_end_to_end_prints_session_row(self, tmp_path, config_file,
                                           dataset_file, capsys):
        out = tmp_path / "run"
        rc = main(["run", "--config", str(config_file), "--data", str(dataset_file),
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        row = [line for line in printed.splitlines() if line.startswith("acc_all:")]
        assert len(row) == 1
        assert len(row[0].split("|")[0].split()) == 1 + 3  # label + 3 sessions
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        assert (out / "run_log.jsonl").exists()
        for t in range(3):
            assert (out / "checkpoints" / f"session_{t:02d}.gcmr").exists()

    def test_identical_runs_are_byte_identical(self, tmp_path, config_file,
                                               dataset_file):
        out_a = tmp_path / "a" / "out"
        out_b = tmp_path / "b" / "out"
        main(["run", "--config", str(config_file), "--data", str(dataset_file),
              "--out", str(out_a)])
        main(["run", "--config", str(config_file), "--data", str(dataset_file),
              "--out", str(out_b)])
        assert (out_a / "run_log.jsonl").read_bytes() == (out_b / "run_log.jsonl").read_bytes()
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        for t in range(3):
            name = f"checkpoints/session_{t:02d}.gcmr"
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_without_incremental_epochs_memory_regularization_changes_no_byte(
            self, tmp_path, dataset_file):
        # a metamorphic relation: with train.incr_epochs 0 an incremental
        # session imprints its head and takes no step, and the memory
        # regularization acts only through those steps, so memory on and
        # --no-memory-reg write the same output directory (each named "run",
        # the reports' label)
        config = write_config(tmp_path / "no-incr.json", **{"train.incr_epochs": 0})
        outputs = []
        for name, flags in (("on", []), ("off", ["--no-memory-reg"])):
            out = tmp_path / name / "run"
            assert main(["run", "--config", str(config), "--data", str(dataset_file),
                         "--out", str(out), *flags]) == 0
            outputs.append({str(p.relative_to(out)): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert sorted(outputs[0]) == ["checkpoints/session_00.gcmr",
                                      "checkpoints/session_01.gcmr",
                                      "checkpoints/session_02.gcmr",
                                      "report.csv", "report.json", "run_log.jsonl"]
        assert outputs[0]["run_log.jsonl"]  # the base session's epochs
        assert outputs[0] == outputs[1]

    def test_beta_extremes_zero_out_log_terms(self, tmp_path, config_file,
                                              dataset_file):
        logs = {}
        for beta in ("1.0", "0.0"):
            out = tmp_path / f"run_beta_{beta}"
            main(["run", "--config", str(config_file), "--data", str(dataset_file),
                  "--out", str(out), "--beta", beta])
            records = [json.loads(line) for line in
                       (out / "run_log.jsonl").read_text().splitlines()]
            logs[beta] = [r for r in records if r["session"] > 0]
        for record in logs["1.0"]:
            weighted = record["loss_breakdown"]["weighted"]
            assert weighted["memory"] == 0.0
            assert weighted["classification"] == 0.0
            assert record["loss_breakdown"]["total"] == pytest.approx(
                record["loss_breakdown"]["distance"], rel=1e-12)
        for record in logs["0.0"]:
            assert record["loss_breakdown"]["weighted"]["distance"] == 0.0

    def test_no_memory_reg_logs_classification_only(self, tmp_path, config_file,
                                                    dataset_file, capsys):
        out = tmp_path / "ablation"
        main(["run", "--config", str(config_file), "--data", str(dataset_file),
              "--out", str(out), "--no-memory-reg"])
        assert "override: memory_regularization=off" in capsys.readouterr().out
        records = [json.loads(line) for line in
                   (out / "run_log.jsonl").read_text().splitlines()]
        incremental = [r for r in records if r["session"] > 0]
        assert incremental
        for record in incremental:
            assert set(record["loss_breakdown"]) == {"total", "classification"}

    def test_bad_config_exits_2(self, tmp_path, dataset_file, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--data", str(dataset_file),
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_bad_data_exits_3(self, tmp_path, config_file, capsys):
        bad = tmp_path / "bad.gcmr"
        bad.write_bytes(b"GCMR garbage")
        assert main(["run", "--config", str(config_file), "--data", str(bad),
                     "--out", str(tmp_path / "x")]) == EXIT_DATA

    def test_dataset_without_class_table_exits_3(self, tmp_path, config_file, capsys):
        # checksum-valid: 2 examples of 1x2 features, 0 classes in the table
        body = (b"GCMR" + struct.pack("<HBBIIII", 1, 1, 8, 2, 1, 2, 0)
                + struct.pack("<II", 0, 0) + bytes(8 * 4))
        bad = tmp_path / "no_classes.gcmr"
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert main(["run", "--config", str(config_file), "--data", str(bad),
                     "--out", str(tmp_path / "x")]) == EXIT_DATA
        assert "class table" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_beta_override_out_of_range_exits_2(self, tmp_path, config_file,
                                                dataset_file, capsys):
        assert main(["run", "--config", str(config_file), "--data", str(dataset_file),
                     "--out", str(tmp_path / "x"), "--beta", "1.5"]) == EXIT_CONFIG

    @pytest.mark.parametrize("beta", ["2", "-0.1", "nan"])
    def test_bad_beta_exits_2_before_output(self, tmp_path, config_file, dataset_file,
                                            capsys, beta):
        # LossConfig's own range check rejects the override
        out = tmp_path / "x"
        assert main(["run", "--config", str(config_file), "--data", str(dataset_file),
                     "--out", str(out), "--beta", beta]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"--beta {beta}" in err and "beta must lie in [0, 1]" in err
        assert not out.exists()

    def test_config_is_frozen(self, config_file):
        config = load_run_config(config_file)
        with pytest.raises(AttributeError):
            config["train"].base_epochs = 0
        with pytest.raises(AttributeError):
            config["train"].loss = config["train"].loss
        with pytest.raises(AttributeError):
            config["train"].loss.beta = 0.0

    def test_no_base_finetune_override(self, tmp_path, config_file,
                                       dataset_file, capsys):
        # the flag is the config's base_epochs 0; reports carry the name of
        # their directory, so both runs write into one named "run"
        out, zero_out = tmp_path / "flag" / "run", tmp_path / "zero" / "run"
        assert main(["run", "--config", str(config_file), "--data", str(dataset_file),
                     "--out", str(out), "--no-base-finetune"]) == 0
        assert "override: base_epochs=0" in capsys.readouterr().out
        records = [json.loads(line) for line in
                   (out / "run_log.jsonl").read_text().splitlines()]
        assert all(r["session"] > 0 for r in records)  # no base epochs logged
        zero = write_config(tmp_path / "zero.json", **{"train.base_epochs": 0})
        assert main(["run", "--config", str(zero), "--data", str(dataset_file),
                     "--out", str(zero_out)]) == 0
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        assert len(files) == 3 + 3  # report.json/csv, run_log.jsonl, 3 checkpoints
        assert files == sorted(p.relative_to(zero_out) for p in zero_out.rglob("*")
                               if p.is_file())
        for name in files:
            assert (out / name).read_bytes() == (zero_out / name).read_bytes(), name

    def test_diverging_run_exits_4(self, tmp_path, dataset_file, capsys):
        for field, session in (("train.incr_lr", "[1-9]"), ("train.base_lr", "0")):
            path = write_config(tmp_path / "diverge.json", **{field: 1e200,
                                                              "train.momentum": 0.9})
            assert main(["run", "--config", str(path), "--data", str(dataset_file),
                         "--out", str(tmp_path / field)]) == EXIT_NUMERIC
            err = capsys.readouterr().err
            assert "numerical failure" in err and "parameter" in err
            assert re.search(rf"at session {session}, epoch \d+, step \d+$", err.strip())

    def test_flat_csv_needs_no_base_finetune(self, tmp_path, config_file, capsys):
        data = tmp_path / "flat.csv"
        lines = ["label," + ",".join(f"f{i}" for i in range(4))]
        for label in range(8):
            for k in range(12):
                values = [label + 0.1 * ((k + i) % 5) for i in range(4)]
                lines.append(f"{label}," + ",".join(f"{v:.3f}" for v in values))
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "flat"
        assert main(["run", "--config", str(config_file), "--data", str(data),
                     "--out", str(out)]) == EXIT_CONFIG
        assert "--no-base-finetune" in capsys.readouterr().err
        assert list((out / "checkpoints").glob("*")) == []
        assert main(["run", "--config", str(config_file), "--data", str(data),
                     "--out", str(out), "--no-base-finetune"]) == 0


    @pytest.mark.parametrize("layout", ["flat csv", "token csv", "binary"])
    def test_one_feature_tokens_exit_3_before_output(self, tmp_path, config_file,
                                                      capsys, layout):
        # the base encoder's layer norm needs two features per token
        data = tmp_path / "data"
        # 8 classes of 12 examples: flat lines, or groups of two tokens
        if layout == "binary":
            labels = np.repeat(np.arange(8), 12)
            values = labels + 0.1 * np.tile(np.arange(12), 8)
            features = np.repeat(values[:, None, None], 2, axis=1)
            data_io.save_dataset(data_io.TokenDataset(features, labels), data)
        else:
            grouped = layout == "token csv"
            tokens = ["0,", "1,"] if grouped else [""]
            lines = ["label,token,f0" if grouped else "label,f0"]
            lines += [f"{label},{token}{label + 0.1 * k}" for label in range(8)
                      for k in range(12) for token in tokens]
            data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        for _ in range(2):  # a rerun into the same --out fails the same way
            assert main(["run", "--config", str(config_file), "--data", str(data),
                         "--out", str(out)]) == EXIT_DATA
            assert "data error: feature normalization needs a feature dim >= 2" in \
                capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("loss", "distance_space", "feature"), ("loss", "novel_label_handling", "ignore"),
        ("train", "finetune_base", False), ("loss", "recon_scope", "all"),
        ("loss", "recon_reduction", "mean"), ("train", "feature_dim", None),
        ("train", "encoder_activation", "tanh"), ("train", "feature_norm", "layer"),
    ])
    def test_removed_config_keys_exit_2_before_output(self, tmp_path, dataset_file,
                                                      capsys, section, key, value):
        config = write_config(tmp_path / "c.json", **{f"{section}.{key}": value})
        out = tmp_path / "x"
        assert main(["run", "--config", str(config), "--data", str(dataset_file),
                     "--out", str(out)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    # the probes of a typed config: each used to crash or run silently
    @pytest.mark.parametrize("key, value", [
        ("train.base_epochs", 1.5), ("train.hidden_dim", 2.5), ("train.batch_size", 8.5),
        ("protocol.k_shot", 2.5), ("train.memory_regularization", "no"),
        ("train.seed", "7"),
    ])
    def test_wrongly_typed_value_exits_2_before_output(self, tmp_path, dataset_file,
                                                       capsys, key, value):
        config = write_config(tmp_path / "c.json", **{key: value})
        out = tmp_path / "x"
        assert main(["run", "--config", str(config), "--data", str(dataset_file),
                     "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
    def test_version_that_is_not_an_int_exits_2_before_output(self, tmp_path, dataset_file,
                                                               capsys, version):
        config = write_config(tmp_path / "c.json", version=version)
        out = tmp_path / "x"
        assert main(["run", "--config", str(config), "--data", str(dataset_file),
                     "--out", str(out)]) == EXIT_CONFIG
        assert "config error: config version must be 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["train.base_lr", "train.incr_lr", "train.min_lr",
                                     "synthetic.class_mean_norm",
                                     "synthetic.within_class_sigma", "train.momentum",
                                     "train.dropout_rate", "loss.c", "loss.beta",
                                     "loss.mask_ratio"])
    def test_integer_beyond_float_range_exits_2_before_output(self, tmp_path, capsys, key):
        # 10**400 is a valid JSON integer that no float can hold
        config = write_config(tmp_path / "c.json", **{key: 10 ** 400})
        out = tmp_path / "x"
        data = tmp_path / "d.gcmr"
        assert main(["synth", "--spec", str(config), "--out", str(data)]) == EXIT_CONFIG
        assert main(["run", "--config", str(config), "--data", str(data),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count(f"config error: {key} must be a number within float range") == 2
        assert not data.exists() and not out.exists()

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # json refuses to parse an integer this long: a config error, not a crash
        config = write_config(tmp_path / "c.json")
        config.write_text(config.read_text().replace('"base_lr": 0.05',
                                                     '"base_lr": 1' + "0" * 5000))
        out = tmp_path / "x"
        assert main(["run", "--config", str(config), "--data", str(tmp_path / "d"),
                     "--out", str(out)]) == EXIT_CONFIG
        assert "config is not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_head_exits_2_before_output(self, tmp_path, dataset_file, capsys,
                                                      monkeypatch):
        # 12 x 10**13 float64 weights (873 TiB) lie past any user address
        # space, so numpy refuses the base head without allocating it
        def no_training(*args, **kwargs):
            raise AssertionError("trained with a head that cannot be built")

        monkeypatch.setattr(trainer, "train_base", no_training)
        config = write_config(tmp_path / "c.json", **{"train.hidden_dim": 10 ** 13})
        out = tmp_path / "x"
        assert main(["run", "--config", str(config), "--data", str(dataset_file),
                     "--out", str(out)]) == EXIT_CONFIG
        assert re.fullmatch(r"config error: train.hidden_dim 10000000000000: the base "
                            r"session's head cannot be built: Unable to allocate .*\n",
                            capsys.readouterr().err)
        assert not out.exists()

    def test_mask_ratio_hiding_every_token_exits_2_before_output(self, tmp_path,
                                                                 dataset_file, capsys):
        # 4-token groups: round(0.9 * 4) = 4 would hide them all
        config = write_config(tmp_path / "c.json", **{"loss.mask_ratio": 0.9})
        out = tmp_path / "x"
        assert main(["run", "--config", str(config), "--data", str(dataset_file),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "mask_ratio" in err and "every token" in err
        assert not out.exists()
        assert main(["run", "--config", str(config), "--data", str(dataset_file),
                     "--out", str(out), "--no-base-finetune"]) == 0


class TestFreshOut:
    """gcmr run refuses an --out that already holds a run, before training
    and without writing anything."""

    @staticmethod
    def snapshot(root):
        return {str(p.relative_to(root)): (p.read_bytes() if p.is_file() else None,
                                           p.stat().st_mtime_ns)
                for p in sorted(root.rglob("*"))}

    @staticmethod
    def run(config, data, out):
        return main(["run", "--config", str(config), "--data", str(data), "--out", str(out)])

    def test_rerun_into_a_used_out_exits_2_and_writes_nothing(self, tmp_path, dataset_file,
                                                              capsys):
        five = write_config(tmp_path / "five.json", **{"protocol.n_way": 1})
        three = write_config(tmp_path / "three.json")
        out = tmp_path / "run"
        assert self.run(five, dataset_file, out) == 0
        assert (out / "checkpoints" / "session_04.gcmr").exists()
        before = self.snapshot(out)
        capsys.readouterr()
        assert self.run(three, dataset_file, out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --out") and "already holds a run" in err
        assert self.snapshot(out) == before

    @pytest.mark.parametrize("leftover", ["report.json", "run_log.jsonl",
                                          "checkpoints/session_00.gcmr",
                                          "checkpoints/.session_01.gcmr.0a1b2c3d.tmp"])
    def test_any_leftover_of_a_run_is_refused(self, tmp_path, config_file, dataset_file,
                                              capsys, leftover):
        out = tmp_path / "run"
        (out / leftover).parent.mkdir(parents=True)
        (out / leftover).write_text("stale")
        before = self.snapshot(out)
        assert self.run(config_file, dataset_file, out) == EXIT_CONFIG
        assert leftover.split("/")[0] in capsys.readouterr().err
        assert self.snapshot(out) == before

    def test_an_empty_or_unrelated_out_still_runs(self, tmp_path, config_file, dataset_file):
        out = tmp_path / "run"
        (out / "checkpoints").mkdir(parents=True)
        (out / "notes.txt").write_text("kept")
        assert self.run(config_file, dataset_file, out) == 0
        assert (out / "report.json").exists() and (out / "notes.txt").read_text() == "kept"

    def test_out_that_is_a_file_exits_2(self, tmp_path, config_file, dataset_file, capsys):
        out = tmp_path / "run"
        out.write_text("not a directory")
        assert self.run(config_file, dataset_file, out) == EXIT_CONFIG
        assert "not a directory" in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    def test_out_under_a_file_exits_2_before_loading(self, tmp_path, config_file,
                                                     dataset_file, capsys, monkeypatch):
        def no_load(path):
            raise AssertionError("loaded the dataset for an unusable --out")

        monkeypatch.setattr("gcmr.data_io.load_features", no_load)
        afile = tmp_path / "afile"
        afile.write_text("a regular file")
        assert self.run(config_file, dataset_file, afile / "sub") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --out") and "not a directory" in err
        assert afile.read_text() == "a regular file"


class TestOneFailurePath:
    """Commands raise; main alone prints a failure and picks its exit code."""

    TREE = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))

    def test_stderr_is_written_only_in_main(self):
        def stderr_uses(tree):
            return [node for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "stderr"]
        main_def = next(node for node in ast.walk(self.TREE)
                        if isinstance(node, ast.FunctionDef) and node.name == "main")
        assert stderr_uses(main_def)
        assert len(stderr_uses(main_def)) == len(stderr_uses(self.TREE))

    def test_no_command_returns_a_failure_code(self):
        failures = {"EXIT_CONFIG", "EXIT_DATA", "EXIT_NUMERIC"}
        commands = [func for func in ast.walk(self.TREE)
                    if isinstance(func, ast.FunctionDef) and func.name.startswith("_cmd_")]
        assert len(commands) == 4
        returned = {(func.name, name.id) for func in commands for node in ast.walk(func)
                    if isinstance(node, ast.Return) and node.value is not None
                    for name in ast.walk(node.value)
                    if isinstance(name, ast.Name) and name.id in failures}
        assert not returned


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports gcmr from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


class TestModuleEntryPoint:
    def test_run_does_not_import_numpy_ma(self, tmp_path, config_file, dataset_file):
        # `python -m gcmr run` in a fresh interpreter; numpy loads numpy.ma
        # (~15 ms) on its first np.unique, which a run has no use for
        argv = ["gcmr", "run", "--config", str(config_file), "--data", str(dataset_file),
                "--out", str(tmp_path / "run")]
        script = ("import runpy, sys\n"
                  f"sys.argv = {argv!r}\n"
                  "try:\n"
                  "    runpy.run_module('gcmr', run_name='__main__', alter_sys=True)\n"
                  "except SystemExit as exc:\n"
                  "    assert exc.code == 0, exc.code\n"
                  "print(sorted(m for m in sys.modules\n"
                  "             if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
        done = _fresh_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "run" / "report.json").exists()

    @pytest.mark.parametrize("field, session", [("train.incr_lr", "[1-9]"),
                                                ("train.base_lr", "0")])
    def test_diverging_run_prints_one_stderr_line(self, tmp_path, dataset_file, field,
                                                  session):
        # only a fresh process shows what a user sees: numpy's RuntimeWarnings
        # reach stderr there, while in-process tests see them as warnings
        config = write_config(tmp_path / "diverge.json", **{field: 1e200})
        done = _fresh_python("-m", "gcmr", "run", "--config", str(config),
                             "--data", str(dataset_file), "--out", str(tmp_path / "run"))
        assert done.returncode == EXIT_NUMERIC, done.stderr
        assert re.fullmatch(rf"numerical failure: parameter \w+ diverged to non-finite "
                            rf"values at session {session}, epoch \d+, step \d+\n",
                            done.stderr), done.stderr


class TestGradcheck:
    def test_default_dims_pass(self, capsys):
        assert main(["gradcheck", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_corrupted_gradient_fails(self, capsys, monkeypatch):
        def corrupted(*args, **kwargs):
            total, breakdown, grads = incremental_terms(*args, **kwargs)
            grads["w1"][0, 0] += 1e-2
            return total, breakdown, grads

        monkeypatch.setattr(cli, "incremental_terms", corrupted)
        assert main(["gradcheck", "--seed", "3"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("objective, analytic, name", [
        ("incremental", "incremental_terms", "w2"), ("base", "base_loss_backward", "enc_w")])
    def test_a_gradient_scaled_by_a_tenth_of_a_percent_fails_its_row_alone(
            self, monkeypatch, objective, analytic, name):
        # the finite-difference steps, widened against rounding, still see
        # one whole gradient array off by 0.1 %, and only that array
        unscaled = getattr(cli, analytic)

        def scaled(*args, **kwargs):
            total, breakdown, grads = unscaled(*args, **kwargs)
            return total, breakdown, {**grads, name: grads[name] * (1 + 1e-3)}

        monkeypatch.setattr(cli, analytic, scaled)
        for seed in range(3):
            failing = [(row_objective, row_name) for row_objective, row_name, err
                       in cli.run_gradcheck(seed, 8, 4, 5) if err >= cli.GRADCHECK_TOLERANCE]
            assert failing == [(objective, name)], seed

    def test_corrupt_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gradcheck", "--seed", "3", "--corrupt"])
        assert excinfo.value.code == EXIT_CONFIG
        assert "--corrupt" in capsys.readouterr().err

    def test_same_seed_identical_table(self, capsys):
        main(["gradcheck", "--seed", "4"])
        first = capsys.readouterr().out
        main(["gradcheck", "--seed", "4"])
        assert capsys.readouterr().out == first

    def test_oversized_dims_rejected(self, capsys):
        assert main(["gradcheck", "--dims", "100,100,10"]) == EXIT_CONFIG

    @pytest.mark.parametrize("dims", ["2,1,1", "8,4,1", "8,4,2"])
    def test_fewer_than_three_classes_pass(self, capsys, dims):
        # the memory rows used to stay at 3 and exceed the classifier columns
        for seed in range(5):
            assert main(["gradcheck", "--seed", str(seed), "--dims", dims]) == 0, seed
            out = capsys.readouterr().out
            assert "pass" in out and "FAIL" not in out, seed

    @pytest.mark.parametrize("seed", ["0", "2"])
    def test_fifty_ten_ten_pass(self, capsys, seed):
        # seed 0: decoder entries whose 1e-5 differences were all rounding;
        # seed 2: a distance row whose target probability is below PROB_FLOOR
        assert main(["gradcheck", "--dims", "50,10,10", "--seed", seed]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["7"])
    def test_hundred_ten_ten_pass(self, capsys, seed):
        # seed 7: an enc_w entry of 5.9e-8 whose 1e-5 difference was rounding
        assert main(["gradcheck", "--dims", "100,10,10", "--seed", seed]) == 0
        assert "FAIL" not in capsys.readouterr().out


# One-edit mutants of the backward passes (DeMillo, Lipton and Sayward,
# "Hints on Test Data Selection", 1978): module, the line or expression the
# edit replaces, its replacement, and the (objective, parameter) rows
# `gcmr gradcheck` must then fail at the default dims and seed
GRADCHECK_MUTANTS = {
    "tanh-derivative": ("losses.py", "    np.subtract(1.0, feats, out=feats)\n", "",
                        {("base", "enc_w"), ("base", "enc_b")}),
    "masked-zeroing": ("losses.py", "    d_feats[masked] = 0.0\n", "",
                       {("base", "enc_w"), ("base", "enc_b")}),
    "target-side": ("losses.py", "    d_feats -= delta\n", "",
                    {("base", "enc_w"), ("base", "enc_b")}),
    "dec-w-input": ("losses.py", "(filled.reshape(-1, dim).T @", "(feats.reshape(-1, dim).T @",
                    {("base", "dec_w")}),
    "relu-fold": ("classifier.py", "    scales *= hidden > 0\n", "",
                  {("incremental", "w1"), ("incremental", "b1"), ("base", "enc_w"),
                   ("base", "enc_b"), ("base", "head_w1"), ("base", "head_b1")}),
    "distance-relu": ("classifier.py", "    dz1 *= points > 0\n", "",
                      {("incremental", "w1"), ("incremental", "b1")}),
    "memory-weight": ("classifier.py", "(1.0 - beta, mem_grads)", "(beta, mem_grads)",
                      {("incremental", "w1"), ("incremental", "b1"), ("incremental", "w2"),
                       ("incremental", "b2")}),
    "norm-projection": ("encoder.py", "return (grad - g_mean - out * proj) / scale",
                        "return (grad - g_mean) / scale",
                        {("base", "enc_w"), ("base", "enc_b")}),
}


class TestGradcheckMutants:
    @pytest.mark.parametrize("mutant", sorted(GRADCHECK_MUTANTS))
    def test_gradcheck_fails_the_rows_the_mutant_corrupts(self, tmp_path, mutant):
        module, pattern, replacement, failing = GRADCHECK_MUTANTS[mutant]
        package = tmp_path / "gcmr"
        shutil.copytree(Path(cli.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        source = (package / module).read_text()
        # a pattern edited away or duplicated leaves the mutant stale
        assert source.count(pattern) == 1, f"mutant {mutant}: {pattern!r} is not in {module} once"
        (package / module).write_text(source.replace(pattern, replacement))
        done = subprocess.run([sys.executable, "-m", "gcmr", "gradcheck"], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stdout + done.stderr
        rows = [line.split() for line in done.stdout.splitlines()[1:]]
        assert {(row[0], row[1]) for row in rows if row[3] == "FAIL"} == failing


class TestReport:
    def run_once(self, tmp_path, config_file, dataset_file, name, *flags):
        out = tmp_path / name
        main(["run", "--config", str(config_file), "--data", str(dataset_file),
              "--out", str(out), *flags])
        return out

    def test_single_run_single_row(self, tmp_path, config_file, dataset_file, capsys):
        out = self.run_once(tmp_path, config_file, dataset_file, "solo")
        capsys.readouterr()
        assert main(["report", "--runs", str(out), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("run,session_0")
        assert lines[1].startswith("solo,")

    def test_csv_quotes_a_label_with_a_comma(self, tmp_path, config_file, dataset_file,
                                             capsys):
        out = self.run_once(tmp_path, config_file, dataset_file, "x,y")
        capsys.readouterr()
        assert main(["report", "--runs", str(out), "--format", "csv"]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert len(row) == len(header)
        assert row[0] == "x,y"
        with open(out / "report.csv", newline="") as fh:
            assert list(csv.reader(fh))[1] == row

    def test_two_runs_two_rows(self, tmp_path, config_file, dataset_file, capsys):
        a = self.run_once(tmp_path, config_file, dataset_file, "full")
        b = self.run_once(tmp_path, config_file, dataset_file, "ablat", "--no-memory-reg")
        capsys.readouterr()
        assert main(["report", "--runs", str(a), str(b)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_mismatched_session_counts_exit_2(self, tmp_path, config_file,
                                              dataset_file, capsys):
        full = self.run_once(tmp_path, config_file, dataset_file, "full")
        short_cfg = write_config(tmp_path / "short.json",
                                 **{"protocol.base_classes": 6,
                                    "protocol.n_way": 2})
        short = tmp_path / "short_run"
        main(["run", "--config", str(short_cfg), "--data", str(dataset_file),
              "--out", str(short)])
        capsys.readouterr()
        assert main(["report", "--runs", str(full), str(short)]) == EXIT_CONFIG

    def test_missing_report_exits_3(self, tmp_path, capsys):
        assert main(["report", "--runs", str(tmp_path / "nope")]) == EXIT_DATA

    @pytest.mark.parametrize("content", [
        "{}", "[1]", '"text"',
        '{"label": "x", "sessions": [], "summary": {"avg_acc": 0.5}}',
        '{"label": "x", "sessions": [{"acc_all": "high", "memory_budget": {"total": 1}}], '
        '"summary": {"avg_acc": 0.5}}',
        # a bool is no number, as in a config
        '{"label": "r1", "sessions": [{"acc_all": true, "memory_budget": {"total": 1}}], '
        '"summary": {"avg_acc": 0.5}}',
        '{"label": "r1", "sessions": [{"acc_all": 0.5, "memory_budget": {"total": true}}], '
        '"summary": {"avg_acc": 0.5}}',
        '{"label": "r1", "sessions": [{"acc_all": 0.5, "memory_budget": {"total": 1}}], '
        '"summary": {"avg_acc": false}}',
        '{"label": "r1", "sessions": [{"acc_all": true, "memory_budget": {"total": 1}}, '
        '{"acc_all": 0.5, "memory_budget": {"total": 1}}], "summary": {"avg_acc": 0.5}}',
        '{"label": "r1", "sessions": [{"acc_all": 0.5, "memory_budget": {"total": 1.0}}], '
        '"summary": {"avg_acc": 0.5}}',
    ], ids=["empty object", "list", "string", "no sessions", "text accuracy",
            "bool accuracy", "bool memory total", "bool average",
            "bool accuracy of an earlier session", "float memory total"])
    def test_malformed_report_exits_3(self, tmp_path, capsys, content):
        (tmp_path / "report.json").write_text(content)
        for fmt in ("csv", "json"):
            assert main(["report", "--runs", str(tmp_path), "--format", fmt]) == EXIT_DATA
            assert capsys.readouterr().err.startswith(
                f"data error: cannot read {tmp_path / 'report.json'}")

    def test_json_format(self, tmp_path, config_file, dataset_file, capsys):
        out = self.run_once(tmp_path, config_file, dataset_file, "jsonrun")
        capsys.readouterr()
        assert main(["report", "--runs", str(out), "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed[0]["label"] == "jsonrun"
