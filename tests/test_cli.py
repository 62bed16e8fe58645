import csv
import io
import json
import re
import struct
import zlib

import pytest

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
        assert config["loss"].beta == 0.7
        assert config["protocol"].n_way == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", **{"train.learning_rate": 0.1})
        with pytest.raises(ConfigError, match="learning_rate"):
            load_run_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", extras={"x": 1})
        with pytest.raises(ConfigError):
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
        ("train.batch_size", True), ("train.finetune_base", 0),
        ("train.memory_regularization", "no"), ("train.memory_regularization", None),
        ("train.base_lr", False), ("train.feature_dim", 8.0), ("train.feature_dim", "8"),
        ("train.feature_norm", 1), ("loss.beta", True), ("loss.c", "0.3"),
        ("protocol.k_shot", 2.5), ("protocol.test_per_class", None),
        ("synthetic.d", 12.0), ("synthetic.within_class_sigma", True),
    ])
    def test_value_of_the_wrong_type_rejected(self, tmp_path, key, value):
        path = write_config(tmp_path / "c.json", **{key: value})
        with pytest.raises(ConfigError, match=rf"^{key.replace('.', '[.]')} must be "):
            load_run_config(path)

    @pytest.mark.parametrize("key, value, expected", [
        ("train.base_lr", 1, 1), ("loss.beta", 0, 0), ("synthetic.class_mean_norm", 4, 4),
        ("train.feature_dim", None, None), ("train.feature_dim", 6, 6),
        ("train.finetune_base", False, False), ("protocol.seed", 0, 0),
    ])
    def test_value_of_the_field_type_accepted(self, tmp_path, key, value, expected):
        config = load_run_config(write_config(tmp_path / "c.json", **{key: value}))
        section, field = key.split(".")
        assert getattr(config[section], field) == expected


class TestSynth:
    def test_valid_spec_creates_file(self, tmp_path, config_file, capsys):
        out = tmp_path / "data.gcmr"
        assert main(["synth", "--spec", str(config_file), "--out", str(out)]) == 0
        assert out.exists()
        assert "wrote 160 examples" in capsys.readouterr().out

    def test_nonpositive_sigma_exits_2_naming_field(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", **{"synthetic.within_class_sigma": -1.0})
        assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "d")]) == EXIT_CONFIG
        assert "within_class_sigma" in capsys.readouterr().err

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

    def test_no_base_finetune_override(self, tmp_path, config_file,
                                       dataset_file, capsys):
        out = tmp_path / "nofinetune"
        assert main(["run", "--config", str(config_file), "--data", str(dataset_file),
                     "--out", str(out), "--no-base-finetune"]) == 0
        assert "override: finetune_base=off" in capsys.readouterr().out
        records = [json.loads(line) for line in
                   (out / "run_log.jsonl").read_text().splitlines()]
        assert all(r["session"] > 0 for r in records)  # no base epochs logged

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
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


    @pytest.mark.parametrize("key, value", [("distance_space", "feature"),
                                            ("novel_label_handling", "ignore")])
    def test_removed_loss_keys_exit_2_before_output(self, tmp_path, dataset_file,
                                                    capsys, key, value):
        config = write_config(tmp_path / "c.json", **{f"loss.{key}": value})
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


class TestGradcheck:
    def test_default_dims_pass(self, capsys):
        assert main(["gradcheck", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_corrupted_gradient_fails(self, capsys):
        assert main(["gradcheck", "--seed", "3", "--corrupt"]) != 0
        assert "FAIL" in capsys.readouterr().out

    def test_same_seed_identical_table(self, capsys):
        main(["gradcheck", "--seed", "4"])
        first = capsys.readouterr().out
        main(["gradcheck", "--seed", "4"])
        assert capsys.readouterr().out == first

    def test_oversized_dims_rejected(self, capsys):
        assert main(["gradcheck", "--dims", "100,100,10"]) == EXIT_CONFIG


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
    ], ids=["empty object", "list", "string", "no sessions", "text accuracy"])
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
