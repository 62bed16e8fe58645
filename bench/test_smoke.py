"""Smoke test of the benchmark itself, at tiny workload sizes.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)
CONTRACT = run.load_contract()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace):
    metrics, attempted, failures, record = run.measure(name, 3, 0, trace, smoke=True)
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    line = run.result_line(metrics, declared, attempted, failures)
    assert failures == []
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in declared]
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert set(record["environment"]) >= {"nproc", "python", "numpy", "openblas",
                                          "threads", "git_commit", "workload_seed"}


def test_every_per_layer_metric_is_mapped():
    with open(os.path.join(os.path.dirname(run.__file__), "metric_map.json")) as fh:
        mapped = json.load(fh)["metrics"]
    assert set(mapped) == {m["name"] for m in CONTRACT["per_layer"]}


def _flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        value = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([value ^ 0x01]))


def test_output_checks_catch_corruption(tmp_path):
    bench = run.Run("cli-stream", 5, True, str(tmp_path), time.monotonic() + 120)
    facts, result = bench.job(bench.derived[0])
    assert facts is not None and bench.failures == []
    assert run.check_facts(bench.spec, facts, facts["digest"]) == []
    out = result["out_dir"]

    report = os.path.join(out, "report.json")
    with open(report, encoding="utf-8") as fh:
        text = fh.read()
    digit = next(i for i, ch in enumerate(text) if ch in "123456789")
    _flip_byte(report, digit)  # one digit changes, the JSON stays valid
    tampered = run.cli_facts(out, result, "on")
    assert any("digest" in p for p in run.check_facts(bench.spec, tampered, facts["digest"]))

    final = sorted(os.listdir(os.path.join(out, "checkpoints")))[-1]
    checkpoint = os.path.join(out, "checkpoints", final)
    _flip_byte(checkpoint, os.path.getsize(checkpoint) // 2)
    with pytest.raises(run.JobFailed, match="checkpoint"):
        run.cli_facts(out, result, "on")


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
