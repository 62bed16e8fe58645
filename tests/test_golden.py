"""Golden output digests: the sha256 of every file that a few fixed
`gcmr synth` and `gcmr run` commands write must equal the digests checked
in to tests/golden.json.

The runs:
- `demos/config.json` with the memory regularization on and off;
- the same dataset written as token-group CSV;
- a binary dataset whose base test rows span three encode chunks
  (`gcmr.encoder.ENCODE_CHUNK_BYTES`), so evaluation reads a session's
  rows from the file in more than one piece;
- a binary dataset whose memory holds more than `HEAD_BLOCK_ROWS` rows, so
  the memory term sums over more than one head block.

Each command runs in a fresh interpreter with one BLAS thread
(`OPENBLAS_NUM_THREADS=1`, the other BLAS thread variables cleared), and
every run writes into a directory named "run", the reports' label. The
bits depend on the numpy and BLAS build, on the kernel the BLAS picks for
the CPU and on its thread count (README), so golden.json holds one entry
per such fingerprint; on a fingerprint without an entry the comparison is
skipped, and the skip reason prints the fingerprint.

After a change that alters output bytes on purpose, rewrite the entry of
the running fingerprint with

    PYTHONPATH=src python tests/test_golden.py --update

and list each changed file, and why, in CHANGES.md.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from gcmr import classifier, encoder
from gcmr.cli import load_run_config
from gcmr.data_io import generate_synthetic
from test_data_io import write_token_csv

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
DESK = ROOT / "demos" / "config.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _config(synthetic: dict, protocol: dict, train: dict) -> dict:
    return {"version": 1, "train": {"seed": 2, **train},
            "protocol": {"seed": 2, **protocol}, "synthetic": {"seed": 2, **synthetic}}


# 64 tokens of 16 features are 8 KiB a row, so an encode chunk holds 64
# rows and the base session's 4 x 34 test rows take three
CHUNKED = _config({"d": 16, "g": 64, "n_classes": 6, "class_mean_norm": 4.0,
                   "within_class_sigma": 1.0, "examples_per_class": 40},
                  {"total_classes": 6, "base_classes": 4, "n_way": 1, "k_shot": 2,
                   "test_per_class": 34},
                  {"base_epochs": 1, "incr_epochs": 2, "batch_size": 8, "hidden_dim": 8})
# 258 base classes: session 1's memory term runs over a block of 256 memory
# rows and one of 2
MANY_CLASSES = _config({"d": 4, "g": 4, "n_classes": 260, "class_mean_norm": 2.0,
                        "within_class_sigma": 1.0, "examples_per_class": 3},
                       {"total_classes": 260, "base_classes": 258, "n_way": 2,
                        "k_shot": 1, "test_per_class": 1},
                       {"base_epochs": 1, "incr_epochs": 1, "batch_size": 64,
                        "hidden_dim": 8})


def _environment() -> dict:
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    return env


FINGERPRINT_SCRIPT = """
import ctypes, json
import numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
core = threads = None
try:
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    get_core, get_threads = (lib.scipy_openblas_get_corename64_,
                             lib.scipy_openblas_get_num_threads64_)
    get_core.argtypes, get_core.restype = [], ctypes.c_char_p
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    core, threads = get_core().decode(), get_threads()
except (AttributeError, OSError):
    pass
print(json.dumps({"numpy": np.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "openblas_core": core,
                  "threads": threads}, sort_keys=True))
"""


def fingerprint() -> dict:
    """The numpy version, BLAS name and version, OpenBLAS core and BLAS
    thread count of an interpreter started as the runs are."""
    done = subprocess.run([sys.executable, "-c", FINGERPRINT_SCRIPT], env=_environment(),
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout)


def _gcmr(commands) -> None:
    """Run each command, a list of `gcmr` arguments, in its own fresh
    interpreter, two at a time; every one must exit 0."""
    def run(args):
        args = list(map(str, args))
        done = subprocess.run([sys.executable, "-m", "gcmr", *args], env=_environment(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, f"gcmr {' '.join(args)}: {done.stderr}"

    with ThreadPoolExecutor(2) as pool:
        list(pool.map(run, commands))


def produce(root: Path) -> None:
    """Write every golden dataset and run under root: data/ holds the
    datasets, <name>/run each run's output directory, and specs/ the
    configs that are not demos/config.json."""
    data, specs = root / "data", {"desk": DESK}
    data.mkdir()
    (root / "specs").mkdir()
    for name, config in (("chunked", CHUNKED), ("many-classes", MANY_CLASSES)):
        specs[name] = root / "specs" / f"{name}.json"
        specs[name].write_text(json.dumps(config))
    _gcmr([["synth", "--spec", spec, "--out", data / f"{name}.gcmr"]
           for name, spec in specs.items()])
    write_token_csv(data / "desk.csv", generate_synthetic(load_run_config(DESK)["synthetic"]))
    runs = {"desk": ("desk", "desk.gcmr"),
            "desk-no-memory": ("desk", "desk.gcmr", "--no-memory-reg"),
            "desk-csv": ("desk", "desk.csv"),
            "chunked": ("chunked", "chunked.gcmr"),
            "many-classes": ("many-classes", "many-classes.gcmr")}
    _gcmr([["run", "--config", specs[spec], "--data", data / dataset,
            "--out", root / name / "run", *flags]
           for name, (spec, dataset, *flags) in runs.items()])


def digests(root: Path) -> dict[str, str]:
    """The sha256 of every file produce wrote under root but the specs, by
    path relative to root."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.relative_to(root).parts[0] != "specs"}


def differences(expected: dict[str, str], produced: dict[str, str]) -> list[str]:
    """One line per file whose digest differs, or that only one side has."""
    return [f"{name}: expected {expected.get(name, 'no file')}, "
            f"produced {produced.get(name, 'no file')}"
            for name in sorted(set(expected) | set(produced))
            if expected.get(name) != produced.get(name)]


def load_entries() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["entries"]


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    produce(root)
    return root


def test_outputs_match_the_golden_digests(produced):
    here = fingerprint()
    entry = next((e for e in load_entries() if e["fingerprint"] == here), None)
    if entry is None:
        pytest.skip(f"no golden digests for this fingerprint: {json.dumps(here, sort_keys=True)}")
    found = differences(entry["digests"], digests(produced))
    assert not found, "\n".join(found)


def test_the_digests_cover_every_listed_output(produced):
    names = set(digests(produced))
    assert {"data/desk.gcmr", "data/desk.csv", "data/chunked.gcmr",
            "data/many-classes.gcmr"} <= names
    for run, sessions in (("desk", 5), ("desk-no-memory", 5), ("desk-csv", 5),
                          ("chunked", 3), ("many-classes", 2)):
        assert {f"{run}/run/{name}" for name in ("report.json", "report.csv",
                                                 "run_log.jsonl")} <= names
        assert {name for name in names if name.startswith(f"{run}/run/checkpoints/")} == {
            f"{run}/run/checkpoints/session_{t:02d}.gcmr" for t in range(sessions)}
    assert json.loads((produced / "desk" / "run" / "report.json").read_text())["label"] == "run"
    # the two small configs reach what they are there for
    assert 4 * 34 > encoder.ENCODE_CHUNK_BYTES // (64 * 16 * 8)
    assert 258 > classifier.HEAD_BLOCK_ROWS


def test_a_flipped_checkpoint_byte_fails_and_names_the_file(produced, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(produced, copy)
    name = "chunked/run/checkpoints/session_01.gcmr"
    blob = bytearray((copy / name).read_bytes())
    blob[len(blob) // 2] ^= 1
    (copy / name).write_bytes(bytes(blob))
    found = differences(digests(produced), digests(copy))
    assert len(found) == 1 and found[0].startswith(f"{name}: expected ")


def test_a_float_changed_in_the_config_changes_the_run_log_digest(produced, tmp_path):
    # beta + 1e-7 weights the incremental sessions' terms by a hair: the
    # digest of the run log must see it, and not only where the log echoes
    # beta, since the unweighted memory term moves too
    config = json.loads(DESK.read_text())
    config["loss"]["beta"] += 1e-7
    spec = tmp_path / "beta.json"
    spec.write_text(json.dumps(config))
    _gcmr([["run", "--config", spec, "--data", produced / "data" / "desk.gcmr",
            "--out", tmp_path / "run"]])
    found = differences(digests(produced / "desk" / "run"), digests(tmp_path / "run"))
    assert any(line.startswith("run_log.jsonl: expected ") for line in found)
    logs = [[json.loads(line)["loss_breakdown"] for line in path.read_text().splitlines()]
            for path in (produced / "desk" / "run" / "run_log.jsonl",
                         tmp_path / "run" / "run_log.jsonl")]
    assert any(a.get("memory") != b.get("memory") for a, b in zip(*logs))


def update() -> None:
    """Rewrite golden.json's entry for the running fingerprint."""
    here = fingerprint()
    with tempfile.TemporaryDirectory() as tmp:
        produce(Path(tmp))
        entry = {"fingerprint": here, "digests": digests(Path(tmp))}
    entries = [e for e in load_entries() if e["fingerprint"] != here] if GOLDEN.exists() else []
    GOLDEN.write_text(json.dumps({"entries": [*entries, entry]}, indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
    print(f"{GOLDEN}: {len(entry['digests'])} digests for {json.dumps(here, sort_keys=True)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    update()
