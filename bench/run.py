"""gcmr benchmark: run one workload for a fixed time, check its outputs, print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload cli-stream --seed 1 --seconds 50 --trace 0

Workloads are defined in bench/workloads.py; metric names, units and bounds
in BENCHMARK.json; the map from each per-layer metric to the end-to-end
metric and workload it should move in bench/metric_map.json.

Every job runs in a fresh worker process (bench/worker.py) so that its peak
RSS can be read from os.wait4. Jobs run one at a time: a closed loop with
one client. The loop repeats jobs until --seconds have passed, and never
stops before each derived input seed has run once and the first has run
twice, so the quality metrics average a fixed set of inputs and every run
checks bit-reproducibility.

With --trace 0 the last stdout line holds the end-to-end metrics. Timings
are medians over the jobs of CPU time at a reference speed (normalize):
 - CPU time of the job's process (all threads), not wall time: on a shared
   host the virtual CPUs lose time to other tenants (steal), which the
   kernel leaves out of a process's CPU time but not out of its wall time;
 - at a reference speed: the host's CPUs also run up to half again as fast
   or slow, for fractions of a second to minutes at a time, which moves
   CPU time as much. The worker times a fixed probe computation before
   and after set-up and at every session boundary, and each window's CPU
   time is scaled by REFERENCE_S over the mean of the probes on either side.
Each job's wall, CPU and per-session figures and its probes are kept in the
results file, and the traced run reports the untraced jobs' median protocol
CPU and wall time, unscaled, as e2e.protocol_cpu_s and e2e.protocol_wall_s.

With --trace 1 untraced and traced jobs alternate on one input seed, and
the last line holds the per-layer metrics from the traced jobs; their
spans and per-module self-time table are written under .bench_out/traces.
Exit status is nonzero, with no result line, when the source tree is
missing or no job succeeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads
from tracer import read_spans, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Every run must end within 180 s; a job still running at this point is
# killed and counted as failed.
HARD_LIMIT_S = 165.0

# Spans of these functions happen during set-up; every other per-layer
# figure counts only spans that start inside the protocol windows.
SETUP_SPANS = ("data_io.generate_synthetic", "data_io.load_features")
MODULES = ("trainer", "losses", "encoder", "rng", "classifier", "nn_core",
           "memory", "eval_report", "data_io", "cli")
MB = 1e6
# Figures of every timed job kept in the results file; the first four are
# also summarized on stdout.
JOB_FIGURES = ("protocol_norm_s", "setup_norm_s", "protocol_cpu_s", "setup_cpu_s",
               "protocol_s", "setup_s", "peak_rss_mb", "import_s", "steal_share",
               "session_cpu_s", "session_probes", "setup_probes")
# CPU seconds worker.reference_cpu_s takes on the host the benchmark was
# tuned on (a 2-vCPU Xeon VM) in its usual speed mode. It only sets the
# scale of the normalized times: a probe that took this long leaves a
# window's CPU time as it is.
REFERENCE_S = 0.015


class JobFailed(Exception):
    pass


# --- environment ------------------------------------------------------------

def environment(spec: dict, seed: int, derived: list[int]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {"GCMR_THREADS": spec["env"].get("GCMR_THREADS"),
               "OPENBLAS_NUM_THREADS": spec["env"].get("OPENBLAS_NUM_THREADS",
                                                       "default")}
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}",
            "threads": threads,
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "workload_seed": seed,
            "derived_seeds": derived}


def cpu_ticks():
    """Aggregate (busy, steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    idle = fields[3] + fields[4]
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields) - idle - steal, steal, sum(fields)


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None  # not a git checkout, e.g. an exported source tree
    return lines[1]


def _source_digest() -> str:
    """sha256 over src/ file paths and contents: names the code under test
    even where there is no git history."""
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


# --- jobs ---------------------------------------------------------------------

def _wait(proc, deadline):
    """Block in os.wait4 for the child's own rusage; SIGALRM at the deadline
    kills it. Returns (status or None after a kill, rusage)."""
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.001))
    status = None
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    except TimeoutError:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if status is None:  # timed out, or interrupted: never leave it running
            proc.kill()
            _, _, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status) if status is not None else -signal.SIGKILL
    return status, rusage


# --- output checks ------------------------------------------------------------

def cli_facts(out_dir: str, result: dict, variant: str) -> dict:
    """Facts of one `gcmr run` output directory, read back through gcmr.
    Raises JobFailed when the report or the final checkpoint do not load."""
    from gcmr import data_io, eval_report, memory

    report_path = os.path.join(out_dir, "report.json")
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    try:
        with open(report_path, "rb") as fh:
            report_bytes = fh.read()
        report = json.loads(report_bytes)
        final_path = os.path.join(ckpt_dir, sorted(os.listdir(ckpt_dir))[-1])
        with open(final_path, "rb") as fh:
            ckpt_bytes = fh.read()
        state = data_io.load_checkpoint(final_path)
    except (OSError, IndexError, ValueError, data_io.FormatError) as exc:
        raise JobFailed(f"report or final checkpoint does not load: {exc}") from None
    budget = memory.memory_budget_bytes(state.mem, state.wmem, eval_report.BUDGET_PRECISION)
    return {
        "digest": hashlib.sha256(report_bytes + ckpt_bytes).hexdigest(),
        "encoder_base": result.get("encoder_base"),
        "checkpoints": len(os.listdir(ckpt_dir)),
        "checkpoint_mb": len(ckpt_bytes) / MB,
        "checkpoint_memory_bytes": budget["total"],
        "variants": {variant: {
            "summary": report["summary"],
            "final_base_acc": report["sessions"][-1]["acc_base"],
            "memory_rows": state.mem.n_classes,
            "memory_bytes": report["sessions"][-1]["memory_budget"]["total"],
            "memory_bytes_f64": memory.memory_budget_bytes(state.mem, state.wmem, 8)["total"],
            "encoder_final": hashlib.sha256(state.encoder.state_bytes()).hexdigest(),
        }},
    }


def check_facts(spec: dict, facts: dict, first_digest: str | None) -> list[str]:
    """Output checks of one job; an empty list means it passed."""
    failures = []
    protocol = spec["config"]["protocol"]
    if first_digest is not None and facts["digest"] != first_digest:
        failures.append("report digest differs from an earlier run of the same seed")
    for name, variant in facts["variants"].items():
        if variant["memory_rows"] != protocol["total_classes"]:
            failures.append(f"{name}: final memory has {variant['memory_rows']} rows, "
                            f"expected {protocol['total_classes']}")
        if facts["encoder_base"] != variant["encoder_final"]:
            failures.append(f"{name}: encoder changed after session 0")
    if spec["kind"] == "cli":
        sessions = 1 + (protocol["total_classes"] - protocol["base_classes"]) // protocol["n_way"]
        if facts["checkpoints"] != sessions:
            failures.append(f"{facts['checkpoints']} checkpoints, expected {sessions}")
        (variant,) = facts["variants"].values()
        if facts["checkpoint_memory_bytes"] != variant["memory_bytes"]:
            failures.append("final checkpoint's memory budget differs from the report's")
    return failures


# --- one run ------------------------------------------------------------------

class Run:
    """One benchmark run: jobs, their checks, and the failure count."""

    def __init__(self, name: str, seed: int, smoke: bool, work: str, hard_deadline: float):
        self.name = name
        self.spec = workloads.workload(name, smoke)
        self.derived = [workloads.derived_seed(seed, k)
                        for k in range(self.spec["quality_seeds"])]
        self.work = work
        self.hard_deadline = hard_deadline
        self.count = 0
        self.env = {k: v for k, v in os.environ.items()
                    if k not in workloads.BLAS_THREAD_VARS and k != "GCMR_THREADS"}
        self.env.update(self.spec["env"])
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest: dict = {}
        self.datasets: dict[int, tuple[str, str]] = {}
        self.last_job_s = 0.0

    def time_for_another(self, deadline: float) -> bool:
        """Whether a job like the last one would end by the deadline, give
        or take half its length; never past the hard limit."""
        now = time.monotonic()
        if now + self.last_job_s > self.hard_deadline:
            return False
        return now + self.last_job_s / 2 < deadline

    def job(self, seed: int, memory_on: bool = True, trace_id: str | None = None):
        """One protocol job on one derived seed, with its output checks.
        Returns (facts, result), or (None, None) after counting a failure."""
        self.attempted += 1
        start = time.monotonic()
        ticks = cpu_ticks()
        try:
            facts, result = self._job(seed, memory_on, trace_id)
            after = cpu_ticks()
            if ticks and after and after[2] > ticks[2]:
                result["steal_share"] = (after[1] - ticks[1]) / (after[2] - ticks[2])
            if result.get("setup_probes"):
                normalize(result)
            problems = check_facts(self.spec, facts, self.first_digest.get((seed, memory_on)))
            self.first_digest.setdefault((seed, memory_on), facts["digest"])
            if problems:
                raise JobFailed("; ".join(problems))
        except JobFailed as exc:
            self.failures.append(str(exc))
            return None, None
        finally:
            self.last_job_s = time.monotonic() - start
        return facts, result

    def _job(self, seed, memory_on, trace_id):
        tag = f"r{self.attempted:03d}"
        job = {"kind": self.spec["kind"]}
        if trace_id is not None:
            job.update(trace=True, run_id=trace_id,
                       spans_path=os.path.join(self.work, f"{tag}.spans.jsonl"))
        if self.spec["kind"] == "cli":
            config_path, data_path = self._dataset(seed)
            out_dir = os.path.join(self.work, tag, "cli-stream")
            job["argv"] = ["run", "--config", config_path, "--data", data_path,
                           "--out", out_dir] + ([] if memory_on else ["--no-memory-reg"])
            result = self._spawn(job)
            facts = cli_facts(out_dir, result, "on" if memory_on else "off")
            result["setup_s"] = result["first_train_mono"] - result["spawn_mono"]
            result["out_dir"] = out_dir
        else:
            if not memory_on:
                job["variants"] = [False]
            else:
                job["variants"] = [True, False] if self.spec["timed_off"] else [True]
            job["config"] = workloads.seeded_config(self.spec, seed)
            result = self._spawn(job)
            facts = result  # the worker reports digest, variants and encoder_base
        result["spans_path"] = job.get("spans_path")
        return facts, result

    def _spawn(self, job: dict) -> dict:
        """Run one worker; returns its result plus spawn time and peak RSS.
        Raises JobFailed on a nonzero exit, a crash or a timeout."""
        self.count += 1
        tag = f"job{self.count:03d}"
        job = dict(job, src=SRC, result_path=os.path.join(self.work, f"{tag}.result.json"))
        job_path = os.path.join(self.work, f"{tag}.job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        log_path = os.path.join(self.work, f"{tag}.log")
        with open(log_path, "wb") as log:
            spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "worker.py"),
                                     job_path], stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            status, rusage = _wait(proc, self.hard_deadline)
        if status is None:
            raise JobFailed(f"{tag} killed after the {HARD_LIMIT_S:.0f} s run limit")
        code = proc.returncode
        if code != 0 or not os.path.exists(job["result_path"]):
            with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise JobFailed(f"{tag} exited with {code}:\n{tail}")
        with open(job["result_path"], "r", encoding="utf-8") as fh:
            result = json.load(fh)
        result["spawn_mono"] = spawn
        result["peak_rss_mb"] = rusage.ru_maxrss * 1024 / MB  # ru_maxrss is KiB
        return result

    def _dataset(self, seed):
        """`gcmr synth` writes the seed's dataset once; not timed."""
        if seed not in self.datasets:
            base = os.path.join(self.work, f"seed{seed}")
            os.makedirs(base)
            config_path = os.path.join(base, "config.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(workloads.seeded_config(self.spec, seed), fh)
            data_path = os.path.join(base, "data.gcmr")
            self._spawn({"kind": "cli", "argv": ["synth", "--spec", config_path,
                                                 "--out", data_path]})
            self.datasets[seed] = (config_path, data_path)
        return self.datasets[seed]


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns (metrics by name, attempted, failures, record)."""
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(work)
    start = time.monotonic()
    ticks = cpu_ticks()
    run = Run(name, seed, smoke, work, start + HARD_LIMIT_S)
    try:
        if trace:
            metrics, record = _traced(run, start + seconds, seed)
        else:
            metrics, record = _untraced(run, start + seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = environment(run.spec, seed, run.derived)
    after = cpu_ticks()
    if ticks and after and after[2] > ticks[2]:
        # machine-wide shares over the run: other tenants show as steal
        total = after[2] - ticks[2]
        record["environment"]["cpu_busy_share"] = (after[0] - ticks[0]) / total
        record["environment"]["cpu_steal_share"] = (after[1] - ticks[1]) / total
    return metrics, run.attempted, run.failures, record


def _median(values):
    return statistics.median(values) if values else None


def normalize(result: dict):
    """Set-up and protocol CPU time at the reference speed: each window's
    CPU time times REFERENCE_S over the mean of the probes on either side."""
    def scale(probes):
        return REFERENCE_S / statistics.fmean(probes)

    result["setup_norm_s"] = result["setup_cpu_s"] * scale(result["setup_probes"])
    result["protocol_norm_s"] = sum(cpu * scale(pair) for cpu, pair in
                                    zip(result["session_cpu_s"], result["session_probes"]))


def _untraced(run: Run, deadline: float):
    k_seeds = len(run.derived)
    # Quality-only memory-off jobs, where the timed job runs memory on alone.
    off = {}
    if not run.spec["timed_off"]:
        for seed in run.derived:
            facts, _ = run.job(seed, memory_on=False)
            if facts is not None:
                off[seed] = facts["variants"]["off"]
    reps, quality = [], {}
    i = 0
    while i < k_seeds + 1 or run.time_for_another(deadline):
        seed = run.derived[i % k_seeds]
        facts, result = run.job(seed)
        i += 1
        if facts is None:
            continue
        reps.append(result)
        quality.setdefault(seed, facts["variants"])
        if run.spec["timed_off"]:
            off.setdefault(seed, facts["variants"]["off"])
    on = [quality[s]["on"] for s in run.derived if s in quality]
    if not on:
        raise JobFailed("no job succeeded")
    gaps = [off[s]["summary"]["base_acc_drop"] - quality[s]["on"]["summary"]["base_acc_drop"]
            for s in run.derived if s in quality and s in off]
    metrics = {
        "setup_s": _median([r["setup_norm_s"] for r in reps]),
        "protocol_norm_s": _median([r["protocol_norm_s"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "avg_acc": statistics.fmean(v["summary"]["avg_acc"] for v in on),
        "final_acc": statistics.fmean(v["summary"]["final_acc"] for v in on),
        "final_base_acc": statistics.fmean(v["final_base_acc"] for v in on),
        "forgetting_gap": statistics.fmean(gaps) if gaps else None,
        "memory_bytes": on[0]["memory_bytes"],
    }
    metrics["pass_ratio"] = (run.attempted - len(run.failures)) / run.attempted
    record = {"jobs": [{k: r.get(k) for k in JOB_FIGURES} for r in reps]}
    return metrics, record


def _traced(run: Run, deadline: float, seed: int):
    """Alternate untraced and traced jobs on the first derived seed."""
    input_seed = run.derived[0]
    plain, traced = [], []
    i = 0
    while i < 2 or run.time_for_another(deadline):
        is_traced = i % 2 == 1
        run_id = f"{run.name}-seed{seed}-{os.getpid()}-{i}"
        facts, result = run.job(input_seed, trace_id=run_id if is_traced else None)
        i += 1
        if facts is None:
            continue
        if is_traced:
            layer = layer_metrics(run.spec, facts, result)
            if traced and layer["counts"] != traced[0][0]["counts"]:
                run.failures.append("traced counts differ between runs of one seed")
            if abs(layer["times"]["trace.unattributed_s"]) > 0.01:
                run.failures.append("module self times do not account for protocol_s")
            traced.append((layer, result, run_id))
        else:
            plain.append(result)
    if not traced or not plain:
        raise JobFailed("no traced or no untraced job succeeded")

    first, first_result, first_id = traced[0]
    metrics = dict(first["counts"])
    for key in first["times"]:
        metrics[key] = _median([t[0]["times"][key] for t in traced])
    metrics["cli.import_s"] = _median([r["import_s"] for r in plain + [t[1] for t in traced]])
    metrics["e2e.protocol_cpu_s"] = _median([r["protocol_cpu_s"] for r in plain])
    metrics["e2e.protocol_wall_s"] = _median([r["protocol_s"] for r in plain])
    metrics["trace.overhead_s"] = metrics["trace.protocol_s"] - metrics["e2e.protocol_wall_s"]

    trace_dir = os.path.join(OUT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    shutil.copyfile(first_result["spans_path"], os.path.join(trace_dir, f"{first_id}.spans.jsonl"))
    with open(os.path.join(trace_dir, f"{first_id}.selftime.json"), "w", encoding="utf-8") as fh:
        json.dump({"run": first_id, "protocol_s": first["times"]["trace.protocol_s"],
                   "self_s": first["table"]}, fh, indent=2)
    return metrics, {"traced_protocol_s": [t[1]["protocol_s"] for t in traced],
                     "untraced_protocol_s": [r["protocol_s"] for r in plain]}


def layer_metrics(spec: dict, facts: dict, result: dict) -> dict:
    """Per-layer figures of one traced job: times, exact counts, and the
    per-module self-time table over its protocol windows."""
    spans = read_spans(result["spans_path"])
    windows = result["windows"]
    inside = [s for s in spans
              if s["name"] in SETUP_SPANS
              or any(w0 <= s["start"] <= w1 for w0, w1 in windows)]
    # self times are clipped to the windows, so spans that only straddle
    # them (cli.main) still count for the part inside
    names = {s["id"]: s["name"] for s in spans}
    self_by: dict[str, float] = {}
    for sid, value in self_times(spans, windows).items():
        self_by[names[sid]] = self_by.get(names[sid], 0.0) + value
    table: dict[str, float] = {}
    for name, value in self_by.items():
        module = name.split(".", 1)[0]
        table[module] = table.get(module, 0.0) + value

    incl, calls, amount, peak = {}, {}, {}, {}
    for s in inside:
        name = s["name"]
        incl[name] = incl.get(name, 0.0) + s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        amount[name] = amount.get(name, 0) + s["amount"]
        peak[name] = max(peak.get(name, 0), s["amount"])

    # distinct test examples: the final cumulative test set of each window
    distinct = 0
    for w0, w1 in windows:
        sizes = [s["amount"] for s in inside if s["name"] == "eval_report.evaluate_session"
                 and w0 <= s["start"] <= w1]
        distinct += max(sizes, default=0)
    trained = amount.get("losses.base_loss_backward", 0) + amount.get(
        "classifier.incremental_terms", 0)
    on = facts["variants"]["on"]

    times = {f"{name}.s": incl.get(name, 0.0) for name in (
        "trainer.train_base", "trainer.train_incremental",
        "losses.build_distance_dictionary", "encoder.mask_features",
        "encoder.reconstruct", "encoder.normalized_features", "rng.generator",
        "classifier.ce_terms", "classifier.distance_term", "classifier.dropout_scale",
        "nn_core.sgd_momentum_step", "memory.build_weight_memory",
        "memory.update_representation_memory", "eval_report.evaluate_session",
        "data_io.generate_synthetic", "data_io.load_features", "data_io.save_checkpoint")}
    for name in ("losses.base_loss_backward", "classifier.incremental_terms", "cli.main"):
        times[f"{name}.self_s"] = self_by.get(name, 0.0)
    for module in MODULES:
        times[f"{module}.self_s"] = table.get(module, 0.0)
    times["trace.protocol_s"] = result["protocol_s"]
    times["trace.unattributed_s"] = result["protocol_s"] - sum(table.values())

    counts = {f"{name}.calls": calls.get(name, 0) for name in (
        "losses.base_loss_backward", "losses.build_distance_dictionary",
        "encoder.mask_features", "encoder.reconstruct", "rng.generator",
        "classifier.incremental_terms", "classifier.dropout_scale",
        "nn_core.sgd_momentum_step", "eval_report.evaluate_session",
        "data_io.save_checkpoint")}
    counts.update({
        "trainer.steps": calls.get("losses.base_loss_backward", 0)
        + calls.get("classifier.incremental_terms", 0),
        "encoder.normalized_features.examples": amount.get("encoder.normalized_features", 0),
        "rng.generator.per_example": calls.get("rng.generator", 0) / trained if trained else 0.0,
        "classifier.distance_tensor_mb": peak.get("classifier.distance_term", 0) / MB,
        "memory.rows": on["memory_rows"],
        "memory.bytes": on["memory_bytes_f64"],
        "eval_report.examples_scored": amount.get("eval_report.evaluate_session", 0),
        "eval_report.reencode_ratio": (amount.get("eval_report.evaluate_session", 0) / distinct
                                       if distinct else 0.0),
        "data_io.dataset_mb": workloads.dataset_bytes(spec["config"]) / MB,
        "data_io.checkpoint_mb": facts.get("checkpoint_mb", 0.0),
    })
    return {"times": times, "counts": counts, "table": table}


# --- entry point --------------------------------------------------------------

def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(metrics: dict, declared: list[dict], attempted: int, failures: list[str]) -> dict:
    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        raise RuntimeError(f"computed metrics {sorted(set(metrics) ^ set(names))} "
                           "disagree with BENCHMARK.json")
    missing = [n for n in names if metrics[n] is None]
    if missing:
        raise JobFailed(f"no successful job to compute {missing} from")
    return {"correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker and removes its work dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "gcmr", "__init__.py")):
        print(f"bench: no gcmr source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    contract = load_contract()
    try:
        metrics, attempted, failures, record = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except JobFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    declared = contract["per_layer" if args.trace else "end_to_end"]
    try:
        line = result_line(metrics, declared, attempted, failures)
    except JobFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                  failures=failures, result=line)
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                        f"-{stamp}-{os.getpid()}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    for name in JOB_FIGURES[:4]:
        values = [job[name] for job in record.get("jobs", ())]
        if len(values) >= 2:
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"{name} over {len(values)} jobs: q1 {q1:.6g} median {q2:.6g} "
                  f"q3 {q3:.6g} max {max(values):.6g}")
    for name, entry in line["metrics"].items():
        print(f"{name:<44} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
