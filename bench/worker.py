"""One benchmark job in a fresh process, so its peak RSS is its own.

Usage: python3 bench/worker.py JOB.json

JOB.json names the source tree, the workload kind, the run configuration
and where to write the result. An "inprocess" job generates its inputs and
calls trainer.run_protocol once per variant (memory regularization on, then
off when asked); a "cli" job calls gcmr.cli.main with the given arguments,
exactly as the `gcmr` console script does. With "trace" set, the module
wrappers of tracer.py are installed before any gcmr code runs.

Both kinds wrap trainer.train_base with one marker: it notes when the first
session starts (the end of set-up) and the encoder bytes it returns, for
the frozen-encoder check. It adds one call per protocol run.

Set-up and protocol are timed twice: wall time (perf_counter) and the
process's CPU time over all its threads (process_time). The kernel leaves
time the virtual CPU was stolen by the host out of the latter. A second
wrapper, on trainer.train_incremental, marks where each incremental session
starts, which splits the protocol into one figure per session (its
training plus the evaluation after it).

In untraced jobs a probe runs at every such mark, and before set-up and
after the protocol: a fixed computation outside gcmr (reference_cpu_s),
timed in CPU seconds. The host's CPUs change speed by up to half, for
fractions of a second to minutes at a time, and the probes on either side
of a set-up or session window tell how fast the CPU was around it. The
probes' own time is taken out of every figure above; traced jobs run no
probes, so their spans cover the protocol window.
"""

import hashlib
import json
import sys
import time


def reference_cpu_s(steps: int = 600) -> float:
    """CPU seconds of a fixed computation: small matrix products and
    Python-level loops, the mix a protocol step runs."""
    import numpy as np

    w = np.linspace(-0.05, 0.05, 64 * 64).reshape(64, 64)
    bias = np.linspace(0.2, 0.8, 64)  # keeps values away from zero (no subnormals)
    x = np.linspace(-1.0, 1.0, 32 * 64).reshape(32, 64)
    totals: dict = {}
    start = time.process_time()
    for i in range(steps):
        x = np.tanh(x @ w + bias)
        for j in range(8):
            totals[(i + j) % 17] = totals.get((i + j) % 17, 0.0) + float(x[j, j])
    return time.process_time() - start


class Clock:
    """This process's CPU and wall clocks with the probes' time taken out,
    and the CPU time of each probe. Without probing it only reads clocks."""

    def __init__(self, probing: bool):
        self.probing = probing
        self.probes: list = []
        self.cpu_out = 0.0
        self.wall_out = 0.0

    def probe(self):
        if self.probing:
            wall, cpu = time.perf_counter(), time.process_time()
            self.probes.append(reference_cpu_s())
            self.cpu_out += time.process_time() - cpu
            self.wall_out += time.perf_counter() - wall

    def cpu(self) -> float:
        return time.process_time() - self.cpu_out

    def wall(self) -> float:
        return time.perf_counter() - self.wall_out


def _marker(train_base, result: dict, clock: Clock, boundary=None):
    def marked(*args, **kwargs):
        if "first_train" not in result:
            if boundary is not None:
                boundary()
            result["first_train_mono"] = time.monotonic() - clock.wall_out
            result["first_train"] = clock.wall()
            result["first_train_cpu"] = clock.cpu()
        state = train_base(*args, **kwargs)
        result.setdefault("encoder_base",
                          hashlib.sha256(state.encoder.state_bytes()).hexdigest())
        return state
    return marked


def _session_marks(train_incremental, boundary):
    def marked(*args, **kwargs):
        boundary()
        return train_incremental(*args, **kwargs)
    return marked


def _segments(marks: list) -> list:
    return [b - a for a, b in zip(marks, marks[1:])]


def _run_inprocess(job, modules, result, clock, marks):
    data_io, trainer, losses = modules["data_io"], modules["trainer"], modules["losses"]
    eval_report, memory = modules["eval_report"], modules["memory"]
    config = job["config"]
    synthetic = data_io.SyntheticSpec(**config["synthetic"])
    protocol = data_io.ProtocolSpec(**config["protocol"])

    clock.probe()
    start, cpu = clock.wall(), clock.cpu()
    dataset = data_io.generate_synthetic(synthetic)
    sessions = data_io.materialize_sessions(
        dataset, data_io.fscil_split(protocol, dataset.labels))
    result["setup_s"] = clock.wall() - start
    result["setup_cpu_s"] = clock.cpu() - cpu
    clock.probe()
    result["setup_probes"] = list(clock.probes)

    result["protocol_s"] = 0.0
    result["protocol_cpu_s"] = 0.0
    result["session_cpu_s"] = []
    result["session_probes"] = []
    result["windows"] = []
    result["variants"] = {}
    digest = hashlib.sha256()
    for memory_regularization in job["variants"]:
        cfg = trainer.TrainConfig(**config["train"], loss=losses.LossConfig(**config["loss"]),
                                  memory_regularization=memory_regularization)
        first = len(clock.probes)
        clock.probe()
        marks[:] = [clock.cpu()]
        start = clock.wall()
        reports, state = trainer.run_protocol(sessions, cfg)
        clock.probe()
        end = clock.wall()
        marks.append(clock.cpu())
        result["session_cpu_s"] += _segments(marks)
        result["session_probes"] += list(zip(clock.probes[first:], clock.probes[first + 1:]))
        result["protocol_cpu_s"] += marks[-1] - marks[0]
        result["protocol_s"] += end - start
        result["windows"].append([start, end])
        payload = [r.to_json_dict() for r in reports]
        digest.update(json.dumps(payload, sort_keys=True).encode())
        digest.update(state.classifier.state_bytes())
        digest.update(state.mem.rows.tobytes())
        key = "on" if memory_regularization else "off"
        result["variants"][key] = {
            "summary": eval_report.aggregate(reports),
            "final_base_acc": reports[-1].acc_base,
            "memory_rows": state.mem.n_classes,
            "memory_bytes": reports[-1].memory_budget["total"],
            "memory_bytes_f64": memory.memory_budget_bytes(state.mem, state.wmem, 8)["total"],
            "encoder_final": hashlib.sha256(state.encoder.state_bytes()).hexdigest(),
        }
    result["digest"] = digest.hexdigest()


def main(job_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    result: dict = {}
    sys.path.insert(0, job["src"])
    start = time.perf_counter()
    import gcmr.cli  # the whole package, as the console script loads it
    result["import_s"] = time.perf_counter() - start

    from gcmr import (classifier, cli, data_io, encoder, eval_report, losses,
                      memory, rng, trainer)
    modules = {"classifier": classifier, "cli": cli, "data_io": data_io,
               "encoder": encoder, "eval_report": eval_report, "losses": losses,
               "memory": memory, "rng": rng, "trainer": trainer}
    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer(job["run_id"])
        tracer.install(modules)
    clock = Clock(probing=tracer is None)
    marks: list = []

    def boundary():
        clock.probe()
        marks.append(clock.cpu())

    cli_job = job["kind"] == "cli"
    trainer.train_base = _marker(trainer.train_base, result, clock,
                                 boundary if cli_job else None)
    trainer.train_incremental = _session_marks(trainer.train_incremental, boundary)

    code = 0
    if cli_job:
        clock.probe()  # set-up runs from process start; this probe falls inside it
        code = cli.main(job["argv"])
        boundary()
        end = clock.wall()
        if "first_train" in result:
            # the process's CPU clock runs from its start: interpreter
            # start-up, imports, config parse and dataset load are set-up
            result["setup_cpu_s"] = result["first_train_cpu"]
            result["setup_probes"] = clock.probes[:2]
            result["protocol_cpu_s"] = marks[-1] - marks[0]
            result["session_cpu_s"] = _segments(marks)
            result["session_probes"] = list(zip(clock.probes[1:], clock.probes[2:]))
            result["protocol_s"] = end - result["first_train"]
            result["windows"] = [[result["first_train"], end]]
    else:
        _run_inprocess(job, modules, result, clock, marks)
    if tracer is not None:
        tracer.write(job["spans_path"])
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
