"""Benchmark workloads: the shape of each run and the inputs it derives from a seed.

Each workload is one closed-loop batch job driven from one process. A job
configuration uses the layout of a ``gcmr`` run-config file (``train``,
``loss``, ``protocol`` and ``synthetic`` sections), so the in-process
workloads build the library's dataclasses from it and ``cli-stream`` writes
it to disk for ``gcmr run``. Seeds are filled in per run from the workload
seed; the program receives nothing else.
"""

from __future__ import annotations

import copy
import hashlib
import math

# Shared by every workload; the learning rates, batch size and loss weights
# are those of the acceptance-7 forgetting study.
_TRAIN = {"base_lr": 0.05, "incr_lr": 0.02, "batch_size": 32}
_LOSS = {"c": 0.3, "beta": 0.7}


def _config(d, g, sigma, n_classes, examples, base, n_way, k_shot, test, hidden,
            base_epochs, incr_epochs):
    return {
        "version": 1,
        "train": dict(_TRAIN, base_epochs=base_epochs, incr_epochs=incr_epochs,
                      hidden_dim=hidden),
        "loss": dict(_LOSS),
        "protocol": {"total_classes": n_classes, "base_classes": base,
                     "n_way": n_way, "k_shot": k_shot, "test_per_class": test},
        "synthetic": {"d": d, "g": g, "n_classes": n_classes,
                      "class_mean_norm": math.sqrt(d),
                      "within_class_sigma": sigma,
                      "examples_per_class": examples},
    }


# kind: "inprocess" calls trainer.run_protocol in a worker process;
#       "cli" runs `gcmr run` on a dataset written beforehand by `gcmr synth`.
# timed_off: the memory-off run is part of every timed job (desk), rather
#       than a separate untimed job that only feeds forgetting_gap.
# quality_seeds: how many derived seeds the quality metrics average over.
#       Base accuracy after the last session spreads by about 5 points from
#       seed to seed on desk and cli-stream, so they average several streams
#       (desk ten, as acceptance criterion 7 does).
# env: thread settings of the job. BLAS runs one thread everywhere: idle
#       OpenBLAS threads spin, which doubles the CPU time the benchmark
#       reports without making these small products faster, and a second
#       busy thread on a two-CPU host makes a job wait on other tenants.
# desk runs by name but is not one of BENCHMARK.json's workloads: timed by
# wall clock on a shared host, its pure-Python jobs swung by up to 2x between
# CPU speed regimes that last longer than a run, more than any end-to-end
# bound allows. It has not been measured with the scaled CPU times since.
WORKLOADS = {
    "desk": {
        "kind": "inprocess",
        "config": _config(d=32, g=8, sigma=3.5, n_classes=20, examples=40,
                          base=12, n_way=2, k_shot=5, test=15, hidden=16,
                          base_epochs=15, incr_epochs=40),
        "timed_off": True,
        "quality_seeds": 10,
        "env": {"GCMR_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
    },
    "wide-memory": {
        "kind": "inprocess",
        "config": _config(d=64, g=8, sigma=1.0, n_classes=1000, examples=17,
                          base=960, n_way=10, k_shot=5, test=10, hidden=256,
                          base_epochs=1, incr_epochs=10),
        "timed_off": False,
        "quality_seeds": 1,
        "env": {"GCMR_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
    },
    "cli-stream": {
        "kind": "cli",
        "config": _config(d=64, g=16, sigma=3.0, n_classes=100, examples=60,
                          base=20, n_way=2, k_shot=5, test=40, hidden=64,
                          base_epochs=3, incr_epochs=5),
        "timed_off": False,
        "quality_seeds": 3,
        # one evaluation thread: with two, the pool's threads contend for the
        # GIL, and the job's CPU time fell by a tenth when another process
        # kept the second CPU busy
        "env": {"GCMR_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
    },
}

# Tiny shapes with the same structure, for the benchmark's own smoke test.
_SMOKE_CONFIGS = {
    "desk": _config(d=8, g=4, sigma=2.0, n_classes=6, examples=12, base=4,
                    n_way=1, k_shot=3, test=4, hidden=8, base_epochs=2,
                    incr_epochs=2),
    "wide-memory": _config(d=8, g=4, sigma=1.0, n_classes=8, examples=10,
                           base=6, n_way=1, k_shot=3, test=4, hidden=16,
                           base_epochs=1, incr_epochs=2),
    "cli-stream": _config(d=8, g=4, sigma=2.0, n_classes=6, examples=12,
                          base=4, n_way=1, k_shot=3, test=4, hidden=8,
                          base_epochs=1, incr_epochs=2),
}

# BLAS thread settings a job never inherits from the caller's environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def workload(name: str, smoke: bool = False) -> dict:
    """A copy of the named workload; smoke shrinks every shape."""
    spec = copy.deepcopy(WORKLOADS[name])
    if smoke:
        spec["config"] = copy.deepcopy(_SMOKE_CONFIGS[name])
        spec["quality_seeds"] = 1
    return spec


def derived_seed(seed: int, index: int) -> int:
    """The index-th input seed of a run with workload seed `seed`."""
    digest = hashlib.sha256(f"gcmr-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def seeded_config(spec: dict, seed: int) -> dict:
    """The run configuration of one job: every seed field set to `seed`."""
    config = copy.deepcopy(spec["config"])
    for section in ("train", "protocol", "synthetic"):
        config[section]["seed"] = seed
    return config


def dataset_bytes(config: dict) -> int:
    """Size of the raw float64 token dataset the configuration generates."""
    syn = config["synthetic"]
    return syn["n_classes"] * syn["examples_per_class"] * syn["g"] * syn["d"] * 8
