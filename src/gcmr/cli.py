"""Command-line entry point for reproducible desk-scale experiments.

Subcommands:
  synth      generate a synthetic token dataset from a JSON spec
  run        execute the full class-incremental protocol on a dataset
  gradcheck  compare analytic gradients against central finite differences
  report     merge the reports of one or more runs into a comparison table

Exit codes: 0 success, 2 configuration/validation error, 3 data error,
4 numerical failure (non-finite loss or gradient).

Run configuration files are strict JSON: a top-level "version" plus
optional "train", "loss", "protocol" and "synthetic" sections whose keys
must match the corresponding dataclass fields exactly; unknown keys are
rejected rather than ignored. Every value must have its field's type: an int
field takes a JSON integer (not 2.0, "2" or true), a bool field only true or
false, a float field any number but not a bool, and an optional field null.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from . import data_io, eval_report, losses, rng, trainer
from .classifier import incremental_terms, init_classifier
from .encoder import init_decoder, init_encoder, mask_count
from .losses import DistanceDictionary, LossConfig, base_loss, base_loss_backward
from .nn_core import NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

CONFIG_VERSION = 1
GRADCHECK_TOLERANCE = 1e-4


class ConfigError(Exception):
    pass


def _build_section(cls, section: dict, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - known)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    for key, value in section.items():
        # exact JSON types: a bool is no int and 2.0 is no int, but a float
        # field takes an int, and `X | None` takes null
        kinds = typing.get_args(hints[key]) or (hints[key],)
        if not any(type(value) is kind or (kind is float and type(value) is int)
                   for kind in kinds):
            names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
            raise ConfigError(f"{where}.{key} must be {names}, got {json.dumps(value)}")
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from None


def load_run_config(path) -> dict:
    """Parse and validate a run configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known_sections = {"version", "train", "loss", "protocol", "synthetic"}
    unknown = sorted(set(raw) - known_sections)
    if unknown:
        raise ConfigError(f"unknown config sections: {unknown}")
    if raw.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")

    loss_cfg = _build_section(LossConfig, raw.get("loss", {}), "loss")
    train_section = dict(raw.get("train", {}))
    if "loss" in train_section:
        raise ConfigError("loss settings belong in the top-level 'loss' section")
    train_cfg = _build_section(trainer.TrainConfig, train_section, "train")
    train_cfg.loss = loss_cfg

    out = {"train": train_cfg, "loss": loss_cfg, "protocol": None, "synthetic": None}
    if "protocol" in raw:
        out["protocol"] = _build_section(data_io.ProtocolSpec, raw["protocol"], "protocol")
    if "synthetic" in raw:
        out["synthetic"] = _build_section(data_io.SyntheticSpec, raw["synthetic"], "synthetic")
    return out


def _cmd_synth(args) -> int:
    try:
        config = load_run_config(args.spec)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    spec = config["synthetic"]
    if spec is None:
        print("config error: synth requires a 'synthetic' section", file=sys.stderr)
        return EXIT_CONFIG
    dataset = data_io.generate_synthetic(spec)
    data_io.save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} examples "
          f"({spec.n_classes} classes, {spec.g}x{spec.d} tokens) to {args.out}")
    return EXIT_OK


def _session_row(reports) -> str:
    cells = " ".join(f"{r.acc_all:.4f}" for r in reports)
    avg = float(np.mean([r.acc_all for r in reports]))
    return f"acc_all: {cells} | avg {avg:.4f}"


def _cmd_run(args) -> int:
    try:
        config = load_run_config(args.config)
        cfg: trainer.TrainConfig = config["train"]
        protocol = config["protocol"]
        if protocol is None:
            raise ConfigError("run requires a 'protocol' section")
        if args.beta is not None:
            if not 0.0 <= args.beta <= 1.0:
                raise ConfigError("beta override must lie in [0, 1]")
            cfg.loss.beta = args.beta
            print(f"override: beta={args.beta}")
        if args.no_memory_reg:
            cfg.memory_regularization = False
            print("override: memory_regularization=off")
        if args.no_base_finetune:
            cfg.finetune_base = False
            print("override: finetune_base=off")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        dataset = data_io.load_features(args.data)
        split = data_io.fscil_split(protocol, dataset.labels)
        sessions = data_io.materialize_sessions(dataset, split)
    except (data_io.FormatError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if cfg.finetune_base and cfg.base_epochs > 0:
        n_tokens = dataset.features.shape[1]
        try:
            mask_count(n_tokens, cfg.loss.mask_ratio)
        except ValueError as exc:
            print(f"config error: base finetuning masks and reconstructs token groups "
                  f"({n_tokens} per example in this dataset, 1 in a flat CSV; "
                  f"loss.mask_ratio {cfg.loss.mask_ratio}): {exc}; lower "
                  "loss.mask_ratio or rerun with --no-base-finetune", file=sys.stderr)
            return EXIT_CONFIG

    os.makedirs(args.out, exist_ok=True)
    ckpt_dir = os.path.join(args.out, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    log_path = os.path.join(args.out, "run_log.jsonl")

    def save(state, report) -> None:
        data_io.save_checkpoint(
            state, os.path.join(ckpt_dir, f"session_{state.session:02d}.gcmr"))

    try:
        with open(log_path, "w", encoding="utf-8") as log_file:
            def log_sink(record: dict) -> None:
                log_file.write(json.dumps(record) + "\n")

            reports, _ = trainer.run_protocol(sessions, cfg, log_sink, on_session=save)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, data_io.FormatError) as exc:
        # dataset loadable but incompatible with the configured protocol
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA

    summary = eval_report.aggregate(reports)
    eval_report.write_report(reports, summary, os.path.join(args.out, "report.json"),
                             "json", label=os.path.basename(os.path.normpath(args.out)))
    eval_report.write_report(reports, summary, os.path.join(args.out, "report.csv"),
                             "csv", label=os.path.basename(os.path.normpath(args.out)))
    print(_session_row(reports))
    return EXIT_OK


# --- gradcheck -------------------------------------------------------------

def _finite_difference(value_fn, arrays: dict[str, np.ndarray], h: float = 1e-5):
    """Central finite differences of value_fn with respect to every array entry."""
    grads = {}
    for name, arr in arrays.items():
        grad = np.zeros_like(arr)
        flat = arr.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = value_fn()
            flat[i] = original - h
            down = value_fn()
            flat[i] = original
            grad.ravel()[i] = (up - down) / (2.0 * h)
        grads[name] = grad
    return grads


def _max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float(np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)))


def run_gradcheck(seed: int, dim: int, hidden: int, n_classes: int,
                  corrupt: bool = False):
    """Compare analytic against finite-difference gradients of both
    objectives on one random instance. Returns rows of
    (objective, parameter, max relative error)."""
    gen = rng.generator(seed, 9999)
    n_batch, n_memory, n_tokens = 3, 3, 4
    cfg = LossConfig(c=0.4, beta=0.7, mask_ratio=0.5)

    rows = []

    # incremental objective
    params = init_classifier(dim, hidden, n_classes, seed, dropout_rate=0.1)
    features = gen.standard_normal((n_batch, dim))
    labels = gen.integers(0, n_classes, size=n_batch)
    memory_rows = gen.standard_normal((n_memory, dim))
    dict_rows = gen.standard_normal((n_classes, hidden))
    dictionary = DistanceDictionary(dict_rows)

    _, _, grads = incremental_terms(features, labels, memory_rows, dictionary,
                                    params, cfg, seed)
    if corrupt:
        grads["w1"][0, 0] += 1e-2
    arrays = params.arrays()

    def incr_value():
        total, _ = losses.incremental_loss(features, labels, memory_rows, dictionary,
                                           params, cfg, seed)
        return total

    numeric = _finite_difference(incr_value, arrays)
    for name in arrays:
        rows.append(("incremental", name, _max_rel_err(grads[name], numeric[name])))

    # base objective
    enc = init_encoder(dim, dim)
    enc.w = enc.w + 0.05 * gen.standard_normal(enc.w.shape)
    dec = init_decoder(dim)
    dec.w = dec.w + 0.05 * gen.standard_normal(dec.w.shape)
    dec.mask_token = 0.1 * gen.standard_normal(dim)
    raw = gen.standard_normal((n_batch, n_tokens, dim))
    base_labels = gen.integers(0, n_classes, size=n_batch)
    _, _, base_grads = base_loss_backward(raw, base_labels, enc, dec, params,
                                          cfg, 1, seed)
    base_arrays = {"enc_w": enc.w, "enc_b": enc.b, "dec_w": dec.w,
                   "dec_b": dec.b, "mask_token": dec.mask_token,
                   **{f"head_{name}": arr for name, arr in params.arrays().items()}}

    def base_value():
        total, _ = base_loss(raw, base_labels, enc, dec, params, cfg, 1, seed)
        return total

    numeric = _finite_difference(base_value, base_arrays)
    for name in base_arrays:
        rows.append(("base", name, _max_rel_err(base_grads[name], numeric[name])))
    return rows


def _cmd_gradcheck(args) -> int:
    try:
        parts = [int(v) for v in args.dims.split(",")]
        if len(parts) != 3 or min(parts) < 1 or parts[0] < 2:
            raise ValueError
        dim, hidden, n_classes = parts
    except ValueError:
        print("config error: --dims expects D,H,C positive integers with D >= 2",
              file=sys.stderr)
        return EXIT_CONFIG
    if dim * hidden * n_classes > 10_000:
        print("config error: --dims product must stay <= 10000", file=sys.stderr)
        return EXIT_CONFIG
    rows = run_gradcheck(args.seed, dim, hidden, n_classes, corrupt=args.corrupt)
    print(f"{'objective':<12} {'parameter':<12} {'max rel err':>12}  status")
    ok = True
    for objective, name, err in rows:
        passed = err < GRADCHECK_TOLERANCE
        ok = ok and passed
        print(f"{objective:<12} {name:<12} {err:>12.3e}  {'pass' if passed else 'FAIL'}")
    return EXIT_OK if ok else 1


def _cmd_report(args) -> int:
    runs = []
    for run_dir in args.runs:
        path = os.path.join(run_dir, "report.json")
        try:
            runs.append(eval_report.read_report(path))
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not a report
            print(f"data error: cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_DATA
    counts = {len(r["sessions"]) for r in runs}
    if len(counts) != 1:
        print(f"config error: runs have mismatched session counts {sorted(counts)}",
              file=sys.stderr)
        return EXIT_CONFIG
    if args.format == "json":
        print(json.dumps(runs, indent=2))
        return EXIT_OK
    csv.writer(sys.stdout, lineterminator="\n").writerows(eval_report.report_table(runs))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gcmr",
                                     description="co-memory regularized "
                                                 "class-incremental experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic token dataset")
    p_synth.add_argument("--spec", required=True, help="JSON config with a 'synthetic' section")
    p_synth.add_argument("--out", required=True, help="output dataset path")
    p_synth.set_defaults(func=_cmd_synth)

    p_run = sub.add_parser("run", help="run the full protocol")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--data", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--no-memory-reg", action="store_true")
    p_run.add_argument("--no-base-finetune", action="store_true")
    p_run.add_argument("--beta", type=float, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--dims", default="8,4,5", help="D,H,C")
    p_grad.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_rep = sub.add_parser("report", help="merge run reports into one table")
    p_rep.add_argument("--runs", nargs="+", required=True)
    p_rep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def console_main() -> None:
    raise SystemExit(main())
