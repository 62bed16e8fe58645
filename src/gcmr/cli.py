"""Command-line entry point for reproducible desk-scale experiments.

Subcommands:
  synth      generate a synthetic token dataset from a JSON spec
  run        execute the full class-incremental protocol on a dataset
  gradcheck  compare analytic gradients against central finite differences
  report     merge the reports of one or more runs into a comparison table

Exit codes: 0 success, 1 a gradcheck row over tolerance, 2
configuration/validation error, 3 data error, 4 numerical failure
(a parameter diverged in training, or a winning logit in evaluation is not
finite). Commands raise ConfigError, DataError or NumericalError; main
alone prints the failure to stderr and returns its code.

Run configuration files are strict JSON: a top-level "version" plus
optional "train", "loss", "protocol" and "synthetic" sections whose keys
must match the corresponding dataclass fields exactly; unknown keys are
rejected rather than ignored. Every value must have its field's type: an int
field takes a JSON integer (not 2.0, "2" or true), a bool field only true or
false, and a float field any number but not a bool; an integer in a float
field must lie within float range.
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


class DataError(Exception):
    """A dataset, report or protocol the command cannot use."""


def _build_section(cls, section: dict, where: str, **fixed):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - known)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    for key, value in section.items():
        # exact JSON types: a bool is no int and 2.0 is no int, but a float
        # field takes an int that a float can hold
        kind = hints[key]
        if kind is float and type(value) is int:
            try:
                float(value)
            except OverflowError:
                raise ConfigError(f"{where}.{key} must be a number within float "
                                  "range, got an integer too large for a float") from None
        elif type(value) is not kind:
            raise ConfigError(f"{where}.{key} must be {kind.__name__}, "
                              f"got {json.dumps(value)}")
    try:
        return cls(**section, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from None


def load_run_config(path) -> dict:
    """Parse and validate a run configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except ValueError as exc:  # not JSON, or an integer past the digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known_sections = {"version", "train", "loss", "protocol", "synthetic"}
    unknown = sorted(set(raw) - known_sections)
    if unknown:
        raise ConfigError(f"unknown config sections: {unknown}")
    if raw.get("version") != CONFIG_VERSION or type(raw["version"]) is not int:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")

    loss_cfg = _build_section(LossConfig, raw.get("loss", {}), "loss")
    train_section = raw.get("train", {})
    if isinstance(train_section, dict) and "loss" in train_section:
        raise ConfigError("loss settings belong in the top-level 'loss' section")
    train_cfg = _build_section(trainer.TrainConfig, train_section, "train", loss=loss_cfg)

    out = {"train": train_cfg, "protocol": None, "synthetic": None}
    if "protocol" in raw:
        out["protocol"] = _build_section(data_io.ProtocolSpec, raw["protocol"], "protocol")
    if "synthetic" in raw:
        out["synthetic"] = _build_section(data_io.SyntheticSpec, raw["synthetic"], "synthetic")
    return out


def _check_out_file(out: str) -> None:
    """ConfigError unless out names a file in an existing directory."""
    if os.path.isdir(out):
        raise ConfigError(f"--out {out} is a directory")
    parent = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(parent):
        raise ConfigError(f"--out {out} is not in an existing directory")


def _cmd_synth(args) -> int:
    spec = load_run_config(args.spec)["synthetic"]
    if spec is None:
        raise ConfigError("synth requires a 'synthetic' section")
    _check_out_file(args.out)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # reported as the error below
            dataset = data_io.generate_synthetic(spec)
    except (ValueError, MemoryError) as exc:  # non-finite values, or too large to hold
        raise ConfigError(f"synthetic dataset cannot be generated: {exc}") from None
    data_io.save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} examples "
          f"({spec.n_classes} classes, {spec.g}x{spec.d} tokens) to {args.out}")
    return EXIT_OK


def _session_row(reports, summary: dict) -> str:
    cells = " ".join(f"{r.acc_all:.4f}" for r in reports)
    return f"acc_all: {cells} | avg {summary['avg_acc']:.4f}"


def _check_fresh_out(out: str) -> None:
    """ConfigError when out is not a directory and cannot be made one (it
    or its nearest existing ancestor is something else), or already holds a
    run's report.json, run_log.jsonl or any file under checkpoints/: a
    second run into it would leave the first run's files beside its own."""
    existing = os.path.abspath(out)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"--out {out} cannot be a directory: {existing} exists "
                          "and is not a directory")
    held = [name for name in ("report.json", "run_log.jsonl")
            if os.path.lexists(os.path.join(out, name))]
    ckpt_dir = os.path.join(out, "checkpoints")
    if (os.path.lexists(ckpt_dir) and not os.path.isdir(ckpt_dir)
            or any(files for _, _, files in os.walk(ckpt_dir))):
        held.append("checkpoints/")
    if held:
        raise ConfigError(f"--out {out} already holds a run ({', '.join(held)}); "
                          "choose a new directory or empty this one")


def _cmd_run(args) -> int:
    config = load_run_config(args.config)
    cfg: trainer.TrainConfig = config["train"]
    protocol = config["protocol"]
    if protocol is None:
        raise ConfigError("run requires a 'protocol' section")
    if args.beta is not None:
        try:
            loss = dataclasses.replace(cfg.loss, beta=args.beta)
        except ValueError as exc:
            raise ConfigError(f"--beta {args.beta}: {exc}") from None
        cfg = dataclasses.replace(cfg, loss=loss)
        print(f"override: beta={args.beta}")
    if args.no_memory_reg:
        cfg = dataclasses.replace(cfg, memory_regularization=False)
        print("override: memory_regularization=off")
    if args.no_base_finetune:
        cfg = dataclasses.replace(cfg, base_epochs=0)
        print("override: base_epochs=0")
    _check_fresh_out(args.out)

    try:
        source = data_io.load_features(args.data)
    except (data_io.FormatError, OSError, ValueError) as exc:
        raise DataError(str(exc)) from None
    with source:  # a binary dataset's handle stays open until the run ends
        n_tokens, dim = source.row_shape
        try:
            init_encoder(dim, dim)  # the base session's encoder: tokens need >= 2 features
            split = data_io.fscil_split(protocol, source.labels)
        except ValueError as exc:
            raise DataError(str(exc)) from None
        try:  # the base session's head, from its own generator
            init_classifier(dim, cfg.hidden_dim, len(split[0].class_ids), 0, cfg.dropout_rate)
        except (ValueError, MemoryError) as exc:
            raise ConfigError(f"train.hidden_dim {cfg.hidden_dim}: the base session's head "
                              f"cannot be built: {exc}") from None
        if cfg.base_epochs > 0:
            try:
                mask_count(n_tokens, cfg.loss.mask_ratio)
            except ValueError as exc:
                raise ConfigError(f"base finetuning masks and reconstructs token groups "
                                  f"({n_tokens} per example in this dataset, 1 in a flat "
                                  f"CSV; loss.mask_ratio {cfg.loss.mask_ratio}): {exc}; "
                                  "lower loss.mask_ratio or rerun with --no-base-finetune"
                                  ) from None

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

                reports, _ = trainer.run_protocol(source.sessions(split), cfg, log_sink,
                                                  on_session=save)
        except (data_io.FormatError, ValueError) as exc:
            # a session's rows changed on disk since validation, or a dataset
            # loadable but incompatible with the configured protocol
            raise DataError(str(exc)) from None

    summary = eval_report.aggregate(reports)
    eval_report.write_report(reports, summary, args.out)
    print(_session_row(reports, summary))
    return EXIT_OK


# --- gradcheck -------------------------------------------------------------

# The base objective is exactly quadratic in each entry of these arrays (a
# squared affine reconstruction error that the head does not read), so a
# central difference has no truncation error there and a wide step only cuts
# its rounding error.
QUADRATIC_ARRAYS = ("dec_w", "dec_b", "mask_token")


def _finite_difference(value_fn, arrays: dict[str, np.ndarray]):
    """Central finite differences of value_fn with respect to every array
    entry: step 1e-2 for QUADRATIC_ARRAYS, 3e-5 for every other array (at
    1e-5 rounding of the loss already shows in the smallest entries)."""
    grads = {}
    for name, arr in arrays.items():
        h = 1e-2 if name in QUADRATIC_ARRAYS else 3e-5
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


def run_gradcheck(seed: int, dim: int, hidden: int, n_classes: int):
    """Compare analytic against finite-difference gradients of both
    objectives on one random instance. Returns rows of
    (objective, parameter, max relative error)."""
    gen = rng.generator(seed, 9999)
    # incremental_terms takes no more memory rows than classifier columns
    n_batch, n_memory, n_tokens = 3, min(3, n_classes), 4
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
    base_arrays = losses.base_arrays(enc.w, enc.b, dec.w, dec.b, dec.mask_token,
                                     params.arrays())

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
    except ValueError:
        raise ConfigError("--dims expects D,H,C positive integers with D >= 2") from None
    dim, hidden, n_classes = parts
    if dim * hidden * n_classes > 10_000:
        raise ConfigError("--dims product must stay <= 10000")
    rows = run_gradcheck(args.seed, dim, hidden, n_classes)
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
            raise DataError(f"cannot read {path}: {exc}") from None
    counts = {len(r["sessions"]) for r in runs}
    if len(counts) != 1:
        raise ConfigError(f"runs have mismatched session counts {sorted(counts)}")
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
    p_grad.add_argument("--dims", default="8,4,5",
                        help="D,H,C: D >= 2, H and C >= 1, D*H*C <= 10000")
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_rep = sub.add_parser("report", help="merge run reports into one table")
    p_rep.add_argument("--runs", nargs="+", required=True)
    p_rep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one command: the one place that prints a failure and picks its code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> None:
    raise SystemExit(main())
