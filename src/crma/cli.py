"""Command-line experiment runner.

Subcommands:
  run <config>       seeded runs of the configured methods, aggregated table
  ablate <config>    the full 2^3 component-ablation grid
  baseline <config>  adaptive weighting vs. the uniform-ensemble baseline
  curves <run-dir>   validate per-run metric CSVs and write a manifest

Configs are flat ``key = value`` text with ``#`` comments. Every key is one
row of ``CONFIG_KEYS`` (``SHIFT_KEYS`` for the per-domain shifts), which
drives parsing, unknown-key suggestions and ``effective.cfg``. Any key can
be overridden on the command line as ``--section.key=value``; ``--seed`` and
``--out`` set ``task.seed``/``train.seed`` and ``run.output_dir``. Seeds for
run i are derived as base seed + i for both the task and the trainer, so
methods see paired tasks. Each finished run prints a progress line to stderr.
Exit codes: 0 ok, 1 config or usage error, 2 diverged run (its partial
metrics and the finished runs' results and summary are written first).
Every file is written beside its final name and then moved over it, so a
killed or failed write leaves the previous file whole.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import json
import math
import os
import re
import sys
import time
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import ShiftSpec, TaskSpec, generate_task, target_test_counts
from .trainer import (
    AblationFlags,
    DivergedRunError,
    TrainConfig,
    save_checkpoint,
    train,
    write_history_csv,
)

METHODS = ("crma", "source_only", "uniform_ensemble")

# Table row order for the ablation grid: none, singles, pairs, all.
ABLATION_GRID = (
    (False, False, False),
    (True, False, False),
    (False, True, False),
    (False, False, True),
    (True, True, False),
    (True, False, True),
    (False, True, True),
    (True, True, True),
)


class ConfigError(ValueError):
    """A config file or override is malformed or names an unknown key."""


@dataclass
class ExperimentConfig:
    task: TaskSpec = field(default_factory=TaskSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    num_seeds: int = 5
    output_dir: str = "results"
    methods: tuple[str, ...] = ("crma", "source_only")


@dataclass
class Variant:
    """One table row: a method plus its ablation flags."""

    method: str
    flags: AblationFlags
    label: str

    def columns(self) -> str:
        """The ``method,intra_da,inter_da,ast`` prefix of a CSV row."""
        flags = self.flags
        return f"{self.method},{int(flags.intra_da)},{int(flags.inter_da)},{int(flags.ast)}"


# run.json's keys in RunRecord.json_text's value order, each with its value's test;
# json.loads gives exact types, and NaN and infinities fail the range test
_RUN_KEYS = {
    "method": lambda v: v in METHODS,
    "seed": lambda v: type(v) is int,
    "epochs": lambda v: type(v) is int,
    "final_acc": lambda v: type(v) in (int, float) and 0 <= v <= 1,
    **{f.name: lambda v: type(v) is bool for f in fields(AblationFlags)},
}


@dataclass
class RunRecord:
    """One finished run: its ``run.json`` and its ``results.csv`` and
    ``manifest.csv`` rows are all written from this."""

    variant: Variant
    seed: int
    epochs: int
    accuracy: float

    def json_text(self) -> str:
        values = (self.variant.method, self.seed, self.epochs, self.accuracy, *astuple(self.variant.flags))
        return json.dumps(dict(zip(_RUN_KEYS, values)), sort_keys=True, indent=1)

    def columns(self, epochs: bool = False) -> str:
        """A ``results.csv`` row; with ``epochs``, a ``manifest.csv`` row after its run_dir."""
        middle = f",{self.epochs}" if epochs else ""
        return f"{self.variant.columns()},{self.seed}{middle},{self.accuracy!r}"

    @classmethod
    def read(cls, path: Path) -> RunRecord:
        """The record in ``runs/<label>/run.json``, labelled by its directory. A
        ConfigError names the file when it is truncated or not UTF-8 JSON, or
        a key is missing or its value fails its test in ``_RUN_KEYS``."""
        try:
            meta = json.loads(path.read_text())
            invalid = [key for key, valid in _RUN_KEYS.items() if not valid(meta[key])]
            if invalid:
                raise ValueError(f"invalid {', '.join(invalid)}")
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed run record ({exc!r})") from exc
        method, seed, epochs, accuracy, *flags = (meta[key] for key in _RUN_KEYS)
        return cls(Variant(method, AblationFlags(*flags), path.parent.name), seed, epochs, accuracy)


# config keys ------------------------------------------------------------------


def _bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1"):
        return True
    if lowered in ("false", "0"):
        return False
    raise ValueError(f"expected true/false, got {value!r}")


def _optional_float(value: str) -> float | None:
    return None if value.lower() == "none" else float(value)


def _float_pair(value: str) -> tuple[float, ...]:
    parts = tuple(float(p) for p in value.split(","))
    if len(parts) != 2:
        raise ValueError("expected two comma-separated numbers")
    return parts


def _int_tuple(value: str) -> tuple[int, ...]:
    return tuple(int(p) for p in value.split(",") if p.strip())


def _count(value: str) -> int:
    n = int(value)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _methods(value: str) -> tuple[str, ...]:
    methods = tuple(p.strip() for p in value.split(",") if p.strip())
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
    if not methods:
        raise ValueError(f"name at least one of {METHODS}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"methods listed more than once: {repeated}")
    return methods


def _directory(value: str) -> str:
    if not value:
        raise ValueError("expected a directory path, got an empty one")
    return value


def _degrees(value: str) -> float:
    return math.radians(float(value))


# Every config key: (key, value parser, attribute path from ExperimentConfig).
CONFIG_KEYS = (
    ("task.generator", str, "task.generator"),
    ("task.num_classes", int, "task.num_classes"),
    ("task.samples_per_domain", int, "task.samples_per_domain"),
    ("task.seed", int, "task.seed"),
    ("task.generator_noise", _optional_float, "task.generator_noise"),
    ("train.alpha", float, "train.alpha"),
    ("train.lambda", float, "train.lam"),
    ("train.base_lr", float, "train.base_lr"),
    ("train.extractor_lr_multiplier", float, "train.extractor_lr_multiplier"),
    ("train.epochs", int, "train.epochs"),
    ("train.batch_per_domain", int, "train.batch_per_domain"),
    ("train.optimizer", str, "train.optimizer"),
    ("train.scheduler", str, "train.scheduler"),
    ("train.seed", int, "train.seed"),
    ("train.num_extractor_steps", int, "train.num_extractor_steps"),
    ("train.ast_start_epoch", int, "train.ast_start_epoch"),
    ("train.extractor_hidden", _int_tuple, "train.extractor_hidden"),
    ("train.head_hidden", _int_tuple, "train.head_hidden"),
    ("train.intra_da", _bool, "train.ablation.intra_da"),
    ("train.inter_da", _bool, "train.ablation.inter_da"),
    ("train.ast", _bool, "train.ablation.ast"),
    ("run.num_seeds", _count, "num_seeds"),
    ("run.output_dir", _directory, "output_dir"),
    ("run.methods", _methods, "methods"),
)
# The ShiftSpec keys under task.source_shifts.<i>. and task.target_shift.:
# (name, value parser, field). rotation_deg is read into rotation and never
# written back.
SHIFT_KEYS = (
    ("rotation", float, "rotation"),
    ("rotation_deg", _degrees, "rotation"),
    ("translation", _float_pair, "translation"),
    ("scale", float, "scale"),
    ("noise_std", float, "noise_std"),
)
_KEY_ROWS = {key: row for key, *row in CONFIG_KEYS}
_SHIFT_ROWS = {name: row for name, *row in SHIFT_KEYS}
_TARGET_SHIFT = "task.target_shift"
_SHIFT_KEY_RE = re.compile(r"^(task\.(?:source_shifts\.(?:0|[1-9]\d*)|target_shift))\.(\w+)$")


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; later keys win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _unknown_key(key: str, prefix: str | None) -> ConfigError:
    """Names the nearest key, taking shift keys from the typed key's own prefix."""
    prefixes = [prefix] if prefix else ["task.source_shifts.0", _TARGET_SHIFT]
    candidates = [*_KEY_ROWS, *(f"{p}.{name}" for p in prefixes for name in _SHIFT_ROWS)]
    close = difflib.get_close_matches(key, candidates, n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return ConfigError(f"unknown config key {key!r}{hint}")


def _parse(parse, key: str, value: str):
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _owner(cfg: ExperimentConfig, path: str) -> tuple[object, str]:
    """The object holding a CONFIG_KEYS attribute path, and the attribute's name."""
    *parents, name = path.split(".")
    for parent in parents:
        cfg = getattr(cfg, parent)
    return cfg, name


def build_experiment_config(kv: dict[str, str]) -> ExperimentConfig:
    """Defaults overlaid with the given keys; unknown keys are rejected."""
    cfg = ExperimentConfig()
    shifts: dict[str, dict] = {}  # shift prefix -> ShiftSpec field -> value
    set_by: dict[tuple[str, str], str] = {}  # (shift prefix, field) -> key
    for key, value in kv.items():
        if key in _KEY_ROWS:
            parse, path = _KEY_ROWS[key]
            setattr(*_owner(cfg, path), _parse(parse, key, value))
            continue
        m = _SHIFT_KEY_RE.match(key)
        prefix = m and m.group(1)
        if not m or m.group(2) not in _SHIFT_ROWS:
            raise _unknown_key(key, prefix)
        parse, name = _SHIFT_ROWS[m.group(2)]
        if (prefix, name) in set_by:
            raise ConfigError(f"set only one of {set_by[prefix, name]!r} and {key!r}")
        set_by[prefix, name] = key
        shifts.setdefault(prefix, {})[name] = _parse(parse, key, value)

    for prefix, fields in shifts.items():
        try:
            shifts[prefix] = ShiftSpec(**fields)
        except ValueError as exc:
            raise ConfigError(f"{prefix}: {exc}") from exc
    if _TARGET_SHIFT in shifts:
        cfg.task.target_shift = shifts.pop(_TARGET_SHIFT)
    indices = sorted(int(p.rsplit(".", 1)[1]) for p in shifts)
    if indices != list(range(len(indices))):
        raise ConfigError(
            f"task.source_shifts indices must be contiguous from 0, got {indices}"
        )
    if indices:
        cfg.task.source_shifts = [shifts[f"task.source_shifts.{i}"] for i in indices]
    try:
        cfg.task.validate()
        cfg.train.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the target's training split is the smallest domain
    smallest = cfg.task.samples_per_domain - sum(target_test_counts(cfg.task))
    if cfg.train.batch_per_domain > smallest:
        raise ConfigError(
            f"train.batch_per_domain={cfg.train.batch_per_domain} exceeds the target's "
            f"{smallest} training samples (task.samples_per_domain less the test split)"
        )
    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def effective_config_text(cfg: ExperimentConfig) -> str:
    """Every key written explicitly; reloading reproduces the config exactly.

    Rotations are written in radians (the canonical field), so the
    round-trip is bit-exact even when the input used rotation_deg.
    """
    lines = {key: _fmt(getattr(*_owner(cfg, path))) for key, _, path in CONFIG_KEYS}
    shifts = {f"task.source_shifts.{i}": s for i, s in enumerate(cfg.task.source_shifts)}
    shifts[_TARGET_SHIFT] = cfg.task.target_shift
    for prefix, shift in shifts.items():
        for _, _, name in SHIFT_KEYS:  # keyed by field, so an alias adds no line
            lines[f"{prefix}.{name}"] = _fmt(getattr(shift, name))
    body = "\n".join(f"{k} = {v}" for k, v in sorted(lines.items()))
    return f"# effective configuration (all keys explicit)\n{body}\n"


# experiment execution ----------------------------------------------------------


def _variant_for(method: str, cfg: ExperimentConfig) -> Variant:
    if method == "source_only":
        return Variant(method, AblationFlags(False, False, False), method)
    return Variant(method, replace(cfg.train.ablation), method)


def ablation_variants() -> list[Variant]:
    return [
        Variant("crma", AblationFlags(intra, inter, ast), f"crma_i{int(intra)}e{int(inter)}a{int(ast)}")
        for intra, inter, ast in ABLATION_GRID
    ]


@contextlib.contextmanager
def _replacing(path: Path):
    """Yields a temporary path beside ``path`` and moves it over ``path`` when
    the block succeeds; the temporary file is removed either way."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_text(path: Path, text: str) -> None:
    with _replacing(path) as tmp:
        tmp.write_text(text)


def _write_metrics(run_dir: Path, history: Sequence[dict], num_domains: int) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    with _replacing(run_dir / "metrics.csv") as tmp, open(tmp, "w") as f:
        write_history_csv(history, num_domains, f)


def run_variants(cfg: ExperimentConfig, variants: Sequence[Variant]) -> list[RunRecord]:
    """Train every (variant, seed) pair and write per-run artifacts.

    Prints one progress line per finished run to stderr. When a run
    diverges, its partial history still goes to its ``metrics.csv``,
    ``results.csv`` and ``summary.*`` are written for the runs that
    finished, and the ``DivergedRunError`` propagates. The diverged run's
    directory keeps no ``run.json`` or ``model.ckpt``, not even from an
    earlier sweep into the same directory.
    """
    out_root = Path(cfg.output_dir)
    runs_dir = out_root / "runs"
    try:
        runs_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"run.output_dir {cfg.output_dir!r}: {exc.strerror}") from exc
    _write_text(out_root / "effective.cfg", effective_config_text(cfg))

    tasks = [generate_task(replace(cfg.task, seed=cfg.task.seed + i)) for i in range(cfg.num_seeds)]
    records = []
    for variant in variants:
        for i, task in enumerate(tasks):
            train_cfg = replace(
                cfg.train,
                seed=cfg.train.seed + i,
                ablation=replace(variant.flags),
                uniform_pseudo_weights=variant.method == "uniform_ensemble",
            )
            started = time.perf_counter()
            run_dir = runs_dir / f"{variant.label}_seed{train_cfg.seed}"
            try:
                state, history = train(train_cfg, task)
            except DivergedRunError as err:
                # a finished run of an earlier sweep into this directory
                # must not leave its run.json beside the partial history
                for stale in ("run.json", "model.ckpt"):
                    (run_dir / stale).unlink(missing_ok=True)
                _write_metrics(run_dir, err.history, task.num_sources)
                write_results(cfg, records)
                raise
            accuracy = history[-1]["target_acc"]
            _write_metrics(run_dir, history, task.num_sources)
            with _replacing(run_dir / "model.ckpt") as tmp:
                save_checkpoint(state, tmp)
            record = RunRecord(variant, train_cfg.seed, train_cfg.epochs, accuracy)
            _write_text(run_dir / "run.json", record.json_text())
            records.append(record)
            print(
                f"{variant.label} seed {train_cfg.seed}: target_acc {accuracy:.4f} "
                f"in {time.perf_counter() - started:.2f} s",
                file=sys.stderr,
            )
    return records


def aggregate(records: Sequence[RunRecord]) -> list[tuple[Variant, int, float, float]]:
    """(variant, num_seeds, acc_mean, acc_std) per table row; the std is population (ddof=0)."""
    groups: dict[str, list[RunRecord]] = {}
    for r in records:
        groups.setdefault(r.variant.label, []).append(r)
    rows = []
    for group in groups.values():
        accs = np.array([r.accuracy for r in group])
        rows.append((group[0].variant, len(group), float(accs.mean()), float(accs.std())))
    return rows


def write_results(cfg: ExperimentConfig, records: Sequence[RunRecord]) -> list[tuple]:
    out_root = Path(cfg.output_dir)
    lines = ["method,intra_da,inter_da,ast,seed,target_acc", *(r.columns() for r in records)]
    _write_text(out_root / "results.csv", "".join(f"{line}\n" for line in lines))
    summary = aggregate(records)
    lines = ["method,intra_da,inter_da,ast,num_seeds,acc_mean,acc_std"]
    lines += [f"{v.columns()},{n},{mean!r},{std!r}" for v, n, mean, std in summary]
    _write_text(out_root / "summary.csv", "".join(f"{line}\n" for line in lines))
    _write_text(out_root / "summary.txt", render_table(summary))
    return summary


def render_table(summary: Sequence[tuple]) -> str:
    header = f"{'method':<18} {'intra':>5} {'inter':>5} {'ast':>3} {'accuracy':>18} {'seeds':>5}"
    lines = [header, "-" * len(header)]
    for variant, num_seeds, mean, std in summary:
        acc = f"{100 * mean:.2f} +/- {100 * std:.2f}"
        _, intra, inter, ast = variant.columns().split(",")
        lines.append(f"{variant.label:<18} {intra:>5} {inter:>5} {ast:>3} {acc:>18} {num_seeds:>5}")
    return "\n".join(lines) + "\n"


def emit_curves(output_dir) -> Path:
    """Validate every run's metrics CSV and write a manifest of all runs."""
    out_root = Path(output_dir)
    runs_dir = out_root / "runs"
    if not runs_dir.is_dir():
        raise ConfigError(f"no runs directory under {output_dir!r}")
    lines = ["run_dir,method,intra_da,inter_da,ast,seed,epochs,final_acc"]
    for run_dir in sorted(runs_dir.iterdir()):
        record_path, csv_path = run_dir / "run.json", run_dir / "metrics.csv"
        if not record_path.is_file() or not csv_path.is_file():
            continue
        record = RunRecord.read(record_path)
        try:
            n_rows = len(csv_path.read_text().strip().splitlines()[1:])
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{csv_path}: not UTF-8 text ({exc})") from exc
        if n_rows != record.epochs:
            raise ConfigError(f"{csv_path}: expected {record.epochs} epoch rows, found {n_rows}")
        lines.append(f"{run_dir.name},{record.columns(epochs=True)}")
    manifest = out_root / "manifest.csv"
    _write_text(manifest, "".join(f"{line}\n" for line in lines))
    return manifest


# entry point --------------------------------------------------------------------


def _parse_overrides(extra: Sequence[str]) -> dict[str, str]:
    kv = {}
    for arg in extra:
        if not arg.startswith("--") or "=" not in arg:
            raise ConfigError(f"expected --section.key=value override, got {arg!r}")
        key, value = arg[2:].split("=", 1)
        kv[key.strip()] = value.strip()
    return kv


def _load_experiment(args, extra: Sequence[str]) -> ExperimentConfig:
    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    kv = parse_config_text(text)
    kv.update(_parse_overrides(extra))
    if args.seed is not None:
        kv["task.seed"] = kv["train.seed"] = args.seed
    if args.out is not None:
        kv["run.output_dir"] = args.out
    return build_experiment_config(kv)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as a ConfigError (exit 1) instead of exiting 2,
    the code of a diverged run; subparsers inherit this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="crma", description="Multi-source adaptation experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "ablate", "baseline"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--seed", default=None, help="base seed for task and training")
        p.add_argument("--out", default=None, help="output directory")
    curves_p = sub.add_parser("curves")
    curves_p.add_argument("run_dir")

    try:
        args, extra = parser.parse_known_args(argv)
        if args.command == "curves":
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            manifest = emit_curves(args.run_dir)
            print(f"wrote {manifest}")
            return 0
        cfg = _load_experiment(args, extra)
        if args.command == "run":
            variants = [_variant_for(m, cfg) for m in cfg.methods]
        elif args.command == "ablate":
            variants = ablation_variants()
        else:  # baseline
            variants = [_variant_for("uniform_ensemble", cfg), _variant_for("crma", cfg)]
        records = run_variants(cfg, variants)
        summary = write_results(cfg, records)
        print(render_table(summary), end="")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DivergedRunError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
