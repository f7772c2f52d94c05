"""Command-line experiment runner.

Subcommands:
  run <config>       seeded runs of the configured methods, aggregated table
  ablate <config>    the full 2^3 component-ablation grid
  baseline <config>  adaptive weighting vs. the uniform-ensemble baseline
  curves <run-dir>   read back every finished run, record, curve and checkpoint, into a manifest

Configs are flat ``key = value`` text with ``#`` comments. Every key is one
row of ``CONFIG_KEYS`` (``SHIFT_KEYS`` for the per-domain shifts, whose
rotation is in degrees), which drives parsing, unknown-key suggestions and
``effective.cfg``. Any key can be overridden on the command line as
``--section.key=value``; ``--seed`` and ``--out`` set ``task.seed``/``train.seed``
and ``run.output_dir``. A sweep is ``plan``, ``execute`` per ``RunSpec`` (each
prints a progress line to stderr, a diverged run too), then ``write_results``;
run i's seeds are the base seeds + i, so methods pair tasks.
Exit codes: 0 ok, 1 config or usage error, 2 diverged run (its partial
metrics and the finished runs' results and summary are written first).
A run removes its ``run.json`` and ``model.ckpt`` before it trains, and a sweep
its ``results.csv`` and ``summary.*``, so no file reports an earlier sweep's
run; every file is written beside its final name and then moved over it.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import itertools
import json
import os
import re
import sys
import time
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import FEATURE_DIM, GeneratedTask, ShiftSpec, TaskSpec, generate_task, target_test_counts
from .nn import parameters_digest, validate_shape
from .trainer import (
    AblationFlags,
    DivergedRunError,
    FormatError,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history_csv,
)

# Each method's own (intra_da, inter_da, ast) components, and whether its pseudo-labels weight every source alike.
METHODS = {
    "crma": ((True, True, True), False),
    "source_only": ((False, False, False), False),
    "uniform_ensemble": ((True, True, True), True),
}
# Most seeds one sweep may plan; a sweep also draws every seed's task before its first run.
MAX_SEEDS = 10_000

# Table row order for the ablation grid's (intra, inter, ast) flags: none, singles, pairs, all.
ABLATION_GRID = tuple(
    tuple(c in on for c in range(3)) for size in range(4) for on in itertools.combinations(range(3), size)
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

    @property
    def label(self) -> str:
        """The method, plus ``_i<intra>e<inter>a<ast>`` unless the flags are the
        method's own components in ``METHODS``."""
        on = astuple(self.flags)
        return self.method if on == METHODS[self.method][0] else self.method + "_i{:d}e{:d}a{:d}".format(*on)

    def columns(self) -> str:
        """The ``method,intra_da,inter_da,ast`` prefix of a CSV row."""
        flags = self.flags
        return f"{self.method},{int(flags.intra_da)},{int(flags.inter_da)},{int(flags.ast)}"


# run.json's keys in RunRecord.json_text's value order, each with its value's test;
# json.loads gives exact types, and NaN and infinities fail the range test
_RUN_KEYS = {
    "method": lambda v: type(v) is str and v in METHODS,
    "seed": lambda v: type(v) is int and v >= 0,
    "epochs": lambda v: type(v) is int and v >= 1,
    "final_acc": lambda v: type(v) in (int, float) and 0 <= v <= 1,
    "digest": lambda v: type(v) is str and re.fullmatch("[0-9a-f]{64}", v) is not None,
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
    digest: str  # parameters_digest of the final model

    def json_text(self) -> str:
        variant = self.variant
        values = (variant.method, self.seed, self.epochs, self.accuracy, self.digest, *astuple(variant.flags))
        return json.dumps(dict(zip(_RUN_KEYS, values)), sort_keys=True, indent=1)

    def columns(self, epochs: bool = False) -> str:
        """A ``results.csv`` row; with ``epochs``, a ``manifest.csv`` row after its run_dir."""
        middle = f",{self.epochs}" if epochs else ""
        return f"{self.variant.columns()},{self.seed}{middle},{self.accuracy!r}"

    @classmethod
    def read(cls, path: Path) -> RunRecord:
        """The finished run whose record is ``path``, a ``run.json`` beside its
        ``metrics.csv``. A ConfigError names ``run.json`` when it is truncated or
        not UTF-8 JSON, a key is missing or its value fails its test in
        ``_RUN_KEYS``, or its variant's label and seed name another directory;
        then names ``metrics.csv`` when the curve cannot be read, has other than
        ``epochs`` rows, or its last ``target_acc`` is not ``final_acc``; and then
        names ``model.ckpt`` when it does not load or holds a model of another ``digest``."""
        try:
            meta = json.loads(path.read_text())
            invalid = [key for key, valid in _RUN_KEYS.items() if not valid(meta[key])]
            if invalid:
                raise ValueError(f"invalid {', '.join(invalid)}")
            method, seed, epochs, accuracy, digest, *flags = (meta[key] for key in _RUN_KEYS)
            variant = Variant(method, AblationFlags(*flags))
            name = run_dir_name(variant.label, seed)
            if path.parent.name != name:
                raise ValueError(f"its method, flags and seed name the run directory {name!r}")
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed run record ({exc!r})") from exc
        curve = path.with_name("metrics.csv")
        try:
            lines = curve.read_text().strip().splitlines()
            if len(lines[1:]) != epochs:
                raise ValueError(f"expected {epochs} epoch rows, found {len(lines[1:])}")
            last = float(lines[-1].split(",")[lines[0].split(",").index("target_acc")])
            if last != accuracy:
                raise ValueError(f"last target_acc {last!r} is not final_acc {accuracy!r}")
        except (OSError, ValueError, IndexError) as exc:
            raise ConfigError(f"{curve}: malformed curve ({exc})") from exc
        checkpoint = path.with_name("model.ckpt")
        try:
            model = load_checkpoint(checkpoint, TrainConfig()).model
        except (OSError, FormatError) as exc:
            raise ConfigError(f"{checkpoint}: unreadable checkpoint ({exc})") from exc
        if parameters_digest(model.parameters()) != digest:
            raise ConfigError(f"{checkpoint}: holds another model than run.json's digest {digest}")
        return cls(variant, seed, epochs, accuracy, digest)


def run_dir_name(label: str, seed: int) -> str:
    """The name of a run's directory under ``runs/``: its variant's label and trainer seed."""
    return f"{label}_seed{seed}"


# config keys ------------------------------------------------------------------


def _bool(value: str) -> bool:
    if value.lower() not in ("true", "1", "false", "0"):
        raise ValueError(f"expected true/false, got {value!r}")
    return value.lower() in ("true", "1")


def _optional_float(value: str) -> float | None:
    return None if value.lower() == "none" else float(value)


def _float_pair(value: str) -> tuple[float, ...]:
    parts = tuple(float(p) for p in value.split(","))
    if len(parts) != 2:
        raise ValueError("expected two comma-separated numbers")
    return parts


def _items(value: str) -> list[str]:
    """The comma-separated items of ``value``: none when it is empty, and an
    empty item between commas is an error."""
    items = [p.strip() for p in value.split(",")] if value.strip() else []
    if "" in items:
        raise ValueError(f"empty item in the list {value!r}")
    return items


def _int_tuple(value: str) -> tuple[int, ...]:
    return tuple(int(p) for p in _items(value))


def _count(value: str) -> int:
    n = int(value)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _methods(value: str) -> tuple[str, ...]:
    methods = tuple(_items(value))
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {tuple(METHODS)}")
    if not methods:
        raise ValueError(f"name at least one of {tuple(METHODS)}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"methods listed more than once: {repeated}")
    return methods


def _directory(value: str) -> str:
    """A path that ``effective.cfg`` writes back as it is: no ``#``, no line
    break, and no whitespace at either end."""
    if not value:
        raise ValueError("expected a directory path, got an empty one")
    if "#" in value or value.splitlines() != [value] or value != value.strip():
        raise ValueError(f"{value!r} holds a '#', a line break or outer whitespace, "
                         f"which effective.cfg cannot hold")
    return value


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
    ("train.epochs", int, "train.epochs"),
    ("train.batch_per_domain", int, "train.batch_per_domain"),
    ("train.optimizer", str, "train.optimizer"),
    ("train.seed", int, "train.seed"),
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
# (field, value parser); each key is its field's name.
SHIFT_KEYS = (
    ("rotation_deg", float),
    ("translation", _float_pair),
    ("scale", float),
    ("noise_std", float),
)
_KEY_ROWS = {key: row for key, *row in CONFIG_KEYS}
_SHIFT_ROWS = dict(SHIFT_KEYS)
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
    for key, value in kv.items():
        if key in _KEY_ROWS:
            parse, path = _KEY_ROWS[key]
            setattr(*_owner(cfg, path), _parse(parse, key, value))
            continue
        m = _SHIFT_KEY_RE.match(key)
        prefix = m and m.group(1)
        if not m or m.group(2) not in _SHIFT_ROWS:
            raise _unknown_key(key, prefix)
        name = m.group(2)
        shifts.setdefault(prefix, {})[name] = _parse(_SHIFT_ROWS[name], key, value)

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
    if cfg.num_seeds > MAX_SEEDS:
        raise ConfigError(f"run.num_seeds={cfg.num_seeds} is over the {MAX_SEEDS}-seed bound")
    try:
        cfg.task.validate(cfg.num_seeds)  # a sweep holds every seed's task at once
        cfg.train.validate()
        validate_shape(FEATURE_DIM, cfg.task.num_classes, len(cfg.task.source_shifts),
                       cfg.train.extractor_hidden, cfg.train.head_hidden)
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
    """Every key written explicitly; reloading reproduces the config exactly."""
    lines = {key: _fmt(getattr(*_owner(cfg, path))) for key, _, path in CONFIG_KEYS}
    shifts = {f"task.source_shifts.{i}": s for i, s in enumerate(cfg.task.source_shifts)}
    shifts[_TARGET_SHIFT] = cfg.task.target_shift
    for prefix, shift in shifts.items():
        for name, _ in SHIFT_KEYS:
            lines[f"{prefix}.{name}"] = _fmt(getattr(shift, name))
    body = "\n".join(f"{k} = {v}" for k, v in sorted(lines.items()))
    return f"# effective configuration (all keys explicit)\n{body}\n"


# experiment execution ----------------------------------------------------------


def _variant_for(method: str, cfg: ExperimentConfig) -> Variant:
    own, _ = METHODS[method]  # a config flag can only turn one of the method's own components off
    return Variant(method, AblationFlags(*(o and on for o, on in zip(own, astuple(cfg.train.ablation)))))


def ablation_variants() -> list[Variant]:
    return [Variant("crma", AblationFlags(*on)) for on in ABLATION_GRID]


def _beside(path: Path) -> Path:
    """The temporary file that ``_replacing`` writes before it moves it over ``path``."""
    return path.with_name(path.name + ".tmp")


def _check_not_directories(paths: Sequence[Path]) -> None:
    """Raises ConfigError naming the first of ``paths``, or their ``_beside`` files, that is a directory."""
    for path in paths:
        for where in (path, _beside(path)):
            if where.is_dir():
                raise ConfigError(f"{str(where)!r} is a directory, where a file is to be written")


@contextlib.contextmanager
def _replacing(path: Path):
    """Yields a temporary path beside ``path`` and moves it over ``path`` when
    the block succeeds; the temporary file is removed either way."""
    tmp = _beside(path)
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


@dataclass(frozen=True)
class RunSpec:
    """One run of a sweep: what ``execute`` trains, and where it writes."""

    variant: Variant
    task: TaskSpec
    train: TrainConfig
    run_dir: Path


def plan(cfg: ExperimentConfig, variants: Sequence[Variant]) -> list[RunSpec]:
    """Every run of a sweep, variant-major and seed-minor; run i's task and
    trainer seeds are the base seeds + i."""
    specs = []
    for variant in variants:
        for i in range(cfg.num_seeds):
            train_cfg = replace(cfg.train, seed=cfg.train.seed + i, ablation=replace(variant.flags),
                                uniform_pseudo_weights=METHODS[variant.method][1])
            run_dir = Path(cfg.output_dir, "runs", run_dir_name(variant.label, train_cfg.seed))
            specs.append(RunSpec(variant, replace(cfg.task, seed=cfg.task.seed + i), train_cfg, run_dir))
    return specs


def execute(spec: RunSpec, task: GeneratedTask) -> RunRecord:
    """Train one run, write its ``metrics.csv``, ``model.ckpt`` and ``run.json``, and
    print its progress line to stderr. An earlier ``run.json`` and ``model.ckpt`` go
    before it trains; a diverged run writes its partial ``metrics.csv`` and prints a
    progress line that names it before its ``DivergedRunError`` propagates."""
    started = time.perf_counter()
    name = f"{spec.variant.label} seed {spec.train.seed}"
    for stale in ("run.json", "model.ckpt"):
        (spec.run_dir / stale).unlink(missing_ok=True)
    try:
        state, history = train(spec.train, task)
    except DivergedRunError as err:
        _write_metrics(spec.run_dir, err.history, task.num_sources)
        print(f"{name}: diverged ({err})", file=sys.stderr)
        raise
    record = RunRecord(spec.variant, spec.train.seed, spec.train.epochs, history[-1]["target_acc"],
                       parameters_digest(state.model.parameters()))
    _write_metrics(spec.run_dir, history, task.num_sources)
    with _replacing(spec.run_dir / "model.ckpt") as tmp:
        save_checkpoint(state, tmp)
    _write_text(spec.run_dir / "run.json", record.json_text())
    elapsed = time.perf_counter() - started
    print(f"{name}: target_acc {record.accuracy:.4f} in {elapsed:.2f} s", file=sys.stderr)
    return record


def run_variants(cfg: ExperimentConfig, variants: Sequence[Variant]) -> list[RunRecord]:
    """Execute the sweep's plan, drawing one task per task seed, in plan order, before
    anything is written, so a task that cannot be generated, like a planned run directory
    that names a file or a planned file that names a directory, is a ConfigError. The
    earlier ``results.csv`` and ``summary.*`` go before the first run, and the finished
    runs' are written however the loop ends, before any error propagates."""
    specs = plan(cfg, variants)
    out_root = Path(cfg.output_dir)
    try:
        tasks = {}
        for spec in specs:
            if spec.task.seed not in tasks:
                tasks[spec.task.seed] = generate_task(spec.task)
        files = [out_root / name for name in ("effective.cfg", "results.csv", "summary.csv", "summary.txt")]
        for spec in specs:
            if spec.run_dir.exists() and not spec.run_dir.is_dir():
                raise ValueError(f"run directory {str(spec.run_dir)!r} is not a directory")
            files += [spec.run_dir / name for name in ("metrics.csv", "model.ckpt", "run.json")]
        _check_not_directories(files)
        (out_root / "runs").mkdir(parents=True, exist_ok=True)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except OSError as exc:
        raise ConfigError(f"run.output_dir {cfg.output_dir!r}: {exc.strerror}") from exc
    _write_text(out_root / "effective.cfg", effective_config_text(cfg))
    for name in ("results.csv", "summary.csv", "summary.txt"):
        (out_root / name).unlink(missing_ok=True)
    records = []
    try:
        for spec in specs:
            records.append(execute(spec, tasks[spec.task.seed]))
    finally:
        write_results(cfg, records)
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


def write_results(cfg: ExperimentConfig, records: Sequence[RunRecord]) -> None:
    out_root = Path(cfg.output_dir)
    lines = ["method,intra_da,inter_da,ast,seed,target_acc", *(r.columns() for r in records)]
    _write_text(out_root / "results.csv", "".join(f"{line}\n" for line in lines))
    summary = aggregate(records)
    lines = ["method,intra_da,inter_da,ast,num_seeds,acc_mean,acc_std"]
    lines += [f"{v.columns()},{n},{mean!r},{std!r}" for v, n, mean, std in summary]
    _write_text(out_root / "summary.csv", "".join(f"{line}\n" for line in lines))
    _write_text(out_root / "summary.txt", render_table(summary))


def render_table(summary: Sequence[tuple]) -> str:
    header = f"{'method':<18} {'intra':>5} {'inter':>5} {'ast':>3} {'accuracy':>18} {'seeds':>5}"
    lines = [header, "-" * len(header)]
    for variant, num_seeds, mean, std in summary:
        acc = f"{100 * mean:.2f} +/- {100 * std:.2f}"
        _, intra, inter, ast = variant.columns().split(",")
        lines.append(f"{variant.label:<18} {intra:>5} {inter:>5} {ast:>3} {acc:>18} {num_seeds:>5}")
    return "\n".join(lines) + "\n"


def emit_curves(output_dir) -> Path:
    """Read back every run directory holding ``run.json`` with ``RunRecord.read``
    and write a manifest of those runs."""
    out_root = Path(output_dir)
    runs_dir = out_root / "runs"
    if not runs_dir.is_dir():
        raise ConfigError(f"no runs directory under {output_dir!r}")
    manifest = out_root / "manifest.csv"
    _check_not_directories([manifest])
    lines = ["run_dir,method,intra_da,inter_da,ast,seed,epochs,final_acc"]
    for run_dir in sorted(runs_dir.iterdir()):
        record_path = run_dir / "run.json"
        if record_path.is_file():
            lines.append(f"{run_dir.name},{RunRecord.read(record_path).columns(epochs=True)}")
    _write_text(manifest, "".join(f"{line}\n" for line in lines))
    return manifest


# entry point --------------------------------------------------------------------


def _parse_overrides(extra: Sequence[str]) -> dict[str, str]:
    bad = [arg for arg in extra if not arg.startswith("--") or "=" not in arg]
    if bad:
        raise ConfigError(f"expected --section.key=value override, got {bad[0]!r}")
    return {key.strip(): value.strip() for key, value in (arg[2:].split("=", 1) for arg in extra)}


def _load_experiment(args, extra: Sequence[str]) -> ExperimentConfig:
    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    kv = {**parse_config_text(text), **_parse_overrides(extra)}
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
    parser = _ArgumentParser(prog="crma", description="Multi-source adaptation experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "ablate", "baseline"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--seed", default=None, help="base seed for task and training")
        p.add_argument("--out", default=None, help="output directory")
    sub.add_parser("curves").add_argument("run_dir")

    try:
        args, extra = parser.parse_known_args(argv)
        if args.command == "curves":
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            manifest = emit_curves(args.run_dir)
            print(f"wrote {manifest}")
            return 0
        cfg = _load_experiment(args, extra)
        if args.command == "baseline":  # effective.cfg then names the methods it runs
            cfg.methods = ("uniform_ensemble", "crma")
        variants = (ablation_variants() if args.command == "ablate"
                    else [_variant_for(m, cfg) for m in cfg.methods])
        print(render_table(aggregate(run_variants(cfg, variants))), end="")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DivergedRunError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
