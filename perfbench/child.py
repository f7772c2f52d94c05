"""Run one benchmark unit in this fresh process and print its result as JSON.

    python3 perfbench/child.py '<spec>'

``spec`` is a JSON object with ``workload``, ``variant``, ``seed``,
``workdir`` (where a sweep writes its artifacts), ``overrides``
(``key=value`` settings on top of the workload's config, with which the
tests shrink every workload), ``probe`` (stop once the first run
reaches the workload's target accuracy, to time set-up and time to
target only) and ``spans`` (a path: trace every crma layer
and write the spans there).
run.py starts this script with one BLAS thread and ``src`` on the path.

Untraced units carry only the hooks the end-to-end metrics need: a clock
read at the start of ``step_source`` and the end of ``step_ast`` (one
iteration), one at each per-epoch ``evaluate`` and one around ``train``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

from spans import Recorder, rebind, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


class ProbeDone(Exception):
    """Ends a probe when its first run reaches the target or ends; holds the time to target."""


class RunClock:
    """Times every ``train`` call and its iterations, and checks its output."""

    def __init__(self, mods, target_acc: float, probe: bool):
        self.mods = mods
        self.target_acc = target_acc
        self.probe = probe
        self.first_step = None  # time.monotonic(), comparable across processes
        self.runs: list[dict] = []
        self._iter_start = 0.0

    def install(self) -> None:
        every = list(self.mods.values())
        trainer = self.mods["trainer"]
        rebind(every, trainer, "train", self._train)
        rebind(every, trainer, "step_source", self._step_source)
        rebind(every, trainer, "step_ast", self._step_ast)
        rebind(every, trainer, "evaluate", self._evaluate)

    def _train(self, fn):
        digest = self.mods["nn"].parameters_digest

        @functools.wraps(fn)
        def timed(config, task, *args, **kwargs):
            run = {"iter_ms": [], "evals": []}
            self.runs.append(run)
            start = run["start"] = time.perf_counter()
            state, history = fn(config, task, *args, **kwargs)
            run["train_s"] = time.perf_counter() - start
            flags = config.ablation
            run["key"] = (
                f"seed{config.seed}-i{int(flags.intra_da)}e{int(flags.inter_da)}"
                f"a{int(flags.ast)}-u{int(config.uniform_pseudo_weights)}"
            )
            run["digest"] = digest(state.model.parameters())
            run["history_digest"] = hashlib.sha256(repr(history).encode()).hexdigest()
            run["final_acc"] = history[-1]["target_acc"]
            run["problems"] = history_problems(history, config.epochs)
            hit = next((t for t, acc in run.pop("evals") if acc >= self.target_acc), None)
            run["reached_target"] = hit is not None
            run["time_to_target_s"] = run["train_s"] if hit is None else hit
            del run["start"]
            if self.probe:
                raise ProbeDone(run["time_to_target_s"])
            return state, history

        return timed

    def _step_source(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self.first_step is None:
                self.first_step = time.monotonic()
            self._iter_start = time.perf_counter()
            return fn(*args, **kwargs)

        return timed

    def _step_ast(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.runs[-1]["iter_ms"].append((time.perf_counter() - self._iter_start) * 1e3)
            return out

        return timed

    def _evaluate(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            out = fn(*args, **kwargs)
            run = self.runs[-1]
            elapsed = time.perf_counter() - run["start"]
            run["evals"].append((elapsed, out[0]))
            if self.probe and out[0] >= self.target_acc:
                raise ProbeDone(elapsed)
            return out

        return timed


def history_problems(history, epochs: int) -> list[str]:
    problems = []
    if len(history) != epochs:
        problems.append(f"history has {len(history)} rows for {epochs} epochs")
    for row in history:
        bad = [k for k, v in row.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"epoch {row['epoch']}: non-finite {bad}")
    acc = history[-1]["target_acc"] if history else math.nan
    if not 0.0 <= acc <= 1.0:
        problems.append(f"final target_acc {acc} outside [0, 1]")
    return problems


def run_single(mods, workload, variant: str, seed: int, overrides) -> None:
    """One training run of ``variant`` on the workload's config."""
    cli, trainer = mods["cli"], mods["trainer"]
    kv = cli.parse_config_text((ROOT / workload.config).read_text())
    kv.update(item.split("=", 1) for item in overrides)
    cfg = cli.build_experiment_config(kv)
    task = mods["data"].generate_task(replace(cfg.task, seed=seed))
    flags = replace(cfg.train.ablation)
    if variant == "source_only":
        flags = trainer.AblationFlags(False, False, False)
    config = replace(
        cfg.train,
        seed=seed,
        ablation=flags,
        uniform_pseudo_weights=variant == "uniform_ensemble",
    )
    trainer.train(config, task)


def run_sweep(mods, workload, seed: int, overrides, out: Path, recorder) -> None:
    """``crma ablate`` into ``out``; the CLI's own table goes nowhere."""
    main = mods["cli"].main
    if recorder is not None:
        main = recorder.span("cli.main", main)
    argv = ["ablate", str(ROOT / workload.config), "--out", str(out), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, *workload.sweep_args, *(f"--{item}" for item in overrides)])
    if code != 0:
        raise RuntimeError(f"crma ablate exited with code {code}")


def sweep_problems(mods, workload, out: Path, runs: list[dict]) -> list[str]:
    """Check the sweep's artifacts against what the hooked runs returned."""
    problems = []
    expected = workload.runs_per_unit
    if len(runs) != expected:
        problems.append(f"{len(runs)} training runs, expected {expected}")
    result_rows = len((out / "results.csv").read_text().strip().splitlines()) - 1
    if result_rows != expected:
        problems.append(f"results.csv has {result_rows} rows, expected {expected}")
    manifest = mods["cli"].emit_curves(out)
    manifest_rows = len(manifest.read_text().strip().splitlines()) - 1
    if manifest_rows != expected:
        problems.append(f"manifest.csv has {manifest_rows} rows, expected {expected}")
    trainer, nn = mods["trainer"], mods["nn"]
    saved = sorted(
        nn.parameters_digest(trainer.load_checkpoint(p, trainer.TrainConfig()).model.parameters())
        for p in (out / "runs").glob("*/model.ckpt")
    )
    if saved != sorted(r["digest"] for r in runs):
        problems.append("checkpoint digests differ from the trained parameters")
    return problems


def calibrate() -> float:
    """Milliseconds for a fixed Python-and-numpy loop; recorded, never used to rescale."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    start = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += float((a @ a)[i % 64, 0]) + i * 0.5
    return (time.perf_counter() - start) * 1e3


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy 1.x has no dict form
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(spec: dict) -> dict:
    from layers import crma_modules, instrument

    workload = WORKLOADS[spec["workload"]]
    mods = crma_modules()
    recorder = None
    if spec.get("spans"):
        recorder = Recorder()
        instrument(recorder)
    clock = RunClock(mods, workload.target_acc, spec.get("probe", False))
    clock.install()

    overrides = spec.get("overrides", ())
    result = {"problems": []}
    out = None
    try:
        if workload.sweep_args:
            out = Path(tempfile.mkdtemp(prefix="sweep-", dir=spec["workdir"]))
            run_sweep(mods, workload, spec["seed"], overrides, out, recorder)
        else:
            run_single(mods, workload, spec["variant"], spec["seed"], overrides)
        result["done"] = time.monotonic()
        if out is not None:
            result["problems"] += sweep_problems(mods, workload, out, clock.runs)
    except ProbeDone as done:
        result["time_to_target_s"] = done.args[0]
    except Exception:
        result["error"] = traceback.format_exc(limit=8)
    finally:
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)

    result["first_step"] = clock.first_step
    result["runs"] = [r for r in clock.runs if "digest" in r]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not spec.get("probe"):
        result["calib_ms"] = calibrate()
        result["env"] = environment()
    if recorder is not None:
        result["spans"] = summarize(*recorder.arrays())
        result["counters"] = dict(recorder.counters)
        recorder.save(spec["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
