"""Benchmark harness for crma: one workload, one seed, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every unit (one training run, or one CLI
sweep) runs in a fresh ``child.py`` process with one BLAS thread, one unit
at a time. With ``--trace 0`` the harness alternates probes (processes
that stop once their first run reaches the workload's target accuracy)
and units until the next round would overrun ``--seconds``, and reports
the end-to-end metrics.
With ``--trace 1`` it runs each of the workload's variants once untraced
and once traced, and reports the per-layer metrics from the traced
spans. The last line of standard output is the result object; the full
record, with the seed, host details and every unit, is written under
``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER, per_layer_metrics
from workloads import END_TO_END, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
# A child that takes longer is killed (a unit takes 4-15 s). No unit starts
# after TOTAL_LIMIT_S - CHILD_TIMEOUT_S, so an invocation stays under 180 s.
CHILD_TIMEOUT_S = 100.0
TOTAL_LIMIT_S = 170.0
# iter_ms_p50 and iter_ms_p90 are percentiles within stretches of this many
# consecutive iterations (about 1.3 s of moons_crma), averaged over the
# stretches. On a host whose speed switches between two levels, a percentile
# of all iterations pooled jumps from one level to the other; this mean moves
# with the share of time spent at each.
STRETCH = 100
# Probes before every unit: each gives one more sample of setup_s and of
# time_to_target_s, which span well under a second each.
PROBES_PER_UNIT = 2


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(spec: dict, env: dict, timeout: float) -> dict:
    """Run one child to completion; the result carries its start and exit times."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"spec": spec, "spawn": start, "error": f"killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"spec": spec, "spawn": start, "error": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    result.update(spec=spec, spawn=start, exit=time.monotonic())
    return result


def tally(workload, probes: list[dict], units: list[dict]):
    """(attempted, failed, problems, good runs) over all units.

    A run counts as failed when its unit crashed, when it raised, when its
    output failed a check, or when it differs from an earlier run of the
    same seed and variant.
    """
    attempted = failed = 0
    problems = [f"probe: {p['error'].strip()}" for p in probes if "error" in p]
    good: list[dict] = []
    first_of_key: dict[str, dict] = {}
    for unit in units:
        attempted += workload.runs_per_unit
        if "error" in unit:
            failed += workload.runs_per_unit
            problems.append(f"unit {unit['spec']}: {unit['error'].strip()}")
            continue
        problems += unit["problems"]
        ok = 0
        for run in unit["runs"]:
            problems += run["problems"]
            first = first_of_key.setdefault(run["key"], run)
            if any(run[k] != first[k] for k in ("digest", "history_digest", "final_acc")):
                problems.append(f"{run['key']}: repeat differs from the first run")
            elif not run["problems"] and not unit["problems"]:
                good.append(run)
                ok += 1
        failed += workload.runs_per_unit - ok
    return attempted, failed, problems, good


def percentiles(values) -> dict[int, float]:
    """Every fifth percentile, interpolated as numpy's default method does."""
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    return {5 * (i + 1): c for i, c in enumerate(cuts)}


def stretch_percentiles(iter_ms: list[float]) -> dict[int, float]:
    """Percentiles of each whole ``STRETCH`` of ``iter_ms``, averaged over the stretches.

    The iterations past the last whole stretch are left out; fewer than
    ``STRETCH`` iterations make one stretch.
    """
    starts = range(0, len(iter_ms) - STRETCH + 1, STRETCH) or [0]
    per_stretch = [percentiles(iter_ms[i:i + STRETCH]) for i in starts]
    return {q: statistics.mean(c[q] for c in per_stretch) for q in per_stretch[0]}


def end_to_end(units, probes, good, attempted: int, failed: int) -> dict:
    """End-to-end values from the untraced units, probes and good runs."""
    finished = [u for u in units if "error" not in u]
    setups = [u["first_step"] - u["spawn"] for u in probes + finished if u.get("first_step")]
    to_target = [run["time_to_target_s"] for run in good]
    to_target += [p["time_to_target_s"] for p in probes if "time_to_target_s" in p]
    iter_ms = [ms for run in good for ms in run["iter_ms"]]
    cuts = stretch_percentiles(iter_ms)
    train_s = [run["train_s"] for run in good]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.mean(train_s),
        "runs_per_min": 60.0 * sum(len(u["runs"]) for u in finished)
        / sum(u["done"] - u["spawn"] for u in finished),
        "iters_per_s": len(iter_ms) / sum(train_s),
        "iter_ms_p50": cuts[50],
        "iter_ms_p90": cuts[90],
        "time_to_target_s": statistics.mean(to_target),
        "target_acc": statistics.median(run["final_acc"] for run in good),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in finished),
        "success_share": (attempted - failed) / attempted,
    }


def time_left(t0: float) -> float:
    """Timeout for the next child, so that the whole invocation ends in time."""
    return max(1.0, min(CHILD_TIMEOUT_S, TOTAL_LIMIT_S - (time.monotonic() - t0)))


def measure(workload, seed: int, seconds: float, env: dict, workdir: Path, overrides=()):
    """Probes before every unit, until the next round would overrun ``seconds``.

    Probes and units alternate so that their samples spread over the whole
    window instead of bunching where the host happened to be fast or slow.
    """
    t0 = time.monotonic()
    spec = {"workload": workload.name, "seed": seed, "workdir": str(workdir),
            "overrides": list(overrides)}
    probes: list[dict] = []
    units: list[dict] = []
    last = 0.0
    while True:
        elapsed = time.monotonic() - t0
        if len(units) > len(workload.variants) and elapsed + last > seconds:
            break
        if elapsed > TOTAL_LIMIT_S - CHILD_TIMEOUT_S and units:
            break
        variant = workload.variants[len(units) % len(workload.variants)]
        start = time.monotonic()
        for _ in range(PROBES_PER_UNIT):
            probes.append(spawn({**spec, "variant": variant, "probe": True}, env, time_left(t0)))
        units.append(spawn({**spec, "variant": variant}, env, time_left(t0)))
        last = time.monotonic() - start
    return probes, units


def measure_traced(workload, seed: int, env: dict, workdir: Path, overrides=()):
    """Each variant once untraced, then once traced; spans are saved in ``workdir``."""
    t0 = time.monotonic()
    untraced, traced = [], []
    for variant in workload.variants:
        spec = {"workload": workload.name, "seed": seed, "variant": variant,
                "workdir": str(workdir), "overrides": list(overrides)}
        spans = workdir / f"{workload.name}-seed{seed}-{variant}-spans.npz"
        untraced.append(spawn(spec, env, time_left(t0)))
        traced.append(spawn({**spec, "spans": str(spans)}, env, time_left(t0)))
    return untraced, traced


def layer_values(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics from the span summaries summed over the traced units."""
    summary: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for unit in traced:
        for name, s in unit["spans"].items():
            acc = summary.setdefault(name, {"calls": 0, "self_ns": 0.0, "total_ns": 0.0})
            for k in acc:
                acc[k] += s[k]
        for name, n in unit["counters"].items():
            counters[name] = counters.get(name, 0) + n

    def train_s(units):
        return sum(r["train_s"] for u in units for r in u["runs"])

    return per_layer_metrics(summary, counters, train_s(traced) / train_s(untraced) - 1.0)


def brief(unit: dict) -> dict:
    """A unit's result for the record, without spans or per-iteration times."""
    out = {k: v for k, v in unit.items() if k != "spans"}
    out["runs"] = [
        {**{k: v for k, v in r.items() if k != "iter_ms"}, "iterations": len(r["iter_ms"])}
        for r in unit.get("runs", [])
    ]
    return out


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    missing = [p for p in ("src/crma/__init__.py", workload.config) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a crma checkout, missing {missing}", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    env = child_env()
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host_before": host()}

    if args.trace:
        untraced, traced = measure_traced(workload, args.seed, env, RUNS_DIR)
        units, probes = untraced + traced, []
    else:
        probes, units = measure(workload, args.seed, args.seconds, env, RUNS_DIR)
    attempted, failed, problems, good = tally(workload, probes, units)
    record.update(host_after=host(), problems=problems, units=[brief(u) for u in probes + units])
    values = None
    try:
        if args.trace:
            values = layer_values(untraced, traced)
            specs = [(name, unit) for name, unit, _ in PER_LAYER]
        else:
            values = end_to_end(units, probes, good, attempted, failed)
            specs = [(name, unit) for name, unit, _, _ in END_TO_END]
            iter_ms = [ms for r in good for ms in r["iter_ms"]]
            pooled = percentiles(iter_ms)
            record["iter_ms"] = {"samples": len(iter_ms), "stretch": STRETCH,
                                 **{f"pooled_p{q}": pooled[q] for q in (10, 25, 50, 75, 90, 95)}}
    except (ValueError, ZeroDivisionError, statistics.StatisticsError, KeyError) as exc:
        problems.append(f"nothing to measure: {exc!r}")
    record["values"] = values
    record_path = RUNS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    for line in problems:
        print(f"problem: {line}")
    print(f"perfbench: workload {workload.name} seed {args.seed} trace {args.trace}, "
          f"record {record_path}")
    if values is None:
        return 1
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
