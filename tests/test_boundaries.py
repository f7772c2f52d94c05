"""Seeded fuzz of every input boundary: config text and overrides, run.json,
metrics.csv, checkpoint bytes and the output layout a sweep writes into,
and a sweep killed at each of its writes.

Each case mutates a valid input with the stdlib ``random`` module and feeds
it through the boundary's reader. The outcome must be success or the
boundary's own error (``ConfigError`` or ``FormatError``); any other
exception fails the test and names the input that raised it. An accepted
config must also fit its byte bounds, read back unchanged from its
``effective.cfg``, and generate all-finite features or name the domain
whose features are not.
"""

import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crma
from crma.cli import (
    CONFIG_KEYS,
    MAX_SEEDS,
    ConfigError,
    RunRecord,
    build_experiment_config,
    effective_config_text,
    emit_curves,
    main,
    parse_config_text,
)
from crma.data import FEATURE_DIM, MAX_FEATURE_BYTES, generate_task
from crma.nn import MAX_MODEL_BYTES, CrmaModel, parameter_count
from crma.trainer import FormatError, TrainConfig, TrainState, load_checkpoint, save_checkpoint

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = [(ROOT / "configs" / name).read_text() for name in ("two_moons.cfg", "asym_blobs.cfg")]

# values at and past the bounds of the config keys, drawn for every key
INTS = ["-1", "0", "1", "2", "3", "4", "7", "8", "16", "128", "500", "501", "1600", "1601",
        "2000", "16777216", "16777217", "100000000", "99999999999", "18446744073709551616"]
FLOATS = ["0", "-0.0", "5e-324", "0.5", "-1", "1e308", "-1e308", "1e309", "nan", "inf", "-inf", "none"]
LISTS = ["", ",", " , ", "8,,8", "64,64", "8,", ",8", "0", "8,-1", "100000000", "1,100000000",
         "3000,3000", "9" * 5000, "1,2,3", "nan,0", "1e308,1e308"]
WORDS = ["true", "false", "maybe", "two_moons", "gaussian_blobs", "spirals", "crma",
         "crma,source_only", "crma,,source_only", "crma,", "crma,crma", "uniform_ensemble",
         "sgd", "adam", "cosine_annealing", "é", "a=b"]
VALUES = INTS + FLOATS + LISTS + WORDS
# training keys that an older effective.cfg still holds; SHIFT_NAMES keeps its radians rotation
REMOVED_KEYS = ["train.extractor_lr_multiplier", "train.scheduler", "train.num_extractor_steps",
                "train.ast_start_epoch"]
SHIFT_NAMES = ["rotation", "rotation_deg", "translation", "scale", "noise_std", "shear"]
SHIFT_PREFIXES = ["task.source_shifts.0", "task.source_shifts.1", "task.source_shifts.3",
                  "task.source_shifts.01", "task.target_shift"]
KEYS = [key for key, _, _ in CONFIG_KEYS] + REMOVED_KEYS + [
    f"{prefix}.{name}" for prefix in SHIFT_PREFIXES for name in SHIFT_NAMES
] + ["train.alpah", "task"]
# the keys that scale, turn, move or spread a task's features
SHAPING_KEYS = ["task.generator_noise"] + [
    f"{prefix}.{name}" for prefix in ("task.source_shifts.0", "task.source_shifts.1", "task.target_shift")
    for name in ("rotation_deg", "translation", "scale", "noise_std")
]
# values drawn for one key alone: seed counts up to 10^9, and output directories
# that effective.cfg cannot write back as they are (a comment, a line break, outer whitespace)
KEY_DRAWS = {
    "run.num_seeds": lambda rng: str(rng.choice([MAX_SEEDS, MAX_SEEDS + 1, rng.randint(1, 10**9)])),
    "run.output_dir": lambda rng: rng.choice(["res#1", "#", "a\nb", "a\r", "a\u2028b", "out\n",
                                              " out", "out\t", "a b", "r\u00e9s"]),
}


def _outcome(read, error, case):
    """``read()``'s value, or None when it raises ``error``; any other exception fails."""
    try:
        return read()
    except error:
        return None
    except Exception as exc:  # anything else escaped the boundary
        pytest.fail(f"{case!r} raised {exc!r}, not {error.__name__}")


def _mutate(rng: random.Random, data: bytes, alphabet: bytes) -> bytes:
    """``data`` after one to three random edits: a byte set, a slice cut,
    bytes inserted, a slice repeated, or a truncation."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(data) + 1)
        j = min(len(data), i + rng.randint(1, 16))
        edit = rng.randrange(5)
        if edit == 0 and i < len(data):
            data = data[:i] + bytes([rng.choice(alphabet)]) + data[i + 1 :]
        elif edit == 1:
            data = data[:i] + data[j:]
        elif edit == 2:
            data = data[:i] + bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 4))) + data[i:]
        elif edit == 3:
            data = data[:j] + data[i:j] + data[j:]
        else:
            data = data[:i]
    return data


def _check_accepted(cfg):
    """An accepted config's model and its sweep's features fit their bounds, by
    arithmetic, and its effective.cfg reads back as the same config."""
    task, train = cfg.task, cfg.train
    count = parameter_count(FEATURE_DIM, task.num_classes, len(task.source_shifts),
                            train.extractor_hidden, train.head_hidden)
    assert 8 * count <= MAX_MODEL_BYTES, cfg
    # a sweep holds every seed's task at once
    task_bytes = (len(task.source_shifts) + 1) * task.samples_per_domain * FEATURE_DIM * 8
    assert cfg.num_seeds <= MAX_SEEDS and cfg.num_seeds * task_bytes <= MAX_FEATURE_BYTES, cfg
    assert train.extractor_hidden and min((*train.extractor_hidden, *train.head_hidden)) >= 1
    assert build_experiment_config(parse_config_text(effective_config_text(cfg))) == cfg


def _overridden(rng: random.Random) -> dict[str, str]:
    """A shipped config's keys with one to four values set by the mutator."""
    kv = parse_config_text(rng.choice(CONFIGS))
    kv.update((rng.choice(KEYS), rng.choice(VALUES)) for _ in range(rng.randint(1, 4)))
    kv.update((key, draw(rng)) for key, draw in KEY_DRAWS.items() if rng.random() < 0.1)
    return kv


def test_config_overrides_fail_only_with_config_errors():
    rng = random.Random(20261020)
    accepted = 0
    for _ in range(3000):
        kv = _overridden(rng)
        cfg = _outcome(lambda: build_experiment_config(kv), ConfigError, kv)
        if cfg is not None:
            assert not any(k in REMOVED_KEYS or k.endswith(".rotation") for k in kv), kv
            _check_accepted(cfg)
            accepted += 1
    assert 100 < accepted < 2900  # both outcomes are exercised


def test_config_text_fails_only_with_config_errors():
    rng = random.Random(7)
    alphabet = b"=#,.\n\t\x0b 0123456789e-_abcnrst\xc3\xa9"
    accepted = 0
    for _ in range(1500):
        text = _mutate(rng, rng.choice(CONFIGS).encode(), alphabet).decode(errors="replace")
        cfg = _outcome(lambda: build_experiment_config(parse_config_text(text)), ConfigError, text)
        if cfg is not None:
            _check_accepted(cfg)
            accepted += 1
    assert accepted > 100


def _shaping_overrides(rng: random.Random) -> dict[str, str]:
    """A shipped config with one to three SHAPING_KEYS set to values from FLOATS
    (pairs for a translation)."""
    kv = parse_config_text(rng.choice(CONFIGS))
    for _ in range(rng.randint(1, 3)):
        key = rng.choice(SHAPING_KEYS)
        pair = key.endswith(".translation")
        kv[key] = f"{rng.choice(FLOATS)},{rng.choice(FLOATS)}" if pair else rng.choice(FLOATS)
    return kv


def test_accepted_configs_generate_finite_features_or_name_the_domain():
    rng = random.Random(29)
    checked = raised = 0
    for _ in range(1000):
        kv = _shaping_overrides(rng)
        cfg = _outcome(lambda: build_experiment_config(kv), ConfigError, kv)
        if cfg is None:
            continue
        # the smallest domains the config's class count admits, so the check stays fast
        spec = replace(cfg.task, samples_per_domain=4 * cfg.task.num_classes)
        checked += 1
        try:
            task = generate_task(spec)
        except ValueError as exc:
            assert re.fullmatch(r"domain '(source\d+|target)': generated features are not all finite",
                                str(exc)), (spec, exc)
            raised += 1
            continue
        for features in (task.source_features, task.target_features, task.target_test_features):
            assert np.isfinite(features).all(), spec
    assert 0 < raised < checked  # both outcomes are exercised


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One finished 3-epoch run of a tiny config: its run.json, metrics.csv and model.ckpt."""
    root = tmp_path_factory.mktemp("boundaries")
    cfg = root / "tiny.cfg"
    cfg.write_text("task.samples_per_domain = 80\ntrain.epochs = 3\ntrain.batch_per_domain = 16\n"
                   "train.extractor_hidden = 6\ntrain.head_hidden = 4\nrun.num_seeds = 1\n"
                   "run.methods = crma\n")
    assert main(["run", str(cfg), "--out", str(root / "out")]) == 0
    return root / "out" / "runs" / "crma_seed0"


JSON_VALUES = [None, True, False, 0, -1, 1, 2, 0.5, 1.5, 1e308, float("nan"), float("inf"),
               2**70, "", "crma", "source_only", [], {}, [0.5], {"a": 1}]


def _mutated_run_json(rng: random.Random, text: str) -> bytes:
    """A key dropped, added or given another value, or the text's bytes mutated."""
    if rng.random() < 0.5:
        return _mutate(rng, text.encode(), b'{}[]",:. 0123456789eE-+aeflnrstu\xff')
    meta = json.loads(text)
    key = rng.choice([*meta, "extra"])
    if rng.random() < 0.2:
        meta.pop(key, None)
    else:
        meta[key] = rng.choice(JSON_VALUES)
    return json.dumps(meta if rng.random() < 0.9 else [meta]).encode()


def test_run_json_fails_only_with_config_errors(run_dir, tmp_path):
    rng = random.Random(11)
    text = (run_dir / "run.json").read_text()
    path = tmp_path / run_dir.name / "run.json"
    shutil.copytree(run_dir, path.parent)
    accepted = 0
    for _ in range(1000):
        data = _mutated_run_json(rng, text)
        path.write_bytes(data)
        accepted += _outcome(lambda: RunRecord.read(path), ConfigError, data) is not None
    assert accepted > 50  # both outcomes are exercised


def test_metrics_csv_fails_only_with_config_errors(run_dir, tmp_path):
    rng = random.Random(13)
    run_json, metrics = (run_dir / "run.json").read_text(), (run_dir / "metrics.csv").read_bytes()
    out = tmp_path / "out"
    target = out / "runs" / run_dir.name
    shutil.copytree(run_dir, target)
    accepted = 0
    for _ in range(300):
        (target / "run.json").write_bytes(_mutated_run_json(rng, run_json) if rng.random() < 0.3
                                          else run_json.encode())
        data = _mutate(rng, metrics, b",.\n\r0123456789eE-_abcLnst\xff\x80")
        (target / "metrics.csv").write_bytes(data)
        accepted += _outcome(lambda: emit_curves(out), ConfigError, data) is not None
    assert accepted > 50  # both outcomes are exercised


def test_run_disagreeing_with_its_directory_or_curve_is_a_config_error(run_dir, tmp_path):
    rng = random.Random(19)
    run_json, metrics = (run_dir / "run.json").read_text(), (run_dir / "metrics.csv").read_text()
    header, *rows = metrics.splitlines()
    at = header.split(",").index("target_acc")
    final_acc = float(rows[-1].split(",")[at])
    model = load_checkpoint(run_dir / "model.ckpt", TrainConfig()).model
    shape = (model.input_dim, model.num_classes, model.num_domains, model.extractor_hidden, model.head_hidden)
    out = tmp_path / "out"
    for _ in range(100):
        shutil.rmtree(out, ignore_errors=True)
        target, record, data, other_model = out / "runs" / run_dir.name, run_json, metrics, None
        draw = rng.random()
        if draw < 0.3:  # the whole run moved into another run's directory
            target = out / "runs" / rng.choice(["crma_seed1", "source_only_seed0", "crma_i1e1a1_seed0"])
        elif draw < 0.55:  # one flag flipped, or the method changed, in place
            meta = json.loads(run_json)
            key = rng.choice(["intra_da", "inter_da", "ast", "method"])
            if key == "method":
                meta[key] = rng.choice(["source_only", "uniform_ensemble"])
            else:
                meta[key] = not meta[key]
            record = json.dumps(meta)
        elif draw < 0.8:  # the curve's last target_acc rewritten to another number
            last = rows[-1].split(",")
            last[at] = repr(rng.choice([v for v in (0.0, 1.0, rng.random(), math.nextafter(final_acc, 0),
                                                    math.nextafter(final_acc, 1)) if v != final_acc]))
            data = "\n".join([header, *rows[:-1], ",".join(last), ""])
        else:  # the checkpoint replaced by a loadable one of a fresh model of the same shape
            other_model = CrmaModel(*shape, rng=np.random.default_rng(rng.randrange(2**32)))
        shutil.copytree(run_dir, target)
        (target / "run.json").write_text(record)
        (target / "metrics.csv").write_text(data)
        if other_model is not None:
            save_checkpoint(TrainState(other_model, TrainConfig()), target / "model.ckpt")
        with pytest.raises(ConfigError):
            emit_curves(out)


def test_checkpoint_bytes_fail_only_with_format_errors(run_dir, tmp_path):
    rng = random.Random(17)
    ckpt = (run_dir / "model.ckpt").read_bytes()
    path = tmp_path / "model.ckpt"
    loaded = 0
    for _ in range(1000):
        if rng.random() < 0.5:
            # a header field set to a value at or past a bound; after the magic come
            # 8 u32s: version, 3 dims, and each one-layer MLP's count and width
            at = 8 + 4 * rng.randrange(8)
            value = rng.choice([0, 1, 2, 3, 4, 6, 2**16, 2**31, 2**32 - 1, rng.getrandbits(32)])
            data = ckpt[:at] + value.to_bytes(4, "little") + ckpt[at + 4 :]
        else:
            data = _mutate(rng, ckpt, bytes(range(256)))
        path.write_bytes(data)
        if _outcome(lambda: load_checkpoint(path, TrainConfig()), FormatError, data) is not None:
            loaded += 1
    assert loaded > 0  # mutations of the body alone still load


# paths of a one-run `crma run` plan, relative to --out ("" is --out itself)
PLANNED_PATHS = ["", "runs", "runs/crma_seed0"] + [
    f"{where}{name}{tmp}"
    for where, names in (("", ("effective.cfg", "results.csv", "summary.csv", "summary.txt")),
                         ("runs/crma_seed0/", ("metrics.csv", "model.ckpt", "run.json")))
    for name in names
    for tmp in ("", ".tmp")
]


def _block_planned_paths(rng: random.Random, out: Path) -> list[tuple[str, str]]:
    """Puts a file or a non-empty directory at one to three PLANNED_PATHS under
    ``out``, shallowest first, skipping a path under a file; returns what it put."""
    placed = []
    for rel in sorted(rng.sample(PLANNED_PATHS, rng.randint(1, 3)), key=lambda rel: len(Path(rel).parts)):
        path = out / rel
        if any(parent.is_file() for parent in path.parents):
            continue
        kind = rng.choice(["file", "dir"])
        if kind == "file":
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"kept")
        else:
            path.mkdir(parents=True, exist_ok=True)
            (path / "kept").write_bytes(b"kept")
        placed.append((rel, kind))
    return placed


def test_output_layout_fails_only_with_config_errors_before_training(tmp_path, monkeypatch, capsys):
    import crma.cli as cli_module

    calls = []
    real_train = cli_module.train
    monkeypatch.setattr(cli_module, "train", lambda cfg, task: calls.append(cfg) or real_train(cfg, task))
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("task.samples_per_domain = 16\ntrain.epochs = 1\ntrain.batch_per_domain = 4\n"
                   "train.extractor_hidden = 6\ntrain.head_hidden = 4\nrun.num_seeds = 1\n"
                   "run.methods = crma\n")
    rng = random.Random(31)
    outcomes = []
    for i in range(200):
        out = tmp_path / f"out{i}"
        case = _block_planned_paths(rng, out)
        calls.clear()
        try:
            code = main(["run", str(cfg), "--out", str(out)])
        except Exception as exc:  # anything else escaped the CLI
            pytest.fail(f"{case!r} raised {exc!r}")
        err = capsys.readouterr().err
        if code == 0:
            assert len((out / "results.csv").read_text().splitlines()) == 2, case
        else:
            assert code == 1 and err.startswith("config error:") and calls == [], (case, code, err)
        assert "Traceback" not in err, case
        outcomes.append(code)
    assert 0 < outcomes.count(0) < len(outcomes)  # both outcomes are exercised


# Runs `crma <argv[2:]>` and ends the process with os._exit just before its
# argv[1]-th os.replace, the kill point of one case: no timers, no signals.
KILLED_AT_WRITE = """
import os, sys
from crma.cli import main
writes, real_replace = 0, os.replace
def replace(src, dst):
    global writes
    writes += 1
    if writes == int(sys.argv[1]):
        os._exit(9)
    real_replace(src, dst)
os.replace = replace
sys.exit(main(sys.argv[2:]))
"""


def _check_whole_runs(out: Path) -> None:
    """Every run directory holding run.json is one finished run, and curves and
    results.csv report exactly those runs."""
    whole = sorted(d for d in (out / "runs").iterdir() if (d / "run.json").exists())
    records = [RunRecord.read(d / "run.json") for d in whole]
    for run_dir, record in zip(whole, records):
        rows = (run_dir / "metrics.csv").read_text().splitlines()
        header, last = rows[0].split(","), rows[-1].split(",")
        assert len(rows) - 1 == record.epochs, run_dir
        assert float(last[header.index("target_acc")]) == record.accuracy, run_dir
        load_checkpoint(run_dir / "model.ckpt", TrainConfig())
    assert main(["curves", str(out)]) == 0
    listed = [line.split(",", 1)[0] for line in (out / "manifest.csv").read_text().splitlines()[1:]]
    assert listed == [d.name for d in whole]
    if (out / "results.csv").exists():
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert sorted(rows) == sorted(r.columns() for r in records)


def test_a_rerun_killed_at_any_write_leaves_only_whole_runs(tmp_path, monkeypatch):
    earlier = tmp_path / "earlier"
    argv = ["run", str(ROOT / "configs" / "two_moons.cfg"), "--run.methods=crma", "--run.num_seeds=2",
            "--train.epochs=1", "--task.samples_per_domain=40", "--train.batch_per_domain=8"]
    assert main([*argv, "--out", str(earlier)]) == 0
    rerun = [*argv, "--train.base_lr=0.05"]
    # the writes of one rerun, counted on an unkilled copy
    shutil.copytree(earlier, tmp_path / "unkilled")
    writes = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: writes.append(dst) or real_replace(src, dst))
    assert main([*rerun, "--out", str(tmp_path / "unkilled")]) == 0
    monkeypatch.undo()
    assert len(writes) == 10  # effective.cfg, 3 per run, results.csv and summary.*
    env = {**os.environ, "PYTHONPATH": str(Path(crma.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    for k in range(1, len(writes) + 1):
        out = tmp_path / f"killed{k}"
        shutil.copytree(earlier, out)
        child = subprocess.run([sys.executable, "-c", KILLED_AT_WRITE, str(k), *rerun, "--out", str(out)],
                               env=env, capture_output=True, text=True, timeout=60)
        assert child.returncode == 9, (k, child.stderr)
        try:
            _check_whole_runs(out)
        except AssertionError as exc:
            raise AssertionError(f"killed before write {k} ({writes[k - 1]})") from exc
