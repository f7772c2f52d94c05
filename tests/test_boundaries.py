"""Seeded fuzz of every input boundary: config text and overrides, run.json,
metrics.csv and checkpoint bytes.

Each case mutates a valid input with the stdlib ``random`` module and feeds
it through the boundary's reader. The outcome must be success or the
boundary's own error (``ConfigError`` or ``FormatError``); any other
exception fails the test and names the input that raised it.
"""

import json
import random
from pathlib import Path

import pytest

from crma.cli import (
    CONFIG_KEYS,
    ConfigError,
    RunRecord,
    build_experiment_config,
    emit_curves,
    main,
    parse_config_text,
)
from crma.data import FEATURE_DIM, MAX_FEATURE_BYTES
from crma.nn import MAX_MODEL_BYTES, parameter_count
from crma.trainer import FormatError, TrainConfig, load_checkpoint

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
SHIFT_NAMES = ["rotation", "rotation_deg", "translation", "scale", "noise_std", "shear"]
SHIFT_PREFIXES = ["task.source_shifts.0", "task.source_shifts.1", "task.source_shifts.3",
                  "task.source_shifts.01", "task.target_shift"]
KEYS = [key for key, _, _ in CONFIG_KEYS] + [
    f"{prefix}.{name}" for prefix in SHIFT_PREFIXES for name in SHIFT_NAMES
] + ["train.alpah", "task"]


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


def _check_model_bound(cfg):
    """An accepted config's model and features fit their bounds, by arithmetic."""
    task, train = cfg.task, cfg.train
    count = parameter_count(FEATURE_DIM, task.num_classes, len(task.source_shifts),
                            train.extractor_hidden, train.head_hidden)
    assert 8 * count <= MAX_MODEL_BYTES, cfg
    assert (len(task.source_shifts) + 1) * task.samples_per_domain * FEATURE_DIM * 8 <= MAX_FEATURE_BYTES
    assert train.extractor_hidden and min((*train.extractor_hidden, *train.head_hidden)) >= 1


def test_config_overrides_fail_only_with_config_errors():
    rng = random.Random(20261020)
    accepted = 0
    for _ in range(3000):
        kv = parse_config_text(rng.choice(CONFIGS))
        kv.update((rng.choice(KEYS), rng.choice(VALUES)) for _ in range(rng.randint(1, 4)))
        cfg = _outcome(lambda: build_experiment_config(kv), ConfigError, kv)
        if cfg is not None:
            _check_model_bound(cfg)
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
            _check_model_bound(cfg)
            accepted += 1
    assert accepted > 100


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
    path = tmp_path / "crma_seed0" / "run.json"
    path.parent.mkdir()
    for _ in range(1000):
        data = _mutated_run_json(rng, text)
        path.write_bytes(data)
        _outcome(lambda: RunRecord.read(path), ConfigError, data)


def test_metrics_csv_fails_only_with_config_errors(run_dir, tmp_path):
    rng = random.Random(13)
    run_json, metrics = (run_dir / "run.json").read_text(), (run_dir / "metrics.csv").read_bytes()
    out = tmp_path / "out"
    target = out / "runs" / run_dir.name
    target.mkdir(parents=True)
    for _ in range(300):
        (target / "run.json").write_bytes(_mutated_run_json(rng, run_json) if rng.random() < 0.3
                                          else run_json.encode())
        data = _mutate(rng, metrics, b",.\n\r0123456789eE-_abcLnst\xff\x80")
        (target / "metrics.csv").write_bytes(data)
        _outcome(lambda: emit_curves(out), ConfigError, data)


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
