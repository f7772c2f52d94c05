import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crma.cli import (
    ABLATION_GRID,
    CONFIG_KEYS,
    SHIFT_KEYS,
    ConfigError,
    RunRecord,
    ablation_variants,
    aggregate,
    build_experiment_config,
    effective_config_text,
    execute,
    main,
    parse_config_text,
    plan,
    run_variants,
    write_results,
    _variant_for,
)
from crma.data import FEATURE_DIM, generate_task
from crma.nn import parameters_digest
from crma.trainer import TrainConfig, history_columns, load_checkpoint, save_checkpoint, train

ROOT = Path(__file__).resolve().parents[1]

TINY = """
# small everything so the suite stays fast
task.samples_per_domain = 80
train.epochs = 2
train.batch_per_domain = 16
train.extractor_hidden = 12,8
train.head_hidden = 6
run.num_seeds = 2
"""


def write_cfg(tmp_path, text=TINY, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_config_text_basics():
    kv = parse_config_text("a.b = 1  # trailing comment\n\n# full comment\n c.d=x=y \n")
    assert kv == {"a.b": "1", "c.d": "x=y"}
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words")


def test_unknown_key_suggests_nearest():
    with pytest.raises(ConfigError, match=r"trian\.alpha.*train\.alpha"):
        build_experiment_config({"trian.alpha": "0.5"})
    with pytest.raises(ConfigError, match=r"did you mean 'task\.source_shifts\.5\.rotation'"):
        build_experiment_config({"task.source_shifts.5.rotaton": "0.5"})


def test_defaults_without_any_keys():
    cfg = build_experiment_config({})
    assert cfg.num_seeds == 5
    assert cfg.methods == ("crma", "source_only")
    assert cfg.train.alpha == 0.5
    assert cfg.train.lam == 0.1
    assert cfg.train.epochs == 50
    assert cfg.train.batch_per_domain == 128
    assert cfg.train.base_lr == 1e-3
    assert len(cfg.task.source_shifts) == 3


def test_value_parsing_and_overrides():
    cfg = build_experiment_config(
        {
            "train.alpha": "0.7",
            "train.lambda": "0.3",
            "train.intra_da": "false",
            "train.extractor_hidden": "10,10",
            "task.generator": "gaussian_blobs",
            "task.num_classes": "4",
            "task.generator_noise": "0.4",
            "task.source_shifts.0.rotation_deg": "10",
            "task.source_shifts.1.rotation": "0.5",
            "task.source_shifts.1.translation": "1.0,-2.0",
            "task.target_shift.scale": "2.0",
            "run.methods": "crma",
        }
    )
    assert cfg.train.alpha == 0.7 and cfg.train.lam == 0.3
    assert cfg.train.ablation.intra_da is False
    assert cfg.train.extractor_hidden == (10, 10)
    assert cfg.task.generator == "gaussian_blobs"
    assert cfg.task.source_shifts[0].rotation == pytest.approx(math.radians(10))
    assert cfg.task.source_shifts[1].rotation == 0.5
    assert cfg.task.source_shifts[1].translation == (1.0, -2.0)
    assert cfg.task.target_shift.scale == 2.0
    assert cfg.methods == ("crma",)


def test_bad_values_are_config_errors(tmp_path, monkeypatch, capsys):
    for kv in (
        {"train.alpha": "fast"},
        {"train.intra_da": "maybe"},
        {"run.methods": "crma,unknown_method"},
        {"task.source_shifts.0.rotation": "1", "task.source_shifts.0.rotation_deg": "2"},
        {"task.source_shifts.1.rotation": "1"},  # index 0 missing
        {"train.epochs": "0"},
        {"train.extractor_hidden": ""},
        {"train.extractor_hidden": "0"},
        {"train.extractor_hidden": "8,-1"},
        {"train.head_hidden": "0"},
        {"task.seed": "-1"},
        {"train.seed": "-1"},
        {"run.methods": ""},
        {"run.methods": "crma,crma"},
        {"run.output_dir": ""},
        {"train.optimizer": "adam"},
        {"train.scheduler": "step"},
        {"train.alpha": "-1"},
        {"train.lambda": "-0.1"},
        {"train.base_lr": "0"},
        {"train.extractor_lr_multiplier": "0"},
        {"run.num_seeds": "0"},
        {"task.source_shifts.0.translation": "1,2,3"},
        {"task.generator": "gaussian_blobs", "task.num_classes": "1"},
        {"train.extractor_hidden": "64,,64"},
        {"train.head_hidden": ","},
        {"run.methods": "crma,,source_only"},
        {"run.methods": "crma,"},
        {"run.num_seeds": "10001"},
        # effective.cfg would read these back as "res", as two lines and as "out"
        {"run.output_dir": "res#1"},
        {"run.output_dir": "a\nb"},
        {"run.output_dir": " out"},
    ):
        with pytest.raises(ConfigError):
            build_experiment_config(kv)
    monkeypatch.chdir(tmp_path)
    cfg_path = write_cfg(tmp_path)
    for out in ("res#1", "a\nb"):
        assert main(["run", str(cfg_path), "--out", out, "--run.num_seeds=1"]) == 1
        assert "run.output_dir" in capsys.readouterr().err
    assert not any(p.is_dir() for p in tmp_path.iterdir())


def test_seed_count_is_bounded_before_anything_is_planned(monkeypatch):
    from crma import cli as cli_module, data

    kv = {"task.samples_per_domain": "80", "train.batch_per_domain": "16"}
    most = str(cli_module.MAX_SEEDS)
    assert build_experiment_config({**kv, "run.num_seeds": most}).num_seeds == cli_module.MAX_SEEDS
    with pytest.raises(ConfigError, match="run.num_seeds=100000000 is over"):
        build_experiment_config({**kv, "run.num_seeds": "100000000"})
    # a sweep draws every seed's task before its first run, so their features share the bound
    task_bytes = 4 * 80 * FEATURE_DIM * 8  # three sources and the target
    monkeypatch.setattr(data, "MAX_FEATURE_BYTES", 3 * task_bytes)
    assert build_experiment_config({**kv, "run.num_seeds": "3"}).num_seeds == 3
    with pytest.raises(ConfigError, match=f"for 4 tasks, over the {3 * task_bytes}-byte bound"):
        build_experiment_config({**kv, "run.num_seeds": "4"})


def test_an_empty_head_hidden_means_no_hidden_layer():
    cfg = build_experiment_config({"train.head_hidden": ""})
    assert cfg.train.head_hidden == ()
    text = effective_config_text(cfg)
    assert "train.head_hidden = \n" in text
    assert build_experiment_config(parse_config_text(text)) == cfg


@pytest.mark.parametrize("key", ["train.extractor_hidden", "train.head_hidden"])
def test_a_model_over_the_byte_bound_is_a_config_error(key):
    # rejected before anything allocates the model's 143 or 286 GiB
    with pytest.raises(ConfigError, match="over the 1073741824-byte bound"):
        build_experiment_config({key: "100000000"})


def test_effective_config_round_trips_exactly():
    cfg = build_experiment_config(parse_config_text(TINY))
    text = effective_config_text(cfg)
    reparsed = build_experiment_config(parse_config_text(text))
    assert reparsed == cfg
    # and the re-serialization is byte-stable
    assert effective_config_text(reparsed) == text


def test_ablation_variants_follow_grid_order():
    variants = ablation_variants()
    assert [(v.flags.intra_da, v.flags.inter_da, v.flags.ast) for v in variants] == list(
        ABLATION_GRID
    )
    assert variants[0].label == "crma_i0e0a0"
    assert variants[-1].label == "crma_i1e1a1"


def test_run_command_end_to_end(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["run", str(cfg_path), "--out", str(out)])
    assert code == 0

    results = (out / "results.csv").read_text().strip().splitlines()
    assert results[0] == "method,intra_da,inter_da,ast,seed,target_acc"
    assert len(results) == 1 + 2 * 2  # two methods x two seeds

    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "method,intra_da,inter_da,ast,num_seeds,acc_mean,acc_std"
    assert len(summary) == 3
    assert (out / "summary.txt").exists()
    assert (out / "effective.cfg").exists()

    run_dirs = sorted(p.name for p in (out / "runs").iterdir())
    assert run_dirs == ["crma_seed0", "crma_seed1", "source_only_seed0", "source_only_seed1"]
    for d in run_dirs:
        assert (out / "runs" / d / "metrics.csv").exists()
        assert (out / "runs" / d / "model.ckpt").exists()
        meta = json.loads((out / "runs" / d / "run.json").read_text())
        assert set(meta) == {"method", "intra_da", "inter_da", "ast", "seed", "epochs", "final_acc"}
    table = capsys.readouterr().out
    assert "crma" in table and "source_only" in table


def test_rerun_is_bit_identical(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg_path), "--out", str(out_b)]) == 0
    for rel in ("results.csv", "summary.csv", "summary.txt"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
    for run_dir in (out_a / "runs").iterdir():
        twin = out_b / "runs" / run_dir.name
        assert (run_dir / "metrics.csv").read_bytes() == (twin / "metrics.csv").read_bytes()
        assert (run_dir / "model.ckpt").read_bytes() == (twin / "model.ckpt").read_bytes()


def test_rerun_from_effective_config_matches(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out_a = tmp_path / "a"
    assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0
    out_b = tmp_path / "b"
    assert main(["run", str(out_a / "effective.cfg"), "--out", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_cli_override_applies(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--run.num_seeds=1",
                 "--run.methods=source_only"]) == 0
    results = (out / "results.csv").read_text().strip().splitlines()
    assert len(results) == 2
    assert results[1].startswith("source_only,0,0,0,0,")


def test_cli_unknown_key_exits_one(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, text="trian.alpha = 0.5\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "train.alpha" in capsys.readouterr().err


def test_cli_missing_config_exits_one(tmp_path, capsys):
    # a loop keeps the test's id; the second config file is not UTF-8 text
    (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe\x00")
    for name in ("nope.cfg", "binary.cfg"):
        assert main(["run", str(tmp_path / name)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and name in err


def test_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"not a directory")
    for out in (blocker, blocker / "under"):
        assert main(["run", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: run.output_dir") and str(out) in err
    assert blocker.read_bytes() == b"not a directory"


def test_planned_run_dir_naming_a_file_is_a_config_error_before_any_run_trains(
    tmp_path, monkeypatch, capsys
):
    import crma.cli as cli_module

    trained = []
    monkeypatch.setattr(cli_module, "train", lambda cfg, task: trained.append(cfg))
    out = tmp_path / "out"
    blocker = out / "runs" / "crma_seed1"  # the sweep's second run
    blocker.parent.mkdir(parents=True)
    blocker.write_bytes(b"not a directory")
    assert main(["run", str(write_cfg(tmp_path)), "--out", str(out), "--run.methods=crma"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(blocker) in err and "Traceback" not in err
    assert trained == []
    assert sorted(p.name for p in out.rglob("*")) == ["crma_seed1", "runs"]


@pytest.mark.parametrize("blocked", ["runs/crma_seed0/metrics.csv", "effective.cfg", "results.csv"])
def test_a_directory_at_a_planned_file_is_a_config_error_before_any_run_trains(
    tmp_path, monkeypatch, capsys, blocked
):
    import crma.cli as cli_module

    calls = []

    def counted(cfg, task):
        calls.append(cfg)
        return train(cfg, task)

    monkeypatch.setattr(cli_module, "train", counted)
    out = tmp_path / "out"
    (out / blocked / "kept").mkdir(parents=True)
    argv = ["run", str(write_cfg(tmp_path)), "--out", str(out), "--train.epochs=1", "--run.num_seeds=1",
            "--run.methods=crma"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out / blocked) in err and "Traceback" not in err
    assert calls == []
    assert (out / blocked / "kept").is_dir()


def test_curves_with_a_directory_at_the_manifest_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path)), "--out", str(out), "--train.epochs=1",
                 "--run.num_seeds=1", "--run.methods=crma"]) == 0
    for blocked in ("manifest.csv.tmp", "manifest.csv"):
        (out / blocked).mkdir()
        capsys.readouterr()
        assert main(["curves", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(out / blocked) in err and "Traceback" not in err


def test_empty_out_is_a_config_error_and_writes_nothing(tmp_path, monkeypatch, capsys):
    cfg_path = write_cfg(tmp_path)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", str(cfg_path), "--out", ""]) == 1
    assert "config error:" in capsys.readouterr().err
    assert list(cwd.iterdir()) == []


def test_rerun_whose_checkpoint_write_fails_leaves_no_run_record(tmp_path, monkeypatch):
    import crma.cli as cli_module

    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    argv = ["run", str(cfg_path), "--out", str(out), "--run.num_seeds=1", "--run.methods=crma"]
    assert main(argv) == 0
    run_dir = out / "runs" / "crma_seed0"

    def fails_half_way(state, path):
        save_checkpoint(state, path)
        Path(path).write_bytes(Path(path).read_bytes()[: Path(path).stat().st_size // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli_module, "save_checkpoint", fails_half_way)
    with pytest.raises(OSError, match="No space left"):
        main(argv)
    # the earlier sweep's record and checkpoint went before the rerun trained, so
    # nothing reports them beside the rerun's metrics
    assert sorted(p.name for p in run_dir.iterdir()) == ["metrics.csv"]
    assert list(out.rglob("*.tmp")) == []
    assert (out / "results.csv").read_text() == "method,intra_da,inter_da,ast,seed,target_acc\n"
    assert main(["curves", str(out)]) == 0
    assert (out / "manifest.csv").read_text().splitlines()[1:] == []


def test_interrupted_sweep_writes_results_for_the_finished_runs_only(tmp_path, monkeypatch):
    import crma.cli as cli_module

    cfg_path = write_cfg(tmp_path)  # two seeds
    out = tmp_path / "out"
    argv = ["run", str(cfg_path), "--out", str(out), "--run.methods=crma"]
    assert main(argv) == 0  # an earlier finished sweep of both runs

    def second_run_interrupted(cfg, task):
        if cfg.seed == 1:
            raise KeyboardInterrupt
        return train(cfg, task)

    monkeypatch.setattr(cli_module, "train", second_run_interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    results = (out / "results.csv").read_text().splitlines()
    assert len(results) == 2 and results[1].split(",")[4] == "0"
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2 and summary[1].split(",")[4] == "1"
    assert not (out / "runs" / "crma_seed1" / "run.json").exists()
    assert (out / "runs" / "crma_seed0" / "run.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run"],
        ["frobnicate"],
        ["run", "exp.cfg", "--out", "new", "oops"],
        ["curves", "old", "--train.epochs=3", "bogus"],
    ],
    ids=["no-config", "unknown-command", "override-without-equals", "curves-extra-args"],
)
def test_cli_usage_error_exits_one(argv, tmp_path, monkeypatch, capsys):
    # exit 2 means a diverged run, so a bad command line must not use it; it
    # writes nothing, not even the manifest of the empty sweep in "old"
    write_cfg(tmp_path)
    (tmp_path / "old" / "runs").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    assert "config error:" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "override",
    ["--train.base_lr=nan", "--train.alpha=inf", "--task.generator_noise=nan",
     "--task.generator_noise=-0.5", "--task.source_shifts.0.scale=nan",
     "--train.ast_start_epoch=-1", "--task.generator_noise=1e308",
     "--task.source_shifts.0.noise_std=1e308"],
)
def test_non_finite_or_negative_value_is_a_config_error(tmp_path, capsys, override):
    # nan passes every `< 0` check, so each bound also rejects non-finite values
    out = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path)), "--out", str(out), override]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_domain_is_a_config_error_naming_it(tmp_path, capsys):
    # each seed's task is drawn before anything is written
    out = tmp_path / "out"
    argv = ["run", str(ROOT / "configs" / "two_moons.cfg"), "--out", str(out), "--run.num_seeds=1",
            "--train.epochs=1", "--task.source_shifts.1.noise_std=1e308"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "config error: domain 'source1': generated features are not all finite\n"
    assert not out.exists()


def test_task_over_the_feature_byte_bound_is_a_config_error():
    # checked from the spec alone: generating this task would need 373 GiB
    with pytest.raises(ConfigError, match="samples_per_domain=99999999999 implies"):
        build_experiment_config({"task.samples_per_domain": "99999999999"})


def test_batch_larger_than_the_smallest_domain_is_a_config_error(tmp_path, capsys):
    # the batch is checked with the other config keys, before any output is written
    cfg_path = Path(__file__).resolve().parents[1] / "configs" / "two_moons.cfg"
    out = tmp_path / "out"
    argv = ["run", str(cfg_path), "--out", str(out), "--train.epochs=1", "--run.num_seeds=1",
            "--task.samples_per_domain=200", "--train.batch_per_domain=1000"]
    assert main(argv) == 1
    assert "config error: train.batch_per_domain=1000 exceeds the target's 160" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_batch_of_the_whole_target_training_split_trains(tmp_path, capsys):
    # 200 samples per domain hold out 20 per class, so 160 target samples train
    out = tmp_path / "out"
    argv = ["run", str(write_cfg(tmp_path)), "--out", str(out), "--run.num_seeds=1",
            "--run.methods=crma", "--train.epochs=1", "--task.samples_per_domain=200"]
    assert main([*argv, "--train.batch_per_domain=160"]) == 0
    assert len((out / "results.csv").read_text().splitlines()) == 2
    assert main([*argv, "--train.batch_per_domain=161"]) == 1
    assert "161 exceeds the target's 160 training samples" in capsys.readouterr().err


def test_sweep_draws_each_seeds_task_once(tmp_path, monkeypatch):
    import crma.cli as cli_module

    drawn = []

    def counted(spec):
        drawn.append(spec.seed)
        return generate_task(spec)

    monkeypatch.setattr(cli_module, "generate_task", counted)
    text = TINY.replace("task.samples_per_domain = 80", "task.samples_per_domain = 40")
    cfg_path = write_cfg(tmp_path, text=text.replace("train.epochs = 2", "train.epochs = 1"))
    assert main(["ablate", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert drawn == [0, 1]  # 8 variants x 2 seeds, two distinct tasks


SWEEP_LABELS = {
    "run": ["crma", "source_only"],
    "ablate": ["crma_i0e0a0", "crma_i1e0a0", "crma_i0e1a0", "crma_i0e0a1",
               "crma_i1e1a0", "crma_i1e0a1", "crma_i0e1a1", "crma_i1e1a1"],
    "baseline": ["uniform_ensemble", "crma"],
}


@pytest.mark.parametrize("command", sorted(SWEEP_LABELS))
def test_plan_is_the_order_seeds_and_run_dirs_the_sweep_trains(tmp_path, monkeypatch, command):
    import crma.cli as cli_module

    trained = []

    def recorded(cfg, task):
        trained.append((cfg, task.spec))
        return train(cfg, task)

    monkeypatch.setattr(cli_module, "train", recorded)
    text = TINY.replace("task.samples_per_domain = 80", "task.samples_per_domain = 40")
    cfg_path = write_cfg(tmp_path, text=text.replace("train.epochs = 2", "train.epochs = 1"))
    out = tmp_path / "out"
    assert main([command, str(cfg_path), "--out", str(out), "--seed", "3"]) == 0

    cfg = build_experiment_config({**parse_config_text(cfg_path.read_text()), "task.seed": "3",
                                   "train.seed": "3", "run.output_dir": str(out)})
    variants = {
        "run": [_variant_for(m, cfg) for m in cfg.methods],
        "ablate": ablation_variants(),
        "baseline": [_variant_for("uniform_ensemble", cfg), _variant_for("crma", cfg)],
    }[command]
    specs = plan(cfg, variants)
    # variant-major, seed-minor; run i's task and trainer seeds are 3 + i
    expected = [(label, i, 3 + i, 3 + i) for label in SWEEP_LABELS[command] for i in range(2)]
    assert [(s.variant.label, s.seed_index, s.task.seed, s.train.seed) for s in specs] == expected
    assert [s.run_dir for s in specs] == [out / "runs" / f"{label}_seed{seed}" for label, _, seed, _ in expected]
    assert sorted(p.name for p in (out / "runs").iterdir()) == sorted(s.run_dir.name for s in specs)
    for spec in specs:
        v = spec.variant
        assert spec.train == replace(cfg.train, seed=spec.train.seed, ablation=v.flags,
                                     uniform_pseudo_weights=v.method == "uniform_ensemble")
    assert trained == [(s.train, s.task) for s in specs]


def test_execute_writes_its_run_and_the_checkpoint_of_the_trained_state(tmp_path, monkeypatch, capsys):
    import crma.cli as cli_module

    states = []

    def kept(cfg, task):
        state, history = train(cfg, task)
        states.append(state)
        return state, history

    monkeypatch.setattr(cli_module, "train", kept)
    monkeypatch.chdir(tmp_path)
    cfg = build_experiment_config(parse_config_text(TINY))
    spec = plan(cfg, [_variant_for("crma", cfg)])[1]
    record = execute(spec, generate_task(spec.task))
    assert sorted(p.name for p in spec.run_dir.iterdir()) == ["metrics.csv", "model.ckpt", "run.json"]
    assert re.fullmatch(r"crma seed 1: target_acc 0\.\d{4} in \d+\.\d\d s\n", capsys.readouterr().err)
    assert (spec.run_dir / "run.json").read_text() == record.json_text()
    saved = load_checkpoint(spec.run_dir / "model.ckpt", TrainConfig())
    assert parameters_digest(states[0].model.parameters()) == parameters_digest(saved.model.parameters())


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: crma" in capsys.readouterr().out


def test_cli_diverged_run_exits_two(tmp_path, monkeypatch, capsys):
    import crma.cli as cli_module
    from crma.trainer import DivergedRunError, train

    def second_run_explodes(cfg, task):
        if cfg.seed == 0:
            return train(cfg, task)
        _, history = train(replace(cfg, epochs=1), task)  # one epoch in, then it diverges
        raise DivergedRunError("loss 2e+06 at iteration 8", 8, history)

    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "o"
    # a finished sweep into the same directory leaves artifacts for both runs
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "runs" / "crma_seed1" / "run.json").exists()
    capsys.readouterr()
    monkeypatch.setattr(cli_module, "train", second_run_explodes)
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "diverged: loss 2e+06 at iteration 8" in captured.err
    assert captured.out == ""
    # the finished run keeps every artifact, the diverged one its partial metrics
    finished, diverged = out / "runs" / "crma_seed0", out / "runs" / "crma_seed1"
    assert len((finished / "metrics.csv").read_text().splitlines()) == 1 + 2
    assert (finished / "model.ckpt").exists() and (finished / "run.json").exists()
    assert len((diverged / "metrics.csv").read_text().splitlines()) == 1 + 1
    assert not (diverged / "run.json").exists() and not (diverged / "model.ckpt").exists()
    assert main(["curves", str(out)]) == 0  # skips the diverged run
    results = (out / "results.csv").read_text().splitlines()
    assert len(results) == 2 and results[1].startswith("crma,1,1,1,0,")
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2 and summary[1].startswith("crma,1,1,1,1,")
    assert "crma" in (out / "summary.txt").read_text()


def test_sweep_prints_one_progress_line_per_finished_run(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    labels = [line.split(":")[0] for line in lines]
    assert labels == ["crma seed 0", "crma seed 1", "source_only seed 0", "source_only seed 1"]
    results = (out / "results.csv").read_text().splitlines()[1:]
    for line, row in zip(lines, results):
        assert re.fullmatch(r"[a-z_]+ seed \d: target_acc 0\.\d{4} in \d+\.\d\d s", line)
        assert float(line.split("target_acc ")[1].split()[0]) == round(float(row.split(",")[-1]), 4)
    # stdout is the summary table alone, as without progress lines
    assert captured.out == (out / "summary.txt").read_text()


def test_seed_flag_offsets_both_seeds(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--seed", "7",
                 "--run.num_seeds=1", "--run.methods=crma"]) == 0
    results = (out / "results.csv").read_text().strip().splitlines()
    assert results[1].split(",")[4] == "7"
    assert (out / "runs" / "crma_seed7").is_dir()


def test_bad_seed_flag_is_a_config_error(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    for seed in ("-1", "abc"):
        assert main(["run", str(cfg_path), "--out", str(out), "--seed", seed]) == 1
        assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_command_produces_eight_rows(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        text=TINY.replace("task.samples_per_domain = 80", "task.samples_per_domain = 40")
        .replace("run.num_seeds = 2", "run.num_seeds = 1")
        .replace("train.epochs = 2", "train.epochs = 1"),
    )
    out = tmp_path / "out"
    assert main(["ablate", str(cfg_path), "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 9
    flag_rows = [tuple(int(x) for x in line.split(",")[1:4]) for line in summary[1:]]
    assert flag_rows == [(int(a), int(b), int(c)) for a, b, c in ABLATION_GRID]


def test_ablation_all_false_row_equals_source_only(tmp_path):
    base = TINY + "run.num_seeds = 1\n"
    cfg_path = write_cfg(tmp_path, text=base)
    out_ab = tmp_path / "ab"
    out_src = tmp_path / "src"
    assert main(["ablate", str(cfg_path), "--out", str(out_ab)]) == 0
    assert main(["run", str(cfg_path), "--out", str(out_src), "--run.methods=source_only"]) == 0
    ab_rows = (out_ab / "results.csv").read_text().strip().splitlines()[1:]
    src_row = (out_src / "results.csv").read_text().strip().splitlines()[1]
    all_false = next(r for r in ab_rows if r.split(",")[1:4] == ["0", "0", "0"])
    assert all_false.split(",")[5] == src_row.split(",")[5]  # same accuracy


def test_baseline_command_runs_uniform_and_adaptive(tmp_path):
    cfg_path = write_cfg(tmp_path, text=TINY + "run.num_seeds = 1\n")
    out = tmp_path / "out"
    assert main(["baseline", str(cfg_path), "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    methods = [line.split(",")[0] for line in summary[1:]]
    assert methods == ["uniform_ensemble", "crma"]


def test_aggregate_matches_recomputation_from_per_seed_rows(tmp_path):
    cfg = build_experiment_config(parse_config_text(TINY))
    cfg.output_dir = str(tmp_path / "out")
    records = run_variants(cfg, [_variant_for("crma", cfg)])
    write_results(cfg, records)

    lines = Path(cfg.output_dir, "results.csv").read_text().strip().splitlines()[1:]
    accs = [float(line.split(",")[5]) for line in lines]
    _, num_seeds, acc_mean, acc_std = aggregate(records)[0]
    assert acc_mean == pytest.approx(np.mean(accs), rel=1e-15)
    assert acc_std == pytest.approx(np.std(accs), rel=1e-12)  # population
    assert num_seeds == len(accs)


def test_emit_curves_manifest(tmp_path):
    cfg_path = write_cfg(tmp_path, text=TINY + "run.num_seeds = 1\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert main(["curves", str(out)]) == 0
    manifest = (out / "manifest.csv").read_text().strip().splitlines()
    assert manifest[0] == "run_dir,method,intra_da,inter_da,ast,seed,epochs,final_acc"
    assert len(manifest) == 3  # two runs
    assert main(["curves", str(tmp_path / "missing")]) == 1


def test_run_json_round_trips_and_manifest_rows_equal_results_rows(tmp_path):
    cfg_path = write_cfg(tmp_path)  # two seeds
    out = tmp_path / "out"
    assert main(["ablate", str(cfg_path), "--out", str(out), "--train.epochs=1"]) == 0
    assert main(["curves", str(out)]) == 0
    results = {}
    for line in (out / "results.csv").read_text().splitlines()[1:]:
        *key, acc = line.split(",")
        results[tuple(key)] = acc
    manifest = (out / "manifest.csv").read_text().splitlines()[1:]
    assert len(manifest) == len(results) == 2 * len(ABLATION_GRID)
    for line in manifest:
        run_dir, *key, epochs, acc = line.split(",")
        meta = json.loads((out / "runs" / run_dir / "run.json").read_text())
        assert acc == results[tuple(key)] == repr(meta["final_acc"])
        assert epochs == "1"
    for path in (out / "runs").glob("*/run.json"):
        record = RunRecord.read(path)
        assert record.variant.label == path.parent.name
        assert record.json_text().encode() == path.read_bytes()


def test_readme_output_layout_matches_written_files(tmp_path):
    cfg_path = write_cfg(tmp_path, text=TINY + "run.num_seeds = 1\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--run.methods=crma"]) == 0
    assert main(["curves", str(out)]) == 0
    layout = (ROOT / "README.md").read_text().split("### Output layout", 1)[1].split("```")[1]
    # README indents the top-level names by two spaces and a run's files by four
    top, per_run = (re.findall(rf"^ {{{depth}}}(\S+)", layout, re.M) for depth in (2, 4))
    assert sorted(top) == sorted([p.name for p in out.iterdir() if p.is_file()] + ["runs/<label>_seed<k>/"])
    assert [p.name for p in (out / "runs").iterdir()] == ["crma_seed0"]
    assert sorted(per_run) == sorted(p.name for p in (out / "runs" / "crma_seed0").iterdir())
    assert list(out.rglob("*.tmp")) == []
    documented = dict(re.findall(r"^\s+(results\.csv|metrics\.csv)\s+# (\S+)$", layout, re.M))
    assert documented["results.csv"] == (out / "results.csv").read_text().splitlines()[0]
    (metrics,) = (out / "runs").glob("*/metrics.csv")
    header = metrics.read_text().splitlines()[0].split(",")
    num_domains = len(build_experiment_config(parse_config_text(TINY)).task.source_shifts)
    assert header == history_columns(num_domains)
    # README writes the per-domain columns once, as <name>_*
    firsts = [re.sub(r"_0$", "_*", c) for c in header if not re.search(r"_[1-9]\d*$", c)]
    assert documented["metrics.csv"] == ",".join(firsts)


GOOD_RUN_JSON = (
    b'{"method": "crma", "intra_da": true, "inter_da": true, "ast": true, '
    b'"seed": 0, "epochs": 1, "final_acc": 0.5}'
)


@pytest.mark.parametrize(
    "run_json, metrics, bad, says",
    [
        (b'{"method": "crma", "epo', b"epoch\n0\n", "run.json", ""),
        (b'{"method": "crma", "seed": 0, "final_acc": 0.5}', b"epoch\n0\n", "run.json", ""),
        (b"\xff\xfe\x00", b"epoch\n0\n", "run.json", ""),
        (GOOD_RUN_JSON, b"epoch\n\xff\n", "metrics.csv", ""),
        (GOOD_RUN_JSON.replace(b'"intra_da": true', b'"intra_da": "yes"'), b"epoch\n0\n", "run.json", ""),
        (GOOD_RUN_JSON.replace(b'"epochs": 1', b'"epochs": "1"'), b"epoch\n0\n", "run.json", ""),
        (GOOD_RUN_JSON.replace(b'"final_acc": 0.5', b'"final_acc": "x"'), b"epoch\n0\n", "run.json", ""),
        (GOOD_RUN_JSON.replace(b'"intra_da": true', b'"intra_da": 2'), b"epoch\n0\n", "run.json", ""),
        (GOOD_RUN_JSON.replace(b'"final_acc": 0.5', b'"final_acc": NaN'), b"epoch\n0\n", "run.json", ""),
        (GOOD_RUN_JSON.replace(b'"final_acc": 0.5', b'"final_acc": Infinity'), b"epoch\n0\n", "run.json", ""),
        (GOOD_RUN_JSON.replace(b'"final_acc": 0.5', b'"final_acc": 1.5'), b"epoch\n0\n", "run.json", ""),
        (GOOD_RUN_JSON.replace(b'"seed": 0', b'"seed": true'), b"epoch\n0\n", "run.json", ""),
        (GOOD_RUN_JSON.replace(b'"crma"', b'"dann"'), b"epoch\n0\n", "run.json", ""),
        (GOOD_RUN_JSON, b"epoch\n0\n1\n", "metrics.csv", ""),
        (GOOD_RUN_JSON, b"", "metrics.csv", "expected 1 epoch rows, found 0"),
        (GOOD_RUN_JSON.replace(b'"epochs": 1', b'"epochs": 0'), b"epoch\n", "run.json", "invalid epochs"),
        (GOOD_RUN_JSON.replace(b'"seed": 0', b'"seed": -4'), b"epoch\n0\n", "run.json", "invalid seed"),
    ],
    ids=[
        "truncated", "no-epochs", "non-utf8", "non-utf8-metrics", "bad-flag", "str-epochs",
        "str-final-acc", "int-flag", "nan-final-acc", "inf-final-acc", "final-acc-above-1",
        "bool-seed", "unknown-method", "extra-epoch-row", "empty-metrics", "zero-epochs",
        "negative-seed",
    ],
)
def test_emit_curves_malformed_run_json_is_a_config_error(tmp_path, capsys, run_json, metrics, bad, says):
    # what a killed sweep or another program can leave behind
    run_dir = tmp_path / "out" / "runs" / "crma_seed0"
    run_dir.mkdir(parents=True)
    (run_dir / "run.json").write_bytes(run_json)
    (run_dir / "metrics.csv").write_bytes(metrics)
    assert main(["curves", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(run_dir / bad) in err and says in err


def test_uniform_ensemble_equals_ast_pseudo_labels_single_source():
    # with one source the weights normalize away: identical pseudo-labels
    from crma.losses import fuse_pseudo_labels

    rng = np.random.default_rng(0)
    d = rng.uniform(0.01, 0.5, (10, 1))
    means = np.array([0.2])
    logits = rng.standard_normal((1, 10, 3))
    e = np.exp(logits)
    mean_preds = e / e.sum(axis=2, keepdims=True)
    adaptive = fuse_pseudo_labels(d, mean_preds, means, 0.1, uniform=False)
    uniform = fuse_pseudo_labels(d, mean_preds, means, 0.1, uniform=True)
    np.testing.assert_allclose(adaptive.probs, uniform.probs, rtol=1e-12)


def test_readme_key_table_lists_exactly_the_config_keys():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    expected = [key for key, *_ in CONFIG_KEYS] + [
        f"{prefix}.{name}"
        for prefix in ("task.source_shifts.N", "task.target_shift")
        for name, *_ in SHIFT_KEYS
    ]
    assert sorted(documented) == sorted(expected)
