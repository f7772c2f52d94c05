import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crma.data import (
    FEATURE_DIM,
    MAX_FEATURE_BYTES,
    BatchIterator,
    Domain,
    InsufficientDataError,
    ShiftSpec,
    TaskSpec,
    apply_shift,
    generate_task,
)

from oracles import invert_shift


def blob_spec(**kwargs):
    defaults = dict(
        generator="gaussian_blobs",
        num_classes=4,
        samples_per_domain=200,
        source_shifts=[ShiftSpec(), ShiftSpec(rotation=0.4)],
        target_shift=ShiftSpec(rotation=0.2),
        seed=7,
    )
    defaults.update(kwargs)
    return TaskSpec(**defaults)


def test_same_seed_is_bit_identical():
    a = generate_task(TaskSpec(samples_per_domain=100, seed=3))
    b = generate_task(TaskSpec(samples_per_domain=100, seed=3))
    for da, db in zip(a.sources, b.sources):
        np.testing.assert_array_equal(da.features, db.features)
        np.testing.assert_array_equal(da.labels, db.labels)
    np.testing.assert_array_equal(a.target.features, b.target.features)
    np.testing.assert_array_equal(a.target_test_features, b.target_test_features)
    np.testing.assert_array_equal(a.target_test_labels, b.target_test_labels)


def test_identity_shift_leaves_features_alone():
    x = np.random.default_rng(0).standard_normal((10, 2))
    np.testing.assert_array_equal(apply_shift(ShiftSpec(), x), x)


def test_shift_then_inverse_recovers_input():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 2))
    shift = ShiftSpec(rotation=0.7, translation=(1.5, -2.0), scale=2.5)
    back = invert_shift(shift, apply_shift(shift, x))
    np.testing.assert_allclose(back, x, atol=1e-9)


def test_shift_validation():
    with pytest.raises(ValueError):
        ShiftSpec(scale=0.0)
    with pytest.raises(ValueError):
        ShiftSpec(noise_std=-1.0)
    with pytest.raises(ValueError, match="translation must have 2 entries"):
        ShiftSpec(translation=(1, 2, 3))


def test_task_without_sources_rejected():
    with pytest.raises(ValueError, match="at least one source"):
        TaskSpec(source_shifts=[]).validate()


def test_per_domain_noise_changes_only_that_domains_features():
    shifts = [ShiftSpec(), ShiftSpec(rotation=0.4), ShiftSpec(rotation=0.8)]
    clean = generate_task(TaskSpec(samples_per_domain=100, seed=5, source_shifts=shifts))
    noisy_shifts = [shifts[0], ShiftSpec(rotation=0.4, noise_std=0.3), shifts[2]]
    spec = TaskSpec(samples_per_domain=100, seed=5, source_shifts=noisy_shifts)
    noisy, again = generate_task(spec), generate_task(spec)
    for task in (noisy, again):
        assert not np.array_equal(task.sources[1].features, clean.sources[1].features)
        np.testing.assert_array_equal(task.sources[1].labels, clean.sources[1].labels)
        for m in (0, 2):
            np.testing.assert_array_equal(task.sources[m].features, clean.sources[m].features)
            np.testing.assert_array_equal(task.sources[m].labels, clean.sources[m].labels)
        np.testing.assert_array_equal(task.target.features, clean.target.features)
        np.testing.assert_array_equal(task.target_train_labels, clean.target_train_labels)
        np.testing.assert_array_equal(task.target_test_features, clean.target_test_features)
        np.testing.assert_array_equal(task.target_test_labels, clean.target_test_labels)
    # the draw is seeded: two generations agree bit for bit
    np.testing.assert_array_equal(noisy.sources[1].features, again.sources[1].features)
    with pytest.raises(ValueError, match="needs an rng"):
        apply_shift(noisy_shifts[1], clean.sources[1].features)


def test_labels_balanced_both_generators():
    for spec in (TaskSpec(samples_per_domain=500, seed=2), blob_spec(samples_per_domain=500)):
        task = generate_task(spec)
        for domain in task.sources:
            counts = np.bincount(domain.labels, minlength=spec.num_classes)
            expected = spec.samples_per_domain / spec.num_classes
            assert np.all(np.abs(counts - expected) <= 0.1 * expected)


def test_uneven_class_counts_differ_by_at_most_one():
    spec = blob_spec(num_classes=3, samples_per_domain=500)
    task = generate_task(spec)
    for domain in task.sources:
        np.testing.assert_array_equal(np.bincount(domain.labels), [167, 167, 166])
    np.testing.assert_array_equal(np.bincount(task.target_test_labels), [33, 33, 33])


def test_target_split_disjoint_and_stratified():
    spec = blob_spec(samples_per_domain=400)
    task = generate_task(spec)
    n_train = task.target.features.shape[0]
    n_test = task.target_test_features.shape[0]
    assert n_train + n_test == spec.samples_per_domain
    assert n_test == pytest.approx(0.2 * spec.samples_per_domain, abs=spec.num_classes)
    # stratified: each class contributes ~20% of its members
    test_counts = np.bincount(task.target_test_labels, minlength=4)
    np.testing.assert_array_equal(test_counts, np.full(4, 400 // 4 // 5))
    # disjoint: no shared rows between the splits
    train_rows = {tuple(row) for row in task.target.features}
    test_rows = {tuple(row) for row in task.target_test_features}
    assert not train_rows & test_rows
    assert task.target.labels is None
    assert task.target_train_labels.shape == (n_train,)


def test_insufficient_samples_rejected():
    with pytest.raises(InsufficientDataError):
        generate_task(blob_spec(samples_per_domain=15))  # below 4*K=16


def test_two_moons_requires_two_classes():
    with pytest.raises(ValueError, match="2 classes"):
        generate_task(TaskSpec(generator="two_moons", num_classes=3, samples_per_domain=100))


def test_unknown_generator_rejected():
    with pytest.raises(ValueError, match="unknown generator"):
        generate_task(TaskSpec(generator="spirals", samples_per_domain=100))


def test_feature_byte_bound_admits_a_task_at_the_bound_only():
    # four domains of FEATURE_DIM float64 columns
    at_bound = MAX_FEATURE_BYTES // (4 * FEATURE_DIM * 8)
    TaskSpec(samples_per_domain=at_bound).validate()
    with pytest.raises(ValueError, match="over the 1073741824-byte bound"):
        TaskSpec(samples_per_domain=at_bound + 1).validate()


@pytest.mark.parametrize(
    "spec, domain",
    [
        (TaskSpec(samples_per_domain=40, generator_noise=1e308), "source0"),
        (TaskSpec(samples_per_domain=40, target_shift=ShiftSpec(noise_std=1e308)), "target"),
        (blob_spec(source_shifts=[ShiftSpec(), ShiftSpec(scale=1e308)]), "source1"),
    ],
)
def test_non_finite_features_are_rejected_naming_the_domain(spec, domain):
    with pytest.raises(ValueError, match=f"domain '{domain}': generated features are not all finite"):
        generate_task(spec)


# batching ----------------------------------------------------------------------


def small_task():
    return generate_task(TaskSpec(samples_per_domain=60, seed=11))


def test_full_batch_covers_domain_each_epoch():
    task = small_task()
    n_target = task.target.features.shape[0]
    it = BatchIterator(task.sources, task.target, n_target, seed=0)
    # target is the largest domain here, so one batch per epoch... only if
    # sources are smaller; sources have 60 > 48 target samples
    assert it.batches_per_epoch == math.ceil(60 / n_target)
    batch = next(iter(it))
    assert sorted(batch.target_indices.tolist()) == list(range(n_target))


def test_epoch_coverage_with_wraparound():
    task = small_task()
    it = BatchIterator(task.sources, task.target, 16, seed=5)
    stream = iter(it)
    seen_source = [set() for _ in task.sources]
    seen_target = set()
    for _ in range(it.batches_per_epoch):
        batch = next(stream)
        for m, idx in enumerate(batch.source_indices):
            assert idx.shape == (16,)
            seen_source[m].update(idx.tolist())
        seen_target.update(batch.target_indices.tolist())
    for m, domain in enumerate(task.sources):
        assert seen_source[m] == set(range(domain.features.shape[0]))
    assert seen_target == set(range(task.target.features.shape[0]))


def test_equal_seeds_emit_identical_sequences():
    task = small_task()
    a = iter(BatchIterator(task.sources, task.target, 8, seed=9))
    b = iter(BatchIterator(task.sources, task.target, 8, seed=9))
    for _ in range(20):
        ba, bb = next(a), next(b)
        for ia, ib in zip(ba.source_indices, bb.source_indices):
            np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(ba.target_indices, bb.target_indices)


def test_batch_labels_align_with_features():
    task = small_task()
    batch = next(iter(BatchIterator(task.sources, task.target, 8, seed=1)))
    for m, domain in enumerate(task.sources):
        np.testing.assert_array_equal(
            batch.source_features[m], domain.features[batch.source_indices[m]]
        )
        np.testing.assert_array_equal(
            batch.source_labels[m], domain.labels[batch.source_indices[m]]
        )


def test_empty_domain_rejected():
    task = small_task()
    empty = Domain("empty", np.zeros((0, 2)), np.zeros(0, dtype=np.int32))
    with pytest.raises(ValueError, match="empty"):
        BatchIterator([empty], task.target, 4, seed=0)


def test_oversized_batch_rejected():
    task = small_task()
    with pytest.raises(ValueError, match="exceeds"):
        BatchIterator(task.sources, task.target, 10_000, seed=0)


def test_a_training_process_never_imports_numpy_ma():
    # np.unique's first call imports numpy.ma, which costs start-up time and memory
    script = (
        "import sys\n"
        "from crma.data import TaskSpec, generate_task\n"
        "from crma.trainer import TrainConfig, train\n"
        "task = generate_task(TaskSpec(samples_per_domain=200))\n"
        "train(TrainConfig(epochs=1, extractor_hidden=(8,), head_hidden=(4,)), task)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_default_spec_is_the_rotated_moons_benchmark():
    spec = TaskSpec()
    assert spec.generator == "two_moons"
    rotations = [round(math.degrees(s.rotation)) for s in spec.source_shifts]
    assert rotations == [0, 15, 30]
    assert round(math.degrees(spec.target_shift.rotation)) == 45
    assert spec.samples_per_domain == 2000
