import hashlib
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from crma.data import (
    FEATURE_DIM,
    MAX_FEATURE_BYTES,
    BatchIterator,
    DomainBatch,
    InsufficientDataError,
    ShiftSpec,
    TaskSpec,
    apply_shift,
    generate_task,
)
from crma.seeds import stream_seed

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
    np.testing.assert_array_equal(a.source_features, b.source_features)
    np.testing.assert_array_equal(a.source_labels, b.source_labels)
    np.testing.assert_array_equal(a.target_features, b.target_features)
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
        assert not np.array_equal(task.source_features[1], clean.source_features[1])
        np.testing.assert_array_equal(task.source_labels[1], clean.source_labels[1])
        for m in (0, 2):
            np.testing.assert_array_equal(task.source_features[m], clean.source_features[m])
            np.testing.assert_array_equal(task.source_labels[m], clean.source_labels[m])
        np.testing.assert_array_equal(task.target_features, clean.target_features)
        np.testing.assert_array_equal(task.target_train_labels, clean.target_train_labels)
        np.testing.assert_array_equal(task.target_test_features, clean.target_test_features)
        np.testing.assert_array_equal(task.target_test_labels, clean.target_test_labels)
    # the draw is seeded: two generations agree bit for bit
    np.testing.assert_array_equal(noisy.source_features[1], again.source_features[1])
    with pytest.raises(ValueError, match="needs an rng"):
        apply_shift(noisy_shifts[1], clean.source_features[1])


def test_labels_balanced_both_generators():
    for spec in (TaskSpec(samples_per_domain=500, seed=2), blob_spec(samples_per_domain=500)):
        task = generate_task(spec)
        for labels in task.source_labels:
            counts = np.bincount(labels, minlength=spec.num_classes)
            expected = spec.samples_per_domain / spec.num_classes
            assert np.all(np.abs(counts - expected) <= 0.1 * expected)


def test_uneven_class_counts_differ_by_at_most_one():
    spec = blob_spec(num_classes=3, samples_per_domain=500)
    task = generate_task(spec)
    for labels in task.source_labels:
        np.testing.assert_array_equal(np.bincount(labels), [167, 167, 166])
    np.testing.assert_array_equal(np.bincount(task.target_test_labels), [33, 33, 33])


def test_target_split_disjoint_and_stratified():
    spec = blob_spec(samples_per_domain=400)
    task = generate_task(spec)
    n_train = task.target_features.shape[0]
    n_test = task.target_test_features.shape[0]
    assert n_train + n_test == spec.samples_per_domain
    assert n_test == pytest.approx(0.2 * spec.samples_per_domain, abs=spec.num_classes)
    # stratified: each class contributes ~20% of its members
    test_counts = np.bincount(task.target_test_labels, minlength=4)
    np.testing.assert_array_equal(test_counts, np.full(4, 400 // 4 // 5))
    # disjoint: no shared rows between the splits
    train_rows = {tuple(row) for row in task.target_features}
    test_rows = {tuple(row) for row in task.target_test_features}
    assert not train_rows & test_rows
    # the batches training sees carry no target labels
    assert [f.name for f in fields(DomainBatch) if "labels" in f.name] == ["source_labels"]
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
    n_target = task.target_features.shape[0]
    it = BatchIterator(task, n_target, seed=0)
    # target is the largest domain here, so one batch per epoch... only if
    # sources are smaller; sources have 60 > 48 target samples
    assert it.batches_per_epoch == math.ceil(60 / n_target)
    batch = next(iter(it))
    assert sorted(batch.target_indices.tolist()) == list(range(n_target))


def test_epoch_coverage_with_wraparound():
    task = small_task()
    it = BatchIterator(task, 16, seed=5)
    stream = iter(it)
    seen_source = [set() for _ in range(task.num_sources)]
    seen_target = set()
    for _ in range(it.batches_per_epoch):
        batch = next(stream)
        for m, idx in enumerate(batch.source_indices):
            assert idx.shape == (16,)
            seen_source[m].update(idx.tolist())
        seen_target.update(batch.target_indices.tolist())
    for seen in seen_source:
        assert seen == set(range(task.source_features.shape[1]))
    assert seen_target == set(range(task.target_features.shape[0]))


def test_equal_seeds_emit_identical_sequences():
    task = small_task()
    a = iter(BatchIterator(task, 8, seed=9))
    b = iter(BatchIterator(task, 8, seed=9))
    for _ in range(20):
        ba, bb = next(a), next(b)
        for ia, ib in zip(ba.source_indices, bb.source_indices):
            np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(ba.target_indices, bb.target_indices)


def test_batch_labels_align_with_features():
    # each index array gathers exactly its batch's features and labels
    task = small_task()
    stream = iter(BatchIterator(task, 8, seed=1))
    for _ in range(20):
        batch = next(stream)
        for m, idx in enumerate(batch.source_indices):
            np.testing.assert_array_equal(batch.source_features[m], task.source_features[m][idx])
            np.testing.assert_array_equal(batch.source_labels[m], task.source_labels[m][idx])
        np.testing.assert_array_equal(batch.target_features, task.target_features[batch.target_indices])


def test_target_train_labels_name_the_moon_of_each_target_sample():
    # noise-free moons: class 0 lies on the unit circle about (-0.5, -0.25)
    spec = TaskSpec(samples_per_domain=200, seed=4, generator_noise=0.0)
    task = generate_task(spec)
    unshifted = invert_shift(spec.target_shift, task.target_features)
    distance = np.hypot(unshifted[:, 0] + 0.5, unshifted[:, 1] + 0.25)
    moon = np.where(np.isclose(distance, 1.0, rtol=0.0, atol=1e-9), 0, 1)
    np.testing.assert_array_equal(task.target_train_labels, moon)
    assert set(moon.tolist()) == {0, 1}


def test_batch_stream_bits_are_pinned():
    # the stream train draws for TaskSpec(seed=3): 40 batches, so both wraps
    # into a fresh shuffle (target after 12.5 batches, sources after 15.6) are in it
    task = generate_task(TaskSpec(seed=3))
    stream = iter(BatchIterator(task, 128, stream_seed(3, "shuffle")))
    h = hashlib.sha256()
    for _ in range(40):
        batch = next(stream)
        for a in (batch.source_features, batch.source_labels, batch.target_features,
                  batch.source_indices, batch.target_indices):
            h.update(str((a.dtype.str, a.shape)).encode())
            h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == "e7cda7be588ab4564fc1514d3c5cb4485e4db56e68240f0f8e7f2879941bb5f9"


def test_empty_domain_rejected():
    task = small_task()
    empty = replace(
        task, source_features=np.zeros((1, 0, 2)), source_labels=np.zeros((1, 0), dtype=np.int32)
    )
    with pytest.raises(ValueError, match="empty"):
        BatchIterator(empty, 4, seed=0)


def test_oversized_batch_rejected():
    task = small_task()
    with pytest.raises(ValueError, match="exceeds"):
        BatchIterator(task, 10_000, seed=0)


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
