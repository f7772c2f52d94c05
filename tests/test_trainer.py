import ctypes
import hashlib
import io
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from crma.autodiff import Tape
from crma.data import BatchIterator, ShiftSpec, TaskSpec, generate_task
from crma.losses import intra_consistency_loss, source_ce_loss
from crma.nn import CrmaModel, parameters_digest
from crma.trainer import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    AblationFlags,
    ConfidenceTracker,
    DivergedRunError,
    FormatError,
    SgdOptimizer,
    TrainConfig,
    TrainState,
    evaluate,
    learning_rate,
    load_checkpoint,
    save_checkpoint,
    step_ast,
    step_classifiers,
    step_extractor,
    step_source,
    train,
    write_history_csv,
)

from oracles import (
    EXTRACTOR_GROUP,
    ast_beta,
    classifier_group,
    domain_weights,
    group_parameters,
    pseudo_label,
    stack,
)


def tiny_task(seed=0, n=80):
    return generate_task(TaskSpec(samples_per_domain=n, seed=seed))


def fresh_state(task, seed=0, momentum=True, **cfg_kwargs):
    cfg = TrainConfig(
        epochs=1,
        batch_per_domain=16,
        seed=seed,
        optimizer="sgd_momentum" if momentum else "sgd",
        extractor_hidden=(16, 8),
        head_hidden=(8,),
        **cfg_kwargs,
    )
    model = CrmaModel(
        input_dim=2,
        num_classes=task.spec.num_classes,
        num_domains=task.num_sources,
        extractor_hidden=cfg.extractor_hidden,
        head_hidden=cfg.head_hidden,
        rng=np.random.default_rng(seed),
    )
    return TrainState(model, cfg)


def first_batch(task, b=16, seed=0):
    return next(iter(BatchIterator(task, b, seed=seed)))


def digests(model):
    ext = parameters_digest(group_parameters(model, EXTRACTOR_GROUP))
    clf = parameters_digest(group_parameters(model, "classifier"))
    return ext, clf


# individual phases -----------------------------------------------------------


def test_step_source_zero_lr_keeps_parameters():
    task = tiny_task()
    state = fresh_state(task)
    batch = first_batch(task)
    before = parameters_digest(state.model.parameters())
    loss = step_source(state, batch, lr=0.0)
    assert loss > 0
    assert parameters_digest(state.model.parameters()) == before


def test_step_source_descends_on_full_batch():
    task = tiny_task(seed=4)
    state = fresh_state(task, seed=4)
    n_target = task.target_features.shape[0]
    batch = first_batch(task, b=min(80, n_target))
    values = [step_source(state, batch, lr=0.05) for _ in range(40)]
    assert values[-1] < values[0]
    assert all(b <= a + 1e-6 for a, b in zip(values, values[1:]))  # near-monotone


def test_source_gradients_stay_in_own_heads():
    task = tiny_task(seed=5)
    state = fresh_state(task, seed=5)
    batch = first_batch(task)
    model = state.model
    with Tape() as tape:
        feats = model.forward_features(batch.source_features[0])
        pred_a, pred_b = model.predict_pair(0, feats)
        loss = source_ce_loss(stack([stack([pred_a, pred_b])]), np.array([batch.source_labels[0]]))
    state.optimizer.zero_grad()
    tape.backward(loss)
    for leaf in model.head_leaves:
        assert leaf.grad is not None
        assert not np.any(leaf.grad[1:])  # the other pairs' entries of the leaves stay zero


def test_step_classifiers_freezes_extractor():
    task = tiny_task(seed=6)
    state = fresh_state(task, seed=6)
    batch = first_batch(task)
    ext_before, clf_before = digests(state.model)
    step_classifiers(state, batch, lr=1e-3)
    ext_after, clf_after = digests(state.model)
    assert ext_after == ext_before
    assert clf_after != clf_before


def test_step_classifiers_skipped_when_ablated():
    task = tiny_task(seed=7)
    state = fresh_state(task, seed=7, ablation=AblationFlags(intra_da=False))
    batch = first_batch(task)
    before = parameters_digest(state.model.parameters())
    step_classifiers(state, batch, lr=1e-3)
    assert parameters_digest(state.model.parameters()) == before


def test_step_extractor_freezes_classifiers():
    task = tiny_task(seed=8)
    state = fresh_state(task, seed=8)
    batch = first_batch(task)
    ext_before, clf_before = digests(state.model)
    result = step_extractor(state, batch, lr=1e-3)
    assert result is not None
    ext_after, clf_after = digests(state.model)
    assert clf_after == clf_before
    assert ext_after != ext_before


def test_two_extractor_steps_equal_two_single_steps():
    task = tiny_task(seed=10)
    batch = first_batch(task)
    twice = fresh_state(task, seed=10, num_extractor_steps=2)
    once = fresh_state(task, seed=10)
    heads_before = [leaf.values.copy() for leaf in twice.model.head_leaves]
    first = step_extractor(twice, batch, lr=1e-2)
    assert first == step_extractor(once, batch, lr=1e-2)  # the first step's pre-step values
    after_one = [leaf.values.copy() for leaf in once.model.extractor_leaves]
    assert step_extractor(once, batch, lr=1e-2) != first
    for a, b in zip(twice.optimizer.leaves, once.optimizer.leaves):
        np.testing.assert_array_equal(a.values, b.values)
    for a, b in zip(twice.optimizer.velocities, once.optimizer.velocities):
        np.testing.assert_array_equal(a, b)
    second_step = zip(twice.model.extractor_leaves, after_one)
    assert any(not np.array_equal(leaf.values, v) for leaf, v in second_step)
    num_extractor = len(twice.model.extractor_leaves)
    for leaf, before in zip(twice.model.head_leaves, heads_before):
        np.testing.assert_array_equal(leaf.values, before)
    assert not any(v.any() for v in twice.optimizer.velocities[num_extractor:])


def test_step_extractor_noop_when_single_source_and_intra_off():
    task = generate_task(
        TaskSpec(samples_per_domain=60, seed=9, source_shifts=[ShiftSpec()])
    )
    state = fresh_state(task, seed=9, ablation=AblationFlags(intra_da=False, inter_da=True))
    batch = first_batch(task)
    before = parameters_digest(state.model.parameters())
    assert step_extractor(state, batch, lr=1e-3) is None
    assert parameters_digest(state.model.parameters()) == before


def test_minmax_direction_on_full_batch():
    # after source pretraining, the classifier step pushes the pair
    # discrepancy up and the extractor step pushes its objective down
    increases, decreases = 0, 0
    for seed in range(3):
        task = tiny_task(seed=seed, n=120)
        state = fresh_state(task, seed=seed, momentum=False)
        n_target = task.target_features.shape[0]
        batch = first_batch(task, b=min(120, n_target), seed=seed)
        for _ in range(150):
            step_source(state, batch, lr=0.05)

        def measure():
            feats = state.model.forward_features(batch.target_features)
            return intra_consistency_loss(state.model.head_probs(feats)).item()

        before = measure()
        step_classifiers(state, batch, lr=1e-4)
        if measure() > before:
            increases += 1

        before_obj = measure()
        step_extractor(state, batch, lr=1e-4)
        if measure() < before_obj:
            decreases += 1
    assert increases == 3 and decreases == 3


def test_phases_skip_their_frozen_side():
    task = tiny_task(seed=9)
    state = fresh_state(task, seed=9)
    model = state.model
    batch = first_batch(task)
    extractor, heads = model.extractor_leaves, model.head_leaves

    step_classifiers(state, batch, lr=1e-3)
    assert all(t.grad is None for t in extractor)
    assert all(t.grad is not None for t in heads)

    step_extractor(state, batch, lr=1e-3)
    assert all(t.grad is None for t in heads)
    assert all(t.grad is not None for t in extractor)
    # freezing is scoped to the phase's forward pass
    assert all(t.requires_grad for t in (*model.extractor_leaves, *model.head_leaves))


def test_step_keeps_a_frozen_leaf_and_its_velocity():
    task = tiny_task(seed=9)
    state = fresh_state(task, seed=9)
    optimizer = state.optimizer
    step_source(state, first_batch(task), lr=1e-3)  # leaves every velocity nonzero
    frozen, trained = optimizer.leaves[0], optimizer.leaves[1]
    for leaf in (frozen, trained):
        leaf.grad = np.ones_like(leaf.values)
    before = [a.copy() for a in (frozen.values, optimizer.velocities[0], trained.values)]
    frozen.requires_grad = False
    optimizer.step(1e-3)
    assert frozen.values.tobytes() == before[0].tobytes()
    assert optimizer.velocities[0].tobytes() == before[1].tobytes()
    assert not np.array_equal(trained.values, before[2])


def test_tape_entries_per_phase(monkeypatch):
    # M=3 sources, two extractor layers, two head layers: the benchmark's shape
    task = tiny_task(seed=9)
    state = fresh_state(task, seed=9)
    batch = first_batch(task)
    assert state.model.num_domains == 3
    recorded = []
    original = Tape._record

    def counting(self, out, backward_fn):
        recorded.append(out)
        original(self, out, backward_fn)

    monkeypatch.setattr(Tape, "_record", counting)
    counts = {}
    for step in (step_source, step_classifiers, step_extractor, step_ast):
        recorded.clear()
        step(state, batch, lr=1e-3)
        counts[step.__name__] = len(recorded)
    # a change here means a phase records more (or fewer) tape nodes; update
    # these numbers only together with the reason in CHANGES.md
    assert counts == {
        "step_source": 6,
        "step_classifiers": 9,
        "step_extractor": 9,
        "step_ast": 6,
    }


def test_step_ast_skipped_when_ablated_or_before_start():
    task = tiny_task(seed=10)
    batch = first_batch(task)

    state = fresh_state(task, seed=10, ablation=AblationFlags(ast=False))
    before = parameters_digest(state.model.parameters())
    assert step_ast(state, batch, lr=1e-3) is None
    assert parameters_digest(state.model.parameters()) == before
    assert state.tracker.counts.sum() == 0

    state = fresh_state(task, seed=10, ast_start_epoch=3)
    state.epoch = 0
    assert step_ast(state, batch, lr=1e-3) is None


def test_step_ast_first_iteration_matches_hand_oracle():
    task = tiny_task(seed=11)
    state = fresh_state(task, seed=11)
    batch = first_batch(task)

    # oracle forward pass before the step mutates anything
    model = state.model
    feats = model.forward_features(batch.target_features)
    pairs = [model.predict_pair(m, feats) for m in range(model.num_domains)]
    k = task.spec.num_classes
    d_expected = np.stack(
        [np.abs(pa.values - pb.values).sum(axis=1) / k for pa, pb in pairs],
        axis=1,
    )
    means_expected = d_expected.mean(axis=0)  # first batch bootstraps the means
    mean_preds = np.stack([(pa.values + pb.values) / 2 for pa, pb in pairs])

    result = step_ast(state, batch, lr=1e-3)
    assert result is not None
    _, fused = result

    np.testing.assert_allclose(state.tracker.sums, d_expected.sum(axis=0), rtol=1e-12)
    np.testing.assert_array_equal(state.tracker.counts, d_expected.shape[0])
    np.testing.assert_allclose(state.tracker.means, means_expected, rtol=1e-12)
    for i in range(d_expected.shape[0]):
        raw, normalized = domain_weights(d_expected[i], means_expected, state.config.lam)
        np.testing.assert_allclose(fused.raw_weights[i], raw, rtol=1e-12)
        np.testing.assert_allclose(
            fused.probs[i], pseudo_label(mean_preds[:, i, :], normalized), rtol=1e-12
        )
        assert fused.betas[i] == pytest.approx(ast_beta(raw, means_expected), rel=1e-12)


def test_step_ast_update_then_weight_golden_trace():
    # two iterations on a fixed setup; the frozen numbers pin down the
    # update-then-weight tracker order
    task = tiny_task(seed=12)
    state = fresh_state(task, seed=12)
    stream = iter(BatchIterator(task, 16, seed=0))
    means, betas = [], []
    for _ in range(2):
        _, fused = step_ast(state, next(stream), lr=1e-3)
        means.append(state.tracker.means.copy())
        betas.append(fused.betas)
    golden_means = [
        [0.04471152171515645, 0.046852316450951725, 0.021901119072283738],
        [0.03677322291053872, 0.05246596254989201, 0.026094707220443696],
    ]
    np.testing.assert_allclose(means[0], golden_means[0], rtol=1e-9)
    np.testing.assert_allclose(means[1], golden_means[1], rtol=1e-9)
    golden_beta0 = 4.721722202852189
    assert betas[0][0] == pytest.approx(golden_beta0, rel=1e-9)


def test_step_ast_zero_gradient_when_heads_match_pseudo():
    task = tiny_task(seed=13)
    state = fresh_state(task, seed=13, momentum=False)
    model = state.model
    reference = group_parameters(model, classifier_group(0, "a")).values()
    for m in range(model.num_domains):
        for branch in ("a", "b"):
            for p_dst, p_src in zip(group_parameters(model, classifier_group(m, branch)).values(), reference):
                p_dst[...] = p_src
    batch = first_batch(task)
    before = parameters_digest(model.parameters())
    result = step_ast(state, batch, lr=1e-3)
    assert result is not None and result[0] == pytest.approx(0.0, abs=1e-15)
    assert parameters_digest(model.parameters()) == before


def test_parameter_groups_partition_exactly():
    model = CrmaModel(2, 3, 2, (8, 4), (4,), rng=np.random.default_rng(0))
    params = model.parameters()
    # a dict merges a repeated name; the count catches it
    assert len(params) == len(model.extractor_leaves) + 2 * 2 * len(model.head_leaves)
    groups = [EXTRACTOR_GROUP, *(classifier_group(m, b) for m in range(2) for b in ("a", "b"))]
    covered = []
    for g in groups:
        members = list(group_parameters(model, g))
        assert members and not set(covered) & set(members)
        covered += members
    assert covered == list(params)


# golden bits -------------------------------------------------------------------

# Recorded at commit befedc1, where every head owned its own tensors: storing
# the heads as stacked slots must not move a single bit of training.
GOLDEN = {
    "m3_full": (
        TaskSpec(samples_per_domain=80, seed=31),
        {},
        "71079831bcea653f9d5ee3c32c7cb5b3ed873f1d42e9dae5b001d45e9ac268b2",
        "9fb25ac24b4013c7f3f7743e850a3f7ba889248e385e5ea153c45b3c1e1f5c19",
    ),
    "m3_ablations_off": (
        TaskSpec(samples_per_domain=80, seed=32),
        {"ablation": AblationFlags(False, False, False)},
        "8a80f540513e58cff6118457619d051e1e1c4b905cb69ed19b448c2d67af1e3d",
        "f87ebc1dadbdc8bb815ce5f4b90234a41f3527917290889553b630db13a62cad",
    ),
    "m1": (
        TaskSpec(samples_per_domain=80, seed=33, source_shifts=[ShiftSpec()]),
        {},
        "3eb8b0b705d9da6ec2c6f3143d307c8b3e1c76f765f879dfb014c3ebfb2ccd31",
        "d4a1f3377f4b2d8df11173c0a1acd1d7de9110b667d2ddc8219430dcd6b3ce32",
    ),
    "blobs4_no_head_hidden": (
        TaskSpec(
            generator="gaussian_blobs",
            num_classes=4,
            samples_per_domain=80,
            source_shifts=[ShiftSpec(), ShiftSpec(rotation=math.pi / 4, scale=0.5)],
            target_shift=ShiftSpec(),
            seed=34,
        ),
        {"head_hidden": ()},
        "f52d3e157262419ed26c2670e916821727c6a2d72bdf6f1c05e3ad078697d0d8",
        "5fcd05939028f466e6dde34c6c9d47476988124e71d464e14c3942c581bd2135",
    ),
}
# The fresh model's parameters_digest, recorded at commit f3a8be0 (the initial
# draws), and the sha256 of a fresh state's checkpoint (the file layout).
GOLDEN_FRESH_MODEL_DIGEST = "711ca24c1c4fd3762f7f358cb5d202b7e4f177dd64fc4afce5141902bcbf3751"
GOLDEN_FRESH_CHECKPOINT_SHA256 = "bb7063c36396d5be11882e2020ee6941bae6de2d633437c9f2d8a39a1a093892"


def test_golden_bits_of_the_stacked_head_storage(tmp_path):
    # parameters_digest and history sha256 of a 2-epoch run
    for name, (spec, overrides, params, history) in GOLDEN.items():
        settings = dict(
            epochs=2, batch_per_domain=16, seed=spec.seed, extractor_hidden=(16, 8), head_hidden=(8,)
        )
        state, rows = train(TrainConfig(**{**settings, **overrides}), generate_task(spec))
        assert parameters_digest(state.model.parameters()) == params, name
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == history, name

    model = CrmaModel(2, 2, 3, rng=np.random.default_rng(2024))
    assert parameters_digest(model.parameters()) == GOLDEN_FRESH_MODEL_DIGEST
    state = TrainState(model, TrainConfig())
    checkpoint = hashlib.sha256(checkpoint_bytes(state, tmp_path)).hexdigest()
    assert checkpoint == GOLDEN_FRESH_CHECKPOINT_SHA256
    # a head's array is a writable view of its entry of the leaf
    slot = model.head_leaves[0]
    before = slot.values.copy()
    model.parameters()["classifier.1.b.layer0.weight"][...] += 1.0
    changed = np.any(slot.values != before, axis=(2, 3))
    assert changed.tolist() == [[False, False], [False, True], [False, False]]
    np.testing.assert_array_equal(slot.values[1, 1], before[1, 1] + 1.0)


# confidence tracker -------------------------------------------------------------


def test_tracker_matches_explicit_replay():
    rng = np.random.default_rng(14)
    tracker = ConfidenceTracker(3)
    history = []
    for _ in range(50):
        d = rng.uniform(0.0, 1.0, (rng.integers(1, 9), 3))
        tracker.update(d)
        history.append(d)
        full = np.vstack(history)
        np.testing.assert_allclose(tracker.means, full.mean(axis=0), atol=1e-12)
    np.testing.assert_array_equal(tracker.counts, full.shape[0])


def test_tracker_counts_monotone():
    tracker = ConfidenceTracker(2)
    last = tracker.counts.copy()
    for n in (3, 1, 7):
        tracker.update(np.zeros((n, 2)))
        assert np.all(tracker.counts >= last)
        last = tracker.counts.copy()


# full training loop ---------------------------------------------------------------


def test_all_ablations_off_equals_pure_source_loop():
    task = tiny_task(seed=15)
    cfg = TrainConfig(
        epochs=2,
        batch_per_domain=16,
        seed=15,
        ablation=AblationFlags(False, False, False),
        extractor_hidden=(16, 8),
        head_hidden=(8,),
    )
    state, _ = train(cfg, task)

    # hand-rolled source-only loop with the same seeds
    from crma.seeds import stream_rng, stream_seed

    model = CrmaModel(2, 2, task.num_sources, (16, 8), (8,), rng=stream_rng(15, "init"))
    optimizer = SgdOptimizer(model, momentum=0.9)
    iterator = BatchIterator(task, 16, stream_seed(15, "shuffle"))
    stream = iter(iterator)
    for _ in range(2 * iterator.batches_per_epoch):
        batch = next(stream)
        with Tape() as tape:
            pairs = []
            for m, x in enumerate(batch.source_features):
                feats = model.forward_features(x)
                pairs.append(model.predict_pair(m, feats))
            heads = stack([stack(pair) for pair in pairs])
            loss = source_ce_loss(heads, batch.source_labels)
        optimizer.zero_grad()
        tape.backward(loss)
        optimizer.step(1e-3)

    assert parameters_digest(model.parameters()) == parameters_digest(state.model.parameters())


def test_second_run_keeps_the_freed_heap():
    # train() sets glibc's heap top pad, so the memory a phase frees stays
    # mapped for the next phase instead of being page-faulted in again
    resource = pytest.importorskip("resource")
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pytest.skip("no glibc mallopt here")
    task = generate_task(TaskSpec(seed=0))
    train(TrainConfig(epochs=2), task)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    state, _ = train(TrainConfig(epochs=2), task)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / state.iteration < 10


def test_training_is_deterministic():
    task = tiny_task(seed=16)
    cfg = TrainConfig(epochs=2, batch_per_domain=16, seed=16, extractor_hidden=(16, 8), head_hidden=(8,))
    _, hist_a = train(cfg, task)
    _, hist_b = train(cfg, task)
    assert hist_a == hist_b


def test_history_shape_and_finiteness():
    task = tiny_task(seed=17)
    cfg = TrainConfig(epochs=3, batch_per_domain=16, seed=17, extractor_hidden=(16, 8), head_hidden=(8,))
    _, history = train(cfg, task)
    assert len(history) == 3
    for row in history:
        for key in ("L_src", "L_intra", "L_inter", "L_AST", "lr", "target_acc"):
            assert math.isfinite(row[key])
        for m in range(task.num_sources):
            assert math.isfinite(row[f"mean_w_{m}"])
            assert math.isfinite(row[f"bar_L_{m}"])


def test_cosine_schedule_endpoints():
    cfg = TrainConfig(epochs=10, scheduler="cosine_annealing", base_lr=1e-3)
    assert learning_rate(cfg, 0) == pytest.approx(1e-3)
    assert learning_rate(cfg, 9) <= 0.01 * 1e-3 + 1e-15
    mid = [learning_rate(cfg, e) for e in range(10)]
    assert all(a >= b for a, b in zip(mid, mid[1:]))  # monotone decay

    constant = TrainConfig(epochs=10, scheduler="constant", base_lr=1e-3)
    assert learning_rate(constant, 7) == 1e-3


def test_divergence_guard_aborts_with_history(monkeypatch):
    import crma.losses as losses_module
    from crma.autodiff import NumericError, Tensor

    task = tiny_task(seed=18)
    cfg = TrainConfig(epochs=5, batch_per_domain=16, seed=18, extractor_hidden=(16, 8), head_hidden=(8,))

    # source_ce_loss runs twice per iteration (source + classifier phases);
    # 80-sample domains at batch 16 give 5 iterations per epoch, so blow up
    # early in epoch 2
    real_ce = losses_module.source_ce_loss
    calls = {"n": 0}

    def exploding_ce(pairs, labels):
        calls["n"] += 1
        if calls["n"] > 10:
            return Tensor(2e6)
        return real_ce(pairs, labels)

    monkeypatch.setattr(losses_module, "source_ce_loss", exploding_ce)
    with pytest.raises(DivergedRunError) as excinfo:
        train(cfg, task)
    # call 11 is iteration 5's source phase
    assert str(excinfo.value) == "loss 2000000.0 at iteration 5"
    assert excinfo.value.iteration == 5
    assert len(excinfo.value.history) == 1  # the completed epoch survives

    # a numeric overflow mid-run surfaces the same way
    monkeypatch.setattr(
        losses_module,
        "source_ce_loss",
        lambda pairs, labels: (_ for _ in ()).throw(NumericError("overflow")),
    )
    with pytest.raises(DivergedRunError) as excinfo:
        train(cfg, task)
    assert str(excinfo.value) == "overflow at iteration 0"


def test_step_source_past_the_loss_ceiling_raises_before_any_update(monkeypatch):
    import crma.losses as losses_module
    from crma.autodiff import NumericError, Tensor
    from crma.trainer import LOSS_CEILING

    task = tiny_task(seed=21)
    state = fresh_state(task, seed=21)
    before = parameters_digest(state.model.parameters())
    monkeypatch.setattr(losses_module, "source_ce_loss", lambda probs, labels: Tensor(2 * LOSS_CEILING))
    with pytest.raises(NumericError, match=r"^loss 2000000\.0$"):
        step_source(state, first_batch(task), lr=1e-3)
    assert parameters_digest(state.model.parameters()) == before


def test_a_diverging_run_gives_no_numpy_warning():
    # the first update at lr 1e308 overflows the next forward's matmul; the
    # run's DivergedRunError is its only report of that
    task = tiny_task(seed=20)
    cfg = TrainConfig(epochs=1, base_lr=1e308, seed=20, extractor_hidden=(8,), head_hidden=(4,),
                      batch_per_domain=16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergedRunError) as excinfo:
            train(cfg, task)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    # step_source's update overflows step_classifiers' forward
    assert str(excinfo.value) == "softmax input contains NaN or Inf at iteration 0"


def test_extractor_lr_multiplier_slows_extractor():
    task = tiny_task(seed=19)
    batch = first_batch(task)
    deltas = {}
    for mult in (1.0, 0.1):
        state = fresh_state(task, seed=19, extractor_lr_multiplier=mult, momentum=False)
        before = [t.values.copy() for t in state.model.extractor_leaves]
        step_source(state, batch, lr=1e-2)
        after = state.model.extractor_leaves
        deltas[mult] = sum(
            float(np.abs(a.values - b).sum()) for a, b in zip(after, before)
        )
    assert deltas[0.1] < deltas[1.0]
    assert deltas[0.1] == pytest.approx(0.1 * deltas[1.0], rel=1e-9)


# evaluation ------------------------------------------------------------------------


def test_evaluate_perfect_and_chance_levels():
    task = generate_task(
        TaskSpec(
            generator="gaussian_blobs",
            num_classes=2,
            samples_per_domain=400,
            source_shifts=[ShiftSpec()],
            target_shift=ShiftSpec(),
            seed=20,
            generator_noise=0.05,  # far-apart blobs: trivially separable
        )
    )
    cfg = TrainConfig(epochs=10, batch_per_domain=64, seed=20, extractor_hidden=(16, 8), head_hidden=(8,))
    state, _ = train(cfg, task)
    acc, per_class = evaluate(state.model, task.target_test_features, task.target_test_labels)
    assert acc == 1.0
    np.testing.assert_array_equal(per_class, 1.0)

    # labels independent of features: any fixed model sits at chance
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2000, 2))
    y = np.tile([0, 1], 1000)
    model = CrmaModel(2, 2, 1, (8,), (4,), rng=rng)
    acc, _ = evaluate(model, x, y)
    assert abs(acc - 0.5) < 0.05


def test_evaluate_matches_explicit_loop():
    task = tiny_task(seed=22)
    model = CrmaModel(2, 2, 3, (8,), (4,), rng=np.random.default_rng(22))
    acc, per_class = evaluate(model, task.target_test_features, task.target_test_labels)
    probs, labels = model.final_prediction(task.target_test_features)
    correct = sum(
        1 for i in range(labels.size) if labels[i] == task.target_test_labels[i]
    )
    assert acc == pytest.approx(correct / labels.size)
    for c in (0, 1):
        members = [i for i in range(labels.size) if task.target_test_labels[i] == c]
        expected = sum(1 for i in members if labels[i] == c) / len(members)
        assert per_class[c] == pytest.approx(expected)


# persistence ------------------------------------------------------------------------


def small_state(seed=0, num_domains=2, num_classes=3):
    """A fresh state of a small model, for the checkpoint format tests."""
    model = CrmaModel(
        input_dim=2,
        num_classes=num_classes,
        num_domains=num_domains,
        extractor_hidden=(8, 6),
        head_hidden=(5,),
        rng=np.random.default_rng(seed),
    )
    return TrainState(model, TrainConfig())


def checkpoint_bytes(state, tmp_path):
    save_checkpoint(state, tmp_path / "saved.ckpt")
    return (tmp_path / "saved.ckpt").read_bytes()


def load_bytes(data, tmp_path):
    (tmp_path / "loaded.ckpt").write_bytes(data)
    return load_checkpoint(tmp_path / "loaded.ckpt", TrainConfig())


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    state = small_state(seed=77, num_domains=3, num_classes=4)
    blob = checkpoint_bytes(state, tmp_path)
    loaded = load_bytes(blob, tmp_path)
    model = loaded.model
    assert parameters_digest(model.parameters()) == parameters_digest(state.model.parameters())
    x = np.random.default_rng(11).standard_normal((7, 2))
    np.testing.assert_array_equal(model.final_prediction(x)[0], state.model.final_prediction(x)[0])
    # byte-stable serialization
    assert checkpoint_bytes(loaded, tmp_path) == blob


def test_checkpoint_truncation_reports_offset(tmp_path):
    blob = checkpoint_bytes(small_state(), tmp_path)
    with pytest.raises(FormatError, match="offset"):
        load_bytes(blob[: len(blob) // 2], tmp_path)
    # every strict prefix is a FormatError, never another exception type
    for end in range(len(blob)):
        with pytest.raises(FormatError):
            load_bytes(blob[:end], tmp_path)


def test_checkpoint_trailing_bytes_report_offset(tmp_path):
    blob = checkpoint_bytes(small_state(), tmp_path)
    with pytest.raises(FormatError, match=f"offset {len(blob)}.*3 trailing"):
        load_bytes(blob + b"xyz", tmp_path)


def test_checkpoint_header_size_is_checked_before_allocating(tmp_path):
    # 36 bytes whose header declares one extractor layer of width 2**18: the
    # reader must refuse it from the header alone, not build the model first
    header = CHECKPOINT_MAGIC + struct.pack("<I3I", CHECKPOINT_VERSION, 2, 2, 1)
    blob = header + struct.pack("<II", 1, 2**18) + struct.pack("<I", 0)
    assert len(blob) == 36
    count = 3 * 2**18 + 2 * (2**18 + 1) * 2
    (tmp_path / "claim.ckpt").write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            load_checkpoint(tmp_path / "claim.ckpt", TrainConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert f"{count} parameters, 0 bytes are left" in str(err.value)


@pytest.mark.parametrize(
    "input_dim, extractor_hidden, head_hidden, num_classes, num_domains, what",
    [
        (0, (4,), (3,), 2, 1, "input_dim 0"),
        (2, (), (3,), 2, 1, "no extractor layer"),
        (2, (4, 0), (3,), 2, 1, "hidden width of 0"),
        (2, (4,), (0,), 2, 1, "hidden width of 0"),
        (2, (4,), (3,), 1, 1, "num_classes 1"),
        (2, (4,), (3,), 2, 0, "num_domains 0"),
    ],
    ids=["input-dim", "no-extractor", "extractor-width", "head-width", "classes", "domains"],
)
def test_checkpoint_out_of_range_header_is_a_format_error(
    input_dim, extractor_hidden, head_hidden, num_classes, num_domains, what, tmp_path
):
    # a complete file: zeros for the values, velocities, tracker and counters
    # the header implies follow it
    def mlp(widths):
        return sum((a + 1) * b for a, b in zip(widths, widths[1:]))

    widths = (input_dim, *extractor_hidden)
    count = mlp(widths) + 2 * num_domains * mlp((widths[-1], *head_hidden, num_classes))
    blob = (
        CHECKPOINT_MAGIC
        + struct.pack("<I3I", CHECKPOINT_VERSION, input_dim, num_classes, num_domains)
        + struct.pack(f"<I{len(extractor_hidden)}I", len(extractor_hidden), *extractor_hidden)
        + struct.pack(f"<I{len(head_hidden)}I", len(head_hidden), *head_hidden)
        + bytes(8 * (2 * count + 2 * num_domains + 2))
    )
    with pytest.raises(FormatError, match=what):
        load_bytes(blob, tmp_path)


def test_checkpoint_bad_magic(tmp_path):
    # one input per corrupted header field; a loop keeps the test's id
    blob = checkpoint_bytes(small_state(), tmp_path)
    for data, match in [
        (b"NOTMAGIC" + b"\x00" * 64, "magic"),
        (blob[:8] + struct.pack("<I", 99) + blob[12:], "unsupported trainer checkpoint version 99"),
        # version 1 nested a second model format; no reader for it is kept
        (blob[:8] + struct.pack("<I", 1) + blob[12:], "unsupported trainer checkpoint version 1"),
    ]:
        with pytest.raises(FormatError, match=match):
            load_bytes(data, tmp_path)


def test_checkpoint_round_trip_and_resumed_evaluation(tmp_path):
    task = tiny_task(seed=23)
    cfg = TrainConfig(epochs=2, batch_per_domain=16, seed=23, extractor_hidden=(16, 8), head_hidden=(8,))
    state, _ = train(cfg, task)
    path = tmp_path / "trainer.ckpt"
    save_checkpoint(state, path)
    restored = load_checkpoint(path, cfg)

    assert parameters_digest(restored.model.parameters()) == parameters_digest(
        state.model.parameters()
    )
    for restored_velocity, velocity in zip(
        restored.optimizer.velocities, state.optimizer.velocities, strict=True
    ):
        np.testing.assert_array_equal(restored_velocity, velocity)
    np.testing.assert_array_equal(restored.tracker.sums, state.tracker.sums)
    np.testing.assert_array_equal(restored.tracker.counts, state.tracker.counts)
    assert (restored.iteration, restored.epoch) == (state.iteration, state.epoch)

    acc_orig, _ = evaluate(state.model, task.target_test_features, task.target_test_labels)
    acc_restored, _ = evaluate(restored.model, task.target_test_features, task.target_test_labels)
    assert acc_restored == acc_orig

    save_checkpoint(restored, tmp_path / "second.ckpt")
    assert (tmp_path / "second.ckpt").read_bytes() == path.read_bytes()


def test_trainer_checkpoint_rejects_trailing_bytes_and_foreign_tracker(tmp_path):
    task = tiny_task(seed=25)
    state = fresh_state(task, seed=25)
    step_ast(state, first_batch(task), lr=1e-3)
    path = tmp_path / "trainer.ckpt"
    save_checkpoint(state, path)
    size = path.stat().st_size
    (tmp_path / "long.ckpt").write_bytes(path.read_bytes() + b"garbage!")
    with pytest.raises(FormatError, match=f"offset {size}.*8 trailing"):
        load_checkpoint(tmp_path / "long.ckpt", state.config)

    data = bytearray(path.read_bytes())
    data[8] = 99  # version field
    (tmp_path / "v99.ckpt").write_bytes(bytes(data))
    with pytest.raises(FormatError, match="unsupported trainer checkpoint version 99"):
        load_checkpoint(tmp_path / "v99.ckpt", state.config)

    # the file a 2-domain tracker would give a 3-domain model: the third
    # domain's sum and count cut, 16 bytes short of what the 44-byte header implies
    tracker = size - 16 - 48  # sums (3 f8) and counts (3 i8), then two u64 counters
    data = path.read_bytes()
    cut = data[: tracker + 16] + data[tracker + 24 : tracker + 40] + data[size - 16 :]
    (tmp_path / "short.ckpt").write_bytes(cut)
    with pytest.raises(FormatError, match=f"{size - 60} bytes are left at offset 44, {size - 44}"):
        load_checkpoint(tmp_path / "short.ckpt", state.config)

    # saving such a state fails before any file is written
    state.tracker = ConfidenceTracker(2)
    with pytest.raises(ValueError, match="tracker has 2 domains, the model has 3"):
        save_checkpoint(state, tmp_path / "foreign.ckpt")
    assert not (tmp_path / "foreign.ckpt").exists()


def test_history_csv_schema():
    task = tiny_task(seed=24)
    cfg = TrainConfig(epochs=2, batch_per_domain=16, seed=24, extractor_hidden=(16, 8), head_hidden=(8,))
    _, history = train(cfg, task)
    buf = io.StringIO()
    write_history_csv(history, task.num_sources, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == (
        "epoch,L_src,L_intra,L_inter,L_AST,lr,target_acc,"
        "mean_w_0,mean_w_1,mean_w_2,bar_L_0,bar_L_1,bar_L_2"
    )
    assert len(lines) == 3
    parsed = [float(v) for v in lines[1].split(",")]
    assert parsed[0] == 0.0
