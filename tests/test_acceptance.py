"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Expected benchmark accuracies are regression locks frozen from the first
oracle run of this implementation (tolerance: 2 accuracy points).
"""

import math
import multiprocessing
import time

import numpy as np
import pytest

import crma.losses
from crma.autodiff import Tape, Tensor, mul, softmax
from crma.cli import ExperimentConfig, Variant, aggregate, main, run_variants
from crma.data import BatchIterator, ShiftSpec, TaskSpec, generate_task
from crma.losses import (
    ast_loss,
    fuse_pseudo_labels,
    inter_consistency_loss,
    intra_consistency_loss,
    pair_statistics,
    source_ce_loss,
)
from crma.nn import CrmaModel, parameters_digest
from crma.seeds import stream_rng, stream_seed
from crma.trainer import (
    AblationFlags,
    SgdOptimizer,
    TrainConfig,
    TrainState,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    step_ast,
    step_classifiers,
    step_extractor,
    step_source,
    train,
)

from oracles import (
    EXTRACTOR_GROUP,
    ast_beta,
    classifier_group,
    discrepancy,
    domain_weights,
    grad_check,
    group_parameters,
    kl_divergence,
    pseudo_label,
    stack,
)


def report(num, description, ok):
    print(f"[acceptance] criterion {num} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def tiny_model(rng, num_domains, num_classes):
    model = CrmaModel(
        input_dim=2,
        num_classes=num_classes,
        num_domains=num_domains,
        extractor_hidden=(4,),
        head_hidden=(2,),
        rng=rng,
    )
    # keep every coordinate away from relu/abs kinks and the |x| < 10h zone
    for p in model.parameters().values():
        p += rng.uniform(0.01, 0.05, p.shape) * np.where(rng.random(p.shape) < 0.5, -1.0, 1.0)
    return model


def random_probs(rng, n, k):
    logits = rng.standard_normal((n, k))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# criterion 1: gradient correctness ---------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(100)
    worst = 0.0
    for trial in range(20):
        num_domains = int(rng.integers(1, 4))
        num_classes = int(rng.choice([2, 4]))
        n = 8
        model = tiny_model(rng, num_domains, num_classes)
        # every trainable value, heads in their stacked slots
        params = (*model.extractor_leaves, *model.head_leaves)
        source_x = [rng.standard_normal((n, 2)) for _ in range(num_domains)]
        source_y = [rng.integers(0, num_classes, n) for _ in range(num_domains)]
        target_x = rng.standard_normal((n, 2))

        def source_probs():
            return model.head_probs(model.forward_features(np.stack(source_x)))

        def target_probs():
            return model.head_probs(model.forward_features(target_x))

        def loss_src(*_):
            return source_ce_loss(source_probs(), np.array(source_y))

        def loss_intra(*_):
            return intra_consistency_loss(target_probs())

        def loss_inter(*_):
            return inter_consistency_loss(target_probs())

        def loss_classifier_step(*_):
            return loss_src() - loss_intra()

        def loss_extractor_step(*_):
            probs = target_probs()
            intra = intra_consistency_loss(probs)
            inter = inter_consistency_loss(probs)
            return intra + inter * 0.5

        # freeze pseudo-labels and betas once, outside the differentiated graph
        probs_now = target_probs().values
        d_matrix, _ = pair_statistics(probs_now)
        mean_values = (probs_now[:, 0] + probs_now[:, 1]) / 2
        fused = fuse_pseudo_labels(d_matrix, mean_values, d_matrix.mean(axis=0), 0.1)

        def loss_ast(*_):
            return ast_loss(target_probs(), fused.probs, fused.betas)

        for builder in (
            loss_src,
            loss_intra,
            loss_inter,
            loss_classifier_step,
            loss_extractor_step,
            loss_ast,
        ):
            worst = max(worst, grad_check(builder, params, h=1e-5))
    elapsed = time.monotonic() - started
    report(
        1,
        f"max relative gradient error {worst:.3e} < 1e-4 over 20 configs "
        f"x 6 losses in {elapsed:.1f}s < 30s",
        worst < 1e-4 and elapsed < 30.0,
    )


# criterion 2: formula oracles ----------------------------------------------------


def test_criterion_2_formula_oracles():
    # the batched code that training runs, against the per-sample loops of
    # tests/oracles.py, on 1000 random target batches
    started = time.monotonic()
    rng = np.random.default_rng(200)
    worst = 0.0

    def gap(a, b):
        return float(np.abs(np.asarray(a) - np.asarray(b)).max())

    for _ in range(1000):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        heads = np.array([[random_probs(rng, n, k) for _ in range(2)] for _ in range(m)])  # (M, 2, n, K)

        # discrepancy: mean absolute component gap of each pair, per sample
        d_matrix, mean_values = pair_statistics(heads)
        for i in range(n):
            for j in range(m):
                worst = max(worst, gap(d_matrix[i, j], discrepancy(heads[j, 0, i], heads[j, 1, i])))

        # KL divergence with the 0 log 0 convention, beta-weighted over the batch
        pseudo = random_probs(rng, n, k)
        betas = rng.uniform(0.0, 2.0, n)
        expected = 0.0
        for i in range(n):
            for j, branch in np.ndindex(m, 2):
                expected += betas[i] * kl_divergence(heads[j, branch, i], pseudo[i])
        worst = max(worst, gap(ast_loss(Tensor(heads), pseudo, betas).item(), expected / n))

        # weights, pseudo-labels, betas
        d_rows = rng.uniform(0.0, 0.6, (n, m))
        means = rng.uniform(0.001, 0.6, m)
        lam = float(rng.uniform(0.0, 0.5))
        fused = fuse_pseudo_labels(d_rows, mean_values, means, lam)
        for i in range(n):
            raw, normalized = domain_weights(d_rows[i], means, lam)
            worst = max(
                worst,
                gap(fused.raw_weights[i], raw),
                gap(fused.normalized_weights[i], normalized),
                gap(fused.probs[i], pseudo_label(mean_values[:, i], normalized)),
                gap(fused.betas[i], ast_beta(raw, means)),
            )

    # hand-arithmetic anchor cases, each on an n = 1 batch
    two_rows = np.full((2, 1, 2), 0.5)
    w = fuse_pseudo_labels(np.array([[0.1, 0.4]]), two_rows, np.array([0.2, 0.2]), 0.1)
    beta = fuse_pseudo_labels(np.array([[0.1, 0.39]]), two_rows, np.array([0.2, 0.3]), 0.1).betas[0]
    d, _ = pair_statistics(np.array([[[[0.5, 0.3, 0.2]], [[0.2, 0.3, 0.5]]]]))
    kl = ast_loss(Tensor(np.array([[[[1.0, 0.0]], [[1.0, 0.0]]]])), np.array([[0.5, 0.5]]), np.ones(1))
    anchors = (
        gap(w.raw_weights[0, 0], 1 / 0.12) < 1e-12
        and gap(w.raw_weights[0, 1], 1 / 0.42) < 1e-12
        and abs(w.raw_weights[0, 0] - 8.3333) < 5e-4
        and abs(w.raw_weights[0, 1] - 2.3810) < 5e-4
        and abs(w.normalized_weights[0, 0] - 0.7778) < 5e-4
        and gap(beta, 0.2 * (1 / 0.12 + 1 / 0.42)) < 1e-12
        and gap(d[0, 0], 0.2) < 1e-12
        and gap(kl.item(), 2 * math.log(2)) < 1e-12  # two heads, each KL = log 2
    )
    elapsed = time.monotonic() - started
    report(
        2,
        f"formula ops match explicit-loop oracles to {worst:.2e} <= 1e-12 on 1000 "
        f"inputs plus hand anchors in {elapsed:.1f}s < 10s",
        worst <= 1e-12 and anchors and elapsed < 10.0,
    )


# criterion 3: invariant suite -----------------------------------------------------


def test_criterion_3_invariants():
    rng = np.random.default_rng(300)
    cases = 500

    # probability normalization of softmax rows
    logits = rng.standard_normal((cases, 5)) * 10
    s = softmax(Tensor(logits)).values
    ok_softmax = bool(
        np.all(np.abs(s.sum(axis=1) - 1) < 1e-9) and np.all(s >= 0) and np.all(s <= 1)
    )

    ok_mean = ok_pseudo = ok_d = ok_kl = ok_w = ok_ast = True
    for _ in range(cases):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        pa, pb = random_probs(rng, 2, k), random_probs(rng, 2, k)
        d, mean_pred = pair_statistics(np.array([[pa, pb]]))
        ok_mean &= bool(np.all(np.abs(mean_pred[0].sum(axis=1) - 1) < 1e-9))

        ok_d &= bool(np.all((0.0 <= d) & (d <= 2.0 / k + 1e-12)))
        ok_d &= bool(np.all(np.abs(d - pair_statistics(np.array([[pb, pa]]))[0]) < 1e-15))
        ok_d &= bool(np.all(pair_statistics(np.array([[pa, pa]]))[0] == 0.0))
        # one pair with both heads at p = pa[0], pseudo-label q = pb[0], beta 1
        kl = ast_loss(Tensor(np.array([[pa[:1], pa[:1]]])), pb[:1], np.ones(1))
        ok_kl &= kl.item() >= -1e-12

        d_row = rng.uniform(0, 0.5, m)
        means = rng.uniform(0.001, 0.5, m)
        rows = np.vstack([random_probs(rng, 1, k) for _ in range(m)])
        fused = fuse_pseudo_labels(d_row[None, :], rows[:, None, :], means, 0.1)
        w = fused.normalized_weights[0]
        ok_w &= abs(w.sum() - 1) < 1e-9
        ok_w &= bool(np.all(w > 0) and np.all(w <= 1))
        ok_pseudo &= abs(fused.probs[0].sum() - 1) < 1e-9

    # L_inter vanishes for a single source
    ok_inter_m1 = True
    for _ in range(cases):
        p = random_probs(rng, 4, 3)  # one pair, both heads on the same mean
        ok_inter_m1 &= inter_consistency_loss(Tensor(np.array([[p, p]]))).item() == 0.0

    # ast_loss nonnegative
    for _ in range(cases // 5):
        m, k, n = int(rng.integers(1, 4)), int(rng.integers(2, 5)), 4
        heads = []
        for mi in range(m):
            heads.append([random_probs(rng, n, k), random_probs(rng, n, k)])
        loss = ast_loss(Tensor(np.array(heads)), random_probs(rng, n, k), rng.uniform(0, 2, n))
        ok_ast &= loss.item() >= -1e-12

    # source-domain permutation invariance
    ok_perm = True
    for _ in range(cases // 5):
        m, k, n = 3, 4, 5
        arrays = [(random_probs(rng, n, k), random_probs(rng, n, k)) for _ in range(m)]
        means = rng.uniform(0.01, 0.4, m)
        perm = list(rng.permutation(m))

        def build(pack):
            probs = Tensor(np.array(pack))
            intra = intra_consistency_loss(probs)
            d, _ = pair_statistics(probs.values)
            mp = np.stack([(a + b) / 2 for a, b in pack])
            inter = inter_consistency_loss(probs)
            return intra.item(), inter.item(), d, mp

        i1, e1, d1, mp1 = build(arrays)
        i2, e2, d2, mp2 = build([arrays[j] for j in perm])
        f1 = fuse_pseudo_labels(d1, mp1, means, 0.1)
        f2 = fuse_pseudo_labels(d2, mp2, means[perm], 0.1)
        ok_perm &= abs(i1 - i2) < 1e-12 and abs(e1 - e2) < 1e-12
        ok_perm &= bool(np.all(np.abs(f1.probs - f2.probs) < 1e-12))
        ok_perm &= bool(np.all(np.abs(f1.betas - f2.betas) < 1e-12))

    # final_prediction invariance under domain permutation
    base = CrmaModel(2, 3, 3, (6,), (4,), rng=np.random.default_rng(7))
    permuted = CrmaModel(2, 3, 3, (6,), (4,), rng=np.random.default_rng(7))
    order = [2, 0, 1]
    for new_m, old_m in enumerate(order):
        for branch in ("a", "b"):
            for p_new, p_old in zip(
                group_parameters(permuted, classifier_group(new_m, branch)).values(),
                group_parameters(base, classifier_group(old_m, branch)).values(),
            ):
                p_new[...] = p_old
    x = rng.standard_normal((50, 2))
    ok_final = bool(
        np.all(np.abs(base.final_prediction(x)[0] - permuted.final_prediction(x)[0]) < 1e-12)
    )

    ok = (
        ok_softmax and ok_mean and ok_pseudo and ok_d and ok_kl and ok_w
        and ok_inter_m1 and ok_ast and ok_perm and ok_final
    )
    report(3, f"invariant suite over >= {cases} cases per property", ok)


# criterion 4: min/max dynamics -----------------------------------------------------


def test_criterion_4_minmax_dynamics():
    passes = 0
    for seed in range(10):
        task = generate_task(TaskSpec(samples_per_domain=160, seed=seed))
        cfg = TrainConfig(
            epochs=1,
            batch_per_domain=128,
            seed=seed,
            optimizer="sgd",
            extractor_hidden=(24, 16),
            head_hidden=(12,),
        )
        model = CrmaModel(
            2, 2, task.num_sources, cfg.extractor_hidden, cfg.head_hidden,
            rng=stream_rng(seed, "init"),
        )
        state = TrainState(model, cfg)
        batch = next(iter(BatchIterator(task, 128, seed=seed)))
        for _ in range(150):  # source pretraining so the CE gradient is small
            step_source(state, batch, lr=0.05)

        def measure():
            probs = model.head_probs(model.forward_features(batch.target_features))
            intra = intra_consistency_loss(probs)
            inter = inter_consistency_loss(probs)
            return intra.item(), inter.item()

        def grad_norm(leaves):
            with Tape() as tape:
                probs = model.head_probs(model.forward_features(batch.target_features))
                intra = intra_consistency_loss(probs)
                inter = inter_consistency_loss(probs)
                loss = intra + inter * cfg.alpha
            state.optimizer.zero_grad()
            tape.backward(loss)
            total = 0.0
            for leaf in leaves:
                if leaf.grad is not None:
                    total += float((leaf.grad**2).sum())
            state.optimizer.zero_grad()
            return math.sqrt(total)

        ok = True

        intra_before, _ = measure()
        ext_before = parameters_digest(group_parameters(model, EXTRACTOR_GROUP))
        relevant = grad_norm(model.head_leaves)
        step_classifiers(state, batch, lr=1e-4)
        intra_after, _ = measure()
        ok &= parameters_digest(group_parameters(model, EXTRACTOR_GROUP)) == ext_before
        if relevant > 1e-8:
            ok &= intra_after > intra_before

        i0, e0 = measure()
        obj_before = i0 + cfg.alpha * e0
        clf_before = parameters_digest(group_parameters(model, "classifier"))
        relevant = grad_norm(model.extractor_leaves)
        step_extractor(state, batch, lr=1e-4)
        i1, e1 = measure()
        ok &= parameters_digest(group_parameters(model, "classifier")) == clf_before
        if relevant > 1e-8:
            ok &= i1 + cfg.alpha * e1 < obj_before

        passes += int(ok)
    report(4, f"min/max directions and freeze hashes hold in {passes}/10 seeded cases", passes == 10)


# criterion 5: desk-scale adaptation -------------------------------------------------
#
# Expected values below were frozen from this implementation's first oracle
# run of the default benchmark; the lock tolerance is 2 accuracy points.

EXPECTED_MOONS = {
    "source_only": 0.8090,
    "crma": 0.8835,
    "intra_only": 0.7830,
    "inter_only": 0.8405,
    "ast_only": 0.8765,
}
EXPECTED_ASYM = {
    "uniform_ensemble": 0.9160,
    "crma": 0.9380,
}
LOCK_TOL = 0.02


ALL_ON = AblationFlags(True, True, True)
# the rows of each experiment; source_only is crma with every component off
MOONS_VARIANTS = [
    Variant("crma", AblationFlags(False, False, False)),
    Variant("crma", ALL_ON),
    Variant("crma", AblationFlags(True, False, False)),
    Variant("crma", AblationFlags(False, True, False)),
    Variant("crma", AblationFlags(False, False, True)),
]
ASYM_VARIANTS = [Variant("uniform_ensemble", ALL_ON), Variant("crma", ALL_ON)]
# this criterion's row names for the variants' own labels
ROW_NAMES = {"crma_i0e0a0": "source_only", "crma_i1e0a0": "intra_only", "crma_i0e1a0": "inter_only",
             "crma_i0e0a1": "ast_only"}
# each experiment's five seeds as two seed-contiguous sweeps, one per pool process
SEED_PIECES = ((0, 3), (3, 2))


def asymmetric_blobs_spec(seed):
    # one source drawn at the target's exact shift, one rotated and shrunk
    # so target samples fall off its support
    return TaskSpec(
        generator="gaussian_blobs",
        num_classes=4,
        samples_per_domain=2000,
        source_shifts=[ShiftSpec(), ShiftSpec(rotation=math.pi / 4, scale=0.5)],
        target_shift=ShiftSpec(),
        seed=seed,
    )


@pytest.mark.slow
def test_criterion_5_desk_scale_adaptation(tmp_path, monkeypatch):
    # the CLI's own sweep: run_variants over seed pieces, two processes of one BLAS thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    experiments = {
        "moons": (lambda seed: TaskSpec(seed=seed), MOONS_VARIANTS),
        "asym": (asymmetric_blobs_spec, ASYM_VARIANTS),
    }
    pieces = [
        (ExperimentConfig(spec_for_seed(start), TrainConfig(seed=start), count, str(tmp_path / f"{name}{start}")),
         variants)
        for name, (spec_for_seed, variants) in experiments.items()
        for start, count in SEED_PIECES
    ]
    started = time.monotonic()
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        swept = iter(pool.starmap_async(run_variants, pieces, chunksize=1).get(timeout=900))
    elapsed = time.monotonic() - started

    by_experiment = {}
    for name, (_, variants) in experiments.items():
        # the plan's order, variant-major and seed-minor, so each mean adds its seeds in order
        records = sorted((r for _ in SEED_PIECES for r in next(swept)),
                         key=lambda r: (variants.index(r.variant), r.seed))
        by_experiment[name] = {ROW_NAMES.get(v.label, v.label): mean for v, _, mean, _ in aggregate(records)}
    means, asym = by_experiment["moons"], by_experiment["asym"]

    gap = means["crma"] - means["source_only"]
    ordering_a = gap >= 0.05
    ordering_b = all(
        means["crma"] >= means[row] for row in ("intra_only", "inter_only", "ast_only")
    )
    ordering_c = asym["crma"] >= asym["uniform_ensemble"]
    locks = all(
        abs(means[k] - EXPECTED_MOONS[k]) <= LOCK_TOL for k in EXPECTED_MOONS
    ) and all(abs(asym[k] - EXPECTED_ASYM[k]) <= LOCK_TOL for k in EXPECTED_ASYM)

    detail = (
        f"moons: {({k: round(v, 4) for k, v in means.items()})}, "
        f"asym blobs: {({k: round(v, 4) for k, v in asym.items()})}, "
        f"gap {100 * gap:.2f}pts, runtime {elapsed:.0f}s"
    )
    report(
        5,
        f"adaptation orderings plus {LOCK_TOL:.0%} regression locks; {detail}",
        ordering_a and ordering_b and ordering_c and locks and elapsed < 900.0,
    )


# criterion 6: degenerate equivalences -----------------------------------------------


def single_source_task(seed):
    return generate_task(
        TaskSpec(samples_per_domain=96, seed=seed, source_shifts=[ShiftSpec()])
    )


def step_one_side(optimizer, lr, frozen):
    """An optimizer step with ``frozen``'s requires_grad switched off around it."""
    for t in frozen:
        t.requires_grad = False
    optimizer.step(lr)
    for t in frozen:
        t.requires_grad = True


def hand_single_source_variant(task, cfg, iterations):
    """Directly coded single-source discrepancy min/max plus self-training."""
    model = CrmaModel(
        2, 2, 1, cfg.extractor_hidden, cfg.head_hidden, rng=stream_rng(cfg.seed, "init")
    )
    optimizer = SgdOptimizer(model, momentum=0.9)
    stream = iter(
        BatchIterator(task, cfg.batch_per_domain,
                      stream_seed(cfg.seed, "shuffle"))
    )
    mean_sum, count = 0.0, 0
    snapshots = []
    for _ in range(iterations):
        batch = next(stream)
        x_src, y_src = batch.source_features[0], batch.source_labels[0]
        x_tgt = batch.target_features

        def ce():
            feats = model.forward_features(x_src)
            pa, pb = model.predict_pair(0, feats)
            n = x_src.shape[0]
            onehot = Tensor(np.eye(2)[y_src])
            return (
                mul(pa.log(), onehot).sum() * (-1.0 / n)
                + mul(pb.log(), onehot).sum() * (-1.0 / n)
            )

        def pair_gap():
            feats = model.forward_features(x_tgt)
            pa, pb = model.predict_pair(0, feats)
            gap = (pa - pb).abs()
            return gap.sum() * (1.0 / (x_tgt.shape[0] * 2)), pa, pb

        # phase 1: source supervision on everything
        with Tape() as tape:
            loss = ce()
        optimizer.zero_grad()
        tape.backward(loss)
        optimizer.step(cfg.base_lr)

        # phase 2: classifiers maximize the pair gap (minimize ce - gap)
        with Tape() as tape:
            gap_loss, _, _ = pair_gap()
            loss = ce() - gap_loss
        optimizer.zero_grad()
        tape.backward(loss)
        step_one_side(optimizer, cfg.base_lr, frozen=model.extractor_leaves)

        # phase 3: extractor minimizes the pair gap (inter term is empty)
        with Tape() as tape:
            loss, _, _ = pair_gap()
        optimizer.zero_grad()
        tape.backward(loss)
        step_one_side(optimizer, cfg.base_lr, frozen=model.head_leaves)

        # phase 4: self-training toward the fused (single-domain) pseudo-label
        with Tape() as tape:
            gap_loss, pa, pb = pair_gap()
            d = np.abs(pa.values - pb.values).sum(axis=1) / 2
            mean_sum += d.sum()
            count += d.size
            bar = mean_sum / count
            pseudo = (pa.values + pb.values) / 2
            raw = 1.0 / np.maximum(d + cfg.lam * bar, 1e-8)
            betas = bar * raw
            n = x_tgt.shape[0]
            log_pseudo = Tensor(np.log(np.maximum(pseudo, 1e-12)))
            weight = Tensor(np.broadcast_to((betas / n)[:, None], pseudo.shape).copy())
            loss = mul(mul(pa.log() - log_pseudo, pa), weight).sum() + mul(
                mul(pb.log() - log_pseudo, pb), weight
            ).sum()
        optimizer.zero_grad()
        tape.backward(loss)
        optimizer.step(cfg.base_lr)

        snapshots.append(
            np.concatenate([p.ravel().copy() for p in model.parameters().values()])
        )
    return snapshots


def test_criterion_6_degenerate_equivalences():
    # (a) M=1 CRMA equals the directly coded single-source variant per step
    task = single_source_task(seed=60)
    cfg = TrainConfig(
        epochs=1, batch_per_domain=16, seed=60, extractor_hidden=(12, 8), head_hidden=(6,)
    )
    hand = hand_single_source_variant(task, cfg, iterations=5)

    model = CrmaModel(2, 2, 1, cfg.extractor_hidden, cfg.head_hidden, rng=stream_rng(60, "init"))
    state = TrainState(model, cfg)
    stream = iter(
        BatchIterator(task, 16, stream_seed(60, "shuffle"))
    )
    max_gap = 0.0
    for i in range(5):
        batch = next(stream)
        step_source(state, batch, cfg.base_lr)
        step_classifiers(state, batch, cfg.base_lr)
        step_extractor(state, batch, cfg.base_lr)
        step_ast(state, batch, cfg.base_lr)
        state.iteration += 1
        flat = np.concatenate([p.ravel() for p in model.parameters().values()])
        max_gap = max(max_gap, float(np.abs(flat - hand[i]).max()))
    single_source_ok = max_gap <= 1e-12

    # (b) all ablations off is bit-identical to a pure source-only loop
    task = generate_task(TaskSpec(samples_per_domain=96, seed=61))
    cfg = TrainConfig(
        epochs=2,
        batch_per_domain=16,
        seed=61,
        ablation=AblationFlags(False, False, False),
        extractor_hidden=(12, 8),
        head_hidden=(6,),
    )
    state, _ = train(cfg, task)

    model = CrmaModel(2, 2, task.num_sources, cfg.extractor_hidden, cfg.head_hidden,
                      rng=stream_rng(61, "init"))
    optimizer = SgdOptimizer(model, momentum=0.9)
    iterator = BatchIterator(task, 16, stream_seed(61, "shuffle"))
    stream = iter(iterator)
    for _ in range(2 * iterator.batches_per_epoch):
        batch = next(stream)
        with Tape() as tape:
            pairs = [
                model.predict_pair(m, model.forward_features(x))
                for m, x in enumerate(batch.source_features)
            ]
            heads = stack([stack(pair) for pair in pairs])
            loss = source_ce_loss(heads, batch.source_labels)
        optimizer.zero_grad()
        tape.backward(loss)
        optimizer.step(cfg.base_lr)
    source_only_ok = parameters_digest(model.parameters()) == parameters_digest(
        state.model.parameters()
    )

    report(
        6,
        f"M=1 variant gap {max_gap:.2e} <= 1e-12 over 5 iterations; "
        f"ablations-off run bit-identical to source-only loop",
        single_source_ok and source_only_ok,
    )


# criterion 7: determinism and reproducibility ----------------------------------------


ACCEPT_CFG = """
task.samples_per_domain = 80
train.epochs = 2
train.batch_per_domain = 16
train.extractor_hidden = 12,8
train.head_hidden = 6
run.num_seeds = 2
"""


def test_criterion_7_determinism(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(ACCEPT_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    ok = main(["run", str(cfg_path), "--out", str(out_a)]) == 0
    ok &= main(["run", str(cfg_path), "--out", str(out_b)]) == 0
    for rel in ("results.csv", "summary.csv", "summary.txt"):
        ok &= (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
    for run_dir in (out_a / "runs").iterdir():
        twin = out_b / "runs" / run_dir.name
        ok &= (run_dir / "metrics.csv").read_bytes() == (twin / "metrics.csv").read_bytes()
        ok &= (run_dir / "model.ckpt").read_bytes() == (twin / "model.ckpt").read_bytes()

    # checkpoint round trip and resumed evaluation
    task = generate_task(TaskSpec(samples_per_domain=80, seed=70))
    tcfg = TrainConfig(epochs=2, batch_per_domain=16, seed=70,
                       extractor_hidden=(12, 8), head_hidden=(6,))
    state, _ = train(tcfg, task)
    ckpt = tmp_path / "resume.ckpt"
    save_checkpoint(state, ckpt)
    restored = load_checkpoint(ckpt, tcfg)
    acc_a, _ = evaluate(state.model, task.target_test_features, task.target_test_labels)
    acc_b, _ = evaluate(restored.model, task.target_test_features, task.target_test_labels)
    ok &= acc_a == acc_b
    save_checkpoint(restored, tmp_path / "resume2.ckpt")
    ok &= (tmp_path / "resume2.ckpt").read_bytes() == ckpt.read_bytes()

    report(7, "double CLI invocation bit-identical; checkpoint round trip exact", bool(ok))


# criterion 8: confidence tracker fidelity --------------------------------------------


def test_criterion_8_tracker_fidelity(monkeypatch):
    task = generate_task(TaskSpec(samples_per_domain=80, seed=80))
    cfg = TrainConfig(
        epochs=20,
        batch_per_domain=16,
        seed=80,
        extractor_hidden=(12, 8),
        head_hidden=(6,),
    )
    # record every batch's discrepancies as the trainer hands them to fusion
    d_matrices = []
    fuse = crma.losses.fuse_pseudo_labels

    def recording_fuse(d_matrix, *args, **kwargs):
        d_matrices.append(d_matrix.copy())
        return fuse(d_matrix, *args, **kwargs)

    monkeypatch.setattr(crma.losses, "fuse_pseudo_labels", recording_fuse)
    state, history = train(cfg, task)
    full = np.vstack(d_matrices)
    replay = full.mean(axis=0)
    gap = float(np.abs(state.tracker.means - replay).max())
    report(
        8,
        f"running means match full-history replay to {gap:.2e} <= 1e-12 "
        f"over a 20-epoch run ({full.shape[0]} samples/domain)",
        gap <= 1e-12 and len(history) == 20,
    )
