import logging
import math

import numpy as np
import pytest

from crma.autodiff import Tape, Tensor, softmax
from crma.losses import (
    ContractError,
    ast_loss,
    fuse_pseudo_labels,
    inter_consistency_loss,
    intra_consistency_loss,
    pair_statistics,
    source_ce_loss,
)

from oracles import (
    LOG_FLOOR,
    ast_beta,
    ast_chain,
    discrepancy,
    domain_weights,
    grad_check,
    inter_consistency_chain,
    intra_consistency_chain,
    kl_divergence,
    pseudo_label,
    source_ce_chain,
    stack,
    uniform_domain_weights,
)


def random_probs(rng, n, k):
    logits = rng.standard_normal((n, k))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def heads_from_logits(logit_tensors):
    """(2M, n, K) head probabilities from 2M logits tensors, pair by pair."""
    return softmax(stack(logit_tensors))


def head_probs(prob_arrays):
    """(2M, n, K) head probabilities straight from given (a, b) matrix pairs."""
    return Tensor(np.stack([p for pair in prob_arrays for p in pair]))


def pair_discrepancy(p, q):
    """pair_statistics' discrepancy of one pair on an n = 1 batch."""
    d, _ = pair_statistics(np.array([[p], [q]], dtype=np.float64))
    return d[0, 0]


def fuse_one(d_row, running_means, lam, rows=None, uniform=False):
    """fuse_pseudo_labels on an n = 1 batch; ``rows`` are its (M, K) mean predictions."""
    d_row = np.asarray(d_row, dtype=np.float64)
    rows = np.full((d_row.size, 2), 0.5) if rows is None else np.asarray(rows)
    means = np.asarray(running_means, dtype=np.float64)
    return fuse_pseudo_labels(d_row[None, :], rows[:, None, :], means, lam, uniform=uniform)


# source cross entropy ---------------------------------------------------------


def test_source_ce_perfect_prediction_is_zero():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = source_ce_loss(head_probs([(probs, probs)]), [np.array([0, 1])])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_source_ce_uniform_is_log_k_per_head():
    probs = np.full((3, 4), 0.25)
    loss = source_ce_loss(head_probs([(probs, probs)]), [np.array([0, 1, 2])])
    # two heads, each contributing a batch-mean of log 4
    assert loss.item() == pytest.approx(2 * math.log(4), rel=1e-12)


def test_source_ce_matches_explicit_loop():
    rng = np.random.default_rng(0)
    prob_arrays = [(random_probs(rng, 8, 3), random_probs(rng, 8, 3)) for _ in range(2)]
    labels = [rng.integers(0, 3, size=8) for _ in range(2)]
    loss = source_ce_loss(head_probs(prob_arrays), labels)

    expected = 0.0
    for (pa, pb), y in zip(prob_arrays, labels):
        for p in (pa, pb):
            total = 0.0
            for i in range(8):
                total += -math.log(max(p[i, y[i]], 1e-12))
            expected += total / 8
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_source_ce_rejects_out_of_range_labels():
    probs = np.full((2, 3), 1 / 3)
    with pytest.raises(ContractError):
        source_ce_loss(head_probs([(probs, probs)]), [np.array([0, 3])])
    # a fractional label lies in [0, K) but names no class
    with pytest.raises(ContractError, match="integers"):
        source_ce_loss(head_probs([(probs, probs)]), [np.array([0, 0.5])])


def test_source_ce_rejects_unequal_domain_batches():
    small = np.full((2, 3), 1 / 3)
    with pytest.raises(ContractError, match="does not match batch"):
        source_ce_loss(head_probs([(small, small)] * 2), [np.array([0, 1]), np.array([0, 1, 2, 0])])


def test_source_ce_rejects_a_label_array_count_other_than_m():
    probs = np.full((2, 3), 1 / 3)
    with pytest.raises(ContractError, match="4 heads but 1 label arrays"):
        source_ce_loss(head_probs([(probs, probs)] * 2), [np.array([0, 1])])


# discrepancy -------------------------------------------------------------------


def test_discrepancy_hand_cases():
    p = np.array([0.5, 0.3, 0.2])
    assert pair_discrepancy(p, p) == 0.0
    assert pair_discrepancy([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    q = np.array([0.2, 0.3, 0.5])
    assert pair_discrepancy(p, q) == pytest.approx(0.2, rel=1e-12)


def test_discrepancy_metric_properties():
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = rng.integers(2, 6)
        p, q, r = (random_probs(rng, 1, k)[0] for _ in range(3))
        d_pq = pair_discrepancy(p, q)
        assert d_pq == discrepancy(p, q)
        assert 0.0 <= d_pq <= 2.0 / k + 1e-12
        assert d_pq == pytest.approx(pair_discrepancy(q, p), rel=1e-12)
        assert d_pq <= pair_discrepancy(p, r) + pair_discrepancy(r, q) + 1e-12


# consistency losses ------------------------------------------------------------


def test_intra_zero_for_identical_pairs():
    rng = np.random.default_rng(2)
    p = random_probs(rng, 5, 3)
    probs = head_probs([(p, p), (p, p)])
    loss = intra_consistency_loss(probs)
    d, _ = pair_statistics(probs.values)
    assert loss.item() == 0.0
    np.testing.assert_array_equal(d, np.zeros((5, 2)))


def test_intra_single_domain_is_mean_discrepancy():
    rng = np.random.default_rng(3)
    pa, pb = random_probs(rng, 6, 4), random_probs(rng, 6, 4)
    probs = head_probs([(pa, pb)])
    loss = intra_consistency_loss(probs)
    d, _ = pair_statistics(probs.values)
    per_sample = [discrepancy(pa[i], pb[i]) for i in range(6)]
    assert loss.item() == pytest.approx(np.mean(per_sample), rel=1e-12)
    np.testing.assert_allclose(d[:, 0], per_sample, rtol=1e-12)


def test_intra_matches_double_loop():
    rng = np.random.default_rng(4)
    arrays = [(random_probs(rng, 7, 3), random_probs(rng, 7, 3)) for _ in range(3)]
    probs = head_probs(arrays)
    loss = intra_consistency_loss(probs)
    d, _ = pair_statistics(probs.values)
    expected = 0.0
    for i in range(7):
        for pa, pb in arrays:
            expected += discrepancy(pa[i], pb[i])
    assert loss.item() == pytest.approx(expected / 7, rel=1e-12)
    for i in range(7):
        for m, (pa, pb) in enumerate(arrays):
            assert d[i, m] == pytest.approx(discrepancy(pa[i], pb[i]), rel=1e-12)


def test_inter_single_domain_is_zero():
    rng = np.random.default_rng(5)
    p = random_probs(rng, 4, 3)
    assert inter_consistency_loss(head_probs([(p, p)])).item() == 0.0


def test_inter_equal_means_is_zero():
    rng = np.random.default_rng(6)
    p = random_probs(rng, 4, 3)
    assert inter_consistency_loss(head_probs([(p, p), (p, p)])).item() == 0.0


def test_inter_matches_pair_loop():
    rng = np.random.default_rng(7)
    means = [random_probs(rng, 5, 4) for _ in range(3)]
    loss = inter_consistency_loss(head_probs([(m, m) for m in means]))  # pair mean m
    expected = 0.0
    for i in range(5):
        for a in range(3):
            for b in range(a + 1, 3):
                expected += discrepancy(means[a][i], means[b][i])
    assert loss.item() == pytest.approx(expected / 5, rel=1e-12)


# composite objectives ----------------------------------------------------------


def test_objective_arithmetic():
    # the trainer's two objectives: L_src - L_intra and L_intra + alpha * L_inter
    assert (Tensor(1.0) - Tensor(0.3)).item() == pytest.approx(0.7)
    assert (Tensor(2.5) - Tensor(0.0)).item() == pytest.approx(2.5)
    assert (Tensor(0.2) + Tensor(0.4) * 0.5).item() == pytest.approx(0.4)
    assert (Tensor(0.2) + Tensor(0.9) * 0.0).item() == pytest.approx(0.2)


def test_classifier_objective_gradient_composes():
    rng = np.random.default_rng(8)
    la = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    lb = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    labels = rng.integers(0, 3, size=4)

    def build(x, y):
        heads = heads_from_logits([x, y])
        src = source_ce_loss(heads, [labels])
        intra = intra_consistency_loss(heads)
        return src - intra

    assert grad_check(build, [la, lb]) < 1e-4


def test_extractor_objective_ignores_source_batches():
    # the objective is built from target forwards only, so its gradients
    # cannot depend on what any source batch contained
    rng = np.random.default_rng(9)
    target_logits = rng.standard_normal((4, 3))

    def grads(source_batch):
        la = Tensor(target_logits, requires_grad=True)
        lb = Tensor(target_logits + 0.3, requires_grad=True)
        with Tape() as tape:
            _ = (Tensor(source_batch) * 2.0).sum()  # unrelated source-side work
            intra = intra_consistency_loss(heads_from_logits([la, lb]))
            mean = random_probs(rng, 4, 3)
            inter = inter_consistency_loss(head_probs([(mean, mean)]))
            loss = intra + inter * 0.5
        tape.backward(loss)
        return la.grad.copy(), lb.grad.copy()

    ga1, gb1 = grads(np.zeros((5, 2)))
    ga2, gb2 = grads(np.ones((5, 2)) * 9.0)
    np.testing.assert_array_equal(ga1, ga2)
    np.testing.assert_array_equal(gb1, gb2)


# domain weights / pseudo labels / beta ------------------------------------------


def test_domain_weights_symmetric_case():
    fused = fuse_one([0.2, 0.2, 0.2], [0.1, 0.1, 0.1], 0.5)
    np.testing.assert_allclose(fused.normalized_weights[0], 1 / 3, rtol=1e-12)


def test_domain_weights_hand_case():
    fused = fuse_one([0.1, 0.4], [0.2, 0.2], 0.1)
    raw, normalized = fused.raw_weights[0], fused.normalized_weights[0]
    np.testing.assert_allclose(raw, [1 / 0.12, 1 / 0.42], rtol=1e-12)
    np.testing.assert_allclose(raw, [8.3333, 2.3810], atol=5e-4)
    np.testing.assert_allclose(normalized, [0.7778, 0.2222], atol=5e-4)
    assert normalized.sum() == pytest.approx(1.0, abs=1e-9)


def test_domain_weights_floor_limit():
    fused = fuse_one([0.0, 0.3], [0.5, 0.5], 0.0)
    assert fused.raw_weights[0, 0] == pytest.approx(1e8)
    assert fused.normalized_weights[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_domain_weights_all_floored_falls_back_to_uniform(caplog):
    # row 0 has every denominator at the floor, row 1 has none there
    d = np.array([[0.0, 0.0, 0.0], [0.1, 0.2, 0.3]])
    rows = np.full((3, 2, 2), 0.5)
    with caplog.at_level(logging.WARNING, logger="crma.losses"):
        fused = fuse_pseudo_labels(d, rows, np.zeros(3), 0.1)
    np.testing.assert_allclose(fused.normalized_weights[0], 1 / 3)
    assert not np.allclose(fused.normalized_weights[1], 1 / 3)
    assert any("floor" in r.message and "1 samples" in r.message for r in caplog.records)


def test_pseudo_label_cases():
    rng = np.random.default_rng(10)
    single = random_probs(rng, 1, 3)
    fused1 = fuse_one([0.3], [0.2], 0.1, rows=single)
    np.testing.assert_allclose(fused1.probs[0], single[0], rtol=1e-12)

    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(
        fuse_one([0.1, 0.4], [0.2, 0.2], 0.1, rows=rows, uniform=True).probs[0],
        [0.5, 0.5],
        rtol=1e-12,
    )

    rows3 = np.vstack([random_probs(rng, 1, 4) for _ in range(3)])
    fused3 = fuse_one(rng.uniform(0.05, 0.5, 3), rng.uniform(0.05, 0.5, 3), 0.1, rows=rows3)
    w3 = fused3.normalized_weights[0]
    expected = sum(w3[m] * rows3[m] for m in range(3))
    np.testing.assert_allclose(fused3.probs[0], expected, rtol=1e-12)
    assert fused3.probs[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_ast_beta_cases():
    # raw weights 3 and 4, running means 0
    assert fuse_one([1 / 3, 1 / 4], [0.0, 0.0], 0.1).betas[0] == 0.0
    # raw weights 1/0.12 and 1/0.42 (8.3333 and 2.3810), running means 0.2 and 0.3
    beta = fuse_one([0.1, 0.39], [0.2, 0.3], 0.1).betas[0]
    assert beta == pytest.approx(0.2 * (1 / 0.12 + 1 / 0.42), rel=1e-12)
    assert beta == pytest.approx(2.1429, abs=5e-4)


def test_ast_beta_scale_invariance():
    # scaling every discrepancy and mean by c scales raw weights by 1/c and
    # min(mean) by c, leaving beta unchanged while the floor is inactive
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = rng.uniform(0.05, 0.6, 3)
        means = rng.uniform(0.05, 0.6, 3)
        c = rng.uniform(0.5, 20.0)
        beta = fuse_one(d, means, 0.1).betas[0]
        beta_scaled = fuse_one(c * d, c * means, 0.1).betas[0]
        assert beta_scaled == pytest.approx(beta, rel=1e-9)


# KL and the self-training loss ---------------------------------------------------


def pair_kl(p, q):
    """ast_loss of one pair of heads both at ``p`` toward pseudo-label ``q``,
    beta 1, on an n = 1 batch: twice KL(p || q)."""
    p = np.array([p], dtype=np.float64)
    return ast_loss(head_probs([(p, p)]), np.array([q], dtype=np.float64), np.ones(1)).item()


def test_kl_cases():
    rng = np.random.default_rng(12)
    p = random_probs(rng, 1, 4)[0]
    assert pair_kl(p, p) == pytest.approx(0.0, abs=1e-12)
    assert pair_kl([1.0, 0.0], [0.5, 0.5]) == 2 * math.log(2)


def test_kl_nonnegative_and_matches_loop():
    rng = np.random.default_rng(13)
    for _ in range(200):
        k = rng.integers(2, 6)
        p = random_probs(rng, 1, k)[0]
        q = random_probs(rng, 1, k)[0]
        val = pair_kl(p, q)
        assert val >= -1e-12
        assert val == pytest.approx(2 * kl_divergence(p, q), rel=1e-12)


def test_ast_loss_zero_when_heads_match_pseudo():
    rng = np.random.default_rng(14)
    p = random_probs(rng, 4, 3)
    loss = ast_loss(head_probs([(p, p), (p, p)]), p, np.ones(4))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_ast_loss_zero_when_beta_zero():
    rng = np.random.default_rng(15)
    probs = head_probs([(random_probs(rng, 4, 3), random_probs(rng, 4, 3))])
    loss = ast_loss(probs, random_probs(rng, 4, 3), np.zeros(4))
    assert loss.item() == 0.0


def test_ast_loss_matches_triple_loop():
    rng = np.random.default_rng(16)
    arrays = [(random_probs(rng, 4, 3), random_probs(rng, 4, 3)) for _ in range(2)]
    pseudo = random_probs(rng, 4, 3)
    betas = rng.uniform(0.0, 2.0, 4)
    loss = ast_loss(head_probs(arrays), pseudo, betas)

    expected = 0.0
    for i in range(4):
        sample = 0.0
        for pa, pb in arrays:
            sample += kl_divergence(pa[i], pseudo[i]) + kl_divergence(pb[i], pseudo[i])
        expected += betas[i] * sample
    assert loss.item() == pytest.approx(expected / 4, rel=1e-12)


def test_ast_loss_rejects_pseudo_labels_of_the_wrong_shape():
    rng = np.random.default_rng(19)
    probs = head_probs([(random_probs(rng, 4, 3), random_probs(rng, 4, 3))])
    with pytest.raises(ContractError, match=r"\(4, 2\).*\(4, 3\) batch"):
        ast_loss(probs, random_probs(rng, 4, 2), np.ones(4))


def test_ast_loss_nonnegative_property():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n, k, m = rng.integers(1, 6), rng.integers(2, 5), rng.integers(1, 4)
        arrays = [(random_probs(rng, n, k), random_probs(rng, n, k)) for _ in range(m)]
        pseudo = random_probs(rng, n, k)
        betas = rng.uniform(0.0, 3.0, n)
        assert ast_loss(head_probs(arrays), pseudo, betas).item() >= -1e-12


# fused batch path matches the per-sample oracles ------------------------------


@pytest.mark.parametrize("uniform", [False, True])
def test_fuse_pseudo_labels_matches_per_sample_ops(uniform):
    rng = np.random.default_rng(18)
    n, m, k = 32, 3, 4
    d = rng.uniform(0.0, 0.5, (n, m))
    means = rng.uniform(0.01, 0.4, m)
    mean_preds = np.stack([random_probs(rng, n, k) for _ in range(m)])
    fused = fuse_pseudo_labels(d, mean_preds, means, 0.1, uniform=uniform)
    for i in range(n):
        raw, normalized = uniform_domain_weights(m) if uniform else domain_weights(d[i], means, 0.1)
        np.testing.assert_allclose(fused.raw_weights[i], raw, rtol=1e-12)
        np.testing.assert_allclose(fused.normalized_weights[i], normalized, rtol=1e-12)
        np.testing.assert_allclose(
            fused.probs[i], pseudo_label(mean_preds[:, i, :], normalized), rtol=1e-12
        )
        assert fused.betas[i] == pytest.approx(ast_beta(raw, means), rel=1e-12)


# permutation equivariance ---------------------------------------------------------


def test_domain_permutation_equivariance():
    rng = np.random.default_rng(19)
    n, m, k = 6, 3, 4
    arrays = [(random_probs(rng, n, k), random_probs(rng, n, k)) for _ in range(m)]
    d_means = rng.uniform(0.05, 0.4, m)
    perm = [2, 0, 1]

    probs = head_probs(arrays)
    intra = intra_consistency_loss(probs)
    d, _ = pair_statistics(probs.values)
    mean_preds = np.stack([(pa + pb) / 2 for pa, pb in arrays])
    inter = inter_consistency_loss(probs)
    fused = fuse_pseudo_labels(d, mean_preds, d_means, 0.1)

    arrays_p = [arrays[j] for j in perm]
    probs_p = head_probs(arrays_p)
    intra_p = intra_consistency_loss(probs_p)
    d_p, _ = pair_statistics(probs_p.values)
    mean_preds_p = mean_preds[perm]
    inter_p = inter_consistency_loss(probs_p)
    fused_p = fuse_pseudo_labels(d_p, mean_preds_p, d_means[perm], 0.1)

    assert intra_p.item() == pytest.approx(intra.item(), rel=1e-12)
    assert inter_p.item() == pytest.approx(inter.item(), rel=1e-12)
    np.testing.assert_allclose(d_p, d[:, perm], rtol=1e-12)
    np.testing.assert_allclose(fused_p.normalized_weights, fused.normalized_weights[:, perm], rtol=1e-12)
    np.testing.assert_allclose(fused_p.probs, fused.probs, rtol=1e-12)
    np.testing.assert_allclose(fused_p.betas, fused.betas, rtol=1e-12)


# gradient checks through the softmax ----------------------------------------------


def test_pair_discrepancy_gradient_through_logits():
    rng = np.random.default_rng(20)
    la = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    lb = Tensor(rng.standard_normal((5, 4)), requires_grad=True)

    def build(x, y):
        return intra_consistency_loss(heads_from_logits([x, y]))

    assert grad_check(build, [la, lb]) < 1e-4


def test_ast_loss_gradient_through_all_logits():
    rng = np.random.default_rng(21)
    logits = [Tensor(rng.standard_normal((4, 3)), requires_grad=True) for _ in range(4)]
    pseudo = random_probs(rng, 4, 3)
    betas = rng.uniform(0.1, 1.5, 4)

    def build(*ts):
        return ast_loss(heads_from_logits(list(ts)), pseudo, betas)

    assert grad_check(build, logits) < 1e-4


# single-node losses keep the bits of their op chains ------------------------------

SHAPES = [(m, k) for m in range(1, 5) for k in range(2, 6)]


def floored_probs(rng, shape):
    """Random probabilities with exact pair ties and entries at and below LOG_FLOOR."""
    values = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    low = rng.random(shape) < 0.15
    values[low] = rng.choice([0.0, 1e-15, LOG_FLOOR, 2e-12], size=int(low.sum()))
    ties = rng.random(values[0::2].shape) < 0.1
    values[1::2][ties] = values[0::2][ties]
    return values


def loss_bits(build, values):
    """(value bytes, head-gradient bytes, tape entries) of ``build`` on a fresh head leaf."""
    probs = Tensor(values, requires_grad=True)
    with Tape() as tape:
        loss = build(probs)
    tape.backward(loss)
    return loss.values.tobytes(), probs.grad.tobytes(), len(tape)


def assert_same_bits(chain, node, values, node_entries):
    want_value, want_grad, _ = loss_bits(chain, values)
    value, grad, entries = loss_bits(node, values)
    assert value == want_value
    assert grad == want_grad
    assert entries == node_entries


@pytest.mark.parametrize("m, k", SHAPES)
def test_single_node_losses_keep_the_op_chain_bits(m, k):
    rng = np.random.default_rng(1000 + 10 * m + k)
    n = 9
    values = floored_probs(rng, (2 * m, n, k))
    labels = rng.integers(0, k, size=(m, n))
    pseudo = floored_probs(rng, (2, n, k))[0]
    betas = rng.uniform(0.0, 2.0, n)

    assert_same_bits(
        lambda p: source_ce_chain(p, list(labels)), lambda p: source_ce_loss(p, labels), values, 1
    )
    assert_same_bits(intra_consistency_chain, intra_consistency_loss, values, 1)
    assert_same_bits(inter_consistency_chain, inter_consistency_loss, values, 1)
    assert_same_bits(
        lambda p: ast_chain(p, pseudo, betas), lambda p: ast_loss(p, pseudo, betas), values, 1
    )


@pytest.mark.parametrize("m, k", SHAPES)
def test_single_node_losses_sharing_a_head_tensor_accumulate_in_chain_order(m, k):
    # the upstream gradients are -1 and alpha, not 1, and both terms add into
    # one head gradient, so this pins the order of every accumulation
    rng = np.random.default_rng(2000 + 10 * m + k)
    n = 7
    values = floored_probs(rng, (2 * m, n, k))
    labels = rng.integers(0, k, size=(m, n))
    assert_same_bits(
        lambda p: source_ce_chain(p, list(labels)) - intra_consistency_chain(p),
        lambda p: source_ce_loss(p, labels) - intra_consistency_loss(p),
        values,
        3,
    )
    assert_same_bits(
        lambda p: intra_consistency_chain(p) + inter_consistency_chain(p) * 0.3,
        lambda p: intra_consistency_loss(p) + inter_consistency_loss(p) * 0.3,
        values,
        4,
    )


def test_source_ce_targets_keep_signed_zeros():
    # the one-hot weights are np.eye(K)[labels] * (-1/n): -0.0 off the label
    probs = Tensor(np.full((2, 3, 4), 0.25), requires_grad=True)
    with Tape() as tape:
        loss = source_ce_loss(probs, np.array([[0, 3, 1]]))
    tape.backward(loss)
    off_label = probs.grad[:, [0, 0, 0, 1, 1, 1, 2, 2, 2], [1, 2, 3, 0, 1, 2, 0, 2, 3]]
    assert np.all(off_label == 0.0) and np.all(np.signbit(off_label))
