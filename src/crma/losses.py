"""Loss terms, adaptive domain weighting, and pseudo-label fusion.

Differentiable quantities (source cross entropy, the two consistency
losses, the self-training loss) are built through the autodiff ops so
they can drive training. Pseudo-labels, their per-domain weights, and the
per-sample self-training weight beta are plain numpy and deliberately
detached: they act as fixed targets, and letting gradients flow into them
would let the model lower the loss by degrading its own targets.

The loss terms take the (2M, n, K) probabilities of every head, in
(domain, branch a, branch b) order, as one tensor and compute over that
head axis, so each loss records a handful of tape nodes whatever M is.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import LOG_FLOOR, Tensor, index

logger = logging.getLogger(__name__)

# Floor for the weight denominator d_m + lambda * mean_m.
WEIGHT_DENOM_FLOOR = 1e-8
# A probability vector's entries must sum to 1 within this much.
PROB_SUM_TOL = 1e-6


class ContractError(ValueError):
    """An argument violates a documented precondition."""


def _check_prob_vector(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ContractError(f"{name} must be a 1-d probability vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ContractError(f"{name} contains NaN or Inf")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ContractError(f"{name} rows must sum to 1, got {total}")
    return p


def pair_statistics(head_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample discrepancies and mean predictions of every pair.

    Takes the (2M, n, K) head probabilities as a plain array. Returns the
    (n, M) matrix of per-sample pair discrepancies (L1/K) that the adaptive
    weighting consumes, and the (M, n, K) pair means.
    """
    a, b = head_probs[0::2], head_probs[1::2]
    d_matrix = (np.abs(a - b).sum(axis=2) / head_probs.shape[2]).T
    return d_matrix, (a + b) * 0.5


def source_ce_loss(head_probs: Tensor, labels_per_domain: Sequence[np.ndarray]) -> Tensor:
    """Summed softmax cross entropy over every domain's classifier pair.

    ``head_probs`` holds each pair's (2, n, K) probabilities on its own
    domain's labeled batch; the loss is the sum over domains and branches
    of the batch-mean negative log probability of the true class.
    """
    num_heads, n, num_classes = head_probs.shape
    if num_heads != 2 * len(labels_per_domain):
        raise ContractError(
            f"{num_heads} heads but {len(labels_per_domain)} label arrays"
        )
    # each head's row of weights: its domain's one-hot labels over -n
    weights = []
    for labels in labels_per_domain:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ContractError(f"labels shape {labels.shape} does not match batch {n}")
        if labels.min() < 0 or labels.max() >= num_classes:
            raise ContractError(
                f"labels must lie in 0..{num_classes - 1}, got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        weights += [np.eye(num_classes)[labels] * (-1.0 / n)] * 2
    return (head_probs.log() * Tensor(np.stack(weights))).sum()


def discrepancy(p, q) -> float:
    """Mean absolute gap between two K-class probability vectors: L1/K."""
    p = _check_prob_vector(p, "p")
    q = _check_prob_vector(q, "q")
    if p.shape != q.shape:
        raise ContractError(f"p and q must match, got {p.shape} and {q.shape}")
    return float(np.abs(p - q).sum() / p.shape[0])


def _pair_heads(head_probs: Tensor) -> tuple[Tensor, Tensor]:
    """The (M, n, K) branch a and branch b probabilities."""
    return index(head_probs, slice(0, None, 2)), index(head_probs, slice(1, None, 2))


def intra_consistency_loss(head_probs: Tensor) -> Tensor:
    """Batch mean over target samples of the summed pair discrepancies."""
    _, n, num_classes = head_probs.shape
    a, b = _pair_heads(head_probs)
    return (a - b).abs().sum() * (1.0 / (n * num_classes))


def inter_consistency_loss(head_probs: Tensor) -> Tensor:
    """Batch mean of pairwise discrepancies among the M pair means.

    A single source domain has no pairs, so the loss is exactly zero (kept
    on the graph with zero gradient so callers can differentiate uniformly).
    """
    num_heads, n, num_classes = head_probs.shape
    if num_heads == 2:
        return head_probs.sum() * 0.0
    a, b = _pair_heads(head_probs)
    means = (a + b) * 0.5
    first, second = np.triu_indices(num_heads // 2, k=1)  # every pair i < j
    gap = (index(means, first) - index(means, second)).abs()
    return gap.sum() * (1.0 / (n * num_classes))


def classifier_objective(l_src: Tensor, l_intra: Tensor) -> Tensor:
    """Objective minimized over classifier parameters: source CE minus L_intra."""
    return l_src - l_intra


def extractor_objective(l_intra: Tensor, l_inter: Tensor, alpha: float) -> Tensor:
    """Objective minimized over extractor parameters: L_intra + alpha * L_inter."""
    return l_intra + l_inter * float(alpha)


@dataclass
class DomainWeights:
    """Per-domain mixing weights for one target sample."""

    raw: np.ndarray
    normalized: np.ndarray


def domain_weights(
    d_row: np.ndarray, running_means: np.ndarray, lam: float
) -> DomainWeights:
    """Inverse-discrepancy weights with the running-mean regularizer.

    raw w_m = 1 / (d_m + lam * mean_m), denominator floored at 1e-8. When
    every denominator sits at the floor the normalized weights fall back to
    uniform (and the event is logged).
    """
    d_row = np.asarray(d_row, dtype=np.float64)
    running_means = np.asarray(running_means, dtype=np.float64)
    if d_row.shape != running_means.shape:
        raise ContractError(
            f"discrepancies {d_row.shape} and means {running_means.shape} differ"
        )
    if lam < 0 or np.any(d_row < 0) or np.any(running_means < 0):
        raise ContractError("discrepancies, running means, and lambda must be >= 0")
    denom = d_row + lam * running_means
    raw = 1.0 / np.maximum(denom, WEIGHT_DENOM_FLOOR)
    if np.all(denom <= WEIGHT_DENOM_FLOOR):
        logger.warning(
            "all weight denominators at the %g floor; using uniform weights",
            WEIGHT_DENOM_FLOOR,
        )
        normalized = np.full(d_row.shape[0], 1.0 / d_row.shape[0])
    else:
        normalized = raw / raw.sum()
    return DomainWeights(raw=raw, normalized=normalized)


def uniform_domain_weights(num_domains: int) -> DomainWeights:
    """Equal-contribution weights (raw w_m = 1/M), the ensemble baseline."""
    w = np.full(num_domains, 1.0 / num_domains)
    return DomainWeights(raw=w.copy(), normalized=w.copy())


def pseudo_label(mean_prediction_rows: np.ndarray, weights: DomainWeights) -> np.ndarray:
    """Convex combination of the M mean-prediction rows for one sample."""
    rows = np.asarray(mean_prediction_rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] != weights.normalized.shape[0]:
        raise ContractError(
            f"expected (M, K) rows matching {weights.normalized.shape[0]} weights, "
            f"got shape {rows.shape}"
        )
    return weights.normalized @ rows


def ast_beta(raw_weights: np.ndarray, running_means: np.ndarray) -> float:
    """Self-training weight: min of running means times the summed raw weights."""
    raw_weights = np.asarray(raw_weights, dtype=np.float64)
    running_means = np.asarray(running_means, dtype=np.float64)
    return float(running_means.min() * raw_weights.sum())


def kl_divergence(p, q) -> float:
    """KL(p || q) with q floored at 1e-12 and the 0 * log 0 = 0 convention."""
    p = _check_prob_vector(p, "p")
    q = _check_prob_vector(q, "q")
    if p.shape != q.shape:
        raise ContractError(f"p and q must match, got {p.shape} and {q.shape}")
    q = np.maximum(q, LOG_FLOOR)
    terms = np.where(p > 0.0, p * (np.log(np.maximum(p, LOG_FLOOR)) - np.log(q)), 0.0)
    return float(terms.sum())


@dataclass
class PseudoBatch:
    """Fused pseudo-labels and weights for one target batch, all detached."""

    probs: np.ndarray               # (n, K) pseudo-label rows
    betas: np.ndarray               # (n,) self-training weights
    raw_weights: np.ndarray         # (n, M)
    normalized_weights: np.ndarray  # (n, M)


def fuse_pseudo_labels(
    d_matrix: np.ndarray,
    mean_prediction_values: np.ndarray,
    running_means: np.ndarray,
    lam: float,
    uniform: bool = False,
) -> PseudoBatch:
    """Per-sample pseudo-labels, weights, and betas for a target batch.

    ``mean_prediction_values`` is the stacked (M, n, K) mean predictions.
    ``uniform=True`` swaps the adaptive weights for raw w_m = 1/M (betas are
    still computed from those raw weights), the uniform-ensemble baseline.
    """
    n, num_domains = d_matrix.shape
    num_classes = mean_prediction_values.shape[2]
    # Vectorized over the batch; matches the per-sample ops above exactly.
    if uniform:
        raw = np.full((n, num_domains), 1.0 / num_domains)
        normalized = raw.copy()
    else:
        denom = d_matrix + lam * running_means[None, :]
        raw = 1.0 / np.maximum(denom, WEIGHT_DENOM_FLOOR)
        normalized = raw / raw.sum(axis=1, keepdims=True)
        at_floor = np.all(denom <= WEIGHT_DENOM_FLOOR, axis=1)
        if np.any(at_floor):
            logger.warning(
                "all weight denominators at the %g floor for %d samples; "
                "using uniform weights",
                WEIGHT_DENOM_FLOOR,
                int(at_floor.sum()),
            )
            normalized[at_floor] = 1.0 / num_domains
    probs = np.zeros((n, num_classes))
    for m in range(num_domains):
        probs += normalized[:, m : m + 1] * mean_prediction_values[m]
    betas = running_means.min() * raw.sum(axis=1)
    return PseudoBatch(probs=probs, betas=betas, raw_weights=raw, normalized_weights=normalized)


def ast_loss(head_probs: Tensor, pseudo_probs: np.ndarray, betas: np.ndarray) -> Tensor:
    """Beta-weighted batch mean of KL(head prediction || pseudo-label).

    ``pseudo_probs`` and ``betas`` are constants; gradient reaches every
    head and the extractor only through the head predictions.
    """
    _, n, num_classes = head_probs.shape
    if pseudo_probs.shape != (n, num_classes) or betas.shape != (n,):
        raise ContractError(
            f"pseudo labels {pseudo_probs.shape} / betas {betas.shape} do not match "
            f"a ({n}, {num_classes}) batch"
        )
    shape = head_probs.shape
    log_pseudo = Tensor(np.broadcast_to(np.log(np.maximum(pseudo_probs, LOG_FLOOR)), shape))
    row_weight = Tensor(np.broadcast_to((betas / n)[:, None], shape))
    return ((head_probs.log() - log_pseudo) * head_probs * row_weight).sum()
