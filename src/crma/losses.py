"""Loss terms, pair statistics, and adaptive pseudo-label fusion.

The four losses (source cross entropy, the two consistency losses, the
self-training loss) are autodiff nodes so they can drive training. They
take the (M, 2, n, K) probabilities of every head, by domain and branch
(0 for a, 1 for b), as one tensor and compute over those axes. Each loss
is one ``autodiff.node`` on that tensor whatever M is; its backward runs
the numpy arithmetic of the equivalent chain of autodiff ops (``log``,
``index``, ``gather``, ``sub``, ``abs``, ``sum``, ...; kept in
``tests/oracles.py``) in that chain's order, so values and gradients have
the chain's bits.

``pair_statistics`` gives a target batch's per-sample pair discrepancies
and pair means, and ``fuse_pseudo_labels`` turns them into the batch's
per-domain weights, pseudo-labels and self-training weights beta. Both are
plain numpy and deliberately detached: their outputs act as fixed targets,
and letting gradients flow into them would let the model lower the loss by
degrading its own targets.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import LOG_FLOOR, Tensor, accum, floored_log, floored_log_grad, node

logger = logging.getLogger(__name__)

# Floor for the weight denominator d_m + lambda * mean_m.
WEIGHT_DENOM_FLOOR = 1e-8


class ContractError(ValueError):
    """An argument violates a documented precondition."""


def pair_statistics(head_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample discrepancies and mean predictions of every pair.

    Takes the (M, 2, n, K) head probabilities as a plain array. Returns the
    (n, M) matrix of per-sample pair discrepancies (L1/K) that the adaptive
    weighting consumes, and the (M, n, K) pair means.
    """
    a, b = head_probs[:, 0], head_probs[:, 1]
    d_matrix = (np.abs(a - b).sum(axis=2) / head_probs.shape[-1]).T
    return d_matrix, (a + b) * 0.5


def _l1_loss(head_probs: Tensor, gaps: np.ndarray, pair_grads) -> Tensor:
    """``sum|gaps| / (n * K)`` as a node on ``head_probs``; ``pair_grads`` maps
    the gradient of ``gaps`` to the (M, n, K) gradients of branches a and b.

    The head gradient is zeros, then the b entries, then the a entries: the
    order of the op-chain form's two ``index`` nodes, so losses sharing a
    head tensor accumulate with the same bits (``tests/oracles.py``).
    """
    n, num_classes = head_probs.shape[-2:]
    scale = 1.0 / (n * num_classes)

    def backward_fn(g):
        grad_a, grad_b = pair_grads((g * scale) * np.sign(gaps))
        if head_probs.grad is None:
            head_probs.grad = np.zeros_like(head_probs.values)
        head_probs.grad[:, 1] += grad_b
        head_probs.grad[:, 0] += grad_a

    return node(np.sum(np.abs(gaps)) * scale, (head_probs,), backward_fn)


def source_ce_loss(head_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Summed softmax cross entropy over every domain's classifier pair.

    ``head_probs`` holds each pair's (2, n, K) probabilities on its own
    domain's labeled batch, and ``labels`` the batch's (M, n) integer labels;
    the loss is the sum over domains and branches of the batch-mean negative
    log probability of the true class.
    """
    *heads, n, num_classes = head_probs.shape
    if heads[1:] != [2] or labels.shape != (heads[0], n):
        raise ContractError(f"labels shape {labels.shape} does not match {math.prod(heads)} heads of batch {n}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"labels must be integers, got dtype {labels.dtype}")
    low, high = labels.min(), labels.max()
    if low < 0 or high >= num_classes:
        raise ContractError(
            f"labels must lie in 0..{num_classes - 1}, got range [{low}, {high}]"
        )
    # each pair's weights: its domain's one-hot labels over -n, with the
    # bits of np.eye(K)[labels] * (-1 / n), signed zeros included
    weights = (labels[:, None, :, None] == np.arange(num_classes)) * (-1.0 / n)
    x = head_probs.values
    clipped, logs = floored_log(x)

    def backward_fn(g):
        accum(head_probs, floored_log_grad(x, clipped, g * weights), owned=True)

    return node(np.sum(logs * weights), (head_probs,), backward_fn)


def intra_consistency_loss(head_probs: Tensor) -> Tensor:
    """Batch mean over target samples of the summed pair discrepancies."""
    x = head_probs.values
    return _l1_loss(head_probs, x[:, 0] - x[:, 1], lambda grad: (grad, -grad))


def inter_consistency_loss(head_probs: Tensor) -> Tensor:
    """Batch mean of pairwise discrepancies among the M pair means.

    A single source domain has no pairs, so the loss is exactly zero, with
    a zero gradient.
    """
    x = head_probs.values
    first, second = np.triu_indices(len(x), k=1)  # every pair i < j
    means = (x[:, 0] + x[:, 1]) * 0.5

    def pair_grads(grad):
        grad_means = np.zeros_like(means)
        np.add.at(grad_means, second, -grad)
        np.add.at(grad_means, first, grad)
        return (grad_means * 0.5,) * 2  # a pair's heads share its mean's gradient

    return _l1_loss(head_probs, means[first] - means[second], pair_grads)


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

    Raw weights are w_m = 1 / (d_m + lam * mean_m), the denominator floored
    at 1e-8; a sample whose every denominator sits at the floor gets
    uniform normalized weights (and the event is logged). Each pseudo-label
    is the normalized-weight mix of the M mean predictions, and each beta is
    min_m(mean_m) * sum_m(w_m).

    ``mean_prediction_values`` is the stacked (M, n, K) mean predictions.
    ``uniform=True`` swaps the adaptive weights for raw w_m = 1/M (betas are
    still computed from those raw weights), the uniform-ensemble baseline.
    """
    n, num_domains = d_matrix.shape
    num_classes = mean_prediction_values.shape[2]
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
    n, num_classes = head_probs.shape[-2:]
    if pseudo_probs.shape != (n, num_classes) or betas.shape != (n,):
        raise ContractError(
            f"pseudo labels {pseudo_probs.shape} / betas {betas.shape} do not match "
            f"a ({n}, {num_classes}) batch"
        )
    x = head_probs.values
    clipped, logs = floored_log(x)
    log_gap = logs - np.log(np.maximum(pseudo_probs, LOG_FLOOR))
    row_weight = (betas / n)[:, None]

    def backward_fn(g):
        grad = g * row_weight
        accum(head_probs, grad * log_gap, owned=True)
        accum(head_probs, floored_log_grad(x, clipped, grad * x), owned=True)

    return node(np.sum(log_gap * x * row_weight), (head_probs,), backward_fn)
