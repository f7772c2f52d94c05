"""References for what training computes batched or fused.

Most functions handle one sample (or one vector) with plain Python loops
over its entries, so they share no code and no vectorization with
``crma.losses``. Tests compare the batched training code against these.

The ``*_chain`` functions are the four losses as chains of autodiff ops,
the form they had before each became one tape node. Their values and
gradients are the bits the single-node losses must reproduce.

``group_parameters`` picks a model's named parameters by group, a name
prefix: ``EXTRACTOR_GROUP`` or ``classifier_group(m, branch)``, or
``"classifier"`` for every head.

``stack``, ``gather`` and ``grad_check`` are autodiff helpers that no
training path calls: a stacking op for building head tensors by hand, an
integer-array gather along the first axis, and the central-difference
gradient check.
"""

import math

import numpy as np

from crma.autodiff import (
    DimensionError,
    GraphError,
    Tape,
    Tensor,
    _as_tensor,
    accum,
    index,
    mul,
    node,
)

LOG_FLOOR = 1e-12
WEIGHT_DENOM_FLOOR = 1e-8


EXTRACTOR_GROUP = "extractor"


def classifier_group(domain_index, branch):
    return f"classifier.{domain_index}.{branch}"


def group_parameters(model, group):
    """The name -> values entries of ``model.parameters()`` named ``<group>.…``."""
    return {name: v for name, v in model.parameters().items() if name.startswith(group + ".")}


def discrepancy(p, q) -> float:
    """Mean absolute gap between two K-class probability vectors: L1/K."""
    total = 0.0
    for i in range(len(p)):
        total += abs(p[i] - q[i])
    return total / len(p)


def kl_divergence(p, q) -> float:
    """KL(p || q) with both logs floored at 1e-12 and 0 * log 0 = 0."""
    total = 0.0
    for i in range(len(p)):
        if p[i] > 0:
            total += p[i] * (math.log(max(p[i], LOG_FLOOR)) - math.log(max(q[i], LOG_FLOOR)))
    return total


def domain_weights(d_row, running_means, lam) -> tuple[np.ndarray, np.ndarray]:
    """One sample's (raw, normalized) weights: raw w_m = 1 / (d_m + lam * mean_m).

    Each denominator is floored at 1e-8; when every one sits at the floor
    the normalized weights fall back to uniform.
    """
    num_domains = len(d_row)
    raw = np.zeros(num_domains)
    all_floored = True
    for m in range(num_domains):
        denom = d_row[m] + lam * running_means[m]
        if denom > WEIGHT_DENOM_FLOOR:
            all_floored = False
        raw[m] = 1.0 / max(denom, WEIGHT_DENOM_FLOOR)
    if all_floored:
        return raw, uniform_domain_weights(num_domains)[1]
    total = 0.0
    for m in range(num_domains):
        total += raw[m]
    normalized = np.zeros(num_domains)
    for m in range(num_domains):
        normalized[m] = raw[m] / total
    return raw, normalized


def uniform_domain_weights(num_domains) -> tuple[np.ndarray, np.ndarray]:
    """Equal-contribution (raw, normalized) weights, raw w_m = 1/M."""
    w = np.zeros(num_domains)
    for m in range(num_domains):
        w[m] = 1.0 / num_domains
    return w, w.copy()


def pseudo_label(mean_prediction_rows, normalized) -> np.ndarray:
    """One sample's pseudo-label: the weighted sum of its M mean-prediction rows."""
    num_classes = len(mean_prediction_rows[0])
    fused = np.zeros(num_classes)
    for m in range(len(normalized)):
        for k in range(num_classes):
            fused[k] += normalized[m] * mean_prediction_rows[m][k]
    return fused


def ast_beta(raw, running_means) -> float:
    """Self-training weight: min of the running means times the summed raw weights."""
    total = 0.0
    for w in raw:
        total += w
    return min(running_means) * total


def invert_shift(shift, x) -> np.ndarray:
    """Exact inverse of a ShiftSpec's affine part, one point at a time."""
    c, s = math.cos(shift.rotation), math.sin(shift.rotation)
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        u = (x[i, 0] - shift.translation[0]) / shift.scale
        v = (x[i, 1] - shift.translation[1]) / shift.scale
        # rotate by -rotation
        out[i, 0] = c * u + s * v
        out[i, 1] = -s * u + c * v
    return out


# the losses as op chains ------------------------------------------------------


def _pair_heads(head_probs):
    """The (M, n, K) branch a and branch b probabilities, as two index nodes."""
    return index(head_probs, (slice(None), 0)), index(head_probs, (slice(None), 1))


def source_ce_chain(head_probs, labels_per_domain):
    """Source cross entropy: log, times the one-hot weights over -n, summed."""
    _, _, n, num_classes = head_probs.shape
    weights = []
    for labels in labels_per_domain:
        weights.append([np.eye(num_classes)[labels] * (-1.0 / n)] * 2)
    return mul(head_probs.log(), Tensor(np.array(weights))).sum()


def intra_consistency_chain(head_probs):
    """Summed |a - b| over every pair, over n * K."""
    _, _, n, num_classes = head_probs.shape
    a, b = _pair_heads(head_probs)
    return (a - b).abs().sum() * (1.0 / (n * num_classes))


def inter_consistency_chain(head_probs):
    """Summed |mean_i - mean_j| over the domain pairs i < j, over n * K."""
    num_domains, _, n, num_classes = head_probs.shape
    if num_domains == 1:
        return head_probs.sum() * 0.0
    a, b = _pair_heads(head_probs)
    means = (a + b) * 0.5
    first, second = np.triu_indices(num_domains, k=1)
    gap = (gather(means, first) - gather(means, second)).abs()
    return gap.sum() * (1.0 / (n * num_classes))


def ast_chain(head_probs, pseudo_probs, betas):
    """Beta-weighted KL(head || pseudo-label), both logs floored."""
    n = head_probs.shape[-2]
    shape = head_probs.shape
    log_pseudo = Tensor(np.broadcast_to(np.log(np.maximum(pseudo_probs, LOG_FLOOR)), shape))
    row_weight = Tensor(np.broadcast_to((betas / n)[:, None], shape))
    return mul(mul(head_probs.log() - log_pseudo, head_probs), row_weight).sum()


# autodiff helpers for tests ---------------------------------------------------


def stack(tensors) -> Tensor:
    """Equally shaped tensors stacked along a new leading axis."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts or any(t.shape != ts[0].shape for t in ts):
        raise DimensionError(f"stack: shapes {[t.shape for t in ts]} differ or are empty")

    def backward_fn(g):
        for t, g_t in zip(ts, g):
            accum(t, g_t)

    return node(np.stack([t.values for t in ts]), ts, backward_fn)


def gather(t, positions) -> Tensor:
    """``t[positions]`` as a copy, for an integer array of first-axis positions.

    Repeated positions add up their gradients.
    """
    t = _as_tensor(t)

    def backward_fn(g):
        if not t.requires_grad:
            return
        if t.grad is None:
            t.grad = np.zeros_like(t.values)
        np.add.at(t.grad, positions, g)

    return node(np.array(t.values[positions]), (t,), backward_fn)


def grad_check(f, point, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``point`` is a Tensor (or sequence of Tensors) with requires_grad set;
    ``f`` is called with the same structure, must rebuild its graph on every
    call, and must return a scalar Tensor. Point values are perturbed in
    place for the numeric evaluations and restored afterwards. The relative
    error denominator is max(1, |analytic|) per coordinate.

    The caller is responsible for keeping the point away from abs/relu
    kinks (nudge any coordinate with |x| < 10h).
    """
    points = [point] if isinstance(point, Tensor) else list(point)
    for t in points:
        if not t.requires_grad:
            raise GraphError("grad_check points must have requires_grad=True")
        t.zero_grad()

    with Tape() as tape:
        loss = f(*points)
    if loss.values.size != 1:
        raise GraphError("grad_check needs a scalar-valued function")
    tape.backward(loss)
    analytic = [
        np.zeros_like(t.values) if t.grad is None else t.grad.copy() for t in points
    ]

    worst = 0.0
    for t, ana in zip(points, analytic):
        flat_v = t.values.reshape(-1)
        flat_a = ana.reshape(-1)
        for i in range(flat_v.size):
            orig = flat_v[i]
            flat_v[i] = orig + h
            f_plus = f(*points).item()
            flat_v[i] = orig - h
            f_minus = f(*points).item()
            flat_v[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(flat_a[i] - numeric) / max(1.0, abs(flat_a[i]))
            worst = max(worst, err)
    return worst
