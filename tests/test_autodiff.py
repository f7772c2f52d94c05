import numpy as np
import pytest

from crma.autodiff import (
    DimensionError,
    GraphError,
    NumericError,
    Tape,
    Tensor,
    add_bias,
    div,
    index,
    linear,
    matmul,
    mul,
    node,
    softmax,
)

from oracles import gather, grad_check, stack


def central_diff(f, values, h=1e-5):
    """Independent finite-difference oracle over a flat numpy array."""
    values = values.copy()
    grad = np.zeros_like(values)
    flat = values.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(values)
        flat[i] = orig - h
        fm = f(values)
        flat[i] = orig
        out[i] = (fp - fm) / (2 * h)
    return grad


def test_matmul_identity():
    x = np.arange(6, dtype=float).reshape(2, 3)
    out = matmul(Tensor(np.eye(2)), Tensor(x))
    np.testing.assert_array_equal(out.values, x)


def test_matmul_scalar_product():
    out = matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.values.tolist() == [[6.0]]


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    at = Tensor(a, requires_grad=True)
    with Tape() as tape:
        loss = matmul(at, Tensor(b)).sum()
    tape.backward(loss)

    # closed form: each row of dL/da is the column-sum vector of b
    expected = np.tile(b.sum(axis=1), (3, 1))
    np.testing.assert_allclose(at.grad, expected, rtol=1e-12)

    numeric = central_diff(lambda v: float((v @ b).sum()), a)
    np.testing.assert_allclose(at.grad, numeric, rtol=1e-6, atol=1e-8)


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_elementwise_trivia():
    np.testing.assert_array_equal(Tensor([-1.0, 2.0, 0.0]).abs().values, [1.0, 2.0, 0.0])
    np.testing.assert_array_equal(Tensor([-3.0, 5.0]).relu().values, [0.0, 5.0])


def test_log_derivative():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = x.log().sum()
    tape.backward(loss)
    assert x.grad[0] == pytest.approx(0.5, abs=1e-15)


def test_log_rejects_negative_and_clamps_underflow():
    with pytest.raises(NumericError):
        Tensor([-0.5]).log()
    out = Tensor([0.0]).log()
    assert out.values[0] == pytest.approx(np.log(1e-12))


def test_div_by_zero_raises():
    with pytest.raises(NumericError):
        div(Tensor([1.0]), Tensor([0.0]))


def test_scalar_broadcast_ops():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    with Tape() as tape:
        loss = (div(t * 2.0 + 1.0, 2.0) - 0.5).sum()
    tape.backward(loss)
    np.testing.assert_allclose(loss.values, 10.0)
    np.testing.assert_allclose(t.grad, np.ones((2, 2)))


def test_scalar_tensor_broadcast_gradient():
    s = Tensor([2.0], requires_grad=True)
    m = Tensor(np.ones((3, 2)), requires_grad=True)
    with Tape() as tape:
        loss = mul(m, s).sum()
    tape.backward(loss)
    assert s.grad[0] == pytest.approx(6.0)
    np.testing.assert_allclose(m.grad, 2.0 * np.ones((3, 2)))


def test_incompatible_shapes_raise():
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))


def test_add_bias_forward_and_backward():
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    b = Tensor([1.0, -1.0], requires_grad=True)
    with Tape() as tape:
        out = add_bias(x, b)
        loss = out.sum()
    np.testing.assert_array_equal(out.values, np.tile([1.0, -1.0], (3, 1)))
    tape.backward(loss)
    np.testing.assert_array_equal(b.grad, [3.0, 3.0])
    np.testing.assert_array_equal(x.grad, np.ones((3, 2)))


def test_softmax_uniform_and_stability():
    out = softmax(Tensor([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.values, [[1 / 3, 1 / 3, 1 / 3]])
    big = softmax(Tensor([[1000.0, 0.0, 0.0]]))
    assert np.all(np.isfinite(big.values))
    np.testing.assert_allclose(big.values, [[1.0, 0.0, 0.0]], atol=1e-300)


def test_softmax_rows_and_gradient():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((2, 4))
    out = softmax(Tensor(logits))
    np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out.values >= 0) and np.all(out.values <= 1)

    weights = rng.standard_normal((2, 4))  # random linear readout of probs

    t = Tensor(logits, requires_grad=True)
    with Tape() as tape:
        loss = mul(softmax(t), Tensor(weights)).sum()
    tape.backward(loss)

    def forward(v):
        e = np.exp(v - v.max(axis=1, keepdims=True))
        return float((e / e.sum(axis=1, keepdims=True) * weights).sum())

    numeric = central_diff(forward, logits)
    np.testing.assert_allclose(t.grad, numeric, rtol=1e-6, atol=1e-9)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        softmax(Tensor([[np.nan, 0.0]]))


def test_backward_requires_scalar_recorded_loss():
    t = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        out = t * 2.0
    with pytest.raises(GraphError):
        tape.backward(out)
    with Tape() as other:
        loss = (t * 2.0).sum()
    with pytest.raises(GraphError):
        tape.backward(loss)  # recorded on `other`, not `tape`


def test_backward_on_a_loss_before_the_tape_end_is_a_graph_error():
    # backward starts at the tape's last entry: a loss with nodes after it is refused
    rng = np.random.default_rng(5)
    x_val, y_val = rng.standard_normal((2, 3, 4))
    x, y = Tensor(x_val, requires_grad=True), Tensor(y_val, requires_grad=True)
    with Tape() as tape:
        loss = mul(softmax(mul(x, y)).log(), y).sum()
        later = loss * 2.0
    with pytest.raises(GraphError, match="last entry"):
        tape.backward(loss)
    assert x.grad is None and y.grad is None
    tape.backward(later)  # the last entry itself runs
    assert x.grad is not None and y.grad is not None


def test_node_wraps_its_array_and_records_only_what_needs_a_gradient():
    leaf, const = Tensor([1.0, 2.0], requires_grad=True), Tensor([3.0, 4.0])
    values = np.array([5.0, 6.0])
    with Tape() as tape:
        frozen = node(values, (const,), lambda g: None)
        assert len(tape) == 0 and not frozen.requires_grad
        out = node(values, (const, leaf), lambda g: None)
        assert len(tape) == 1 and out.requires_grad
    assert out.values is values and frozen.values is values
    outside = node(values, (leaf,), lambda g: None)
    assert len(tape) == 1 and outside.requires_grad and outside.values is values


def test_reused_tensor_sums_both_contributions():
    # z = x*y + x/y uses x twice; adjoints must add
    x_val, y_val = 1.7, 0.9
    x = Tensor([x_val], requires_grad=True)
    y = Tensor([y_val], requires_grad=True)
    with Tape() as tape:
        loss = (mul(x, y) + div(x, y)).sum()
    tape.backward(loss)
    assert x.grad[0] == pytest.approx(y_val + 1 / y_val, rel=1e-12)
    assert y.grad[0] == pytest.approx(x_val - x_val / y_val**2, rel=1e-12)

    numeric = central_diff(lambda v: float(v[0] * y_val + v[0] / y_val), np.array([x_val]))
    assert x.grad[0] == pytest.approx(numeric[0], rel=1e-7)


def test_backward_is_deterministic_after_zeroing():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)

    def run():
        x.zero_grad()
        with Tape() as tape:
            loss = (mul(x, x).exp() * 0.25).sum()
        tape.backward(loss)
        return x.grad.copy()

    first, second = run(), run()
    np.testing.assert_array_equal(first, second)


def test_repeated_backward_accumulates():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = mul(x, x).sum()
    tape.backward(loss)
    tape.backward(loss)
    assert x.grad[0] == pytest.approx(12.0)  # 2 * (2x)


def test_non_requires_grad_tensor_keeps_no_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([5.0, 5.0])
    with Tape() as tape:
        loss = mul(x, c).sum()
    tape.backward(loss)
    assert c.grad is None
    np.testing.assert_array_equal(x.grad, [5.0, 5.0])


def test_grad_check_polynomial():
    point = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    err = grad_check(lambda t: mul(t, t).sum(), point)
    assert err < 1e-6
    point.zero_grad()
    with Tape() as tape:
        loss = mul(point, point).sum()
    tape.backward(loss)
    np.testing.assert_allclose(point.grad, [2.0, 4.0, 6.0], rtol=1e-12)


def test_grad_check_composed_functions_property():
    # random compositions of the supported ops, kinks kept away from 0
    rng = np.random.default_rng(19)
    for trial in range(20):
        a = rng.standard_normal((3, 4)) + np.sign(rng.standard_normal((3, 4))) * 0.2
        b = rng.standard_normal((4, 2)) + np.sign(rng.standard_normal((4, 2))) * 0.2
        at = Tensor(a, requires_grad=True)
        bt = Tensor(b, requires_grad=True)

        def f(x, y):
            z = matmul(x, y)
            p = softmax(z)
            return mul(p.abs().relu(), z.exp()).sum() + mul(x, x).mean() + p.sum().log()

        assert grad_check(f, [at, bt]) < 1e-4


def test_grad_check_rejects_constant_points():
    with pytest.raises(GraphError):
        grad_check(lambda t: (t * t).sum(), Tensor([1.0]))


# fused linear, head-batched linear, stack/index -------------------------------


def away_from_kinks(rng, shape):
    """Standard normals pushed at least 0.2 away from zero."""
    v = rng.standard_normal(shape)
    return v + np.where(v < 0, -0.2, 0.2)


def linear_operands(rng, heads=None, x_heads=False):
    n, d, k = 5, 4, 3
    w_shape = (d, k) if heads is None else (heads, d, k)
    x_shape = (heads, n, d) if x_heads else (n, d)
    return (
        away_from_kinks(rng, x_shape),
        rng.standard_normal(w_shape),
        rng.standard_normal(w_shape[:-2] + (k,)),
    )


def assert_no_relu_kinks(x, w, b):
    pre = x @ w + (b[:, None, :] if w.ndim == 3 else b)
    assert np.abs(pre).min() > 1e-3  # finite differences stay on one side of relu


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize(
    "heads, x_heads", [(None, False), (3, False), (3, True)], ids=["plain", "shared-x", "per-head-x"]
)
def test_linear_gradients_match_finite_differences(relu, heads, x_heads):
    x, w, b = linear_operands(np.random.default_rng(31), heads, x_heads)
    if relu:
        assert_no_relu_kinks(x, w, b)
    readout = Tensor(np.random.default_rng(32).standard_normal((x @ w).shape))
    points = [Tensor(v, requires_grad=True) for v in (x, w, b)]
    err = grad_check(lambda xt, wt, bt: mul(linear(xt, wt, bt, relu=relu), readout).sum(), points)
    assert err < 1e-7


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("heads", [None, 3], ids=["plain", "shared-x"])
@pytest.mark.parametrize("constant", ["x", "weight"])
def test_linear_with_a_constant_operand(relu, heads, constant):
    x, w, b = linear_operands(np.random.default_rng(33), heads)
    if relu:
        assert_no_relu_kinks(x, w, b)
    readout = Tensor(np.random.default_rng(34).standard_normal((x @ w).shape))
    fixed = Tensor(x if constant == "x" else w)
    varied = Tensor(w if constant == "x" else x, requires_grad=True)
    bt = Tensor(b, requires_grad=True)

    def f(v, bias):
        args = (fixed, v) if constant == "x" else (v, fixed)
        return mul(linear(*args, bias, relu=relu), readout).sum()

    assert grad_check(f, [varied, bt]) < 1e-7
    assert fixed.grad is None


def test_linear_matches_matmul_add_bias_relu_bit_for_bit():
    rng = np.random.default_rng(35)
    x, w, b = linear_operands(rng)
    readout = rng.standard_normal((x.shape[0], w.shape[1]))
    for relu in (False, True):
        grads = []
        for fused in (True, False):
            ts = [Tensor(v, requires_grad=True) for v in (x, w, b)]
            with Tape() as tape:
                if fused:
                    out = linear(*ts, relu=relu)
                else:
                    out = add_bias(matmul(ts[0], ts[1]), ts[2])
                    out = out.relu() if relu else out
                loss = mul(out, Tensor(readout)).sum()
            tape.backward(loss)
            grads.append([out.values] + [t.grad for t in ts])
        for fused_array, chained_array in zip(*grads):
            np.testing.assert_array_equal(fused_array, chained_array)


def test_linear_heads_match_per_head_layers():
    rng = np.random.default_rng(36)
    x, w, b = linear_operands(rng, heads=4)
    batched = linear(Tensor(x), Tensor(w), Tensor(b), relu=True).values
    for h in range(4):
        single = linear(Tensor(x), Tensor(w[h]), Tensor(b[h]), relu=True).values
        np.testing.assert_allclose(batched[h], single, rtol=1e-15, atol=0)


GROUPS = pytest.mark.parametrize("groups", [1, 2, 4], ids=["G=1", "G=2", "G=H"])


def grouped_operands(rng, groups, heads=4):
    n, d, k = 5, 3, 2
    return (
        away_from_kinks(rng, (groups, n, d)),
        rng.standard_normal((heads, d, k)),
        rng.standard_normal((heads, k)),
    )


@pytest.mark.parametrize("relu", [False, True])
@GROUPS
def test_linear_grouped_gradients_match_finite_differences(relu, groups):
    x, w, b = grouped_operands(np.random.default_rng(39), groups)
    if relu:
        assert_no_relu_kinks(np.repeat(x, 4 // groups, axis=0), w, b)
    readout = Tensor(np.random.default_rng(40).standard_normal((4, x.shape[1], w.shape[2])))
    points = [Tensor(v, requires_grad=True) for v in (x, w, b)]
    err = grad_check(lambda xt, wt, bt: mul(linear(xt, wt, bt, relu=relu), readout).sum(), points)
    assert err < 1e-7


@pytest.mark.parametrize("relu", [False, True])
@GROUPS
def test_linear_grouped_matches_per_head_linear_bit_for_bit(relu, groups):
    # input g feeds heads g*H/G .. (g+1)*H/G - 1; its gradient adds theirs in head order
    rng = np.random.default_rng(41)
    x, w, b = grouped_operands(rng, groups)
    readout = rng.standard_normal((4, x.shape[1], w.shape[2]))
    ts = [Tensor(v, requires_grad=True) for v in (x, w, b)]
    with Tape() as tape:
        out = linear(*ts, relu=relu)
        loss = mul(out, Tensor(readout)).sum()
    tape.backward(loss)
    per_input = 4 // groups
    x_grad = np.zeros_like(x)
    for h in range(4):
        single = [Tensor(v, requires_grad=True) for v in (x[h // per_input], w[h], b[h])]
        with Tape() as tape:
            one = linear(*single, relu=relu)
            loss = mul(one, Tensor(readout[h])).sum()
        tape.backward(loss)
        np.testing.assert_array_equal(out.values[h], one.values)
        np.testing.assert_array_equal(ts[1].grad[h], single[1].grad)
        np.testing.assert_array_equal(ts[2].grad[h], single[2].grad)
        if h % per_input == 0:
            x_grad[h // per_input] = single[0].grad
        else:
            x_grad[h // per_input] += single[0].grad
    np.testing.assert_array_equal(ts[0].grad, x_grad)


def shared_weight_operands(rng, groups):
    n, d, k = 5, 3, 2
    return away_from_kinks(rng, (groups, n, d)), rng.standard_normal((d, k)), rng.standard_normal(k)


@pytest.mark.parametrize("relu", [False, True])
def test_linear_over_groups_gradients_match_finite_differences(relu):
    x, w, b = shared_weight_operands(np.random.default_rng(43), 3)
    if relu:
        assert_no_relu_kinks(x, w, b)
    readout = Tensor(np.random.default_rng(44).standard_normal((3, x.shape[1], w.shape[1])))
    points = [Tensor(v, requires_grad=True) for v in (x, w, b)]
    err = grad_check(lambda xt, wt, bt: mul(linear(xt, wt, bt, relu=relu), readout).sum(), points)
    assert err < 1e-7


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("groups", [1, 3, 4], ids=["G=1", "G=3", "G=4"])
def test_linear_over_groups_matches_plain_nodes_bit_for_bit(relu, groups):
    # G plain nodes recorded in group order on one tape add their weight and
    # bias gradients last group first; the grouped node adds them alike
    rng = np.random.default_rng(45)
    x, w, b = shared_weight_operands(rng, groups)
    readout = rng.standard_normal((groups, x.shape[1], w.shape[1]))
    ts = [Tensor(v, requires_grad=True) for v in (x, w, b)]
    with Tape() as tape:
        out = linear(*ts, relu=relu)
        loss = mul(out, Tensor(readout)).sum()
    tape.backward(loss)
    xs = [Tensor(x_g, requires_grad=True) for x_g in x]
    wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        outs = [linear(x_g, wt, bt, relu=relu) for x_g in xs]
        loss = sum((mul(o, Tensor(r)).sum() for o, r in zip(outs, readout)), Tensor(0.0))
    tape.backward(loss)
    for i in range(groups):
        np.testing.assert_array_equal(out.values[i], outs[i].values)
        np.testing.assert_array_equal(ts[0].grad[i], xs[i].grad)
    np.testing.assert_array_equal(ts[1].grad, wt.grad)
    np.testing.assert_array_equal(ts[2].grad, bt.grad)


def test_linear_shared_weight_adds_groups_onto_an_existing_gradient():
    # a grouped node (G = 3), then a plain node, on one weight and bias: the
    # backward runs the plain node first, so the grouped node adds its cells
    # one by one, last first, onto a held gradient, as three plain nodes would
    rng = np.random.default_rng(47)
    x = away_from_kinks(rng, (4, 16, 8))
    w, b = rng.standard_normal((8, 6)), rng.standard_normal(6)
    readout = rng.standard_normal((4, 16, 6))
    grads = []
    for parts, readouts in (([x[:3], x[3]], [readout[:3], readout[3]]), (x, readout)):
        wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        with Tape() as tape:
            outs = [linear(Tensor(p), wt, bt, relu=True) for p in parts]
            loss = sum((mul(o, Tensor(r)).sum() for o, r in zip(outs, readouts)), Tensor(0.0))
        tape.backward(loss)
        grads.append((wt.grad.tobytes(), bt.grad.tobytes()))
    assert grads[0] == grads[1]


def test_linear_rejects_misaligned_shapes():
    with pytest.raises(DimensionError, match="linear"):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
    with pytest.raises(DimensionError, match="linear"):
        linear(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 3, 2))), Tensor(np.zeros((3, 2))))
    with pytest.raises(DimensionError, match="linear"):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3, 2))), Tensor(np.zeros(2)))
    with pytest.raises(DimensionError, match="linear"):  # 3 inputs cannot share 4 heads evenly
        linear(Tensor(np.zeros((3, 2, 3))), Tensor(np.zeros((4, 3, 2))), Tensor(np.zeros((4, 2))))
    with pytest.raises(DimensionError, match="linear"):  # grouped input of the wrong width
        linear(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
    with pytest.raises(DimensionError, match="linear"):  # no inputs to share 2 heads
        linear(Tensor(np.zeros((0, 2, 3))), Tensor(np.zeros((2, 3, 2))), Tensor(np.zeros((2, 2))))


def test_stack_and_index_gradients():
    rng = np.random.default_rng(37)
    parts = [Tensor(rng.standard_normal((3, 2)), requires_grad=True) for _ in range(4)]
    readout = Tensor(rng.standard_normal((3, 3, 2)))
    pairs = np.array([0, 0, 3])  # repeated positions add up

    def f(*ts):
        s = stack(ts)
        picked = mul(gather(s, pairs), readout)
        odd = index(s, slice(1, None, 2))
        corner = index(s, (slice(0, 2), 1, 0))
        return picked.sum() + mul(odd, odd).sum() + mul(corner, corner).sum() + (index(s, 2) * 3.0).sum()

    assert grad_check(f, parts) < 1e-7


def test_stack_and_index_values_are_copies():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    b = Tensor([[3.0, 4.0]], requires_grad=True)
    s = stack([a, b])
    np.testing.assert_array_equal(s.values, [[[1.0, 2.0]], [[3.0, 4.0]]])
    s.values[0, 0, 0] = 9.0
    assert a.values[0, 0] == 1.0
    row = index(s, 1)
    row.values[0, 0] = 7.0
    assert s.values[1, 0, 0] == 3.0
    with pytest.raises(DimensionError):
        stack([a, Tensor([1.0])])


def test_index_rejects_an_integer_array_key():
    # repeated positions would add up wrong through t.grad[key] += g;
    # an integer-array gather is the oracles' gather
    t = Tensor(np.ones((3, 2)), requires_grad=True)
    for key in (np.array([0, 0]), [0, 1], (slice(None), np.array([1]))):
        with pytest.raises(TypeError, match="index"):
            index(t, key)


def test_op_results_do_not_alias_operands():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    for out in (x + 0.0, x * 1.0, x.relu(), x.abs(), index(x, slice(None)), stack([x])):
        assert not np.shares_memory(out.values, x.values)


def test_softmax_batched_matches_each_slice():
    rng = np.random.default_rng(38)
    for k in (2, 3, 5, 9):
        logits = rng.standard_normal((3, 4, k)) * 3
        batched = softmax(Tensor(logits)).values
        for h in range(3):
            np.testing.assert_array_equal(batched[h], softmax(Tensor(logits[h])).values)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(batched, e / e.sum(axis=-1, keepdims=True))

    t = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    weights = Tensor(rng.standard_normal((2, 3, 4)))
    assert grad_check(lambda v: mul(softmax(v), weights).sum(), t) < 1e-7


def test_frozen_operands_record_nothing():
    w = Tensor(np.ones((2, 2)))
    with Tape() as tape:
        out = linear(Tensor(np.ones((3, 2))), w, Tensor(np.zeros(2)), relu=True)
        stack([out, out])
    assert len(tape) == 0 and not out.requires_grad
