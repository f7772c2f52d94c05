import numpy as np
import pytest

from crma.autodiff import DimensionError, Tensor
import crma.nn as nn
from crma.nn import CrmaModel, parameter_count, parameters_digest, validate_shape

from oracles import classifier_group, group_parameters


def small_model(seed=0, num_domains=2, num_classes=3):
    return CrmaModel(
        input_dim=2,
        num_classes=num_classes,
        num_domains=num_domains,
        extractor_hidden=(8, 6),
        head_hidden=(5,),
        rng=np.random.default_rng(seed),
    )


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
def test_model_rejects_out_of_range_shapes(
    input_dim, extractor_hidden, head_hidden, num_classes, num_domains, what
):
    with pytest.raises(ValueError, match=what):
        CrmaModel(input_dim, num_classes, num_domains, extractor_hidden, head_hidden)


def test_model_byte_bound_admits_a_model_at_the_bound_only():
    # extractor (w,), no head hidden layer, K = 2, M = 1: 3w + 2 * 2(w + 1) parameters
    w = (nn.MAX_MODEL_BYTES // 8 - 4) // 7
    assert parameter_count(2, 2, 1, (w,), ()) == 7 * w + 4
    validate_shape(2, 2, 1, (w,), ())
    with pytest.raises(ValueError, match="over the 1073741824-byte bound"):
        validate_shape(2, 2, 1, (w + 1,), ())


def test_model_checks_the_byte_bound_before_allocating(monkeypatch):
    # a bound just under the small model, so the check is seen without a large model
    monkeypatch.setattr(nn, "MAX_MODEL_BYTES", 8 * parameter_count(2, 3, 2, (8, 6), (5,)) - 1)
    with pytest.raises(ValueError, match="over the"):
        small_model()


def test_zero_extractor_gives_zero_features():
    model = CrmaModel(2, 2, 1, (4,), rng=np.random.default_rng(0))
    model.extractor_leaves[0].values[...] = 0.0
    out = model.forward_features(Tensor(np.ones((3, 2))))
    np.testing.assert_array_equal(out.values, np.zeros((3, 4)))


def test_identity_extractor_passes_nonnegative_inputs_through():
    model = CrmaModel(2, 2, 1, (2,), rng=np.random.default_rng(0))
    model.extractor_leaves[0].values[...] = np.eye(2)
    x = np.array([[0.5, 1.0], [2.0, 0.0]])
    out = model.forward_features(Tensor(x))
    np.testing.assert_array_equal(out.values, x)


def test_extractor_rejects_wrong_width():
    model = CrmaModel(2, 2, 1, (4,), rng=np.random.default_rng(0))
    with pytest.raises(DimensionError):
        model.forward_features(Tensor(np.zeros((3, 5))))


def test_seeded_init_is_bit_exact():
    a, b = small_model(seed=42), small_model(seed=42)
    for pa, pb in zip(a.parameters().values(), b.parameters().values()):
        np.testing.assert_array_equal(pa, pb)
    x = np.random.default_rng(1).standard_normal((4, 2))
    fa = a.forward_features(x).values
    fb = b.forward_features(x).values
    np.testing.assert_array_equal(fa, fb)


def test_identical_heads_predict_identically():
    model = small_model()
    for pa, pb in zip(
        group_parameters(model, classifier_group(0, "a")).values(),
        group_parameters(model, classifier_group(0, "b")).values(),
    ):
        pb[...] = pa
    feats = model.forward_features(np.random.default_rng(2).standard_normal((5, 2)))
    pred_a, pred_b = model.predict_pair(0, feats)
    np.testing.assert_array_equal(pred_a.values, pred_b.values)


def test_zero_logit_head_is_uniform():
    model = small_model(num_classes=2)
    for p in group_parameters(model, classifier_group(0, "a")).values():
        p[...] = 0.0
    feats = model.forward_features(np.ones((3, 2)))
    pred_a, _ = model.predict_pair(0, feats)
    np.testing.assert_allclose(pred_a.values, 0.5)


def test_random_heads_disagree():
    model = small_model(seed=9)
    feats = model.forward_features(np.random.default_rng(3).standard_normal((8, 2)))
    pred_a, pred_b = model.predict_pair(0, feats)
    gap = np.abs(pred_a.values - pred_b.values).sum()
    assert gap > 0


def test_domain_index_out_of_range():
    model = small_model(num_domains=2)
    feats = model.forward_features(np.zeros((1, 2)))
    with pytest.raises(IndexError):
        model.predict_pair(2, feats)


def test_final_prediction_single_pair_equal_heads():
    model = small_model(num_domains=1)
    for pa, pb in zip(
        group_parameters(model, classifier_group(0, "a")).values(),
        group_parameters(model, classifier_group(0, "b")).values(),
    ):
        pb[...] = pa
    x = np.random.default_rng(5).standard_normal((4, 2))
    probs, _ = model.final_prediction(x)
    feats = model.forward_features(x)
    pred_a, _ = model.predict_pair(0, feats)
    np.testing.assert_allclose(probs, pred_a.values, rtol=1e-15)


def test_final_prediction_uniform_ties_break_low():
    model = small_model()
    for p in group_parameters(model, "classifier").values():
        p[...] = 0.0
    probs, labels = model.final_prediction(np.random.default_rng(6).standard_normal((5, 2)))
    np.testing.assert_allclose(probs, 1.0 / 3.0)
    np.testing.assert_array_equal(labels, 0)


def test_final_prediction_matches_brute_force_average():
    model = small_model(seed=13, num_domains=3, num_classes=4)
    x = np.random.default_rng(7).standard_normal((16, 2))
    probs, labels = model.final_prediction(x)

    # oracle: explicitly enumerate all 2M heads
    feats = model.forward_features(x)
    acc = np.zeros((16, 4))
    count = 0
    for m in range(3):
        pred_a, pred_b = model.predict_pair(m, feats)
        acc += pred_a.values
        acc += pred_b.values
        count += 2
    np.testing.assert_allclose(probs, acc / count, rtol=1e-14)
    np.testing.assert_array_equal(labels, np.argmax(acc, axis=1))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_shared_extractor_perturbation_reaches_every_head():
    model = small_model(seed=21)
    x = np.random.default_rng(8).standard_normal((6, 2))
    before = {
        (m, br): model.predict_pair(m, model.forward_features(x))[0 if br == "a" else 1].values
        for m in range(2)
        for br in ("a", "b")
    }
    model.extractor_leaves[0].values += 0.1
    for m in range(2):
        feats = model.forward_features(x)
        pred_a, pred_b = model.predict_pair(m, feats)
        assert not np.allclose(pred_a.values, before[(m, "a")])
        assert not np.allclose(pred_b.values, before[(m, "b")])


def test_head_perturbation_is_local():
    model = small_model(seed=22)
    x = np.random.default_rng(9).standard_normal((6, 2))
    feats = model.forward_features(x)
    before = model.head_probs(feats).values.copy()
    model.parameters()["classifier.0.a.layer0.weight"] += 0.1
    after = model.head_probs(feats).values
    # entries by (domain, branch): only (0, a) changes
    assert not np.allclose(after[0, 0], before[0, 0])
    np.testing.assert_array_equal(after[0, 1], before[0, 1])
    np.testing.assert_array_equal(after[1:], before[1:])


def test_final_prediction_invariant_to_domain_order():
    model = small_model(seed=31, num_domains=3)
    x = np.random.default_rng(10).standard_normal((5, 2))
    probs, _ = model.final_prediction(x)

    permuted = small_model(seed=31, num_domains=3)
    perm = [2, 0, 1]
    for new_m, old_m in enumerate(perm):
        for branch in ("a", "b"):
            for p_new, p_old in zip(
                group_parameters(permuted, classifier_group(new_m, branch)).values(),
                group_parameters(model, classifier_group(old_m, branch)).values(),
            ):
                p_new[...] = p_old
    for p_new, p_old in zip(permuted.extractor_leaves, model.extractor_leaves):
        p_new.values[...] = p_old.values
    probs_perm, _ = permuted.final_prediction(x)
    np.testing.assert_allclose(probs_perm, probs, atol=1e-12)


def test_all_pairs_pass_matches_each_pair():
    model = small_model(seed=23, num_domains=3)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((7, 2))
    feats = model.forward_features(x)
    batched = model.head_probs(feats).values
    for m in range(3):
        for h, want in enumerate(model.predict_pair(m, feats)):
            np.testing.assert_allclose(batched[m, h], want.values, rtol=1e-14, atol=0)
    # a numpy integer names a domain too
    _, want = model.predict_pair(np.int64(2), feats)
    np.testing.assert_allclose(batched[2, 1], want.values, rtol=1e-14, atol=0)


def test_every_parameter_writes_exactly_its_slice_of_one_leaf():
    # extractor.layer<i>.<kind> is a whole extractor leaf;
    # classifier.<m>.<branch>.layer<i>.<kind> is one head's entry of a stacked leaf
    model = small_model(seed=24, num_domains=3)
    leaves = (*model.extractor_leaves, *model.head_leaves)
    params = model.parameters()
    assert len(params) == len(model.extractor_leaves) + 2 * model.num_domains * len(model.head_leaves)
    for name, values in params.items():
        *group, layer, kind = name.split(".")
        slot = 2 * int(layer.removeprefix("layer")) + ("weight", "bias").index(kind)
        if group == ["extractor"]:
            leaf, row = model.extractor_leaves[slot], ...
        else:
            leaf, row = model.head_leaves[slot], (int(group[1]), ("a", "b").index(group[2]))
        expected = [t.values.copy() for t in leaves]
        expected[[t is leaf for t in leaves].index(True)][row] += 1.0
        values += 1.0
        for t, want in zip(leaves, expected):
            np.testing.assert_array_equal(t.values, want)
