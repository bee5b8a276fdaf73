import numpy as np
import pytest

from driftmap.estimate import (
    AttributeSubset,
    EstimationError,
    TimeInterval,
    estimate_conditional,
    estimate_distribution,
    select_window,
)

from conftest import build_encoded


def test_interval_must_be_nonempty():
    with pytest.raises(EstimationError):
        TimeInterval(5, 5)


def test_interval_ticks_fit_an_int64():
    assert TimeInterval(-2 ** 63, 2 ** 63 - 1).end == 2 ** 63 - 1
    for start, end in ((0, 2 ** 63), (-2 ** 63 - 1, 0)):
        with pytest.raises(EstimationError, match=r"^tick -?\d+ is outside the int64 range$"):
            TimeInterval(start, end)


def test_select_window_full_span():
    ds = build_encoded([[0, 0], [1, 0], [0, 1]], [2, 2])
    w = select_window(ds, TimeInterval(0, 3))
    assert w.record_count == 3


def test_select_window_before_data_is_empty():
    ds = build_encoded([[0, 0]], [2, 2], timestamps=[10])
    w = select_window(ds, TimeInterval(0, 10))
    assert w.record_count == 0


def test_select_window_half_open_bounds():
    ds = build_encoded([[0, 0]] * 5, [2, 2], timestamps=[0, 1, 2, 3, 4])
    assert select_window(ds, TimeInterval(1, 4)).record_count == 3
    # oracle: linear scan
    assert sum(1 for t in [0, 1, 2, 3, 4] if 1 <= t < 4) == 3


def test_estimate_single_attribute_counts():
    ds = build_encoded([[0, 0], [0, 0], [1, 0], [2, 0]], [3, 2])
    w = select_window(ds, TimeInterval(0, 4))
    est = estimate_distribution(w, AttributeSubset.covariates(["a0"]))
    assert est.support == {(0,): 0.5, (1,): 0.25, (2,): 0.25}
    assert est.sample_size == 4


def test_estimate_constant_class():
    ds = build_encoded([[0, 1], [1, 1], [0, 1]], [2, 2])
    w = select_window(ds, TimeInterval(0, 3))
    est = estimate_distribution(w, AttributeSubset.class_only("label"))
    assert est.support == {(1,): 1.0}


def test_estimate_two_attribute_joint():
    ds = build_encoded(
        [[0, 0, 0], [0, 1, 0], [0, 1, 0], [1, 1, 0]], [2, 2, 2])
    w = select_window(ds, TimeInterval(0, 4))
    est = estimate_distribution(w, AttributeSubset.covariates(["a0", "a1"]))
    assert est.support == {(0, 0): 0.25, (0, 1): 0.5, (1, 1): 0.25}


def test_empty_window_gives_distinguished_empty_estimate():
    ds = build_encoded([[0, 0]], [2, 2], timestamps=[100])
    w = select_window(ds, TimeInterval(0, 50))
    est = estimate_distribution(w, AttributeSubset.covariates(["a0"]))
    assert est.is_empty
    assert est.support == {}


def test_missing_values_dropped_per_subset():
    ds = build_encoded([[0, 0], [-1, 1], [1, 1]], [2, 2])
    w = select_window(ds, TimeInterval(0, 3))
    on_a0 = estimate_distribution(w, AttributeSubset.covariates(["a0"]))
    assert on_a0.sample_size == 2  # the record missing a0 is dropped here only
    on_label = estimate_distribution(w, AttributeSubset.class_only("label"))
    assert on_label.sample_size == 3


def test_conditional_weights_and_inner_estimates():
    ds = build_encoded([[0, 0], [1, 0], [1, 0], [0, 1]], [2, 2])
    w = select_window(ds, TimeInterval(0, 4))
    fam = estimate_conditional(
        w, AttributeSubset.covariates(["a0"]), AttributeSubset.class_only("label"))
    assert fam.weight((0,)) == pytest.approx(0.75)
    assert fam.weight((1,)) == pytest.approx(0.25)
    inner = fam.members[(0,)][1]
    assert inner.support == {(0,): pytest.approx(1 / 3), (1,): pytest.approx(2 / 3)}


def test_unobserved_conditioning_tuple_absent():
    ds = build_encoded([[0, 0], [1, 0]], [2, 3])
    w = select_window(ds, TimeInterval(0, 2))
    fam = estimate_conditional(
        w, AttributeSubset.covariates(["a0"]), AttributeSubset.class_only("label"))
    assert (2,) not in fam.members
    assert fam.weight((2,)) == 0.0


def test_conditional_independence_recovers_marginal():
    # a0 distribution identical across both classes by construction
    rows = []
    for y in (0, 1):
        rows += [[0, y], [0, y], [1, y], [2, y]]
    ds = build_encoded(rows, [3, 2])
    w = select_window(ds, TimeInterval(0, len(rows)))
    marginal = estimate_distribution(w, AttributeSubset.covariates(["a0"]))
    fam = estimate_conditional(
        w, AttributeSubset.covariates(["a0"]), AttributeSubset.class_only("label"))
    for _, (_, inner) in fam.members.items():
        for key, p in marginal.support.items():
            assert inner.probability(key) == pytest.approx(p)


def test_target_conditioning_must_be_disjoint():
    ds = build_encoded([[0, 0]], [2, 2])
    w = select_window(ds, TimeInterval(0, 1))
    with pytest.raises(EstimationError):
        estimate_conditional(
            w, AttributeSubset.covariates(["a0"]), AttributeSubset.covariates(["a0"]))


def test_subset_role_validation():
    ds = build_encoded([[0, 0]], [2, 2])
    w = select_window(ds, TimeInterval(0, 1))
    with pytest.raises(EstimationError):
        estimate_distribution(w, AttributeSubset.covariates(["label"]))
    with pytest.raises(EstimationError):
        estimate_distribution(w, AttributeSubset(("a0",), "class-only"))


def _random_dataset(rng, n=120):
    cards = [3, 4, 2]
    codes = np.column_stack([
        rng.choice(c, size=n, p=rng.dirichlet(np.ones(c))) for c in cards])
    return build_encoded(codes, cards), n


def test_chain_rule_property(rng):
    for _ in range(25):
        ds, n = _random_dataset(rng)
        w = select_window(ds, TimeInterval(0, n))
        joint = estimate_distribution(w, AttributeSubset.covariates(["a0", "a1"]))
        fam = estimate_conditional(
            w, AttributeSubset.covariates(["a1"]), AttributeSubset.covariates(["a0"]))
        for (a, b), p in joint.support.items():
            weight, inner = fam.members[(a,)]
            assert weight * inner.probability((b,)) == pytest.approx(p, abs=1e-9)


def test_marginalization_property(rng):
    for _ in range(25):
        ds, n = _random_dataset(rng)
        w = select_window(ds, TimeInterval(0, n))
        joint = estimate_distribution(w, AttributeSubset.joint(["a0", "a1"], "label"))
        direct = estimate_distribution(w, AttributeSubset.covariates(["a0"]))
        summed = joint.marginalize(["a0"])
        assert summed.subset.role == "covariates-only"
        keys = direct.support.keys() | summed.support.keys()
        for key in keys:
            assert summed.probability(key) == pytest.approx(
                direct.probability(key), abs=1e-9)


def test_normalization_and_support_bound(rng):
    for _ in range(25):
        ds, n = _random_dataset(rng)
        w = select_window(ds, TimeInterval(0, n))
        est = estimate_distribution(
            w, AttributeSubset.joint(["a0", "a1"], "label"))
        assert sum(est.support.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(0 < p <= 1 for p in est.support.values())
        assert len(est.support) <= min(n, 3 * 4 * 2)


@pytest.mark.parametrize("make, message", [
    (lambda ds: AttributeSubset((), "covariates-only"), "attribute subset must be non-empty"),
    (lambda ds: AttributeSubset(("a0", "a0"), "covariates-only"),
     "duplicate attributes in subset: ('a0', 'a0')"),
    (lambda ds: AttributeSubset(("a0",), "nope"), "unknown subset role 'nope'"),
    (lambda ds: estimate_distribution(select_window(ds, TimeInterval(0, 1)),
                                      AttributeSubset.covariates(["zz"])),
     "unknown attributes in subset: ['zz']"),
], ids=["empty", "duplicated", "unknown-role", "unknown-attribute"])
def test_bad_subset_fails_loudly(make, message):
    ds = build_encoded([[0, 0]], [2, 2])
    with pytest.raises(EstimationError) as info:
        make(ds)
    assert str(info.value) == message


def test_marginalize_keeps_the_class_last():
    ds = build_encoded([[0, 0], [1, 1], [1, 0]], [2, 2])
    joint = estimate_distribution(select_window(ds, TimeInterval(0, 3)),
                                  AttributeSubset.joint(["a0"], "label"))
    assert joint.marginalize(("a0",)).subset == AttributeSubset.covariates(["a0"])
    assert joint.marginalize(("label",)).subset == AttributeSubset.class_only("label")
    with pytest.raises(EstimationError) as info:
        joint.marginalize(("label", "a0"))
    assert str(info.value) == ("the class attribute 'label' must be kept last, "
                               "got ('label', 'a0')")


@pytest.mark.parametrize("names, expected", [
    (("a0", "a1"), AttributeSubset.covariates(["a0", "a1"])),
    (("label",), AttributeSubset.class_only("label")),
    (("a0", "label"), AttributeSubset.joint(["a0"], "label")),
    (("label", "a1", "a0"), AttributeSubset.joint(["a1", "a0"], "label")),
], ids=["covariates", "class-only", "joint", "class-moves-last"])
def test_of_puts_the_class_last_and_sets_the_role(names, expected):
    assert AttributeSubset.of(names, "label") == expected


@pytest.mark.parametrize("names", [("label", "label"), ("a0", "label", "label")])
def test_of_keeps_a_repeated_class_repeated(names):
    with pytest.raises(EstimationError, match="duplicate attributes in subset"):
        AttributeSubset.of(names, "label")


@pytest.mark.parametrize("subset, message", [
    (AttributeSubset(("label", "a0"), "covariates-plus-class"),
     "subset ('label', 'a0') as 'covariates-plus-class' must be "
     "('a0', 'label') as 'covariates-plus-class'"),
    (AttributeSubset(("a0", "label"), "covariates-only"),
     "subset ('a0', 'label') as 'covariates-only' must be "
     "('a0', 'label') as 'covariates-plus-class'"),
    (AttributeSubset(("a0",), "class-only"),
     "subset ('a0',) as 'class-only' must be ('a0',) as 'covariates-only'"),
], ids=["class-first", "class-in-covariates", "covariate-as-class"])
def test_validate_against_applies_the_role_rule(subset, message):
    ds = build_encoded([[0, 0], [1, 1]], [2, 2])
    with pytest.raises(EstimationError) as info:
        estimate_distribution(select_window(ds, TimeInterval(0, 2)), subset)
    assert str(info.value) == message


def test_marginalize_labels_a_kept_covariate_as_a_covariate():
    ds = build_encoded([[0, 0, 1], [1, 1, 0]], [2, 2, 2])
    window = select_window(ds, TimeInterval(0, 2))
    # a class-first joint subset no longer yields an estimate to marginalize
    with pytest.raises(EstimationError):
        estimate_distribution(window, AttributeSubset(("label", "a0"), "covariates-plus-class"))
    joint = estimate_distribution(window, AttributeSubset.joint(["a1", "a0"], "label"))
    assert joint.marginalize(("a0",)).subset == AttributeSubset.covariates(["a0"])
    assert joint.marginalize(("a0", "label")).subset == AttributeSubset.joint(["a0"], "label")
