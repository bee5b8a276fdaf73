import math

import numpy as np
import pytest

from driftmap.estimate import AttributeSubset, DistributionEstimate, TimeInterval
from driftmap.measures import (
    HELLINGER,
    STATUS_INSUFFICIENT,
    TOTAL_VARIATION,
    MeasureError,
    compute_drift,
    conditioned_covariate_drift,
    hellinger,
    marginal_drift,
    posterior_drift,
    total_variation,
)

from conftest import build_encoded, random_encoded
import oracles

TOL = 1e-9


def est(support, subset=None):
    subset = subset or AttributeSubset.covariates(["a0"])
    return DistributionEstimate(subset=subset, support=support, sample_size=100)


class TestDistances:
    def test_identity(self):
        p = est({(0,): 0.5, (1,): 0.5})
        assert total_variation(p, p) == 0.0
        assert hellinger(p, p) == pytest.approx(0.0, abs=TOL)

    def test_disjoint_supports_are_maximal(self):
        p = est({(0,): 1.0})
        q = est({(1,): 1.0})
        assert total_variation(p, q) == pytest.approx(1.0, abs=TOL)
        assert hellinger(p, q) == pytest.approx(1.0, abs=TOL)

    def test_tvd_hand_value(self):
        p = est({(0,): 0.5, (1,): 0.5})
        q = est({(0,): 0.9, (1,): 0.1})
        assert total_variation(p, q) == pytest.approx(0.4, abs=TOL)

    def test_hellinger_hand_value(self):
        p = est({(0,): 0.5, (1,): 0.5})
        q = est({(0,): 1.0})
        assert hellinger(p, q) == pytest.approx(math.sqrt(1 - math.sqrt(0.5)), abs=TOL)

    def test_subset_mismatch_rejected(self):
        p = est({(0,): 1.0})
        q = est({(0,): 1.0}, AttributeSubset.covariates(["a1"]))
        with pytest.raises(MeasureError):
            total_variation(p, q)

    def test_empty_estimate_rejected(self):
        p = est({(0,): 1.0})
        empty = DistributionEstimate(subset=p.subset, support={}, sample_size=0)
        with pytest.raises(MeasureError):
            total_variation(p, empty)


class TestMarginalDrift:
    def test_identical_windows_zero(self):
        codes = [[0, 0], [1, 1], [2, 0]] * 2
        ds = build_encoded(codes, [3, 2])
        m = marginal_drift(ds, TimeInterval(0, 3), TimeInterval(3, 6),
                           AttributeSubset.covariates(["a0"]))
        assert m.magnitude == 0.0
        assert m.measure_kind == "covariate"

    def test_constant_attribute_exactly_zero(self):
        # a constant column has the identical point-mass estimate in any
        # two windows, so zero is exact
        codes = [[0, c % 2] for c in range(40)]
        ds = build_encoded(codes, [1, 2])
        m = marginal_drift(ds, TimeInterval(0, 20), TimeInterval(20, 40),
                           AttributeSubset.covariates(["a0"]))
        assert m.magnitude == 0.0

    def test_measure_kind_follows_role(self):
        ds = build_encoded([[0, 0]] * 4, [2, 2])
        a, b = TimeInterval(0, 2), TimeInterval(2, 4)
        joint = marginal_drift(ds, a, b, AttributeSubset.joint(["a0"], "label"))
        cls = marginal_drift(ds, a, b, AttributeSubset.class_only("label"))
        assert joint.measure_kind == "joint"
        assert cls.measure_kind == "class"

    def test_empty_window_reports_insufficient(self):
        ds = build_encoded([[0, 0]] * 4, [2, 2], timestamps=[10, 11, 12, 13])
        m = marginal_drift(ds, TimeInterval(0, 5), TimeInterval(10, 14),
                           AttributeSubset.covariates(["a0"]))
        assert m.status == STATUS_INSUFFICIENT
        assert m.magnitude is None
        assert m.sample_sizes == (0, 4)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            ds, wa, wb = random_encoded(rng)
            rows_a = ds.codes[wa.start:wa.end].tolist()
            rows_b = ds.codes[wb.start:wb.end].tolist()
            names = ds.schema.covariate_names
            cols = list(range(len(names)))
            for dist in (TOTAL_VARIATION, HELLINGER):
                m = marginal_drift(ds, wa, wb, AttributeSubset.covariates(names), dist)
                want = oracles.marginal_drift_oracle(
                    rows_a, rows_b, cols, ds.cardinalities, dist)
                assert m.magnitude == pytest.approx(want, abs=TOL)


class TestConditionedCovariateDrift:
    def test_identical_conditionals_zero(self):
        codes = [[0, 0], [1, 0], [0, 1], [1, 1]] * 4
        ds = build_encoded(codes, [2, 2])
        m = conditioned_covariate_drift(
            ds, TimeInterval(0, 8), TimeInterval(8, 16),
            AttributeSubset.covariates(["a0"]))
        assert m.magnitude == 0.0

    def test_class_independent_equals_covariate_drift(self):
        # within each window P(x|y) = P(x) for both classes, so weights
        # telescope and the conditioned measure equals plain covariate drift
        first, second = [], []
        for y in (0, 1):
            first += [[0, y]] * 3 + [[1, y]] * 1
            second += [[0, y]] * 1 + [[1, y]] * 3
        ds = build_encoded(first + second, [2, 2])
        a, b = TimeInterval(0, 8), TimeInterval(8, 16)
        subset = AttributeSubset.covariates(["a0"])
        cond = conditioned_covariate_drift(ds, a, b, subset)
        plain = marginal_drift(ds, a, b, subset)
        assert cond.magnitude == pytest.approx(plain.magnitude, abs=TOL)

    def test_weighted_sum_hand_value(self):
        # classes balanced in both windows; inner TVDs 0.4 and 0.2
        window_a = ([[0, 0]] * 5 + [[1, 0]] * 5) + ([[0, 1]] * 5 + [[1, 1]] * 5)
        window_b = ([[0, 0]] * 1 + [[1, 0]] * 9) + ([[0, 1]] * 3 + [[1, 1]] * 7)
        ds = build_encoded(window_a + window_b, [2, 2])
        m = conditioned_covariate_drift(
            ds, TimeInterval(0, 20), TimeInterval(20, 40),
            AttributeSubset.covariates(["a0"]))
        assert m.magnitude == pytest.approx(0.5 * 0.4 + 0.5 * 0.2, abs=TOL)

    def test_one_sided_class_counts_as_full_drift(self):
        window_a = [[0, 0]] * 4
        window_b = [[0, 0]] * 2 + [[0, 1]] * 2
        ds = build_encoded(window_a + window_b, [2, 2])
        m = conditioned_covariate_drift(
            ds, TimeInterval(0, 4), TimeInterval(4, 8),
            AttributeSubset.covariates(["a0"]))
        # class 0: weight (1+0.5)/2, inner 0; class 1: weight (0+0.5)/2, inner 1
        assert m.magnitude == pytest.approx(0.25, abs=TOL)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            ds, wa, wb = random_encoded(rng)
            rows_a = ds.codes[wa.start:wa.end].tolist()
            rows_b = ds.codes[wb.start:wb.end].tolist()
            names = ds.schema.covariate_names
            class_col = len(names)
            for dist in (TOTAL_VARIATION, HELLINGER):
                m = conditioned_covariate_drift(
                    ds, wa, wb, AttributeSubset.covariates(names), dist)
                want = oracles.conditioned_covariate_oracle(
                    rows_a, rows_b, list(range(len(names))), class_col,
                    ds.cardinalities, dist)
                assert m.magnitude == pytest.approx(want, abs=TOL)


class TestPosteriorDrift:
    def test_independent_and_stable_class_zero(self):
        codes = [[x, y] for x in (0, 1) for y in (0, 1)] * 4
        ds = build_encoded(codes, [2, 2])
        m = posterior_drift(ds, TimeInterval(0, 8), TimeInterval(8, 16),
                            AttributeSubset.covariates(["a0"]))
        assert m.magnitude == 0.0

    def test_single_tuple_equals_class_drift(self):
        window_a = [[0, 0]] * 3 + [[0, 1]] * 1
        window_b = [[0, 0]] * 1 + [[0, 1]] * 3
        ds = build_encoded(window_a + window_b, [1, 2])
        a, b = TimeInterval(0, 4), TimeInterval(4, 8)
        post = posterior_drift(ds, a, b, AttributeSubset.covariates(["a0"]))
        cls = marginal_drift(ds, a, b, AttributeSubset.class_only("label"))
        assert post.magnitude == pytest.approx(cls.magnitude, abs=TOL)

    def test_weighted_sum_hand_value(self):
        # tuple weights 0.75/0.25 in both windows; inner TVDs 0.2 and 0.6
        def window(p0, p1):
            rows = []
            rows += [[0, 0]] * round(30 * p0) + [[0, 1]] * round(30 * (1 - p0))
            rows += [[1, 0]] * round(10 * p1) + [[1, 1]] * round(10 * (1 - p1))
            return rows

        ds = build_encoded(window(0.5, 0.2) + window(0.7, 0.8), [2, 2])
        m = posterior_drift(ds, TimeInterval(0, 40), TimeInterval(40, 80),
                            AttributeSubset.covariates(["a0"]))
        assert m.magnitude == pytest.approx(0.75 * 0.2 + 0.25 * 0.6, abs=TOL)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            ds, wa, wb = random_encoded(rng)
            rows_a = ds.codes[wa.start:wa.end].tolist()
            rows_b = ds.codes[wb.start:wb.end].tolist()
            names = ds.schema.covariate_names
            class_col = len(names)
            for dist in (TOTAL_VARIATION, HELLINGER):
                m = posterior_drift(ds, wa, wb, AttributeSubset.covariates(names), dist)
                want = oracles.posterior_oracle(
                    rows_a, rows_b, list(range(len(names))), class_col,
                    ds.cardinalities, dist)
                assert m.magnitude == pytest.approx(want, abs=TOL)


class TestInvariantsAndProperties:
    def _swap(self, ds, wa, wb, fn, subset, dist):
        forward = fn(ds, wa, wb, subset, dist)
        backward = fn(ds, wb, wa, subset, dist)
        return forward.magnitude, backward.magnitude

    def test_symmetry_and_range(self, rng):
        for _ in range(20):
            ds, wa, wb = random_encoded(rng)
            names = ds.schema.covariate_names
            subset = AttributeSubset.covariates(names)
            for fn in (marginal_drift, conditioned_covariate_drift, posterior_drift):
                for dist in (TOTAL_VARIATION, HELLINGER):
                    f, b = self._swap(ds, wa, wb, fn, subset, dist)
                    assert f == pytest.approx(b, abs=TOL)
                    assert -TOL <= f <= 1 + TOL

    def test_metric_properties_on_random_triples(self, rng):
        subset = AttributeSubset.covariates(["a0"])
        for _ in range(200):
            size = int(rng.integers(2, 12))
            dists = []
            for _ in range(3):
                probs = rng.dirichlet(np.ones(size))
                dists.append(est({(i,): p for i, p in enumerate(probs) if p > 0},
                                 subset))
            p, q, r = dists
            for d in (total_variation, hellinger):
                assert d(p, p) <= TOL
                assert abs(d(p, q) - d(q, p)) <= TOL
                assert d(p, r) <= d(p, q) + d(q, r) + TOL

    def test_monotone_under_added_dimension(self, rng):
        for _ in range(20):
            ds, wa, wb = random_encoded(rng, n_attrs=3)
            for dist in (TOTAL_VARIATION, HELLINGER):
                small = marginal_drift(
                    ds, wa, wb, AttributeSubset.covariates(["a0"]), dist)
                grown = marginal_drift(
                    ds, wa, wb, AttributeSubset.covariates(["a0", "a1"]), dist)
                full = marginal_drift(
                    ds, wa, wb, AttributeSubset.covariates(["a0", "a1", "a2"]), dist)
                assert small.magnitude <= grown.magnitude + TOL
                assert grown.magnitude <= full.magnitude + TOL

    def test_one_sided_support_stays_symmetric_and_bounded(self):
        window_a = [[0, 0]] * 4
        window_b = [[1, 1]] * 4
        ds = build_encoded(window_a + window_b, [2, 2])
        a, b = TimeInterval(0, 4), TimeInterval(4, 8)
        subset = AttributeSubset.covariates(["a0"])
        for fn in (conditioned_covariate_drift, posterior_drift):
            f = fn(ds, a, b, subset).magnitude
            r = fn(ds, b, a, subset).magnitude
            assert f == pytest.approx(r, abs=TOL)
            assert f == pytest.approx(1.0, abs=TOL)

    def test_disjoint_windows_read_exactly_one(self):
        # nine records against ten, no covariate value shared: every
        # magnitude is full drift, and rounding must not lift it above 1
        window_a = [[i, i % 2] for i in range(9)]
        window_b = [[9 + i, i % 2] for i in range(10)]
        ds = build_encoded(window_a + window_b, [19, 2])
        a, b = TimeInterval(0, 9), TimeInterval(9, 19)
        subset = AttributeSubset.covariates(["a0"])
        for fn in (marginal_drift, conditioned_covariate_drift, posterior_drift):
            assert fn(ds, a, b, subset).magnitude == 1.0
            assert fn(ds, a, b, subset, HELLINGER).magnitude <= 1.0


COVARIATE_A0 = AttributeSubset.covariates(["a0"])


@pytest.mark.parametrize("measure, message", [
    (lambda ds, wa, wb: compute_drift(ds, wa, wb, "nope", COVARIATE_A0),
     "unknown measure kind 'nope'"),
    (lambda ds, wa, wb: compute_drift(ds, wa, wb, "joint", COVARIATE_A0),
     "measure kind 'joint' does not match subset role 'covariates-only'"),
    (lambda ds, wa, wb: conditioned_covariate_drift(
        ds, wa, wb, AttributeSubset.joint(["a0"], "label")),
     "conditioned_covariate drift needs a covariates-only subset"),
    (lambda ds, wa, wb: posterior_drift(ds, wa, wb, AttributeSubset.class_only("label")),
     "posterior drift needs a covariates-only subset"),
    (lambda ds, wa, wb: marginal_drift(ds, wa, wb, COVARIATE_A0, "tvd"),
     "unknown distance kind 'tvd'"),
], ids=["unknown-kind", "kind-role-mismatch", "conditioned-on-joint",
        "posterior-on-class", "unknown-distance"])
def test_bad_measure_arguments_fail_loudly(measure, message):
    ds = build_encoded([[0, 0], [1, 1]] * 2, [2, 2])
    with pytest.raises(MeasureError) as info:
        measure(ds, TimeInterval(0, 2), TimeInterval(2, 4))
    assert str(info.value) == message


@pytest.mark.parametrize("distance", [TOTAL_VARIATION, HELLINGER])
def test_two_empty_windows_report_insufficient(distance):
    ds = build_encoded([[0, 1, 0], [1, 0, 1]] * 2, [2, 2, 2], timestamps=[10, 11, 12, 13])
    covariates = AttributeSubset.covariates(["a0", "a1"])
    for kind, subset in (("joint", AttributeSubset.joint(["a0"], "label")),
                         ("covariate", covariates),
                         ("class", AttributeSubset.class_only("label")),
                         ("conditioned_covariate", covariates), ("posterior", covariates)):
        m = compute_drift(ds, TimeInterval(0, 5), TimeInterval(5, 9), kind, subset, distance)
        assert (m.magnitude, m.sample_sizes, m.status) == (None, (0, 0), STATUS_INSUFFICIENT)
