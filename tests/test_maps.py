import json
import re

import numpy as np
import pytest

from driftmap.estimate import AttributeSubset, EstimationError, TimeInterval
from driftmap.maps import (
    GridError,
    HeatMapGrid,
    conditioned_pairwise_map,
    conditioned_univariate_map,
    pairwise_joint_map,
    posterior_pairwise_map,
)
from driftmap.measures import conditioned_covariate_drift, marginal_drift

from conftest import build_encoded, random_encoded
import oracles

TOL = 1e-9


def two_windows(n):
    return TimeInterval(0, n), TimeInterval(n, 2 * n)


class TestPairwiseJoint:
    def test_single_attribute_grid(self, rng):
        ds, wa, wb = random_encoded(rng, n_attrs=1)
        grid = pairwise_joint_map(ds, wa, wb)
        assert grid.row_labels == ("a0",)
        uni = marginal_drift(ds, wa, wb, AttributeSubset.covariates(["a0"]))
        assert grid.cell(0, 0) == uni.magnitude

    def test_diagonal_equals_univariate_exactly(self, rng):
        ds, wa, wb = random_encoded(rng, n_attrs=3)
        grid = pairwise_joint_map(ds, wa, wb)
        for i, name in enumerate(grid.row_labels):
            uni = marginal_drift(ds, wa, wb, AttributeSubset.covariates([name]))
            assert grid.cell(i, i) == uni.magnitude

    def test_symmetry_and_monotonicity(self, rng):
        for _ in range(10):
            ds, wa, wb = random_encoded(rng, n_attrs=3, n_records=50)
            grid = pairwise_joint_map(ds, wa, wb)
            n = len(grid.row_labels)
            for i in range(n):
                for j in range(n):
                    assert grid.cell(i, j) == grid.cell(j, i)
                    if i != j:
                        assert grid.cell(i, j) >= grid.cell(i, i) - TOL
                        assert grid.cell(i, j) >= grid.cell(j, j) - TOL

    def test_cells_match_brute_force(self, rng):
        ds, wa, wb = random_encoded(rng, n_attrs=3, n_records=50)
        rows_a = ds.codes[wa.start:wa.end].tolist()
        rows_b = ds.codes[wb.start:wb.end].tolist()
        grid = pairwise_joint_map(ds, wa, wb)
        for i in range(3):
            for j in range(3):
                cols = [i] if i == j else [i, j]
                want = oracles.marginal_drift_oracle(
                    rows_a, rows_b, cols, ds.cardinalities)
                assert grid.cell(i, j) == pytest.approx(want, abs=TOL)

    def test_invariant_class_diagonal_zero(self):
        # class fixed per "location": identical class distributions in both
        # windows even though covariates shift
        window_a = [[0, 0, y] for y in (0, 0, 1, 1)]
        window_b = [[1, 1, y] for y in (0, 0, 1, 1)]
        ds = build_encoded(window_a + window_b, [2, 2, 2])
        wa, wb = two_windows(4)
        grid = pairwise_joint_map(ds, wa, wb, include_class=True)
        k = grid.row_labels.index("label")
        assert grid.cell(k, k) == 0.0

    def test_class_appended_to_explicit_attributes_once(self, rng):
        ds, wa, wb = random_encoded(rng, n_attrs=2, n_records=20)
        grid = pairwise_joint_map(ds, wa, wb, ("a1",), include_class=True)
        assert grid.row_labels == ("a1", "label")
        grid = pairwise_joint_map(ds, wa, wb, ("label", "a0"), include_class=True)
        assert grid.row_labels == ("label", "a0")

    def test_insufficient_data_propagates(self):
        ds = build_encoded([[0, 0]] * 4, [2, 2], timestamps=[5, 6, 7, 8])
        grid = pairwise_joint_map(ds, TimeInterval(0, 4), TimeInterval(5, 9))
        assert grid.cell(0, 0) is None

    def test_validate_rejects_asymmetry(self):
        with pytest.raises(GridError):
            HeatMapGrid(
                map_kind="pairwise_joint",
                row_labels=("a", "b"), col_labels=("a", "b"),
                values=((0.1, 0.5), (0.4, 0.2)),
                window_a=TimeInterval(0, 1), window_b=TimeInterval(1, 2),
            ).validate()


class TestConditionedUnivariate:
    def test_identical_windows_all_zero(self):
        block = [[0, 0], [1, 0], [0, 1], [1, 1]]
        ds = build_encoded(block * 2, [2, 2])
        grid = conditioned_univariate_map(ds, *two_windows(4))
        assert grid.col_labels == ("0", "1")
        assert all(v == 0.0 for row in grid.values for v in row)

    def test_one_sided_class_cell_is_one(self):
        window_a = [[0, 0]] * 4
        window_b = [[0, 0]] * 2 + [[1, 1]] * 2
        ds = build_encoded(window_a + window_b, [2, 2])
        grid = conditioned_univariate_map(ds, *two_windows(4))
        assert grid.cell(0, 1) == 1.0

    def test_cells_match_per_class_brute_force(self, rng):
        ds, wa, wb = random_encoded(rng, n_attrs=2, n_records=60)
        rows_a = ds.codes[wa.start:wa.end].tolist()
        rows_b = ds.codes[wb.start:wb.end].tolist()
        class_col = 2
        grid = conditioned_univariate_map(ds, wa, wb)
        for i in range(2):
            for code in range(ds.cardinalities[class_col]):
                sel_a = [r for r in rows_a if r[class_col] == code]
                sel_b = [r for r in rows_b if r[class_col] == code]
                if not sel_a and not sel_b:
                    assert grid.cell(i, code) is None
                elif not sel_a or not sel_b:
                    assert grid.cell(i, code) == 1.0
                else:
                    want = oracles.marginal_drift_oracle(
                        sel_a, sel_b, [i], ds.cardinalities)
                    assert grid.cell(i, code) == pytest.approx(want, abs=TOL)

    def test_weighted_cells_aggregate_to_scalar_measure(self, rng):
        # reweighting a univariate column family by average class prevalence
        # reproduces the scalar conditioned covariate drift
        ds, wa, wb = random_encoded(rng, n_attrs=1, n_records=80)
        from driftmap.estimate import estimate_distribution, select_window

        grid = conditioned_univariate_map(ds, wa, wb)
        cls = AttributeSubset.class_only("label")
        pa = estimate_distribution(select_window(ds, wa), cls)
        pb = estimate_distribution(select_window(ds, wb), cls)
        total = 0.0
        for code in range(ds.cardinalities[-1]):
            weight = 0.5 * (pa.probability((code,)) + pb.probability((code,)))
            cell = grid.cell(0, code)
            if cell is not None:
                total += weight * cell
        scalar = conditioned_covariate_drift(
            ds, wa, wb, AttributeSubset.covariates(["a0"]))
        assert total == pytest.approx(scalar.magnitude, abs=TOL)


class TestConditionedPairwise:
    def test_identical_windows_zero(self):
        block = [[0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1]]
        ds = build_encoded(block * 2, [2, 2, 2])
        grids = conditioned_pairwise_map(ds, *two_windows(4))
        assert len(grids) == 2  # one grid per class
        for grid in grids:
            assert all(v == 0.0 for row in grid.values for v in row)

    def test_one_sided_class_cells_one(self):
        window_a = [[0, 1, 0]] * 4
        window_b = [[0, 1, 0]] * 2 + [[1, 0, 1]] * 2
        ds = build_encoded(window_a + window_b, [2, 2, 2])
        grids = conditioned_pairwise_map(ds, *two_windows(4))
        class1 = next(g for g in grids if g.class_label == "1")
        assert all(v == 1.0 for row in class1.values for v in row)

    def test_cells_match_brute_force_and_monotone(self, rng):
        ds, wa, wb = random_encoded(rng, n_attrs=2, n_records=60)
        rows_a = ds.codes[wa.start:wa.end].tolist()
        rows_b = ds.codes[wb.start:wb.end].tolist()
        class_col = 2
        for grid in conditioned_pairwise_map(ds, wa, wb):
            code = int(grid.class_label)
            sel_a = [r for r in rows_a if r[class_col] == code]
            sel_b = [r for r in rows_b if r[class_col] == code]
            for i in range(2):
                for j in range(2):
                    cell = grid.cell(i, j)
                    if not sel_a and not sel_b:
                        assert cell is None
                        continue
                    if not sel_a or not sel_b:
                        assert cell == 1.0
                        continue
                    cols = [i] if i == j else [i, j]
                    want = oracles.marginal_drift_oracle(
                        sel_a, sel_b, cols, ds.cardinalities)
                    assert cell == pytest.approx(want, abs=TOL)
                    if i != j:
                        assert cell >= grid.cell(i, i) - TOL
                        assert cell >= grid.cell(j, j) - TOL


class TestPosteriorPairwise:
    def test_constant_class_all_zero(self):
        # covariates drift (different mixes) over a shared support while the
        # class stays the same point mass per tuple
        window_a = [[0, 1, 0]] * 4 + [[1, 0, 0]] * 2
        window_b = [[0, 1, 0]] * 2 + [[1, 0, 0]] * 4
        ds = build_encoded(window_a + window_b, [2, 2, 2])
        grid = posterior_pairwise_map(ds, *two_windows(6))
        assert all(v == 0.0 for row in grid.values for v in row)

    def test_single_tuple_equals_class_drift(self):
        window_a = [[0, 0, 0]] * 3 + [[0, 0, 1]] * 1
        window_b = [[0, 0, 0]] * 1 + [[0, 0, 1]] * 3
        ds = build_encoded(window_a + window_b, [1, 1, 2])
        wa, wb = two_windows(4)
        grid = posterior_pairwise_map(ds, wa, wb)
        cls = marginal_drift(ds, wa, wb, AttributeSubset.class_only("label"))
        for row in grid.values:
            for v in row:
                assert v == pytest.approx(cls.magnitude, abs=TOL)

    def test_cells_match_brute_force(self, rng):
        ds, wa, wb = random_encoded(rng, n_attrs=2, n_records=60)
        rows_a = ds.codes[wa.start:wa.end].tolist()
        rows_b = ds.codes[wb.start:wb.end].tolist()
        grid = posterior_pairwise_map(ds, wa, wb)
        for i in range(2):
            for j in range(2):
                cols = [i] if i == j else [i, j]
                want = oracles.posterior_oracle(
                    rows_a, rows_b, cols, 2, ds.cardinalities)
                assert grid.cell(i, j) == pytest.approx(want, abs=TOL)

    def test_pairwise_can_exceed_univariate(self):
        # class flips against the XOR of two balanced covariates: every
        # single-covariate posterior is unchanged, the pairwise one is maximal
        window_a = [[x1, x2, x1 ^ x2] for x1 in (0, 1) for x2 in (0, 1)] * 4
        window_b = [[x1, x2, 1 - (x1 ^ x2)] for x1 in (0, 1) for x2 in (0, 1)] * 4
        ds = build_encoded(window_a + window_b, [2, 2, 2])
        grid = posterior_pairwise_map(ds, *two_windows(16))
        assert grid.cell(0, 0) == 0.0
        assert grid.cell(1, 1) == 0.0
        assert grid.cell(0, 1) == pytest.approx(1.0, abs=TOL)


def test_grid_serialization():
    ds = build_encoded([[0, 0], [1, 1]] * 4, [2, 2])
    grid = pairwise_joint_map(ds, *two_windows(4))
    csv_text = grid.to_csv()
    assert csv_text.splitlines()[0] == "row,column,class,magnitude,status"
    doc = json.loads(grid.to_json())
    assert doc["map_kind"] == "pairwise_joint"
    assert len(doc["cells"]) == 1


@pytest.mark.parametrize("map_kind, enforced", [
    ("pairwise_joint", True),
    ("conditioned_pairwise", True),
    ("posterior_pairwise", False),
])
def test_monotonicity_is_enforced_by_map_kind(map_kind, enforced):
    grid = HeatMapGrid(
        map_kind=map_kind,
        row_labels=("a", "b"), col_labels=("a", "b"),
        values=((0.5, 0.2), (0.2, 0.1)),  # off-diagonal below the 0.5 diagonal
        window_a=TimeInterval(0, 1), window_b=TimeInterval(1, 2),
    )
    if enforced:
        with pytest.raises(GridError, match="monotonicity"):
            grid.validate()
    else:
        grid.validate()


def test_pairwise_joint_map_needs_an_attribute():
    ds = build_encoded([[0, 0], [1, 1]] * 2, [2, 2])
    with pytest.raises(GridError) as info:
        pairwise_joint_map(ds, *two_windows(2), ())
    assert str(info.value) == "pairwise map needs at least one attribute"


def test_validate_rejects_differing_labels():
    grid = HeatMapGrid(
        map_kind="pairwise_joint",
        row_labels=("a", "b"), col_labels=("a", "c"),
        values=((0.1, 0.2), (0.2, 0.1)),
        window_a=TimeInterval(0, 1), window_b=TimeInterval(1, 2),
    )
    with pytest.raises(GridError) as info:
        grid.validate()
    assert str(info.value) == "pairwise grid must have identical row and column labels"


_BUILDERS = [pairwise_joint_map, conditioned_univariate_map, conditioned_pairwise_map,
             posterior_pairwise_map]
_BUILDER_IDS = ["pairwise-joint", "conditioned-univariate", "conditioned-pairwise",
                "posterior-pairwise"]


@pytest.mark.parametrize("build, shape", zip(_BUILDERS, ["pairwise", "univariate",
                                                        "pairwise", "pairwise"]),
                         ids=_BUILDER_IDS)
def test_every_builder_rejects_an_empty_attribute_list(build, shape):
    ds = build_encoded([[0, 0, 0], [1, 1, 1]] * 2, [2, 2, 2])
    with pytest.raises(GridError) as info:
        build(ds, *two_windows(2), ())
    assert str(info.value) == f"{shape} map needs at least one attribute"


@pytest.mark.parametrize("build", _BUILDERS, ids=_BUILDER_IDS)
@pytest.mark.parametrize("attributes, message", [
    (("a0", "a0"), "duplicate attributes in subset"),
    (("a0", "zz"), "unknown attributes in subset: ['zz']"),
], ids=["repeated", "unknown"])
def test_every_builder_rejects_repeated_or_unknown_names_before_counting(
        build, attributes, message, monkeypatch):
    # every map is counted through pair_reductions, which would fail
    ds = build_encoded([[0, 0, 0], [1, 1, 1]] * 2, [2, 2, 2])
    monkeypatch.setattr("driftmap.measures.pair_reductions", None)
    monkeypatch.setattr("driftmap.maps.pair_reductions", None)
    with pytest.raises(EstimationError, match=re.escape(message)):
        build(ds, *two_windows(2), attributes)


@pytest.mark.parametrize("build", _BUILDERS, ids=_BUILDER_IDS)
@pytest.mark.parametrize("attributes, message", [
    (("a0", "a0"), "duplicate attributes in subset"),
    (("a0", "zz"), "unknown attributes in subset: ['zz']"),
], ids=["repeated", "unknown"])
def test_every_builder_checks_names_before_compacting_rows(
        build, attributes, message, monkeypatch):
    # every map cell counts its windows with window_counts, which would fail
    ds = build_encoded([[0, 0, 0], [1, 1, 1]] * 2, [2, 2, 2])
    monkeypatch.setattr("driftmap.measures.window_counts", None)
    with pytest.raises(EstimationError, match=re.escape(message)):
        build(ds, *two_windows(2), attributes)


@pytest.mark.parametrize("attributes, include_class", [
    (("label", "a0", "label"), False),
    (("a0", "label", "label"), True),
], ids=["listed-twice", "listed-twice-with-include-class"])
def test_pairwise_joint_map_rejects_a_repeated_class(attributes, include_class):
    ds = build_encoded([[0, 0, 0], [1, 1, 1]] * 2, [2, 2, 2])
    with pytest.raises(EstimationError, match="duplicate attributes in subset"):
        pairwise_joint_map(ds, *two_windows(2), attributes, include_class=include_class)


@pytest.mark.parametrize("build", _BUILDERS[1:], ids=_BUILDER_IDS[1:])
def test_class_conditioned_builders_reject_the_class_attribute(build):
    ds = build_encoded([[0, 0, 0], [1, 1, 1]] * 2, [2, 2, 2])
    with pytest.raises(EstimationError, match="as 'covariates-only' must be"):
        build(ds, *two_windows(2), ("a0", "label"))
