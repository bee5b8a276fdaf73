"""One count per window pair: every map cell and every measure of one pair
is read off one ``window_counts`` call over the union of their attributes.

The differential tests draw small streams with missing cells, a class that
only some ticks carry, and window pairs that overlap, leave a gap or hold no
record. Each map cell and each measurement is checked, bit for bit, against
the same number counted over the cell's own attributes alone: the sweep's
path (``drift_measurements``, ``pair_distances``), which drops only the
records missing one of those attributes, and ``compute_drift``. The dense
oracles of ``tests/oracles.py`` check them within 1e-9.
"""

import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftmap import cli, estimate, measures
from driftmap.discretize import MISSING_CODE, apply_discretizer, fit_discretizer
from driftmap.estimate import AttributeSubset, TimeInterval, window_counts
from driftmap.maps import (
    CONDITIONED_PAIRWISE,
    CONDITIONED_UNIVARIATE,
    PAIRWISE_JOINT,
    POSTERIOR_PAIRWISE,
    GridError,
    HeatMapGrid,
    conditioned_pairwise_map,
    conditioned_univariate_map,
    pairwise_joint_map,
    posterior_pairwise_map,
)
from driftmap.measures import (
    HELLINGER,
    TOTAL_VARIATION,
    compute_drift,
    drift_measurements,
    marginal_kind,
    pair_distances,
    pair_measurements,
)
from driftmap.schema import CATEGORICAL, NUMERIC, Attribute, AttributeSchema, RawDataset

from conftest import build_encoded
import oracles

TOL = 1e-9
DISTANCES = (TOTAL_VARIATION, HELLINGER)


@st.composite
def windowed_streams(draw):
    """(dataset, window_a, window_b) for a small stream of two or three
    covariates and a class: about one cell in six missing, the class label
    ``r`` only before a drawn tick, and two windows drawn apart, so that they
    may overlap, leave a gap or hold no record. The discretizer is fitted on
    other records, so codes may be overflow codes."""
    attrs = [Attribute("x0", NUMERIC), Attribute("x1", CATEGORICAL)]
    attrs += [Attribute("x2", NUMERIC)] * draw(st.booleans())
    attrs.append(Attribute("label", CATEGORICAL))
    schema = AttributeSchema(attributes=tuple(attrs), class_attribute="label")
    rare_until = draw(st.integers(0, 12))

    def value(attr, t):
        if attr.name == "label":
            return draw(st.sampled_from("pqr" if t < rare_until else "pq"))
        if attr.kind == NUMERIC:
            return float(draw(st.integers(0, 4)))
        return draw(st.sampled_from("abc"))

    # fitted on complete records; a label only the stream holds maps to the overflow code
    fit = [(0, tuple(value(a, 0) for a in attrs)) for _ in range(draw(st.integers(1, 6)))]
    discretizer = fit_discretizer(RawDataset.from_records(schema, tuple(fit)),
                                  draw(st.integers(2, 3)))
    stamps = sorted(draw(st.lists(st.integers(0, 10), min_size=1, max_size=30)))
    records = tuple((t, tuple(None if draw(st.integers(0, 5)) == 0 else value(a, t)
                              for a in attrs)) for t in stamps)
    dataset = apply_discretizer(RawDataset.from_records(schema, records), discretizer)
    windows = []
    for _ in range(2):
        start = draw(st.integers(-1, 11))
        windows.append(TimeInterval(start, draw(st.integers(start + 1, 12))))
    return dataset, *windows


def _five_measures(names):
    """Every measure kind, in ``MEASURE_ROLES`` order, over ``names``."""
    covariates = AttributeSubset.covariates(names)
    return [("joint", AttributeSubset.joint(names, "label")), ("covariate", covariates),
            ("class", AttributeSubset.class_only("label")),
            ("conditioned_covariate", covariates), ("posterior", covariates)]


def _pair(window_a, window_b):
    return [(window_a.start, window_a.end, window_b.start, window_b.end)]


def _own_count(dataset, window_a, window_b, kind, subset, distance):
    """The measurement, counted over the subset's own attributes alone."""
    return drift_measurements(dataset, _pair(window_a, window_b), kind, subset,
                              distance).measurement(0, window_a, window_b)


def _same(got, want):
    """Bit for bit: the same floats (``repr`` tells -0.0 and NaN apart) and Nones."""
    return repr(got) == repr(want)


def _pairs(names):
    n = len(names)
    return [(i, j, (names[i],) if i == j else (names[i], names[j]))
            for i in range(n) for j in range(i, n)]


def _build(builder, *args, **kwargs):
    """The builder's grids, or the message of the ``GridError`` it raises."""
    try:
        grids = builder(*args, **kwargs)
    except GridError as exc:
        return str(exc)
    return grids if isinstance(grids, list) else [grids]


def _reference(map_kind, names, cells, window_a, window_b, distance, class_label=None):
    """The grid the per-cell ``cells`` give, or the message its check raises."""
    n = len(names)
    values = [[None] * n for _ in range(n)]
    for (i, j, _), value in zip(_pairs(names), cells):
        values[i][j] = values[j][i] = value
    grid = HeatMapGrid(map_kind, names, names, tuple(map(tuple, values)), window_a, window_b,
                       distance, class_label)
    try:
        grid.validate()
    except GridError as exc:
        return str(exc)
    return grid


def _per_class(dataset, window_a, window_b, names, distance):
    """One cell of a conditioned map counted alone: each class code's inner
    distance, through the sweep's reduction of one pair."""
    [(classes, _, _, (d,))] = pair_distances(dataset, _pair(window_a, window_b), ("label",),
                                             names, distance)
    found = dict(zip(classes[:, 0].tolist(), d.tolist()))
    return [found.get(code) for code in range(len(dataset.discretizer.labels_for("label")))]


def _rows(dataset, window, cols):
    return [row for t, row in zip(dataset.timestamps.tolist(), dataset.codes.tolist())
            if window.start <= t < window.end and all(row[c] != MISSING_CODE for c in cols)]


def _assert_grids(got, want):
    """The builder's grids ``got`` hold the cells of the ``want`` grids, or
    fail the check that the first failing one of them fails."""
    errors = [w for w in want if isinstance(w, str)]
    if errors:
        assert got == errors[0]
        return
    assert not isinstance(got, str), got
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.map_kind, g.row_labels, g.col_labels, g.class_label) == \
            (w.map_kind, w.row_labels, w.col_labels, w.class_label)
        assert _same(g.values, w.values), (g.values, w.values)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(windowed_streams())
def test_every_map_cell_equals_its_own_count(case):
    dataset, window_a, window_b = case
    covariates = dataset.schema.covariate_names
    with_class = covariates + ("label",)
    cards = dataset.cardinalities
    for distance in DISTANCES:
        for names, include_class in ((covariates, False), (with_class, True)):
            cells = []
            for _, _, pair in _pairs(names):
                subset = AttributeSubset.of(pair, "label")
                own = _own_count(dataset, window_a, window_b, marginal_kind(subset), subset,
                                 distance)
                assert _same(own, compute_drift(dataset, window_a, window_b,
                                                marginal_kind(subset), subset, distance))
                cols = dataset.column_indices(pair)
                rows_a, rows_b = _rows(dataset, window_a, cols), _rows(dataset, window_b, cols)
                if rows_a and rows_b:
                    want = oracles.marginal_drift_oracle(rows_a, rows_b, cols, cards, distance)
                    assert own.magnitude == pytest.approx(want, abs=TOL)
                cells.append(own.magnitude)
            _assert_grids(
                _build(pairwise_joint_map, dataset, window_a, window_b, covariates, distance,
                       include_class=include_class),
                [_reference(PAIRWISE_JOINT, names, cells, window_a, window_b, distance)])

        posterior = []
        for _, _, pair in _pairs(covariates):
            subset = AttributeSubset.covariates(pair)
            own = _own_count(dataset, window_a, window_b, "posterior", subset, distance)
            assert _same(own, compute_drift(dataset, window_a, window_b, "posterior", subset,
                                            distance))
            posterior.append(own.magnitude)
        _assert_grids(_build(posterior_pairwise_map, dataset, window_a, window_b, None,
                             distance),
                      [_reference(POSTERIOR_PAIRWISE, covariates, posterior, window_a,
                                  window_b, distance)])

        labels = tuple(dataset.discretizer.labels_for("label"))
        univariate = [_per_class(dataset, window_a, window_b, (name,), distance)
                      for name in covariates]
        _assert_grids(_build(conditioned_univariate_map, dataset, window_a, window_b, None,
                             distance),
                      [HeatMapGrid(CONDITIONED_UNIVARIATE, covariates, labels,
                                   tuple(map(tuple, univariate)), window_a, window_b,
                                   distance)])
        per_class = [_per_class(dataset, window_a, window_b, pair, distance)
                     for _, _, pair in _pairs(covariates)]
        for cell, (_, _, pair) in zip(per_class, _pairs(covariates)):
            cols = dataset.column_indices(pair)
            label = dataset.column_indices(["label"])[0]
            for code, value in enumerate(cell):
                sides = [[r for r in _rows(dataset, w, cols + [label]) if r[label] == code]
                         for w in (window_a, window_b)]
                if not any(sides):
                    assert value is None
                elif not all(sides):
                    assert value == 1.0
                else:
                    want = oracles.marginal_drift_oracle(*sides, cols, cards, distance)
                    assert value == pytest.approx(want, abs=TOL)
        references = [_reference(CONDITIONED_PAIRWISE, covariates,
                                 [cell[code] for cell in per_class], window_a, window_b,
                                 distance, label) for code, label in enumerate(labels)]
        _assert_grids(_build(conditioned_pairwise_map, dataset, window_a, window_b, None,
                             distance), references)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(windowed_streams(), st.data())
def test_every_measurement_of_one_count_equals_its_own_count(case, data):
    dataset, window_a, window_b = case
    order = data.draw(st.permutations(dataset.schema.covariate_names))
    names = tuple(order[:data.draw(st.integers(1, len(order)))])
    requests = _five_measures(names)
    cards = dataset.cardinalities
    cov = dataset.column_indices(names)
    label = dataset.column_indices(["label"])[0]
    for distance in DISTANCES:
        got = pair_measurements(dataset, window_a, window_b, requests, distance)
        assert len(got) == len(requests)
        for m, (kind, subset) in zip(got, requests):
            own = _own_count(dataset, window_a, window_b, kind, subset, distance)
            assert _same(m, own)
            assert _same(m, compute_drift(dataset, window_a, window_b, kind, subset, distance))
            cols = dataset.column_indices(subset.names)
            if kind in ("conditioned_covariate", "posterior"):
                cols = cov + [label]
            rows_a, rows_b = _rows(dataset, window_a, cols), _rows(dataset, window_b, cols)
            assert m.sample_sizes == (len(rows_a), len(rows_b))
            if not (rows_a and rows_b):
                assert m.magnitude is None
                continue
            if kind == "conditioned_covariate":
                want = oracles.conditioned_covariate_oracle(rows_a, rows_b, cov, label, cards,
                                                            distance)
            elif kind == "posterior":
                want = oracles.posterior_oracle(rows_a, rows_b, cov, label, cards, distance)
            else:
                want = oracles.marginal_drift_oracle(rows_a, rows_b, cols, cards, distance)
            assert m.magnitude == pytest.approx(want, abs=TOL), (kind, distance)


def test_projected_counts_are_the_counts_of_the_subset():
    """``project_counts`` off a ``keep_missing`` count gives what
    ``window_counts`` counts over the subset alone, missing codes and all."""
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 3, size=(60, 4))
    codes[rng.random(codes.shape) < 0.2] = MISSING_CODE
    ds = build_encoded(codes, [3, 3, 3, 3])
    bounds = [(0, 25), (20, 60)]
    keys, counts = window_counts(ds, ("a0", "a1", "a2", "label"), bounds, keep_missing=True)
    assert (keys == MISSING_CODE).any()
    union = ("a0", "a1", "a2", "label")
    for names in [("a1",), ("a2", "a0"), ("label", "a1", "a0"), union]:
        got = estimate.project_counts(keys, counts, [union.index(n) for n in names])
        want = window_counts(ds, names, bounds)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist() and got[1].dtype == want[1].dtype


# --- one count per window pair ------------------------------------------

@pytest.fixture
def counted():
    """The attribute lists of the ``window_counts`` calls the test makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(tuple(args[1]))
        return window_counts(*args, **kwargs)

    with mock.patch.object(measures, "window_counts", counting):
        yield calls


@pytest.fixture
def dataset():
    rng = np.random.default_rng(9)
    codes = rng.integers(0, 3, size=(80, 4))
    codes[:, -1] = rng.integers(0, 2, size=80)
    return build_encoded(codes, [3, 3, 3, 2])


@pytest.mark.parametrize("build, extra", [
    (pairwise_joint_map, {}), (pairwise_joint_map, {"include_class": True}),
    (conditioned_univariate_map, {}), (conditioned_pairwise_map, {}),
    (posterior_pairwise_map, {}),
], ids=["pairwise-joint", "pairwise-joint-with-class", "conditioned-univariate",
        "conditioned-pairwise", "posterior-pairwise"])
def test_a_map_counts_its_window_pair_once(dataset, counted, build, extra):
    build(dataset, TimeInterval(0, 40), TimeInterval(40, 80), **extra)
    assert len(counted) == 1


def test_five_measures_count_their_window_pair_once(dataset, counted):
    pair_measurements(dataset, TimeInterval(0, 40), TimeInterval(40, 80),
                      _five_measures(("a0", "a1", "a2")))
    assert counted == [("a0", "a1", "a2", "label")]


def test_the_cli_job_of_the_benchmark_counts_each_command_once(tmp_path, counted):
    """encode, two five-measure ``measure`` runs and one ``map`` of each kind:
    six window pairs, six counts, not one per measure and map cell (60)."""
    rng = np.random.default_rng(4)
    lines = ["x1,x2,x3,label"] + [
        f"{rng.normal():.3f},{rng.normal():.3f},{rng.integers(0, 9)},{rng.choice(['UP', 'DOWN'])}"
        for _ in range(200)]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "config.yaml").write_text(
        "attributes:\n  - {name: x1, kind: numeric}\n  - {name: x2, kind: numeric}\n"
        "  - {name: x3, kind: numeric}\n  - {name: label, kind: categorical}\n"
        "class: label\ntimestamp:\n  source: record-index\n")
    base = ["--config", str(tmp_path / "config.yaml"), "--data", str(tmp_path / "data.csv"),
            "--out", str(tmp_path / "out")]
    windows = ["--window-a", "0:100", "--window-b", "100:200"]
    commands = [["encode", *base], ["measure", *base, *windows],
                ["measure", *base, *windows, "--distance", "hellinger"]]
    commands += [["map", *base, "--kind", kind, *windows] for kind in
                 ("pairwise-joint", "conditioned-univariate", "conditioned-pairwise",
                  "posterior-pairwise")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [cli.run_cli(command) for command in commands] == [0] * 7
    assert len(counted) == 6
