"""The counting kernel against the dense brute-force oracles.

Property tests draw small streams through the real ingest-free pipeline
(a discretizer fitted on separate records, then applied), so the data
carries missing codes, categorical overflow codes, duplicate timestamps at
window edges and windows of a single record. Window contents for the
oracles are selected by a plain timestamp scan, independent of
``select_window``.
"""

import dataclasses
import math
import types
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftmap.discretize import MISSING_CODE, apply_discretizer, fit_discretizer
from driftmap.estimate import (
    MAX_KEY_SPACE,
    AttributeSubset,
    TimeInterval,
    estimate_conditional,
    estimate_distribution,
    select_window,
    window_counts,
)
from driftmap import measures
from driftmap.measures import (
    HELLINGER,
    STATUS_INSUFFICIENT,
    TOTAL_VARIATION,
    compute_drift,
)
from driftmap.schema import CATEGORICAL, NUMERIC, Attribute, AttributeSchema, RawDataset
from driftmap.schema import ingest_records, parse_schema
from driftmap.temporal import ADJACENT, CONSECUTIVE, MeasureSpec, SweepSpec, drift_series

from conftest import build_encoded
import oracles

TOL = 1e-9
CATEGORIES = ("a", "b", "c", "d")


@st.composite
def streams(draw):
    """(dataset, window_a, window_b, covariate subset) for one small stream."""
    n_cov = draw(st.integers(1, 3))
    attrs = [Attribute("x0", NUMERIC)] + [
        Attribute(f"x{i}", CATEGORICAL) for i in range(1, n_cov)]
    attrs.append(Attribute("label", CATEGORICAL))
    schema = AttributeSchema(attributes=tuple(attrs), class_attribute="label")

    def value(attr, fitted):
        if attr.kind == NUMERIC:
            return float(draw(st.integers(0, 5)))
        # labels past the fitted ones map to the overflow code
        return draw(st.sampled_from(CATEGORIES[:2] if fitted else CATEGORIES))

    fit = [(0, tuple(value(a, True) for a in attrs))
           for _ in range(draw(st.integers(1, 6)))]
    discretizer = fit_discretizer(RawDataset.from_records(schema, tuple(fit)),
                                  draw(st.integers(2, 3)))

    stamps = sorted(draw(st.lists(st.integers(0, 10), min_size=1, max_size=30)))
    records = tuple(
        (t, tuple(None if draw(st.integers(0, 5)) == 0 else value(a, False) for a in attrs))
        for t in stamps)
    dataset = apply_discretizer(RawDataset.from_records(schema, records), discretizer)

    start, mid, end = sorted(draw(st.lists(st.integers(-1, 12), min_size=3, max_size=3,
                                           unique=True)))
    covariates = draw(st.permutations(schema.covariate_names))
    subset = covariates[:draw(st.integers(1, n_cov))]
    return dataset, TimeInterval(start, mid), TimeInterval(mid, end), subset


def _rows(dataset, window, cols):
    """Codes of the records in ``window`` with none of ``cols`` missing."""
    return [row for t, row in zip(dataset.timestamps.tolist(), dataset.codes.tolist())
            if window.start <= t < window.end
            and all(row[c] != MISSING_CODE for c in cols)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(streams())
def test_five_measures_match_oracles(case):
    dataset, window_a, window_b, names = case
    cards = dataset.cardinalities
    cov = dataset.column_indices(names)
    cls = dataset.column_indices(["label"])[0]
    subsets = {
        "joint": (AttributeSubset.joint(names, "label"), cov + [cls]),
        "covariate": (AttributeSubset.covariates(names), cov),
        "class": (AttributeSubset.class_only("label"), [cls]),
        "conditioned_covariate": (AttributeSubset.covariates(names), cov + [cls]),
        "posterior": (AttributeSubset.covariates(names), cov + [cls]),
    }
    for kind, (subset, cols) in subsets.items():
        rows_a, rows_b = _rows(dataset, window_a, cols), _rows(dataset, window_b, cols)
        for distance in (TOTAL_VARIATION, HELLINGER):
            m = compute_drift(dataset, window_a, window_b, kind, subset, distance)
            assert m.sample_sizes == (len(rows_a), len(rows_b))
            if not rows_a or not rows_b:
                assert m.status == STATUS_INSUFFICIENT and m.magnitude is None
                continue
            if kind == "conditioned_covariate":
                want = oracles.conditioned_covariate_oracle(
                    rows_a, rows_b, cov, cls, cards, distance)
            elif kind == "posterior":
                want = oracles.posterior_oracle(rows_a, rows_b, cov, cls, cards, distance)
            else:
                want = oracles.marginal_drift_oracle(rows_a, rows_b, cols, cards, distance)
            assert m.magnitude == pytest.approx(want, abs=TOL), (kind, distance)
            assert 0.0 <= m.magnitude <= 1.0


def _sparse_tvd(rows_a, rows_b):
    ca, cb = Counter(rows_a), Counter(rows_b)
    return 0.5 * sum(abs(ca[k] / len(rows_a) - cb[k] / len(rows_b)) for k in ca.keys() | cb.keys())


def test_key_space_beyond_int64_falls_back_to_row_compaction():
    # two 3^26-code attributes: mixed-radix keys would need ~2^83 values
    big = 3 ** 26
    rng = np.random.default_rng(7)
    values = rng.choice([0, 1, big // 2, big - 1], size=(60, 2))
    labels = rng.integers(0, 2, size=(60, 1))
    ds = build_encoded(np.hstack([values, labels]), [2, 2, 2])
    ds = dataclasses.replace(ds, cardinalities=(big, big, 2))
    assert math.prod(ds.cardinalities) > MAX_KEY_SPACE

    wa, wb = TimeInterval(0, 30), TimeInterval(30, 60)
    rows = [tuple(r) for r in ds.codes.tolist()]
    subset = AttributeSubset.covariates(["a0", "a1"])

    est = estimate_distribution(select_window(ds, wa), subset)
    counts = Counter(r[:2] for r in rows[:30])
    assert est.support == {k: c / 30 for k, c in counts.items()}

    fam = estimate_conditional(select_window(ds, wa), AttributeSubset.class_only("label"), subset)
    for key, (weight, inner) in fam.members.items():
        group = [r[2] for r in rows[:30] if r[:2] == key]
        assert weight == len(group) / 30
        assert inner.support == {(y,): c / len(group) for y, c in Counter(group).items()}
    assert len(fam.members) == len(counts)

    m = compute_drift(ds, wa, wb, "covariate", subset)
    want = _sparse_tvd([r[:2] for r in rows[:30]], [r[:2] for r in rows[30:]])
    assert m.magnitude == pytest.approx(want, abs=TOL)


def _coded_stream(row_keys):
    """40 records over a0, a1 and a binary label, 15% of covariate codes
    missing; with ``row_keys`` the covariates' cardinalities are 3^26, so
    mixed-radix keys would overflow an int64 and rows are compacted."""
    big = 3 ** 26
    rng = np.random.default_rng(3)
    values = rng.choice([0, 1, big - 1] if row_keys else [0, 1, 2], size=(40, 2))
    values[rng.random(values.shape) < 0.15] = MISSING_CODE
    labels = rng.integers(0, 2, size=(40, 1))
    ds = build_encoded(np.hstack([values, labels]), [3, 3, 2])
    if row_keys:
        ds = dataclasses.replace(ds, cardinalities=(big, big, 2))
        assert math.prod(ds.cardinalities) > MAX_KEY_SPACE
    return ds


def _assert_window_counts_match_a_scan(ds, names, bounds):
    """``window_counts`` against a Counter of the complete code rows in each range."""
    cols = ds.column_indices(names)
    rows = [tuple(r) for r in ds.codes[:, cols].tolist()]
    want = [Counter(r for r in rows[lo:hi] if MISSING_CODE not in r) for lo, hi in bounds]
    keys, counts = window_counts(ds, names, bounds)
    key_rows = [tuple(k) for k in keys.tolist()]
    assert key_rows == sorted(set().union(*want))
    assert counts.dtype == np.int64 and counts.shape == (len(bounds), len(key_rows))
    assert [{k: c for k, c in zip(key_rows, row) if c} for row in counts.tolist()] == want


@pytest.mark.parametrize("row_keys", [False, True], ids=["int64-keys", "row-keys"])
@pytest.mark.parametrize("bounds", [
    [(0, 20), (10, 30)],
    [(0, 40), (12, 18), (15, 16)],
    [(0, 10), (10, 20), (20, 40)],
    [(5, 5), (0, 12), (12, 12), (40, 40)],
    [(7, 7)],
    [(30, 40), (0, 10), (30, 40)],
], ids=["overlapping", "nested", "edge-sharing", "with-empty", "only-empty", "unsorted"])
def test_window_counts_match_a_per_window_scan(bounds, row_keys):
    _assert_window_counts_match_a_scan(_coded_stream(row_keys), ("a1", "label", "a0"), bounds)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.booleans(), st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)).map(sorted),
                               min_size=1, max_size=6))
def test_window_counts_match_a_scan_on_any_ranges(row_keys, bounds):
    _assert_window_counts_match_a_scan(_coded_stream(row_keys), ("a0", "a1"), bounds)


def _all_measures(names, class_name="label"):
    """Every measure kind over ``names`` under both distances."""
    covariates = AttributeSubset.covariates(names)
    subsets = {
        "joint": AttributeSubset.joint(names, class_name),
        "covariate": covariates,
        "class": AttributeSubset.class_only(class_name),
        "conditioned_covariate": covariates,
        "posterior": covariates,
    }
    return tuple(MeasureSpec(kind, subset, distance) for kind, subset in subsets.items()
                 for distance in (TOTAL_VARIATION, HELLINGER))


def _assert_sweep_is_per_point_drift(dataset, spec):
    """Every point of the batched sweep equals a compute_drift call on its
    window pair: the same magnitude bits, sample sizes and status."""
    series = drift_series(dataset, spec)
    for point in series.points:
        window_a, window_b = spec.windows_at(point.time)
        for mspec in spec.measures:
            got = point.results[mspec.key]
            want = compute_drift(dataset, window_a, window_b, mspec.measure_kind,
                                 mspec.subset, mspec.distance_kind)
            assert (repr(got.magnitude), got.sample_sizes, got.status) == \
                (repr(want.magnitude), want.sample_sizes, want.status), (point.time, mspec.key)
            assert got == want
    return series


@settings(max_examples=100, deadline=None, derandomize=True)
@given(streams(), st.integers(1, 4), st.integers(1, 3),
       st.sampled_from([1, 100, measures.CHUNK_CELLS]))
def test_sweep_matches_compute_drift_at_every_point(case, span, step, chunk_cells):
    """Small chunk budgets split the sweep into chunks of one or a few pairs."""
    dataset, _, _, names = case
    with mock.patch.object(measures, "CHUNK_CELLS", chunk_cells):
        for alignment in (ADJACENT, CONSECUTIVE):
            spec = SweepSpec(compute_step=step, span=span, alignment=alignment,
                             measures=_all_measures(names))
            _assert_sweep_is_per_point_drift(dataset, spec)


def test_sweep_over_a_key_space_beyond_int64_matches_compute_drift():
    big = 3 ** 26
    rng = np.random.default_rng(11)
    values = rng.choice([0, 1, big // 2, big - 1], size=(80, 2))
    values[rng.random(values.shape) < 0.1] = MISSING_CODE
    labels = rng.integers(0, 2, size=(80, 1))
    ds = build_encoded(np.hstack([values, labels]), [2, 2, 2], timestamps=np.arange(80) // 2)
    ds = dataclasses.replace(ds, cardinalities=(big, big, 2))
    assert math.prod(ds.cardinalities) > MAX_KEY_SPACE
    for alignment in (ADJACENT, CONSECUTIVE):
        spec = SweepSpec(compute_step=3, span=8, alignment=alignment,
                         measures=_all_measures(["a0", "a1"]))
        series = _assert_sweep_is_per_point_drift(ds, spec)
        assert len(series) > 5


def _chunks(dataset, spec):
    """Each ``window_counts`` call of one ``drift_series``: its window pairs,
    as record ranges (pairs x 4), and the records it compacts (those inside
    any of its windows)."""
    calls = []

    def counting(ds, names, bounds):
        bounds = np.asarray(bounds)
        inside = np.zeros(len(ds), dtype=bool)
        for lo, hi in bounds:
            inside[lo:hi] = True
        calls.append((bounds.reshape(-1, 4), int(inside.sum())))
        return window_counts(ds, names, bounds)

    with mock.patch.object(measures, "window_counts", counting):
        drift_series(dataset, spec)
    return calls


@pytest.fixture(scope="module")
def bench_raw():
    """The benchmark's electricity-shaped stream (seed 1), read: 45,312
    half-hour records, five numeric covariates and a two-label class."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "stream.py"
    stream = types.ModuleType("stream")
    # compiled here, so that no bytecode is written under perfbench/
    exec(compile(path.read_text(), str(path), "exec"), stream.__dict__)
    return ingest_records(stream.generate_csv(1), "csv", parse_schema(stream.CONFIG_YAML)), stream


@pytest.fixture(scope="module")
def bench_stream(bench_raw):
    """The benchmark's stream encoded as the benchmark does: five bins."""
    raw, stream = bench_raw
    return apply_discretizer(raw, fit_discretizer(raw, 5)), stream


def _daily_sweep(stream, days, kind, names):
    return SweepSpec(compute_step=stream.TICKS_PER_DAY, span=days * stream.TICKS_PER_DAY,
                     measures=(MeasureSpec(kind, AttributeSubset.covariates(names)),))


@pytest.mark.parametrize("days", [30, 365])
@pytest.mark.parametrize("kind", ["covariate", "posterior"])
def test_a_sweep_compacts_each_record_a_few_times_at_any_span(bench_stream, kind, days):
    """Chunks are sized by the keys the sweep sees and capped in the records
    they reach, so the records compacted stay linear in the stream, at a
    month's span as at a year's."""
    dataset, stream = bench_stream
    chunks = _chunks(dataset, _daily_sweep(stream, days, kind, stream.COVARIATES))
    assert sum(records for _, records in chunks) < 5 * len(dataset)


def test_a_one_attribute_sweep_takes_as_many_chunks_at_30_as_at_365_days(bench_stream):
    dataset, stream = bench_stream
    counts = [len(_chunks(dataset, _daily_sweep(stream, days, "covariate", ["nswprice"])))
              for days in (30, 365)]
    assert counts[0] == counts[1]


def test_a_sweep_past_chunk_cells_keys_packs_the_pairs_its_rows_allow(bench_raw):
    """At 12 bins the five covariates' key space (12 * 12 * 9 * 9 * 9 keys)
    passes ``CHUNK_CELLS``, but the stream holds about 13,500 distinct rows:
    a 30-day daily sweep takes ``CHUNK_CELLS // rows`` pairs a chunk, not
    one, and every sampled point stays bit-identical to ``compute_drift``."""
    raw, stream = bench_raw
    dataset = apply_discretizer(raw, fit_discretizer(raw, 12))
    cols = dataset.column_indices(stream.COVARIATES)
    assert math.prod(dataset.cardinalities[c] for c in cols) > measures.CHUNK_CELLS
    rows = len(np.unique(dataset.codes[:, cols], axis=0))
    spec = _daily_sweep(stream, 30, "covariate", stream.COVARIATES)
    chunks = _chunks(dataset, spec)
    points = sum(len(bounds) for bounds, _ in chunks)
    assert len(chunks) == math.ceil(points / (measures.CHUNK_CELLS // rows)) < points / 3
    [mspec] = spec.measures
    points = drift_series(dataset, spec).points
    for point in (points[i] for i in (0, 331, 500, len(points) - 1)):
        got = point.results[mspec.key]
        want = compute_drift(dataset, *spec.windows_at(point.time), "covariate", mspec.subset)
        assert (repr(got.magnitude), got) == (repr(want.magnitude), want)


@st.composite
def few_key_streams(draw):
    """Two covariates of 4 codes and a two-label class (a product space of
    32 keys) whose records take 2 to 4 distinct covariate rows, the first
    records each row in turn, the others a drawn one, a few with a missing
    code: one record a tick for 24 ticks, then six a tick for 24."""
    pool = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=2, max_size=4, unique=True))
    stamps = np.repeat(np.arange(48), [1] * 24 + [6] * 24)
    rows = []
    for i in range(len(stamps)):
        row = [*(pool[i] if i < len(pool) else draw(st.sampled_from(pool))),
               draw(st.integers(0, 1))]
        if i >= len(pool) and draw(st.integers(0, 9)) == 0:
            row[draw(st.integers(0, 2))] = MISSING_CODE
        rows.append(row)
    return build_encoded(rows, [4, 4, 2], timestamps=stamps), len(pool)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(few_key_streams(), st.integers(1, 2), st.sampled_from([ADJACENT, CONSECUTIVE]))
def test_sweep_split_by_seen_keys_and_reach_matches_compute_drift(case, span, alignment):
    """With a 32-cell budget the key space (16 or 32 keys) would allow one or
    two pairs a chunk; the 2 to 4 covariate rows seen allow 8 to 16. In the
    sparse ticks that key bound ends a chunk, in the dense ticks the cap on
    the records a chunk reaches does, and every point stays bit-identical."""
    dataset, seen = case
    with mock.patch.object(measures, "CHUNK_CELLS", 32):
        spec = SweepSpec(compute_step=1, span=span, alignment=alignment,
                         measures=_all_measures(["a0", "a1"]))
        _assert_sweep_is_per_point_drift(dataset, spec)
        covariates = dataclasses.replace(spec, measures=(
            MeasureSpec("covariate", AttributeSubset.covariates(["a0", "a1"])),))
        chunks = [bounds for bounds, _ in _chunks(dataset, covariates)]
    widest = max(int(pair.max() - pair.min()) for bounds in chunks for pair in bounds)
    assert max(int(bounds.max() - bounds.min()) for bounds in chunks) <= widest + 32
    sizes = [len(bounds) for bounds in chunks]
    assert max(sizes) == 32 // seen  # the key bound ends a chunk
    assert min(sizes[:-1]) < 32 // seen  # and so does the reach cap
