"""The column-wise series: its writers against the row-by-row reference, its
statistics against plain Python, and a guard that the sweep builds no
per-point objects."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmap import measures, temporal
from driftmap.estimate import AttributeSubset
from driftmap.measures import HELLINGER, TOTAL_VARIATION, DriftColumn
from driftmap.render import render_lineplot
from driftmap.temporal import (
    ADJACENT,
    CONSECUTIVE,
    SERIES_FIELDS,
    DriftSeries,
    MeasureSpec,
    SweepSpec,
    drift_series,
    series_statistics,
)

from conftest import build_encoded


# --- the row-by-row reference: to_rows, one dict per (time, measure), then
# csv.DictWriter or json.dumps ---

def reference_csv(series) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=SERIES_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(series.to_rows())
    return out.getvalue()


def reference_json(series, extra=None) -> str:
    doc = {**(extra or {}), "status": series.status, "points": series.to_rows()}
    return json.dumps(doc, indent=2, sort_keys=True)


# names that csv must quote or json must escape, and a template's '%'
NAMES = st.text(st.sampled_from('ab,"|é€%\n\r\t\\ '), min_size=1, max_size=4)
# exact zeros and ones, the smallest subnormal, and 17-digit values
MAGNITUDES = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 0.1, 1 / 3]),
                       st.floats(0.0, 1.0), st.just(math.nan))


@st.composite
def handmade_series(draw):
    kinds = st.sampled_from(sorted(measures.MEASURE_ROLES))
    measure_list = draw(st.lists(
        st.tuples(kinds, st.lists(NAMES, min_size=1, max_size=3, unique=True),
                  st.sampled_from([TOTAL_VARIATION, HELLINGER])),
        min_size=1, max_size=3, unique_by=lambda m: (m[0], tuple(m[1]), m[2])))
    spec = SweepSpec(compute_step=draw(st.integers(1, 5)), span=draw(st.integers(1, 5)),
                     alignment=draw(st.sampled_from([ADJACENT, CONSECUTIVE])),
                     measures=tuple(MeasureSpec(kind, AttributeSubset.covariates(names),
                                                distance)
                                    for kind, names, distance in measure_list))
    n = draw(st.integers(0, 6))
    times = draw(st.integers(-10, 10)) + spec.compute_step * np.arange(n, dtype=np.int64)
    sizes = st.lists(st.integers(0, 10 ** 6), min_size=n, max_size=n)
    columns = {
        m.key: DriftColumn(m.measure_kind, m.distance_kind, m.subset,
                           np.array(draw(st.lists(MAGNITUDES, min_size=n, max_size=n)),
                                    dtype=float),
                           np.array(draw(sizes), dtype=np.int64),
                           np.array(draw(sizes), dtype=np.int64))
        for m in spec.measures}
    status = draw(st.sampled_from(["ok", "empty dataset", 'odd "status", é']))
    return DriftSeries(spec=spec, times=times, columns=columns, status=status)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(handmade_series(), st.dictionaries(NAMES, st.one_of(NAMES, st.integers(), MAGNITUDES,
                                                           st.lists(st.integers()))))
def test_writers_match_the_row_by_row_reference(series, extra):
    assert series.to_csv() == reference_csv(series)
    assert series.to_json() == reference_json(series)
    assert series.to_json(extra) == reference_json(series, extra)


@pytest.mark.parametrize("distance", [TOTAL_VARIATION, HELLINGER])
@pytest.mark.parametrize("alignment", [ADJACENT, CONSECUTIVE])
def test_sweep_writers_match_the_reference(rng, alignment, distance):
    # a gap in the timeline leaves insufficient points
    timestamps = np.sort(np.concatenate([rng.integers(0, 20, 60), rng.integers(35, 50, 60)]))
    codes = np.column_stack([rng.integers(0, 3, 120), rng.integers(0, 2, 120),
                             rng.integers(0, 2, 120)])
    ds = build_encoded(codes, [3, 2, 2], timestamps=timestamps)
    covariates = AttributeSubset.covariates(["a0", "a1"])
    spec = SweepSpec(compute_step=2, span=4, alignment=alignment, measures=tuple(
        MeasureSpec(kind, subset, distance) for kind, subset in (
            ("covariate", covariates), ("class", AttributeSubset.class_only("label")),
            ("joint", AttributeSubset.joint(["a1"], "label")),
            ("conditioned_covariate", covariates), ("posterior", covariates))))
    series = drift_series(ds, spec)
    statuses = {m.status for p in series.points for m in p.results.values()}
    assert statuses == {"ok", "insufficient_data"}
    assert series.to_csv() == reference_csv(series)
    assert series.to_json() == reference_json(series)


def test_empty_series_writers_match_the_reference():
    ds = build_encoded([[0, 0]] * 3, [2, 2])
    spec = SweepSpec(compute_step=1, span=10, measures=(
        MeasureSpec("covariate", AttributeSubset.covariates(["a0"])),))
    series = drift_series(ds, spec)
    assert len(series) == 0 and series.status == "dataset shorter than one window pair"
    assert series.to_csv() == reference_csv(series) == ",".join(SERIES_FIELDS) + "\n"
    assert series.to_json() == reference_json(series)
    assert series_statistics(series) == {spec.measures[0].key: {"status": "no usable points"}}


# --- statistics: plain Python over the usable magnitudes in time order ---

@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(MAGNITUDES, st.sampled_from([0.25, 0.5])), max_size=40))
def test_statistics_are_python_min_max_sum_in_time_order(values):
    spec = SweepSpec(compute_step=3, span=2, measures=(
        MeasureSpec("covariate", AttributeSubset.covariates(["a0"])),))
    key = spec.measures[0].key
    times = 7 + 3 * np.arange(len(values), dtype=np.int64)
    sizes = np.ones(len(values), dtype=np.int64)
    series = DriftSeries(spec=spec, times=times, columns={key: DriftColumn(
        "covariate", TOTAL_VARIATION, spec.measures[0].subset, np.array(values, dtype=float),
        sizes, sizes)})
    usable = [(t, v) for t, v in zip(times.tolist(), values) if not math.isnan(v)]
    stats = series_statistics(series)[key]
    if not usable:
        assert stats == {"status": "no usable points"}
        return
    magnitudes = [v for _, v in usable]
    best = max(magnitudes)
    want = {"status": "ok", "min": min(magnitudes), "max": best,
            "mean": sum(magnitudes) / len(magnitudes),
            "argmax_time": next(t for t, v in usable if v == best), "count": len(usable)}
    assert repr(stats) == repr(want)


# --- the guard: a sweep job builds no per-point objects ---

def test_sweep_job_builds_no_measurement_or_point(rng, monkeypatch):
    codes = np.column_stack([rng.integers(0, 3, 200), rng.integers(0, 2, 200)])
    ds = build_encoded(codes, [3, 2], timestamps=np.repeat(np.arange(50), 4))
    covariates = AttributeSubset.covariates(["a0"])
    spec = SweepSpec(compute_step=1, span=5, measures=tuple(
        MeasureSpec(kind, covariates) for kind in ("covariate", "posterior")))
    made = []
    for cls in (measures.DriftMeasurement, temporal.SeriesPoint):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            made.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)

    series = drift_series(ds, spec)
    series_statistics(series)
    series.to_csv()
    series.to_json()
    render_lineplot(series)
    assert len(series) > 1 and made == []
    points = series.points  # the view builds them, and is counted
    assert made.count("SeriesPoint") == len(points) == len(series)
    assert made.count("DriftMeasurement") == len(points) * len(spec.measures)
