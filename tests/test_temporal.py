import numpy as np
import pytest

from driftmap.estimate import AttributeSubset, TimeInterval
from driftmap.measures import marginal_drift
from driftmap.temporal import (
    ADJACENT,
    CONSECUTIVE,
    DriftSeries,
    MeasureSpec,
    SweepSpec,
    SweepError,
    drift_series,
    series_statistics,
)

from conftest import build_encoded


def covariate_spec(step=1, span=1, alignment=ADJACENT, names=("a0",)):
    return SweepSpec(
        compute_step=step,
        span=span,
        alignment=alignment,
        measures=(MeasureSpec("covariate", AttributeSubset.covariates(names)),),
    )


def test_spec_validation():
    ms = (MeasureSpec("covariate", AttributeSubset.covariates(["a0"])),)
    with pytest.raises(SweepError):
        SweepSpec(compute_step=0, span=1, measures=ms)
    with pytest.raises(SweepError):
        SweepSpec(compute_step=1, span=-1, measures=ms)
    with pytest.raises(SweepError):
        SweepSpec(compute_step=1, span=1, measures=())
    with pytest.raises(SweepError):
        SweepSpec(compute_step=1, span=1, alignment="sideways", measures=ms)
    with pytest.raises(SweepError, match="repeated"):
        SweepSpec(compute_step=1, span=1, measures=ms + ms)


def test_spec_steps_and_spans_fit_an_int64():
    ms = (MeasureSpec("covariate", AttributeSubset.covariates(["a0"])),)
    SweepSpec(compute_step=2 ** 63 - 1, span=2 ** 63 - 1, measures=ms)
    with pytest.raises(SweepError, match=f"^compute_step {2 ** 63} is outside the int64 range$"):
        SweepSpec(compute_step=2 ** 63, span=1, measures=ms)
    with pytest.raises(SweepError, match=f"^span {2 ** 64} is outside the int64 range$"):
        SweepSpec(compute_step=1, span=2 ** 64, measures=ms)


def test_adjacent_windows():
    spec = covariate_spec(span=5)
    a, b = spec.windows_at(20)
    assert (a.start, a.end) == (15, 20)
    assert (b.start, b.end) == (20, 25)


def test_consecutive_windows():
    spec = covariate_spec(span=5, alignment=CONSECUTIVE)
    a, b = spec.windows_at(20)
    assert (a.start, a.end) == (10, 15)
    assert (b.start, b.end) == (15, 20)


def test_constant_stream_all_zero():
    ds = build_encoded([[0, 0]] * 30, [2, 2])
    spec = covariate_spec(step=2, span=5)
    series = drift_series(ds, spec)
    key = spec.measures[0].key
    assert len(series) > 0
    assert all(v == 0.0 for v in series.magnitudes(key))


def test_points_step_and_feasibility():
    ds = build_encoded([[0, 0]] * 20, [2, 2])
    spec = covariate_spec(step=3, span=4)
    series = drift_series(ds, spec)
    times = [p.time for p in series.points]
    # adjacent: first t with a full before-window is span after t_min,
    # last t leaves a full after-window
    assert times[0] == 4
    assert times[-1] <= 20 - 4
    assert all(t2 - t1 == 3 for t1, t2 in zip(times, times[1:]))


def test_too_short_dataset_gives_empty_series_with_status():
    ds = build_encoded([[0, 0]] * 3, [2, 2])
    series = drift_series(ds, covariate_spec(span=10))
    assert len(series) == 0
    assert "shorter" in series.status


def test_insufficient_points_emitted_not_skipped():
    # a gap in the middle of the timeline leaves empty windows
    timestamps = list(range(10)) + list(range(30, 40))
    ds = build_encoded([[0, 0]] * 20, [2, 2], timestamps=timestamps)
    spec = covariate_spec(step=1, span=3)
    series = drift_series(ds, spec)
    key = spec.measures[0].key
    statuses = [p.results[key].status for p in series.points]
    assert "insufficient_data" in statuses
    assert "ok" in statuses
    # every requested measure present at every point
    assert all(key in p.results for p in series.points)


def test_whole_span_single_point_matches_direct_call():
    rng = np.random.default_rng(7)
    codes = np.column_stack([rng.integers(0, 3, 40), rng.integers(0, 2, 40)])
    ds = build_encoded(codes, [3, 2])
    spec = covariate_spec(step=100, span=20)
    series = drift_series(ds, spec)
    assert len(series) == 1
    point = series.points[0]
    direct = marginal_drift(ds, TimeInterval(0, 20), TimeInterval(20, 40),
                            AttributeSubset.covariates(["a0"]))
    assert point.results[spec.measures[0].key].magnitude == direct.magnitude


def test_tie_order_does_not_change_series(rng):
    codes = np.column_stack([rng.integers(0, 3, 30), rng.integers(0, 2, 30)])
    timestamps = np.repeat(np.arange(10), 3)
    ds1 = build_encoded(codes, [3, 2], timestamps=timestamps)
    # permute records within each equal-timestamp group
    perm = np.concatenate([np.arange(i, i + 3)[::-1] for i in range(0, 30, 3)])
    ds2 = build_encoded(codes[perm], [3, 2], timestamps=timestamps)
    spec = covariate_spec(step=1, span=3)
    key = spec.measures[0].key
    assert drift_series(ds1, spec).magnitudes(key) == \
        drift_series(ds2, spec).magnitudes(key)


def test_weekly_span_flattens_periodic_stream(rng):
    # exact 7-day cycle: day-of-week determines the attribute value
    days = 28
    per_day = 30
    codes = []
    timestamps = []
    for day in range(days):
        for _ in range(per_day):
            codes.append([day % 7, 0])
            timestamps.append(day)
    ds = build_encoded(codes, [7, 2], timestamps=timestamps)

    daily = drift_series(ds, covariate_spec(step=1, span=1, alignment=CONSECUTIVE))
    weekly = drift_series(ds, covariate_spec(step=1, span=7, alignment=CONSECUTIVE))
    key = covariate_spec().measures[0].key
    daily_vals = [v for v in daily.magnitudes(key) if v is not None]
    weekly_vals = [v for v in weekly.magnitudes(key) if v is not None]
    assert all(v == 0.0 for v in weekly_vals)
    assert np.mean(daily_vals) == pytest.approx(1.0)  # disjoint day codes


def test_market_style_regime_change(rng):
    # one attribute constant then suddenly variable, like a price series
    # before and after a market opens: exact zeros before, peak at the change
    n = 600
    change = 300
    a0 = np.where(np.arange(n) < change, 0, rng.integers(0, 4, n))
    codes = np.column_stack([a0, rng.integers(0, 2, n)])
    ds = build_encoded(codes, [4, 2])

    spec = covariate_spec(step=5, span=60)
    series = drift_series(ds, spec)
    key = spec.measures[0].key
    for point in series.points:
        if point.time + spec.span < change:  # both windows pre-change
            assert point.results[key].magnitude == 0.0
    stats = series_statistics(series)[key]
    assert abs(stats["argmax_time"] - change) <= spec.span
    assert stats["max"] > 0.3


def test_series_statistics():
    ds = build_encoded([[0, 0]] * 8, [2, 2])
    spec = covariate_spec(step=1, span=2)
    series = drift_series(ds, spec)
    key = spec.measures[0].key

    # patch in a hand-built series to pin the argmax/tie rules
    from driftmap.measures import DriftColumn

    def series_of(*time_values):
        times, values = zip(*time_values)
        sizes = np.full(len(values), 2)
        column = DriftColumn("covariate", "total_variation", spec.measures[0].subset,
                             np.array(values, dtype=float), sizes, sizes)
        return DriftSeries(spec=spec, times=np.array(times), columns={key: column})

    handmade = series_of((2, 0.0), (3, 0.0), (4, 0.8), (5, 0.2))
    stats = series_statistics(handmade)[key]
    assert stats["max"] == 0.8
    assert stats["argmax_time"] == 4
    assert stats["mean"] == pytest.approx(0.25)

    all_zero = series_of((2, 0.0), (3, 0.0))
    stats0 = series_statistics(all_zero)[key]
    assert stats0["max"] == 0.0
    assert stats0["argmax_time"] == 2  # earliest on ties


def test_all_insufficient_summary():
    ds = build_encoded([[0, 0]] * 4, [2, 2], timestamps=[0, 0, 10, 10])
    spec = covariate_spec(step=1, span=2)
    series = drift_series(ds, spec)
    key = spec.measures[0].key
    stats = series_statistics(series)
    if all(p.results[key].magnitude is None for p in series.points):
        assert stats[key] == {"status": "no usable points"}


def test_serialization_round_trip_types():
    ds = build_encoded([[0, 0], [1, 0]] * 6, [2, 2])
    spec = covariate_spec(step=2, span=3)
    series = drift_series(ds, spec)
    csv_text = series.to_csv()
    assert csv_text.startswith("time,measure_kind")
    assert len(csv_text.splitlines()) == len(series) + 1

    import json
    doc = json.loads(series.to_json())
    assert doc["status"] == "ok"
    assert len(doc["points"]) == len(series)


def test_empty_dataset_gives_empty_series_with_status():
    ds = build_encoded(np.zeros((0, 2), dtype=np.int64), [2, 2])
    series = drift_series(ds, covariate_spec())
    assert len(series) == 0
    assert series.status == "empty dataset"
