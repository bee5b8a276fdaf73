"""Drift time series: sweeping window pairs along the stream.

Two periodicity parameters control a sweep: how often drift is evaluated
(``compute_step``) and the span of each compared period (``span``). Two
window alignments are offered: adjacent-before-after compares
[t - span, t) against [t, t + span); consecutive compares the previous
span against the span ending at t, i.e. [t - 2*span, t - span) against
[t - span, t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretize import EncodedDataset
from .estimate import AttributeSubset, TimeInterval, fits_int64
from .measures import (
    MEASUREMENT_FIELDS,
    STATUS_INSUFFICIENT,
    STATUS_OK,
    TOTAL_VARIATION,
    DriftColumn,
    DriftMeasurement,
    drift_measurements,
    table_csv,
    table_json,
)
from .measures import compute_drift  # noqa: F401 - a call point perfbench/spans.py wraps

ADJACENT = "adjacent-before-after"
CONSECUTIVE = "consecutive"

# the CSV columns of a series, in order
SERIES_FIELDS = ("time",) + MEASUREMENT_FIELDS


class SweepError(ValueError):
    pass


@dataclass(frozen=True)
class MeasureSpec:
    """One requested measure: kind, subset, distance."""

    measure_kind: str
    subset: AttributeSubset
    distance_kind: str = TOTAL_VARIATION

    @property
    def key(self) -> str:
        return f"{self.measure_kind}:{'|'.join(self.subset.names)}:{self.distance_kind}"


def check_unique_measures(measures) -> None:
    """Each measure may be requested once; a repeat would be computed twice."""
    keys = [m.key for m in measures]
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise SweepError(f"each measure may appear once; repeated: {repeated}")


@dataclass(frozen=True)
class SweepSpec:
    compute_step: int
    span: int
    alignment: str = ADJACENT
    measures: tuple[MeasureSpec, ...] = ()

    def __post_init__(self):
        if self.compute_step <= 0:
            raise SweepError("compute_step must be positive")
        if self.span <= 0:
            raise SweepError("span must be positive")
        for name in ("compute_step", "span"):
            if not fits_int64(getattr(self, name)):
                raise SweepError(f"{name} {getattr(self, name)} is outside the int64 range")
        if self.alignment not in (ADJACENT, CONSECUTIVE):
            raise SweepError(f"unknown alignment {self.alignment!r}")
        if not self.measures:
            raise SweepError("at least one measure is required")
        check_unique_measures(self.measures)

    @property
    def offset(self) -> int:
        """Ticks from the evaluation time back to the windows' shared edge."""
        return 0 if self.alignment == ADJACENT else self.span

    def pair_ticks(self, times) -> np.ndarray:
        """The window pair at each of ``times`` as ``(a_start, a_end, b_start,
        b_end)`` ticks, one row per time."""
        boundary = np.asarray(times, dtype=np.int64) - self.offset
        return np.stack([boundary - self.span, boundary, boundary, boundary + self.span], axis=-1)

    def windows_at(self, t: int) -> tuple[TimeInterval, TimeInterval]:
        a_start, a_end, b_start, b_end = self.pair_ticks(t).tolist()
        return TimeInterval(a_start, a_end), TimeInterval(b_start, b_end)


@dataclass(frozen=True)
class SeriesPoint:
    time: int
    results: dict[str, DriftMeasurement] = field(repr=False)


@dataclass(frozen=True)
class DriftSeries:
    """A sweep, stored by column: the evaluation ``times`` (int64) and, per
    measure key in ``spec.measures`` order, the measure's ``DriftColumn`` at
    those times. ``points``, ``to_rows`` and ``magnitudes`` are views built
    on demand; the statistics, the writers and the line plot read the
    columns."""

    spec: SweepSpec
    times: np.ndarray = field(repr=False)
    columns: dict[str, DriftColumn] = field(repr=False)
    status: str = STATUS_OK

    def __len__(self) -> int:
        return len(self.times)

    @property
    def points(self) -> tuple[SeriesPoint, ...]:
        """One ``SeriesPoint`` per time, holding each measure's ``DriftMeasurement``."""
        return tuple(
            SeriesPoint(time=t, results={m.key: self.columns[m.key].measurement(i, *windows)
                                         for m in self.spec.measures})
            for i, t in enumerate(self.times.tolist())
            for windows in [self.spec.windows_at(t)])

    def magnitudes(self, key: str) -> list[float | None]:
        column = self.columns[key]
        values = column.magnitude.tolist()
        for i in np.flatnonzero(~column.ok):
            values[i] = None
        return values

    def to_rows(self) -> list[dict]:
        """Long-format rows: one per (evaluation time, measure)."""
        rows = []
        for point in self.points:
            for m in point.results.values():
                row = m.to_row()
                row["time"] = point.time
                rows.append(row)
        return rows

    def _table(self) -> list:
        """The columns of ``to_rows``, in ``SERIES_FIELDS`` order."""
        columns = [self.columns[m.key] for m in self.spec.measures]
        magnitude, n_a, n_b = (np.stack([getattr(c, name) for c in columns], axis=1).ravel()
                               for name in ("magnitude", "n_a", "n_b"))
        times = np.repeat(self.times, len(columns))

        def constant(text_of):  # a string per measure, repeated at every time
            return [text_of(c) for c in columns] * len(self.times)

        return [times, constant(lambda c: c.measure_kind), constant(lambda c: c.distance_kind),
                constant(lambda c: "|".join(c.subset.names)), *self.spec.pair_ticks(times).T,
                magnitude, n_a, n_b,
                np.where(np.isnan(magnitude), STATUS_INSUFFICIENT, STATUS_OK)]

    def to_csv(self) -> str:
        """What ``csv.DictWriter`` writes for ``to_rows`` under ``SERIES_FIELDS``."""
        return table_csv(SERIES_FIELDS, self._table())

    def to_json(self, extra: dict | None = None) -> str:
        """``json.dumps(doc, indent=2, sort_keys=True)`` of the document with
        the series' status and ``to_rows`` as its points, plus the top-level
        keys of ``extra``."""
        return table_json({**(extra or {}), "status": self.status}, "points", SERIES_FIELDS,
                          self._table())


def drift_series(dataset: EncodedDataset, spec: SweepSpec) -> DriftSeries:
    """Evaluate every requested measure at each step along the stream.

    Evaluation starts at the first tick where both windows fit inside the
    data span and steps by ``compute_step``. Points where either window is
    empty carry the insufficient-data marker rather than being skipped. Each
    measure is one ``drift_measurements`` call over every point's window
    pair: ``compute_drift``'s checks are made once, and each point holds
    what ``compute_drift`` returns for its pair.
    """
    if len(dataset) == 0:
        status, times = "empty dataset", np.zeros(0, dtype=np.int64)
    else:
        # the first window starts at the first tick; the second ends just past the last
        first = int(dataset.timestamps[0]) + spec.span + spec.offset
        last = int(dataset.timestamps[-1]) + 1 - spec.span + spec.offset
        # past an int64 only when no pair fits: then numpy is given no tick
        times = (np.arange(first, last + 1, spec.compute_step, dtype=np.int64) if first <= last
                 else np.zeros(0, dtype=np.int64))
        status = STATUS_OK if len(times) else "dataset shorter than one window pair"
    pairs = spec.pair_ticks(times)
    return DriftSeries(spec=spec, times=times, status=status, columns={
        m.key: drift_measurements(dataset, pairs, m.measure_kind, m.subset, m.distance_kind)
        for m in spec.measures})


def series_statistics(series: DriftSeries) -> dict[str, dict]:
    """Per measure: min, max, mean and argmax time over usable points.

    Ties on the maximum break toward the earliest evaluation time. The mean
    is Python's ``sum`` over the usable magnitudes in time order.
    """
    summary: dict[str, dict] = {}
    for mspec in series.spec.measures:
        column = series.columns[mspec.key]
        ok = column.ok
        magnitudes = column.magnitude[ok].tolist()
        if not magnitudes:
            summary[mspec.key] = {"status": "no usable points"}
            continue
        best = max(magnitudes)
        summary[mspec.key] = {
            "status": STATUS_OK,
            "min": min(magnitudes),
            "max": best,
            "mean": sum(magnitudes) / len(magnitudes),
            "argmax_time": series.times[ok].tolist()[magnitudes.index(best)],  # the earliest
            "count": len(magnitudes),
        }
    return summary
