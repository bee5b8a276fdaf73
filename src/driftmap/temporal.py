"""Drift time series: sweeping window pairs along the stream.

Two periodicity parameters control a sweep: how often drift is evaluated
(``compute_step``) and the span of each compared period (``span``). Two
window alignments are offered: adjacent-before-after compares
[t - span, t) against [t, t + span); consecutive compares the previous
span against the span ending at t, i.e. [t - 2*span, t - span) against
[t - span, t).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .discretize import EncodedDataset
from .estimate import AttributeSubset, TimeInterval
from .measures import (
    MEASUREMENT_FIELDS,
    STATUS_INSUFFICIENT,
    STATUS_OK,
    TOTAL_VARIATION,
    DriftMeasurement,
    compute_drift,
    rows_to_csv,
)

ADJACENT = "adjacent-before-after"
CONSECUTIVE = "consecutive"


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
        if self.alignment not in (ADJACENT, CONSECUTIVE):
            raise SweepError(f"unknown alignment {self.alignment!r}")
        if not self.measures:
            raise SweepError("at least one measure is required")
        keys = [m.key for m in self.measures]
        repeated = sorted({k for k in keys if keys.count(k) > 1})
        if repeated:
            raise SweepError(f"each measure may appear once in a sweep; repeated: {repeated}")

    def windows_at(self, t: int) -> tuple[TimeInterval, TimeInterval]:
        if self.alignment == ADJACENT:
            return TimeInterval(t - self.span, t), TimeInterval(t, t + self.span)
        return (TimeInterval(t - 2 * self.span, t - self.span),
                TimeInterval(t - self.span, t))


@dataclass(frozen=True)
class SeriesPoint:
    time: int
    results: dict[str, DriftMeasurement] = field(repr=False)


@dataclass(frozen=True)
class DriftSeries:
    spec: SweepSpec
    points: tuple[SeriesPoint, ...]
    status: str = STATUS_OK

    def __len__(self) -> int:
        return len(self.points)

    def magnitudes(self, key: str) -> list[float | None]:
        return [p.results[key].magnitude for p in self.points]

    def to_rows(self) -> list[dict]:
        """Long-format rows: one per (evaluation time, measure)."""
        rows = []
        for point in self.points:
            for spec in self.spec.measures:
                m = point.results[spec.key]
                row = m.to_row()
                row["time"] = point.time
                rows.append(row)
        return rows

    def to_csv(self) -> str:
        return rows_to_csv(self.to_rows(), ("time",) + MEASUREMENT_FIELDS)

    def to_json(self) -> str:
        return json.dumps({"status": self.status, "points": self.to_rows()},
                          indent=2, sort_keys=True)


def drift_series(dataset: EncodedDataset, spec: SweepSpec) -> DriftSeries:
    """Evaluate every requested measure at each step along the stream.

    Evaluation starts at the first tick where both windows fit inside the
    data span and steps by ``compute_step``. Points where either window is
    empty carry the insufficient-data marker rather than being skipped.
    """
    if len(dataset) == 0:
        return DriftSeries(spec=spec, points=(), status="empty dataset")
    t_min = int(dataset.timestamps[0])
    t_max = int(dataset.timestamps[-1])

    if spec.alignment == ADJACENT:
        first = t_min + spec.span
        last = t_max + 1 - spec.span
    else:
        first = t_min + 2 * spec.span
        last = t_max + 1
    if first > last:
        return DriftSeries(spec=spec, points=(),
                           status="dataset shorter than one window pair")

    points = []
    for t in range(first, last + 1, spec.compute_step):
        window_a, window_b = spec.windows_at(t)
        results = {}
        for mspec in spec.measures:
            results[mspec.key] = compute_drift(
                dataset, window_a, window_b,
                mspec.measure_kind, mspec.subset, mspec.distance_kind,
            )
        points.append(SeriesPoint(time=t, results=results))
    return DriftSeries(spec=spec, points=tuple(points))


def series_statistics(series: DriftSeries) -> dict[str, dict]:
    """Per measure: min, max, mean and argmax time over usable points.

    Ties on the maximum break toward the earliest evaluation time.
    """
    summary: dict[str, dict] = {}
    for mspec in series.spec.measures:
        values = [(p.time, p.results[mspec.key].magnitude)
                  for p in series.points
                  if p.results[mspec.key].status != STATUS_INSUFFICIENT]
        if not values:
            summary[mspec.key] = {"status": "no usable points"}
            continue
        magnitudes = [v for _, v in values]
        best_time, best = values[0]
        for t, v in values[1:]:
            if v > best:
                best_time, best = t, v
        summary[mspec.key] = {
            "status": STATUS_OK,
            "min": min(magnitudes),
            "max": best,
            "mean": sum(magnitudes) / len(magnitudes),
            "argmax_time": best_time,
            "count": len(magnitudes),
        }
    return summary
