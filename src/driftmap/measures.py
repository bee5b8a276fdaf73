"""Drift magnitudes between two time windows.

Plain distances (total variation, Hellinger) between marginal estimates,
plus the two weighted conditional measures: conditioned covariate drift
(per-class covariate distances weighted by average class probability) and
posterior drift (per-tuple class distances weighted by average covariate
tuple probability). ``_reduce`` is the one window-pair reduction and
``_magnitudes`` the one step from it to a magnitude. A sweep feeds them
chunks of its pairs counted together (``pair_distances``); one window pair
is counted once over every attribute its measures or map cells name, and
each of them is projected out of that count (``pair_reductions``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import EncodedDataset
from .estimate import CLASS_ONLY, COVARIATES, JOINT, AttributeSubset, DistributionEstimate
from .estimate import TimeInterval, key_bound, key_runs, project_counts, window_counts
# call points that perfbench/spans.py wraps; no measure calls them
from .estimate import estimate_conditional, estimate_distribution  # noqa: F401

TOTAL_VARIATION = "total_variation"
HELLINGER = "hellinger"

STATUS_OK = "ok"
STATUS_INSUFFICIENT = "insufficient_data"

# measure kinds
JOINT_DRIFT = "joint"
COVARIATE_DRIFT = "covariate"
CLASS_DRIFT = "class"
CONDITIONED_COVARIATE_DRIFT = "conditioned_covariate"
POSTERIOR_DRIFT = "posterior"

# every measure kind and the subset role it takes; a role's first kind is its marginal one
MEASURE_ROLES = {
    JOINT_DRIFT: JOINT,
    COVARIATE_DRIFT: COVARIATES,
    CLASS_DRIFT: CLASS_ONLY,
    CONDITIONED_COVARIATE_DRIFT: COVARIATES,
    POSTERIOR_DRIFT: COVARIATES,
}


# cells (window pairs x seen keys) per chunk of pair_distances, and the records a chunk
# may reach past its widest pair; bounds its working memory
CHUNK_CELLS = 1 << 16


class MeasureError(ValueError):
    pass


# the columns of DriftMeasurement.to_row, in order
MEASUREMENT_FIELDS = (
    "measure_kind", "distance_kind", "subset",
    "window_a_start", "window_a_end", "window_b_start", "window_b_end",
    "magnitude", "sample_size_a", "sample_size_b", "status",
)


@dataclass(frozen=True)
class DriftMeasurement:
    """One drift magnitude with its provenance.

    ``magnitude`` is None when ``status`` is insufficient-data; a value of 0
    always means measured absence of drift, never missing input.
    """

    measure_kind: str
    distance_kind: str
    subset: AttributeSubset
    window_a: TimeInterval
    window_b: TimeInterval
    magnitude: float | None
    sample_sizes: tuple[int, int]
    status: str = STATUS_OK

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_row(self) -> dict:
        """The measurement as one flat row, keyed in ``MEASUREMENT_FIELDS`` order."""
        return dict(zip(MEASUREMENT_FIELDS, (
            self.measure_kind, self.distance_kind, "|".join(self.subset.names),
            self.window_a.start, self.window_a.end, self.window_b.start, self.window_b.end,
            self.magnitude, *self.sample_sizes, self.status,
        )))


def _csv_cell(value) -> str:
    """``value`` as ``csv`` writes it in a row of more than one field."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((value, ""))
    return out.getvalue()[:-2]


def _column(values, cell, null: str) -> tuple[str, list]:
    """One column's ``%`` slot and the values that fill it, formatted at once:
    an int array fills ``%d`` with its ints, a float array is written as its
    ``repr`` with NaN as ``null``, and any other value by ``cell``, once per
    distinct string (``0.0 == -0.0`` and ``1 == 1.0``, so only strings are shared)."""
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind in ("i", "u"):
        return "%d", values.tolist()
    if kind == "f":
        texts = list(map(float.__repr__, values.tolist()))
        for i in np.flatnonzero(np.isnan(values)):
            texts[i] = null
        return "%s", texts
    values = values.tolist() if kind else list(values)
    strings = {v: cell(v) for v in set(values) if isinstance(v, str)}
    return "%s", [strings[v] if isinstance(v, str) else cell(v) for v in values]


def table_csv(fields, columns) -> str:
    """What ``csv.writer`` writes for the header ``fields`` (two or more) and
    one row per entry of ``columns``, the table's columns in ``fields`` order:
    an array or a sequence of values each, all of one length, None an empty cell."""
    slots, cells = zip(*(_column(c, _csv_cell, "") for c in columns))
    row = ",".join(slots) + "\n"
    return "".join([",".join(map(_csv_cell, fields)) + "\n", *map(row.__mod__, zip(*cells))])


def table_json(doc: dict, key: str, fields, columns) -> str:
    """``json.dumps(indent=2, sort_keys=True)`` of ``doc`` with ``key`` set to
    the table's rows, one object per row, keyed by ``fields`` (``columns`` as
    for :func:`table_csv`, None written as null)."""
    text = json.dumps({**doc, key: []}, indent=2, sort_keys=True)
    order = sorted(range(len(fields)), key=fields.__getitem__)
    slots, cells = zip(*(_column(columns[i], json.dumps, "null") for i in order))
    # a row as json.dumps(indent=2, sort_keys=True) writes an object in a top-level key's list
    row = "    {\n%s\n    }" % ",\n".join(
        f"      {json.dumps(fields[i]).replace('%', '%%')}: {slot}"
        for i, slot in zip(order, slots))
    # the rows' text is kept only inside ``table``: two copies at the splice, not three
    table = "[\n" + ",\n".join(map(row.__mod__, zip(*cells))) + "\n  ]" if len(cells[0]) else "[]"
    # a newline and two spaces start a top-level key and nothing else
    return text.replace(f"\n  {json.dumps(key)}: []", f"\n  {json.dumps(key)}: {table}", 1)


def _grouped_tvd(a, b, ra, rb, starts) -> np.ndarray:
    """Per row and group of keys, half the L1 distance between a/ra and b/rb.

    ``a``, ``b`` are per-key masses (rows x keys) and ``ra``, ``rb`` the
    totals of each key's group. On integer counts, sum|a*rb - b*ra| /
    (2*ra*rb) stays exact up to the last division: exactly 0.0 for
    proportional counts and never above 1.0. A key counted in neither window
    adds an exact 0, so whole rows are summed at once.
    """
    num = np.add.reduceat(np.abs(a * rb - b * ra), starts, axis=-1)
    return np.minimum(1.0, num / (2 * ra[..., starts] * rb[..., starts]))


def _grouped_hellinger(a, b, ra, rb, starts) -> np.ndarray:
    """Per row and group of keys, the Hellinger distance between a/ra and b/rb.

    Computed as sqrt(0.5 * sum((sqrt p - sqrt q)^2)) rather than the
    algebraically equal sqrt(1 - sum(sqrt(p*q))): the latter amplifies
    rounding near zero (sqrt of a ~1e-16 residual is ~1e-8). A row with
    keys that neither window counts sums over its other keys only: a zero
    term would move numpy's pairwise summation, and so the rounding, away
    from that of the row's own keys.
    """
    sq = (np.sqrt(a / ra) - np.sqrt(b / rb)) ** 2
    sums = np.add.reduceat(sq, starts, axis=-1)
    for i in np.flatnonzero(~(a + b).all(axis=-1)):
        keys = np.flatnonzero(a[i] + b[i])
        edge = np.searchsorted(keys, starts)  # each group's first key in ``keys``
        kept = np.flatnonzero(np.diff(edge, append=len(keys)))
        sums[i] = 0.0
        sums[i, kept] = np.add.reduceat(sq[i, keys], edge[kept])
    return np.minimum(1.0, np.sqrt(0.5 * sums))


_DISTANCES = {TOTAL_VARIATION: _grouped_tvd, HELLINGER: _grouped_hellinger}


def distance_function(distance_kind: str):
    """The grouped distance ``(a, b, ra, rb, starts) -> distances``, rows x groups."""
    try:
        return _DISTANCES[distance_kind]
    except KeyError:
        raise MeasureError(f"unknown distance kind {distance_kind!r}") from None


def _estimate_distance(distance_kind, p: DistributionEstimate, q: DistributionEstimate):
    if p.subset.names != q.subset.names or p.subset.role != q.subset.role:
        raise MeasureError(
            f"estimates are over different subsets: {p.subset} vs {q.subset}"
        )
    if p.is_empty or q.is_empty:
        raise MeasureError("cannot measure distance to an empty estimate")
    keys = p.support.keys() | q.support.keys()
    a, b = (np.array([e.probability(k) for k in keys])[None] for e in (p, q))
    ones = np.ones(a.shape)
    return float(distance_function(distance_kind)(a, b, ones, ones, [0])[0, 0])


def total_variation(p: DistributionEstimate, q: DistributionEstimate) -> float:
    """Half the L1 distance over the union of supports; a metric in [0,1]."""
    return _estimate_distance(TOTAL_VARIATION, p, q)


def hellinger(p: DistributionEstimate, q: DistributionEstimate) -> float:
    """Hellinger distance over the support union; a metric in [0,1]."""
    return _estimate_distance(HELLINGER, p, q)


def _reduce(keys, a, b, k: int, dist):
    """The one window-pair reduction of the counts ``a``, ``b`` (pairs x
    keys) in windows a and b over the sorted ``keys``, per conditioning
    tuple, the first ``k`` codes of a key (one empty tuple when ``k`` is 0):
    the tuples (tuples x k) and three arrays of pairs x tuples, each tuple's
    count in window a, in window b, and the distance ``dist`` between the
    two windows' conditionals of the other codes.

    A tuple observed in only one window has an undefined conditional on the
    other side; its distance is taken as 1.0 (the conditional's entire mass
    appeared or disappeared), which keeps every measure symmetric.
    """
    starts, group = key_runs(keys, k)
    m_a, m_b = np.add.reduceat(a, starts, axis=1), np.add.reduceat(b, starts, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = dist(a, b, m_a[:, group], m_b[:, group], starts)
    d[(m_a == 0) | (m_b == 0)] = 1.0
    return keys[starts, :k], m_a, m_b, d


def pair_distances(dataset, pairs, conditioning, target, distance_kind):
    """For the window pairs ``pairs`` (rows of ``(a_start, a_end, b_start,
    b_end)`` ticks), in order and a chunk of consecutive pairs at a time:
    count each pair over ``conditioning + target`` and ``_reduce`` it per
    conditioning tuple. Yields, per chunk, the tuples seen in any of its
    windows and the chunk's ``m_a``, ``m_b`` and ``d``. A tuple that a pair
    counts in neither window is not seen by that pair.

    Consecutive pairs are taken in chunks, each counted by one
    ``window_counts`` call. With K the distinct code rows from the first
    pair's records to the last's (``key_bound``), a chunk holds at most
    ``CHUNK_CELLS // K`` pairs, so that its counts and prefix table stay
    near ``CHUNK_CELLS`` cells, and reaches at most R + ``CHUNK_CELLS``
    records, R being the most one pair reaches, so that a sweep compacts
    each record a bounded number of times at any span. One pair is one
    chunk, with no key count.
    """
    dist = distance_function(distance_kind)
    bounds = np.searchsorted(dataset.timestamps, np.asarray(pairs, dtype=np.int64),
                             side="left").reshape(-1, 4)
    names = conditioning + target
    first, last = bounds.min(axis=1), bounds.max(axis=1)
    per_chunk = 1
    if len(bounds) > 1:
        seen = key_bound(dataset, names, int(first.min()), int(last.max()), CHUNK_CELLS)
        per_chunk = max(1, CHUNK_CELLS // max(1, seen))
    reach = int((last - first).max(initial=0)) + CHUNK_CELLS
    i = 0
    while i < len(bounds):
        ahead = slice(i, i + per_chunk)
        # the records the chunk's windows span, as it takes each further pair
        spread = np.maximum.accumulate(last[ahead]) - np.minimum.accumulate(first[ahead])
        j = i + int(np.searchsorted(spread, reach, side="right"))
        chunk, i = bounds[i:j], j
        keys, counts = window_counts(dataset, names, chunk.reshape(-1, 2))
        yield _reduce(keys, counts[0::2], counts[1::2], len(conditioning), dist)


def pair_reductions(dataset, window_a: TimeInterval, window_b: TimeInterval, cells,
                    distance_kind: str) -> list:
    """``_reduce`` of the window pair for each ``(conditioning, target)`` of
    ``cells``, as ``pair_distances`` gives it for that one pair, from one
    count: ``window_counts`` counts the pair once over every attribute the
    cells name, keeping missing codes, and ``project_counts`` reads each
    cell's counts off it, dropping only the records missing one of the
    cell's own attributes."""
    dist = distance_function(distance_kind)
    union = tuple(dict.fromkeys(name for conditioning, target in cells
                                for name in conditioning + target))
    ticks = [window_a.start, window_a.end, window_b.start, window_b.end]
    bounds = np.searchsorted(dataset.timestamps, ticks, side="left").reshape(2, 2)
    keys, counts = window_counts(dataset, union, bounds, keep_missing=True)
    reductions = []
    for conditioning, target in cells:
        cell_keys, (a, b) = project_counts(keys, counts,
                                           [union.index(n) for n in conditioning + target])
        reductions.append(_reduce(cell_keys, a[None], b[None], len(conditioning), dist))
    return reductions


@dataclass(frozen=True)
class DriftColumn:
    """One measure at a sequence of window pairs, as arrays: ``magnitude``
    (float64, NaN where a window is empty: the insufficient-data status) and
    the sample sizes ``n_a``, ``n_b`` (int64)."""

    measure_kind: str
    distance_kind: str
    subset: AttributeSubset
    magnitude: np.ndarray = field(repr=False)
    n_a: np.ndarray = field(repr=False)
    n_b: np.ndarray = field(repr=False)

    @property
    def ok(self) -> np.ndarray:
        return ~np.isnan(self.magnitude)

    def measurement(self, i: int, window_a: TimeInterval,
                    window_b: TimeInterval) -> DriftMeasurement:
        """The ``i``-th value, whose window pair is ``window_a``, ``window_b``."""
        ok = not math.isnan(self.magnitude[i])
        return DriftMeasurement(
            measure_kind=self.measure_kind,
            distance_kind=self.distance_kind,
            subset=self.subset,
            window_a=window_a,
            window_b=window_b,
            magnitude=float(self.magnitude[i]) if ok else None,
            sample_sizes=(int(self.n_a[i]), int(self.n_b[i])),
            status=STATUS_OK if ok else STATUS_INSUFFICIENT,
        )


def _reduced_over(kind, dataset, subset) -> tuple[tuple, tuple]:
    """The ``(conditioning, target)`` whose reduction gives the ``kind``
    drift over ``subset``, once both are checked."""
    _check_kind(kind, subset)
    if subset.role != MEASURE_ROLES[kind]:
        raise MeasureError(f"{kind} drift needs a {MEASURE_ROLES[kind]} subset")
    subset.validate_against(dataset.schema)
    label = (dataset.schema.class_attribute,)
    return {CONDITIONED_COVARIATE_DRIFT: (label, subset.names),
            POSTERIOR_DRIFT: (subset.names, label)}.get(kind, ((), subset.names))


def _magnitudes(conditional: bool, m_a, m_b, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A reduction's magnitudes, NaN where a window is empty, and sample
    sizes ``n_a``, ``n_b``, one per pair.

    A marginal kind is the distance between the two marginals, read straight
    out of the reduction. The conditional kinds are the sum over
    conditioning tuples observed in either window of 0.5 * (m_a/n_a +
    m_b/n_b) * inner distance, clamped at 1.0 like Hellinger, so rounding
    never lifts a magnitude above 1. The weights are summed over integer
    counts, so the sum is exactly 1.0 when every inner distance is 1.0 and
    exactly 0.0 when every one is 0.0; it runs over each pair's own tuples,
    as a zero term would move the rounding of ``@``.
    """
    n_a, n_b = m_a.sum(axis=1), m_b.sum(axis=1)
    ok = (n_a > 0) & (n_b > 0)
    magnitude = np.full(len(ok), np.nan)
    if not conditional and ok.any():  # else d may have no column: nothing was counted
        magnitude[ok] = d[ok, 0]
    for i in np.flatnonzero(ok) if conditional else ():
        seen = np.flatnonzero(m_a[i] + m_b[i])
        na, nb = int(n_a[i]), int(n_b[i])
        magnitude[i] = min(1.0, float((m_a[i, seen] * nb + m_b[i, seen] * na)
                                      @ d[i, seen]) / (2 * na * nb))
    return magnitude, n_a, n_b


def pair_measurements(dataset: EncodedDataset, window_a: TimeInterval, window_b: TimeInterval,
                      requests, distance_kind: str = TOTAL_VARIATION) -> list[DriftMeasurement]:
    """The drift between the two windows for each ``(measure_kind, subset)``
    of ``requests``, in order, with ``compute_drift``'s checks, all read off
    one count of the pair (``pair_reductions``)."""
    cells = [_reduced_over(kind, dataset, subset) for kind, subset in requests]
    measurements = []
    for (kind, subset), (conditioning, _), (_, m_a, m_b, d) in zip(
            requests, cells, pair_reductions(dataset, window_a, window_b, cells, distance_kind)):
        column = DriftColumn(kind, distance_kind, subset,
                             *_magnitudes(bool(conditioning), m_a, m_b, d))
        measurements.append(column.measurement(0, window_a, window_b))
    return measurements


def marginal_kind(subset: AttributeSubset) -> str:
    """The marginal measure kind of ``subset``'s role: a role's first kind."""
    return next(k for k, role in MEASURE_ROLES.items() if role == subset.role)


def marginal_drift(
    dataset: EncodedDataset,
    window_a: TimeInterval,
    window_b: TimeInterval,
    subset: AttributeSubset,
    distance_kind: str = TOTAL_VARIATION,
) -> DriftMeasurement:
    """Distance between the two windows' marginal estimates over ``subset``."""
    return compute_drift(dataset, window_a, window_b, marginal_kind(subset), subset,
                         distance_kind)


def conditioned_covariate_drift(
    dataset: EncodedDataset,
    window_a: TimeInterval,
    window_b: TimeInterval,
    subset: AttributeSubset,
    distance_kind: str = TOTAL_VARIATION,
) -> DriftMeasurement:
    """Class-prevalence-weighted average of per-class covariate distances."""
    return compute_drift(dataset, window_a, window_b, CONDITIONED_COVARIATE_DRIFT, subset,
                         distance_kind)


def posterior_drift(
    dataset: EncodedDataset,
    window_a: TimeInterval,
    window_b: TimeInterval,
    subset: AttributeSubset,
    distance_kind: str = TOTAL_VARIATION,
) -> DriftMeasurement:
    """Covariate-prevalence-weighted average of per-tuple class distances."""
    return compute_drift(dataset, window_a, window_b, POSTERIOR_DRIFT, subset, distance_kind)


def compute_drift(
    dataset: EncodedDataset,
    window_a: TimeInterval,
    window_b: TimeInterval,
    measure_kind: str,
    subset: AttributeSubset,
    distance_kind: str = TOTAL_VARIATION,
) -> DriftMeasurement:
    """The ``measure_kind`` drift over ``subset`` between the two windows."""
    [measurement] = pair_measurements(dataset, window_a, window_b, [(measure_kind, subset)],
                                      distance_kind)
    return measurement


def drift_measurements(dataset: EncodedDataset, pairs, measure_kind: str,
                       subset: AttributeSubset,
                       distance_kind: str = TOTAL_VARIATION) -> DriftColumn:
    """The ``measure_kind`` drift at every window pair of ``pairs`` (rows of
    ``(a_start, a_end, b_start, b_end)`` ticks), in order, from one
    ``pair_distances`` call, with ``compute_drift``'s checks."""
    conditioning, target = _reduced_over(measure_kind, dataset, subset)
    # each starts empty, so that no pairs give empty columns
    magnitudes, sizes_a, sizes_b = [np.zeros(0)], [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for _, m_a, m_b, d in pair_distances(dataset, pairs, conditioning, target, distance_kind):
        magnitude, n_a, n_b = _magnitudes(bool(conditioning), m_a, m_b, d)
        magnitudes.append(magnitude)
        sizes_a.append(n_a)
        sizes_b.append(n_b)
    return DriftColumn(measure_kind, distance_kind, subset, np.concatenate(magnitudes),
                       np.concatenate(sizes_a), np.concatenate(sizes_b))


def _check_kind(measure_kind: str, subset: AttributeSubset) -> None:
    """A known measure kind; a marginal one must agree with the subset role."""
    if measure_kind not in MEASURE_ROLES:
        raise MeasureError(f"unknown measure kind {measure_kind!r}")
    if (measure_kind not in (CONDITIONED_COVARIATE_DRIFT, POSTERIOR_DRIFT)
            and MEASURE_ROLES[measure_kind] != subset.role):
        raise MeasureError(f"measure kind {measure_kind!r} does not match subset role "
                           f"{subset.role!r}")
