"""Window selection, the counting kernel and maximum-likelihood estimates.

Every estimate and measure counts with one function, ``window_counts``:
it counts the code rows of an attribute list in any number of record
ranges over one shared, sorted key space. The estimates pass one range;
``measures.pair_distances`` passes both windows of every pair in a chunk,
and ``measures.pair_reductions`` counts one pair once over the union of the
attributes it needs, then projects each subset's counts out of that count
(``project_counts``). Estimates are sparse: only observed code tuples are
stored, absent tuples mean probability zero. Records missing a value on any
attribute of the subset under analysis are dropped from that subset's
counts only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import MISSING_CODE, EncodedDataset
from .schema import AttributeSchema

COVARIATES = "covariates-only"
CLASS_ONLY = "class-only"
JOINT = "covariates-plus-class"

# largest product of cardinalities whose mixed-radix keys fit an int64
MAX_KEY_SPACE = 2 ** 62


def fits_int64(value: int) -> bool:
    """A tick, step or span that numpy holds in an int64."""
    return -2 ** 63 <= value < 2 ** 63


class EstimationError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class TimeInterval:
    """Half-open tick interval [start, end)."""

    start: int
    end: int

    def __post_init__(self):
        for tick in (self.start, self.end):
            if not fits_int64(tick):
                raise EstimationError(f"tick {tick} is outside the int64 range")
        if self.start >= self.end:
            raise EstimationError(f"empty interval [{self.start}, {self.end})")


@dataclass(frozen=True)
class AttributeSubset:
    """An ordered attribute subset with its analysis role.

    The class attribute appears iff the role requires it; the constructor
    helpers below enforce that against a schema.
    """

    names: tuple[str, ...]
    role: str

    def __post_init__(self):
        if not self.names:
            raise EstimationError("attribute subset must be non-empty")
        if len(set(self.names)) != len(self.names):
            raise EstimationError(f"duplicate attributes in subset: {self.names}")
        if self.role not in (COVARIATES, CLASS_ONLY, JOINT):
            raise EstimationError(f"unknown subset role {self.role!r}")

    @classmethod
    def covariates(cls, names) -> "AttributeSubset":
        return cls(tuple(names), COVARIATES)

    @classmethod
    def class_only(cls, class_name: str) -> "AttributeSubset":
        return cls((class_name,), CLASS_ONLY)

    @classmethod
    def joint(cls, covariate_names, class_name: str) -> "AttributeSubset":
        return cls(tuple(covariate_names) + (class_name,), JOINT)

    @classmethod
    def of(cls, names, class_name) -> "AttributeSubset":
        """The one role rule over a name sequence: ``class_name`` goes last and
        its presence sets the role. A repeated class name stays repeated."""
        rest = tuple(n for n in names if n != class_name)
        classes = (class_name,) * (len(names) - len(rest))
        return cls(rest + classes, COVARIATES if not classes else JOINT if rest else CLASS_ONLY)

    def validate_against(self, schema: AttributeSchema) -> None:
        """Every name is an attribute of ``schema`` and the role follows ``of``."""
        known = set(schema.attribute_names)
        unknown = [n for n in self.names if n not in known]
        if unknown:
            raise EstimationError(f"unknown attributes in subset: {unknown}")
        expected = AttributeSubset.of(self.names, schema.class_attribute)
        if self != expected:
            raise EstimationError(f"subset {self.names} as {self.role!r} must be "
                                  f"{expected.names} as {expected.role!r}")


@dataclass(frozen=True)
class WindowView:
    """The contiguous record range of a dataset inside one time interval."""

    dataset: EncodedDataset
    interval: TimeInterval
    lo: int
    hi: int

    @property
    def record_count(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class DistributionEstimate:
    """Sparse ML estimate over one attribute subset within one window.

    ``sample_size`` counts the records that contributed after missing-value
    drops; a zero sample size is the distinguished empty-estimate result.
    """

    subset: AttributeSubset
    support: dict[tuple[int, ...], float] = field(repr=False)
    sample_size: int

    @property
    def is_empty(self) -> bool:
        return self.sample_size == 0

    def probability(self, key: tuple[int, ...]) -> float:
        return self.support.get(key, 0.0)

    def marginalize(self, keep_names) -> "DistributionEstimate":
        """Sum out all attributes except ``keep_names`` (order preserved)."""
        keep_names = tuple(keep_names)
        keep = [self.subset.names.index(n) for n in keep_names]
        # a subset carries its class attribute last (validate_against)
        class_name = self.subset.names[-1] if self.subset.role != COVARIATES else None
        subset = AttributeSubset.of(keep_names, class_name)
        if subset.names != keep_names:
            raise EstimationError(f"the class attribute {class_name!r} must be kept last, "
                                  f"got {keep_names}")
        merged: dict[tuple[int, ...], float] = {}
        for key, p in self.support.items():
            sub = tuple(key[i] for i in keep)
            merged[sub] = merged.get(sub, 0.0) + p
        return DistributionEstimate(subset=subset, support=merged,
                                    sample_size=self.sample_size)


@dataclass(frozen=True)
class ConditionalFamily:
    """Per conditioning tuple: its window probability and the ML estimate of
    the target subset restricted to matching records."""

    conditioning: AttributeSubset
    target: AttributeSubset
    members: dict[tuple[int, ...], tuple[float, DistributionEstimate]] = field(repr=False)
    sample_size: int

    @property
    def is_empty(self) -> bool:
        return self.sample_size == 0

    def weight(self, key: tuple[int, ...]) -> float:
        member = self.members.get(key)
        return member[0] if member else 0.0


def select_window(dataset: EncodedDataset, interval: TimeInterval) -> WindowView:
    """Records with timestamp in [start, end); empty windows are allowed."""
    lo = int(np.searchsorted(dataset.timestamps, interval.start, side="left"))
    hi = int(np.searchsorted(dataset.timestamps, interval.end, side="left"))
    return WindowView(dataset=dataset, interval=interval, lo=lo, hi=hi)


def _mixed_radix(columns, radices, n: int, shift: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The code rows whose attributes' codes are ``columns`` (``n`` each) as
    mixed-radix int64 keys over ``radices``, and which rows have no missing
    code. With ``shift`` 1 each code is counted one up, so a missing code is
    its attribute's lowest code and no row is unusable."""
    key = np.zeros(n, dtype=np.int64)
    usable = np.ones(n, dtype=bool)
    for column, radix in zip(columns, radices):
        key *= radix
        key += column
        if shift:
            key += shift
        else:
            usable &= column != MISSING_CODE
    return key, usable


def window_counts(dataset: EncodedDataset, names, bounds,
                  keep_missing: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The counting kernel: counts of the code rows over ``names`` in each
    record range ``[lo, hi)`` of ``bounds`` (windows x 2), over one shared
    key space.

    Returns ``keys`` (K x len(names)), every code row seen in any window
    once, sorted lexicographically so that rows sharing their leading codes
    are contiguous, and ``counts`` (windows x K, int64). Records missing a
    value on any of ``names`` are dropped, unless ``keep_missing``: then
    ``MISSING_CODE`` is counted as one more code of each attribute, its
    lowest, for ``project_counts`` to drop per subset. The records inside
    any window are compacted once with one ``np.unique``, as mixed-radix
    int64 keys or as rows when the key space would not fit an int64. Their
    key ids are then bincounted per segment between the sorted window edges
    and summed up, so each window's counts are the difference of two prefix
    rows, and a record is compacted once however many windows hold it.
    """
    bounds = np.asarray(bounds)
    lo, hi = bounds.min(), bounds.max()
    depth = np.cumsum(np.bincount(bounds[:, 0] - lo, minlength=hi - lo + 1)
                      - np.bincount(bounds[:, 1] - lo, minlength=hi - lo + 1))
    records = lo + np.flatnonzero(depth[:-1])
    cols = dataset.column_indices(names)
    shift = int(keep_missing)
    radices = [dataset.cardinalities[c] + shift for c in cols]
    if math.prod(radices) > MAX_KEY_SPACE:
        rows = dataset.codes[np.ix_(records, cols)]
        usable = keep_missing | (rows != MISSING_CODE).all(axis=1)
        keys, ids = np.unique(rows[usable], axis=0, return_inverse=True)
    else:
        key, usable = _mixed_radix((dataset.codes[records, c] for c in cols), radices,
                                   len(records), shift)
        codes, ids = np.unique(key[usable], return_inverse=True)
        strides = np.cumprod(np.append(1, radices[:0:-1]))[::-1]
        keys = codes[:, None] // strides % radices - shift
    k = len(keys)
    edges, where = np.unique(bounds, return_inverse=True)
    where = where.reshape(bounds.shape)
    # prefix row j counts the records from edges[0] up to edges[j]
    prefix_row = np.searchsorted(edges, records[usable], side="right")
    prefix = np.bincount(prefix_row * k + ids.reshape(-1),
                         minlength=len(edges) * k).reshape(len(edges), k)
    np.cumsum(prefix, axis=0, out=prefix)
    counts = prefix[where[:, 1]]
    counts -= prefix[where[:, 0]]
    return keys, counts


def project_counts(keys: np.ndarray, counts: np.ndarray, cols) -> tuple[np.ndarray, np.ndarray]:
    """What ``window_counts`` counts over a subset of its attributes, read
    off its ``keep_missing`` result ``keys``, ``counts``, ``cols`` being the
    subset's key columns: a key missing a code of the subset is dropped, and
    the others are sorted lexicographically on ``cols`` and merged, summing
    their integer counts, so exactly."""
    rows = keys[:, cols]
    kept = np.flatnonzero((rows != MISSING_CODE).all(axis=1))
    kept = kept[np.lexsort(rows[kept].T[::-1])]  # the first column is the primary key
    rows = rows[kept]
    starts, _ = key_runs(rows, len(cols))
    return rows[starts], np.add.reduceat(counts[:, kept], starts, axis=1)


def key_bound(dataset: EncodedDataset, names, lo: int, hi: int, cells: int) -> int:
    """A bound on the complete code rows over ``names`` that the records
    ``[lo, hi)`` hold, read ``cells`` records at a time. When the key space
    has at most ``cells`` keys, their number, off a presence table that each
    piece marks by its mixed-radix keys. Else the size of the sorted union
    of the pieces' keys, which stops growing once it passes ``cells``: any
    bound past ``cells`` sizes a chunk alike. Past an int64 key space, the
    key space capped at the record count."""
    cols = dataset.column_indices(names)
    cards = [dataset.cardinalities[c] for c in cols]
    space = math.prod(cards)
    if space > MAX_KEY_SPACE:
        return min(space, hi - lo)

    def piece_keys():
        for start in range(lo, hi, cells):
            piece = np.arange(start, min(start + cells, hi))
            key, usable = _mixed_radix((dataset.codes[piece, c] for c in cols), cards, len(piece))
            yield key[usable]

    if space <= cells:
        seen = np.zeros(space, dtype=bool)
        for key in piece_keys():
            seen[key] = True
        return int(np.count_nonzero(seen))
    union = np.zeros(0, dtype=np.int64)
    for key in piece_keys():
        union = np.union1d(union, key)
        if len(union) > cells:
            break
    return len(union)


def key_runs(keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Runs of sorted keys sharing their first ``k`` codes (``k=0``: one
    run): the index of each run's first key, and each key's run number."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:, :k] != keys[:-1, :k]).any(axis=1)
    return np.flatnonzero(first), np.cumsum(first) - 1


def _support(keys: np.ndarray, counts: np.ndarray) -> dict[tuple[int, ...], float]:
    total = counts.sum()
    return dict(zip(map(tuple, keys.tolist()), (counts / total).tolist()))


def estimate_distribution(window: WindowView, subset: AttributeSubset) -> DistributionEstimate:
    """ML estimate: observed-tuple counts over usable records, normalized."""
    subset.validate_against(window.dataset.schema)
    keys, (counts,) = window_counts(window.dataset, subset.names, [(window.lo, window.hi)])
    return DistributionEstimate(subset=subset, support=_support(keys, counts),
                                sample_size=int(counts.sum()))


def estimate_conditional(
    window: WindowView,
    target: AttributeSubset,
    conditioning: AttributeSubset,
) -> ConditionalFamily:
    """Family of ML target estimates, one per observed conditioning tuple."""
    if set(target.names) & set(conditioning.names):
        raise EstimationError("target and conditioning subsets must be disjoint")
    target.validate_against(window.dataset.schema)
    conditioning.validate_against(window.dataset.schema)

    k = len(conditioning.names)
    keys, (counts,) = window_counts(window.dataset, conditioning.names + target.names,
                                   [(window.lo, window.hi)])
    n = int(counts.sum())
    starts, _ = key_runs(keys, k)
    members = {}
    for lo, hi in zip(starts, np.append(starts[1:], len(counts))):
        m = int(counts[lo:hi].sum())
        inner = DistributionEstimate(
            subset=target, support=_support(keys[lo:hi, k:], counts[lo:hi]), sample_size=m)
        members[tuple(keys[lo, :k].tolist())] = (m / n, inner)
    return ConditionalFamily(conditioning=conditioning, target=target,
                             members=members, sample_size=n)
