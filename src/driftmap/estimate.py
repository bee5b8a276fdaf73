"""Window selection, the counting kernel and maximum-likelihood estimates.

Every estimate and measure counts with one function, ``window_counts``:
it counts the code rows of an attribute list in any number of record
ranges over one shared, sorted key space. The estimates pass one range;
``measures.pair_distances`` passes both windows of every pair in a chunk.
Estimates are sparse: only observed code tuples are stored, absent tuples
mean probability zero. Records missing a value on any attribute of the
subset under analysis are dropped from that subset's counts only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import MISSING_CODE, EncodedDataset

COVARIATES = "covariates-only"
CLASS_ONLY = "class-only"
JOINT = "covariates-plus-class"

# largest product of cardinalities whose mixed-radix keys fit an int64
MAX_KEY_SPACE = 2 ** 62


class EstimationError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class TimeInterval:
    """Half-open tick interval [start, end)."""

    start: int
    end: int

    def __post_init__(self):
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

    def validate_against(self, dataset: EncodedDataset) -> None:
        known = set(dataset.schema.attribute_names)
        unknown = [n for n in self.names if n not in known]
        if unknown:
            raise EstimationError(f"unknown attributes in subset: {unknown}")
        expected = AttributeSubset.of(self.names, dataset.schema.class_attribute)
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


def window_counts(dataset: EncodedDataset, names, bounds) -> tuple[np.ndarray, np.ndarray]:
    """The counting kernel: counts of the code rows over ``names`` in each
    record range ``[lo, hi)`` of ``bounds`` (windows x 2), over one shared
    key space.

    Returns ``keys`` (K x len(names)), every code row seen in any window
    once, sorted lexicographically so that rows sharing their leading codes
    are contiguous, and ``counts`` (windows x K, int64). Records missing a
    value on any of ``names`` are dropped. The records inside any window are
    compacted once with one ``np.unique``, as mixed-radix int64 keys or as
    rows when the key space would not fit an int64. Their key ids are then
    bincounted per segment between the sorted window edges and summed up,
    so each window's counts are the difference of two prefix rows, and a
    record is compacted once however many windows hold it.
    """
    bounds = np.asarray(bounds)
    lo, hi = bounds.min(), bounds.max()
    depth = np.cumsum(np.bincount(bounds[:, 0] - lo, minlength=hi - lo + 1)
                      - np.bincount(bounds[:, 1] - lo, minlength=hi - lo + 1))
    records = lo + np.flatnonzero(depth[:-1])
    cols = dataset.column_indices(names)
    cards = [dataset.cardinalities[c] for c in cols]
    if math.prod(cards) > MAX_KEY_SPACE:
        rows = dataset.codes[np.ix_(records, cols)]
        usable = (rows != MISSING_CODE).all(axis=1)
        keys, ids = np.unique(rows[usable], axis=0, return_inverse=True)
    else:
        key = np.zeros(len(records), dtype=np.int64)
        usable = np.ones(len(records), dtype=bool)
        for c, card in zip(cols, cards):
            column = dataset.codes[records, c]
            usable &= column != MISSING_CODE
            key *= card
            key += column
        codes, ids = np.unique(key[usable], return_inverse=True)
        strides = np.cumprod(np.append(1, cards[:0:-1]))[::-1]
        keys = codes[:, None] // strides % cards
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
    subset.validate_against(window.dataset)
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
    target.validate_against(window.dataset)
    conditioning.validate_against(window.dataset)

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
