"""Window selection, the counting kernel and maximum-likelihood estimates.

Every estimate and measure compacts code rows with one helper,
``key_ids``: the code rows of an attribute list are encoded as mixed-radix
integer keys and compacted with one ``np.unique`` over all the records
counted together. ``count_table`` bincounts them per window for the
estimates; ``measures.pair_distances`` bincounts them per segment between
window edges for any number of window pairs. Estimates are sparse:
only observed code tuples are stored, absent tuples mean probability zero.
Records missing a value on any attribute of the subset under analysis are
dropped from that subset's counts only.
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


def key_ids(dataset: EncodedDataset, names, records) -> tuple[np.ndarray, np.ndarray]:
    """The row compaction of the counting kernel over the records at the
    indices ``records``: ``keys`` (K x len(names)), every code row over
    ``names`` seen once, sorted lexicographically so that rows sharing their
    leading codes are contiguous, and each record's row number in ``keys``,
    -1 for a record missing a value on any of ``names``. Rows are compacted
    with one ``np.unique`` as mixed-radix int64 keys, or as rows when the key
    space would not fit an int64.
    """
    ids = np.full(len(records), -1)
    cols = dataset.column_indices(names)
    cards = [dataset.cardinalities[c] for c in cols]
    if math.prod(cards) > MAX_KEY_SPACE:
        rows = dataset.codes[np.ix_(records, cols)]
        usable = (rows != MISSING_CODE).all(axis=1)
        keys, inverse = np.unique(rows[usable], axis=0, return_inverse=True)
    else:
        key = np.zeros(len(records), dtype=np.int64)
        usable = np.ones(len(records), dtype=bool)
        for c, card in zip(cols, cards):
            column = dataset.codes[records, c]
            usable &= column != MISSING_CODE
            key *= card
            key += column
        codes, inverse = np.unique(key[usable], return_inverse=True)
        strides = np.cumprod(np.append(1, cards[:0:-1]))[::-1]
        keys = codes[:, None] // strides % cards
    ids[usable] = inverse.reshape(-1)
    return keys, ids


def count_table(names, *windows: WindowView) -> tuple[np.ndarray, np.ndarray]:
    """The counting kernel: counts of the code rows over ``names`` in each
    of one or more windows, over one shared key space.

    Returns ``keys``, every code row seen in any window once, as
    ``key_ids`` sorts them, and ``counts`` (windows x K, int64). Records
    missing a value on any of ``names`` are dropped.
    """
    records = np.concatenate([np.arange(w.lo, w.hi) for w in windows])
    window_of = np.repeat(np.arange(len(windows)), [w.record_count for w in windows])
    keys, ids = key_ids(windows[0].dataset, names, records)
    usable = ids >= 0
    counts = np.bincount(window_of[usable] * len(keys) + ids[usable],
                         minlength=len(windows) * len(keys))
    return keys, counts.reshape(len(windows), len(keys))


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
    keys, (counts,) = count_table(subset.names, window)
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
    keys, (counts,) = count_table(conditioning.names + target.names, window)
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
