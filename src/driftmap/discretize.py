"""Global equal-frequency discretization and integer encoding.

Numeric attributes are binned with cut points fitted once over the pooled
values of the whole dataset (all time periods jointly), so window-to-window
comparisons never conflate encoding changes with drift. Categorical
attributes get a label dictionary built over the whole dataset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .schema import NUMERIC, AttributeSchema, RawDataset, read_only

MISSING_CODE = -1

DEFAULT_BIN_COUNT = 5


class DiscretizationError(ValueError):
    pass


@dataclass(frozen=True)
class Discretizer:
    """Fitted encoding state: cut points per numeric attribute, label
    dictionaries per categorical attribute.

    Numeric bins are right-closed: value v maps to the count of cut points
    strictly below v, so a value equal to a cut point falls in the lower bin.
    Unseen categorical labels map to a reserved overflow code (one past the
    fitted dictionary).
    """

    schema: AttributeSchema
    bin_count: int
    cut_points: dict[str, tuple[float, ...]]
    label_codes: dict[str, dict[str, int]]

    def domain_size(self, name: str) -> int:
        if name in self.cut_points:
            return len(self.cut_points[name]) + 1
        return len(self.label_codes[name])

    def overflow_code(self, name: str) -> int:
        return len(self.label_codes[name])

    def labels_for(self, name: str) -> list[str]:
        """Code-ordered labels for a categorical attribute."""
        codes = self.label_codes[name]
        return [label for label, _ in sorted(codes.items(), key=lambda kv: kv[1])]

    def encode_value(self, name: str, value):
        if value is None:
            return MISSING_CODE
        cuts = self.cut_points.get(name)
        if cuts is not None:
            return int(np.searchsorted(cuts, value, side="left"))
        return self.label_codes[name].get(str(value), self.overflow_code(name))

    def to_json(self) -> str:
        doc = {
            "bin_count": self.bin_count,
            "cut_points": {k: list(v) for k, v in self.cut_points.items()},
            "label_codes": self.label_codes,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, schema: AttributeSchema) -> "Discretizer":
        """A sidecar written by :meth:`to_json`, checked against ``schema``."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise DiscretizationError("discretizer sidecar must be a JSON object")
        for section in ("bin_count", "cut_points", "label_codes"):
            if section not in doc:
                raise DiscretizationError(f"discretizer sidecar lacks the {section!r} section")
        try:
            bin_count = _integer(doc["bin_count"])
        except TypeError:
            raise DiscretizationError(f"discretizer sidecar bin_count must be an integer, "
                                      f"got {doc['bin_count']!r}") from None
        cut_points = _sidecar_section(doc, "cut_points", "a list of numbers", _cut_list)
        label_codes = _sidecar_section(doc, "label_codes", "an object of integer codes",
                                       lambda d: {lbl: _integer(c) for lbl, c in d.items()})
        _check_sidecar(schema, cut_points, label_codes)
        return cls(
            schema=schema,
            bin_count=bin_count,
            cut_points=cut_points,
            label_codes=label_codes,
        )


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool or a numeric string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value) -> int:
    """A JSON number with no fractional part, as an int; else a TypeError."""
    if not _is_number(value) or isinstance(value, float) and not value.is_integer():
        raise TypeError(value)
    return int(value)


def _cut_list(value) -> tuple:
    """Cut points as the sidecar lists them, which must be a flat list of numbers."""
    if not isinstance(value, list) or not all(map(_is_number, value)):
        raise TypeError(value)
    return tuple(value)


def _sidecar_section(doc: dict, section: str, shape: str, read) -> dict:
    """``{attribute: read(entry)}`` for the sidecar's ``section``; an entry
    that ``read`` cannot take fails naming the section and the attribute."""
    table = doc[section]
    if not isinstance(table, dict):
        raise DiscretizationError(f"discretizer sidecar {section} must be an object of "
                                  f"attributes, got {table!r}")
    entries = {}
    for name, entry in table.items():
        try:
            entries[name] = read(entry)
        except (AttributeError, TypeError, ValueError):
            raise DiscretizationError(f"discretizer sidecar {section} of attribute {name!r} "
                                      f"must be {shape}, got {entry!r}") from None
    return entries


def _check_sidecar(schema: AttributeSchema, cut_points: dict, label_codes: dict) -> None:
    """Cut points for exactly the numeric attributes, finite and strictly
    increasing; label codes 0..k-1 for exactly the categorical ones."""
    numeric = {a.name for a in schema.attributes if a.kind == NUMERIC}
    for section, table, names in (("cut_points", cut_points, numeric),
                                  ("label_codes", label_codes,
                                   set(schema.attribute_names) - numeric)):
        for name in sorted(table.keys() ^ names):
            problem = "lacks" if name in names else "has an unexpected entry for"
            raise DiscretizationError(
                f"discretizer sidecar {section} {problem} attribute {name!r}")
    for name, cuts in cut_points.items():
        values = np.asarray(cuts, dtype=float)
        if not np.isfinite(values).all() or (np.diff(values) <= 0).any():
            raise DiscretizationError(f"cut points of attribute {name!r} must be finite and "
                                      f"strictly increasing, got {list(cuts)}")
    for name, codes in label_codes.items():
        if sorted(codes.values()) != list(range(len(codes))):
            raise DiscretizationError(f"label codes of attribute {name!r} must be "
                                      f"0..{len(codes) - 1}, got {sorted(codes.values())}")


@dataclass(frozen=True)
class EncodedDataset:
    """Fully integer-coded dataset, record order identical to the raw input.

    ``codes`` is an (n_records, n_attributes) int array with ``MISSING_CODE``
    marking missing cells; ``timestamps`` is sorted non-decreasing. Both are
    read-only; :func:`apply_discretizer` shares ``timestamps`` with the
    :class:`RawDataset` it encodes.
    """

    schema: AttributeSchema
    discretizer: Discretizer
    timestamps: np.ndarray = field(repr=False)
    codes: np.ndarray = field(repr=False)
    cardinalities: tuple[int, ...]
    overflow_counts: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "timestamps", read_only(self.timestamps))
        object.__setattr__(self, "codes", read_only(self.codes))

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self.schema.attribute_names

    def column_indices(self, names) -> list[int]:
        all_names = self.schema.attribute_names
        return [all_names.index(n) for n in names]

    def cardinality(self, name: str) -> int:
        return self.cardinalities[self.schema.attribute_names.index(name)]


def _equal_frequency_cuts(values: np.ndarray, bin_count: int) -> tuple[float, ...]:
    """Cut points splitting sorted values into near-equal-count bins.

    Cuts may only sit between distinct values. When the ideal rank split
    lands inside a run of equal values, the cut moves to the nearer run
    boundary (ties broken toward the lower boundary). The cut value is the
    value of the lower run, as its first element holds it (so a run of
    ``-0.0`` and ``0.0`` keeps its first one's sign), consistent with
    right-closed bins.
    """
    ordered = np.sort(values)
    # where each run of equal values starts; the boundaries between runs are the later starts
    starts = np.flatnonzero(np.append(True, ordered[1:] != ordered[:-1]))
    boundaries = starts[1:]
    if not len(boundaries):
        return ()
    ideal = np.arange(1, bin_count) * len(ordered) / bin_count
    # the nearest boundary to each ideal rank is one of the two around it; the lower on a tie
    upper = np.minimum(np.searchsorted(boundaries, ideal), len(boundaries) - 1)
    lower = np.maximum(upper - 1, 0)
    best = np.where(np.abs(boundaries[lower] - ideal) <= np.abs(boundaries[upper] - ideal),
                    lower, upper)
    # the run below boundary b starts at starts[b]
    return tuple(ordered[starts[np.unique(best)]].tolist())


def fit_discretizer(dataset: RawDataset, bin_count: int = DEFAULT_BIN_COUNT) -> Discretizer:
    """Fit cut points and label dictionaries over the whole dataset."""
    if bin_count < 2:
        raise DiscretizationError("bin_count must be at least 2")
    if len(dataset) == 0:
        raise DiscretizationError("cannot fit a discretizer on an empty dataset")

    cut_points: dict[str, tuple[float, ...]] = {}
    label_codes: dict[str, dict[str, int]] = {}
    for attr, column in zip(dataset.schema.attributes, dataset.columns):
        if attr.kind == NUMERIC:
            observed = column[~np.isnan(column)]
        else:
            labels = dataset.labels[attr.name]
            first = np.sort(np.unique(column, return_index=True)[1])  # first-seen order
            observed = [labels[i] for i in column[first].tolist() if labels[i] is not None]
        if not len(observed):
            raise DiscretizationError(f"attribute {attr.name!r} has no non-missing values")
        if attr.kind == NUMERIC:
            cut_points[attr.name] = _equal_frequency_cuts(observed, bin_count)
        else:  # declared labels first, then unseen observed ones in first-seen order
            declared = list(attr.declared_domain or ())
            labels = declared + [v for v in observed if v not in declared]
            label_codes[attr.name] = {label: code for code, label in enumerate(labels)}
    return Discretizer(
        schema=dataset.schema,
        bin_count=bin_count,
        cut_points=cut_points,
        label_codes=label_codes,
    )


def apply_discretizer(dataset: RawDataset, discretizer: Discretizer) -> EncodedDataset:
    """Encode every record through the fitted discretizer.

    Unseen categorical labels are mapped to the overflow code and tallied in
    ``overflow_counts`` rather than raising.
    """
    names = dataset.schema.attribute_names
    codes = np.full((len(dataset), len(names)), MISSING_CODE, dtype=np.int64)
    overflow_counts = {name: 0 for name in discretizer.label_codes}

    for j, (attr, column) in enumerate(zip(dataset.schema.attributes, dataset.columns)):
        if attr.kind == NUMERIC:
            # a value's code is searchsorted(cuts, v, side="left"), the number of cut
            # points below it, counted here in one branch-free pass per cut; NaN
            # compares above no cut and is then marked missing
            cuts = discretizer.cut_points[attr.name]
            below = np.zeros(len(column), dtype=np.min_scalar_type(len(cuts)))
            for cut in cuts:
                below += column > cut
            codes[:, j] = below
            codes[np.isnan(column), j] = MISSING_CODE
        else:
            # one lookup per distinct label, spread back over the records
            table = discretizer.label_codes[attr.name]
            overflow = discretizer.overflow_code(attr.name)
            lookup = np.array([MISSING_CODE if v is None else table.get(str(v), overflow)
                               for v in dataset.labels[attr.name]], dtype=np.int64)
            codes[:, j] = lookup[column]
            overflow_counts[attr.name] = int(np.count_nonzero(codes[:, j] == overflow))

    seen_overflow = {k for k, c in overflow_counts.items() if c > 0}
    cardinalities = tuple(
        discretizer.domain_size(name) + (1 if name in seen_overflow else 0)
        for name in names
    )
    return EncodedDataset(
        schema=dataset.schema,
        discretizer=discretizer,
        timestamps=dataset.timestamps,
        codes=codes,
        cardinalities=cardinalities,
        overflow_counts=overflow_counts,
    )
