"""Heat-map grids of drift magnitudes over attribute subspaces.

For a fixed window pair: pairwise joint drift (diagonal = univariate),
per-class conditioned covariate drift (univariate and pairwise), and
posterior drift conditioned on attribute pairs. Pairwise grids are
symmetric; all but the posterior ones obey the dimensionality monotonicity
bound: an off-diagonal cell that counts the same records as a diagonal cell
is never below it (within tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .discretize import EncodedDataset
from .estimate import AttributeSubset, TimeInterval
from .estimate import estimate_conditional  # noqa: F401 - a call point perfbench/spans.py wraps
# call points that perfbench/spans.py wraps; every map reads its cells off one count
from .measures import distance_function, marginal_drift, posterior_drift  # noqa: F401
from .measures import (
    POSTERIOR_DRIFT,
    STATUS_INSUFFICIENT,
    STATUS_OK,
    TOTAL_VARIATION,
    marginal_kind,
    pair_measurements,
    pair_reductions,
    table_csv,
    table_json,
)

PAIRWISE_JOINT = "pairwise_joint"
CONDITIONED_UNIVARIATE = "conditioned_univariate"
CONDITIONED_PAIRWISE = "conditioned_pairwise"
POSTERIOR_PAIRWISE = "posterior_pairwise"

MONOTONICITY_TOL = 1e-9

# the columns of HeatMapGrid.to_rows, in order
MAP_FIELDS = ("row", "column", "class", "magnitude", "status")


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class HeatMapGrid:
    """Labeled 2-D grid of drift magnitudes; None cells mean insufficient data."""

    map_kind: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    values: tuple[tuple[float | None, ...], ...] = field(repr=False)
    window_a: TimeInterval
    window_b: TimeInterval
    distance_kind: str = TOTAL_VARIATION
    class_label: str | None = None  # set for per-class conditioned grids
    sample_sizes: tuple | None = field(default=None, repr=False)  # each cell's (n_a, n_b)

    def cell(self, i: int, j: int) -> float | None:
        return self.values[i][j]

    @property
    def is_pairwise(self) -> bool:
        return self.map_kind in (PAIRWISE_JOINT, CONDITIONED_PAIRWISE, POSTERIOR_PAIRWISE)

    def validate(self) -> None:
        """Assert symmetry and, for every pairwise kind but the posterior one,
        the diagonal monotonicity bound. A pair cell drops the records missing
        either attribute, so only a diagonal cell with the same (or unknown)
        sample sizes bounds it. Called by every builder."""
        if not self.is_pairwise:
            return
        n = len(self.row_labels)
        if self.col_labels != self.row_labels:
            raise GridError("pairwise grid must have identical row and column labels")
        for i in range(n):
            for j in range(i + 1, n):
                if self.values[i][j] != self.values[j][i]:
                    raise GridError(f"asymmetric cells at ({i},{j})")
        if self.map_kind == POSTERIOR_PAIRWISE:
            return  # conditioning, not conditioned, dimensionality grows
        sizes = self.sample_sizes
        for i in range(n):
            for j in range(n):
                v = self.values[i][j]
                if v is None or i == j:
                    continue
                for k in (i, j):
                    d = self.values[k][k]
                    if (d is not None and v < d - MONOTONICITY_TOL
                            and (sizes is None or sizes[i][j] == sizes[k][k])):
                        raise GridError(f"monotonicity violated at ({i},{j}): {v} < diagonal {d}")

    def to_rows(self) -> list[dict]:
        """One row per cell, row by row, keyed in ``MAP_FIELDS`` order."""
        return [dict(zip(MAP_FIELDS, (r, c, self.class_label or "", v,
                                      STATUS_OK if v is not None else STATUS_INSUFFICIENT)))
                for r, values in zip(self.row_labels, self.values)
                for c, v in zip(self.col_labels, values)]

    def _table(self) -> list:
        """The columns of ``to_rows``, in ``MAP_FIELDS`` order."""
        rows = self.to_rows()
        return [[row[name] for row in rows] for name in MAP_FIELDS]

    def to_csv(self) -> str:
        return table_csv(MAP_FIELDS, self._table())

    def to_json(self, extra: dict | None = None) -> str:
        """The grid as a JSON document, its cells the rows of ``to_rows``,
        plus the top-level keys of ``extra``."""
        return table_json({
            **(extra or {}),
            "map_kind": self.map_kind,
            "distance_kind": self.distance_kind,
            "class": self.class_label,
            "window_a": [self.window_a.start, self.window_a.end],
            "window_b": [self.window_b.start, self.window_b.end],
        }, "cells", MAP_FIELDS, self._table())


def map_attributes(schema, attributes, map_kind, include_class=False) -> tuple[str, ...]:
    """One map's attribute list, checked once against ``schema``: None means
    all covariates, and ``include_class`` appends the class unless listed. An
    empty list, a repeated or unknown name, or the class on any map but a
    pairwise joint one fails."""
    class_name = schema.class_attribute
    attributes = tuple(schema.covariate_names if attributes is None else attributes)
    if not attributes:
        shape = "univariate" if map_kind == CONDITIONED_UNIVARIATE else "pairwise"
        raise GridError(f"{shape} map needs at least one attribute")
    if include_class and class_name not in attributes:
        attributes += (class_name,)
    subset = (AttributeSubset.of(attributes, class_name) if map_kind == PAIRWISE_JOINT
              else AttributeSubset.covariates(attributes))
    subset.validate_against(schema)
    return attributes


def _pairwise_cells(attributes: tuple[str, ...], cells_fn) -> list[list]:
    """The symmetric grid over every attribute pair i <= j, whose values
    ``cells_fn(pairs)`` gives for all the pairs, row by row, at once; a pair
    is its names (one name on the diagonal)."""
    n = len(attributes)
    index = [(i, j) for i in range(n) for j in range(i, n)]
    values = cells_fn([(attributes[i],) if i == j else (attributes[i], attributes[j])
                       for i, j in index])
    cells: list[list] = [[None] * n for _ in range(n)]
    for (i, j), value in zip(index, values):
        cells[i][j] = cells[j][i] = value
    return cells


def _drifts(dataset, window_a, window_b, requests, distance_kind) -> list:
    """The magnitude and sample sizes of each ``(measure_kind, subset)`` of
    ``requests``, all read off one count of the window pair."""
    return [(m.magnitude, m.sample_sizes) for m in pair_measurements(
        dataset, window_a, window_b, list(requests), distance_kind)]


def _grid(map_kind, rows, cols, cells, window_a, window_b, distance_kind,
          class_label=None) -> HeatMapGrid:
    """The checked grid of ``cells``, rows of ``(magnitude, sample sizes)``."""
    values, sizes = (tuple(tuple(cell[part] for cell in row) for row in cells) for part in (0, 1))
    grid = HeatMapGrid(map_kind, rows, cols, values, window_a, window_b, distance_kind,
                       class_label, sizes)
    grid.validate()
    return grid


def pairwise_joint_map(
    dataset: EncodedDataset,
    window_a: TimeInterval,
    window_b: TimeInterval,
    attributes=None,
    distance_kind: str = TOTAL_VARIATION,
    include_class: bool = False,
) -> HeatMapGrid:
    """cell(i,j) = marginal drift over the attribute pair {Ai, Aj}.

    The diagonal holds univariate drift. When requested, the class attribute
    joins the grid as an ordinary last row/column, unless already listed.
    """
    attributes = map_attributes(dataset.schema, attributes, PAIRWISE_JOINT, include_class)

    def request(names):
        subset = AttributeSubset.of(names, dataset.schema.class_attribute)
        return marginal_kind(subset), subset

    cells = _pairwise_cells(attributes, lambda pairs: _drifts(
        dataset, window_a, window_b, map(request, pairs), distance_kind))
    return _grid(PAIRWISE_JOINT, attributes, attributes, cells, window_a, window_b,
                 distance_kind)


def _class_labels(dataset: EncodedDataset) -> tuple[str, ...]:
    return tuple(dataset.discretizer.labels_for(dataset.schema.class_attribute))


def _per_class_distances(dataset, window_a, window_b, name_lists, distance_kind) -> list:
    """For each of ``name_lists``, the inner (unweighted) distance of the
    conditionals over its names for each class code, with the class's
    sample sizes, all read off one count of the window pair.

    One-sided support maps to 1.0; a class absent from both windows is an
    insufficient-data cell (None).
    """
    label = (dataset.schema.class_attribute,)
    codes = range(len(_class_labels(dataset)))
    reductions = pair_reductions(dataset, window_a, window_b,
                                 [(label, names) for names in name_lists], distance_kind)
    # one pair: every tuple of a reduction is seen in one of its two windows
    found = [dict(zip(classes[:, 0].tolist(), zip(d.tolist(), zip(a.tolist(), b.tolist()))))
             for classes, (a,), (b,), (d,) in reductions]
    return [[cell.get(code, (None, (0, 0))) for code in codes] for cell in found]


def conditioned_univariate_map(
    dataset: EncodedDataset,
    window_a: TimeInterval,
    window_b: TimeInterval,
    attributes=None,
    distance_kind: str = TOTAL_VARIATION,
) -> HeatMapGrid:
    """Attributes x classes grid of per-class covariate drift.

    Cells carry the inner distance d(P_a(x|y), P_b(x|y)) without the class
    prevalence weight, so they are comparable across classes of different
    prevalence. Weighting and summing a column family reproduces the scalar
    conditioned covariate drift.
    """
    attributes = map_attributes(dataset.schema, attributes, CONDITIONED_UNIVARIATE)
    cells = _per_class_distances(dataset, window_a, window_b, [(a,) for a in attributes],
                                 distance_kind)
    return _grid(CONDITIONED_UNIVARIATE, attributes, _class_labels(dataset), cells,
                 window_a, window_b, distance_kind)


def conditioned_pairwise_map(
    dataset: EncodedDataset,
    window_a: TimeInterval,
    window_b: TimeInterval,
    attributes=None,
    distance_kind: str = TOTAL_VARIATION,
) -> list[HeatMapGrid]:
    """One attribute-pair grid per class; cells are unweighted inner distances."""
    attributes = map_attributes(dataset.schema, attributes, CONDITIONED_PAIRWISE)
    per_class = _pairwise_cells(attributes, lambda pairs: _per_class_distances(
        dataset, window_a, window_b, pairs, distance_kind))
    return [_grid(CONDITIONED_PAIRWISE, attributes, attributes,
                  [[cell[code] for cell in row] for row in per_class],
                  window_a, window_b, distance_kind, class_label=label)
            for code, label in enumerate(_class_labels(dataset))]


def posterior_pairwise_map(
    dataset: EncodedDataset,
    window_a: TimeInterval,
    window_b: TimeInterval,
    attributes=None,
    distance_kind: str = TOTAL_VARIATION,
) -> HeatMapGrid:
    """cell(i,j) = posterior drift conditioned on the covariate pair {Ai, Aj}.

    Posterior cells need not dominate their diagonal (conditioning, not
    conditioned, dimensionality grows), so no monotonicity bound applies.
    """
    attributes = map_attributes(dataset.schema, attributes, POSTERIOR_PAIRWISE)
    cells = _pairwise_cells(attributes, lambda pairs: _drifts(
        dataset, window_a, window_b,
        [(POSTERIOR_DRIFT, AttributeSubset.covariates(names)) for names in pairs], distance_kind))
    return _grid(POSTERIOR_PAIRWISE, attributes, attributes, cells, window_a, window_b,
                 distance_kind)
