"""Heat-map grids of drift magnitudes over attribute subspaces.

For a fixed window pair: pairwise joint drift (diagonal = univariate),
per-class conditioned covariate drift (univariate and pairwise), and
posterior drift conditioned on attribute pairs. Pairwise grids are
symmetric; all but the posterior ones obey the dimensionality monotonicity
bound: an off-diagonal cell is never below either of its diagonal cells
(within tolerance).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .discretize import EncodedDataset
from .estimate import AttributeSubset, TimeInterval
from .estimate import estimate_conditional  # noqa: F401 - a call point perfbench/spans.py wraps
from .measures import distance_function  # noqa: F401 - a call point perfbench/spans.py wraps
from .measures import (
    STATUS_INSUFFICIENT,
    STATUS_OK,
    TOTAL_VARIATION,
    marginal_drift,
    pair_distances,
    posterior_drift,
    rows_to_csv,
)

PAIRWISE_JOINT = "pairwise_joint"
CONDITIONED_UNIVARIATE = "conditioned_univariate"
CONDITIONED_PAIRWISE = "conditioned_pairwise"
POSTERIOR_PAIRWISE = "posterior_pairwise"

MONOTONICITY_TOL = 1e-9


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

    def cell(self, i: int, j: int) -> float | None:
        return self.values[i][j]

    @property
    def is_pairwise(self) -> bool:
        return self.map_kind in (PAIRWISE_JOINT, CONDITIONED_PAIRWISE, POSTERIOR_PAIRWISE)

    def validate(self) -> None:
        """Assert symmetry and, for every pairwise kind but the posterior one,
        the diagonal monotonicity bound. Called by every builder."""
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
        for i in range(n):
            for j in range(n):
                v = self.values[i][j]
                if v is None or i == j:
                    continue
                for d in (self.values[i][i], self.values[j][j]):
                    if d is not None and v < d - MONOTONICITY_TOL:
                        raise GridError(
                            f"monotonicity violated at ({i},{j}): {v} < diagonal {d}"
                        )

    def to_rows(self) -> list[dict]:
        rows = []
        for i, r in enumerate(self.row_labels):
            for j, c in enumerate(self.col_labels):
                v = self.values[i][j]
                rows.append({
                    "row": r,
                    "column": c,
                    "class": self.class_label or "",
                    "magnitude": v,
                    "status": STATUS_OK if v is not None else STATUS_INSUFFICIENT,
                })
        return rows

    def to_csv(self) -> str:
        return rows_to_csv(self.to_rows(), ("row", "column", "class", "magnitude", "status"))

    def to_json(self) -> str:
        return json.dumps({
            "map_kind": self.map_kind,
            "distance_kind": self.distance_kind,
            "class": self.class_label,
            "window_a": [self.window_a.start, self.window_a.end],
            "window_b": [self.window_b.start, self.window_b.end],
            "cells": self.to_rows(),
        }, indent=2, sort_keys=True)


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


def _pairwise_cells(attributes: tuple[str, ...], cell_fn) -> list[list]:
    """The symmetric grid of ``cell_fn(names)`` over every attribute pair
    i <= j, where ``names`` is the pair (one name on the diagonal)."""
    n = len(attributes)
    cells: list[list] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            names = (attributes[i],) if i == j else (attributes[i], attributes[j])
            cells[i][j] = cells[j][i] = cell_fn(names)
    return cells


def _grid(map_kind, rows, cols, cells, window_a, window_b, distance_kind,
          class_label=None) -> HeatMapGrid:
    grid = HeatMapGrid(
        map_kind=map_kind,
        row_labels=rows,
        col_labels=cols,
        values=tuple(tuple(r) for r in cells),
        window_a=window_a,
        window_b=window_b,
        distance_kind=distance_kind,
        class_label=class_label,
    )
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

    def cell(names):
        subset = AttributeSubset.of(names, dataset.schema.class_attribute)
        return marginal_drift(dataset, window_a, window_b, subset, distance_kind).magnitude

    return _grid(PAIRWISE_JOINT, attributes, attributes, _pairwise_cells(attributes, cell),
                 window_a, window_b, distance_kind)


def _class_labels(dataset: EncodedDataset) -> tuple[str, ...]:
    return tuple(dataset.discretizer.labels_for(dataset.schema.class_attribute))


def _per_class_distances(dataset, window_a, window_b, names, distance_kind) -> list:
    """Inner (unweighted) distance of the conditionals over ``names`` for
    each class code, read out of one reduction of the window pair.

    One-sided support maps to 1.0; a class absent from both windows is an
    insufficient-data cell (None).
    """
    pair = [(window_a.start, window_a.end, window_b.start, window_b.end)]
    [(classes, _, _, (d,))] = pair_distances(dataset, pair, (dataset.schema.class_attribute,),
                                             names, distance_kind)
    # one pair: every tuple of the chunk is seen in one of its two windows
    found = dict(zip(classes[:, 0].tolist(), d.tolist()))
    return [found.get(code) for code in range(len(_class_labels(dataset)))]


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
    cells = [_per_class_distances(dataset, window_a, window_b, (attr,), distance_kind)
             for attr in attributes]
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
    per_class = _pairwise_cells(attributes, lambda names: _per_class_distances(
        dataset, window_a, window_b, names, distance_kind))
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

    def cell(names):
        subset = AttributeSubset.covariates(names)
        return posterior_drift(dataset, window_a, window_b, subset, distance_kind).magnitude

    return _grid(POSTERIOR_PAIRWISE, attributes, attributes, _pairwise_cells(attributes, cell),
                 window_a, window_b, distance_kind)
