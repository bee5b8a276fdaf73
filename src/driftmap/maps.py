"""Heat-map grids of drift magnitudes over attribute subspaces.

For a fixed window pair: pairwise joint drift (diagonal = univariate),
per-class conditioned covariate drift (univariate and pairwise), and
posterior drift conditioned on attribute pairs. Pairwise grids are
symmetric and obey the dimensionality monotonicity bound: an off-diagonal
cell is never below either of its diagonal cells (within tolerance).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .discretize import EncodedDataset
from .estimate import AttributeSubset, TimeInterval, count_table, select_window
from .estimate import estimate_conditional  # noqa: F401 - a call point perfbench/spans.py wraps
from .measures import (
    STATUS_INSUFFICIENT,
    STATUS_OK,
    TOTAL_VARIATION,
    conditional_distances,
    distance_function,
    marginal_drift,
    posterior_drift,
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

    def validate(self, monotone: bool = True) -> None:
        """Assert symmetry and (for joint/conditioned grids) the diagonal
        monotonicity bound. Called by every builder."""
        if not self.is_pairwise:
            return
        n = len(self.row_labels)
        if self.col_labels != self.row_labels:
            raise GridError("pairwise grid must have identical row and column labels")
        for i in range(n):
            for j in range(i + 1, n):
                if self.values[i][j] != self.values[j][i]:
                    raise GridError(f"asymmetric cells at ({i},{j})")
        if not monotone:
            return
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
        out = io.StringIO()
        writer = csv.DictWriter(
            out, fieldnames=["row", "column", "class", "magnitude", "status"],
            lineterminator="\n")
        writer.writeheader()
        for row in self.to_rows():
            if row["magnitude"] is not None:
                row = dict(row, magnitude=repr(row["magnitude"]))
            writer.writerow(row)
        return out.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "map_kind": self.map_kind,
            "distance_kind": self.distance_kind,
            "class": self.class_label,
            "window_a": [self.window_a.start, self.window_a.end],
            "window_b": [self.window_b.start, self.window_b.end],
            "cells": self.to_rows(),
        }, indent=2, sort_keys=True)


def _pair_subset(a: str, b: str) -> tuple[str, ...]:
    return (a,) if a == b else (a, b)


def pairwise_joint_map(
    dataset: EncodedDataset,
    window_a: TimeInterval,
    window_b: TimeInterval,
    attributes=None,
    distance_kind: str = TOTAL_VARIATION,
    include_class: bool = False,
) -> HeatMapGrid:
    """cell(i,j) = marginal drift over the attribute pair {Ai, Aj}.

    The diagonal holds univariate drift. The class attribute joins the grid
    as an ordinary row/column when requested.
    """
    if attributes is None:
        attributes = dataset.schema.covariate_names
        if include_class:
            attributes = attributes + (dataset.schema.class_attribute,)
    attributes = tuple(attributes)
    if not attributes:
        raise GridError("pairwise map needs at least one attribute")
    class_name = dataset.schema.class_attribute

    n = len(attributes)
    cells: list[list[float | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            names = _pair_subset(attributes[i], attributes[j])
            if class_name in names:
                role_names = tuple(x for x in names if x != class_name)
                subset = (AttributeSubset.class_only(class_name) if not role_names
                          else AttributeSubset.joint(role_names, class_name))
            else:
                subset = AttributeSubset.covariates(names)
            m = marginal_drift(dataset, window_a, window_b, subset, distance_kind)
            cells[i][j] = cells[j][i] = m.magnitude
    grid = HeatMapGrid(
        map_kind=PAIRWISE_JOINT,
        row_labels=attributes,
        col_labels=attributes,
        values=tuple(tuple(r) for r in cells),
        window_a=window_a,
        window_b=window_b,
        distance_kind=distance_kind,
    )
    grid.validate()
    return grid


def _class_labels(dataset: EncodedDataset) -> tuple[str, ...]:
    return tuple(dataset.discretizer.labels_for(dataset.schema.class_attribute))


def _per_class_distances(dataset, window_a, window_b, names, distance_kind) -> list:
    """Inner (unweighted) distance of the conditionals over ``names`` for
    each class code, read out of one count table of the window pair.

    One-sided support maps to 1.0; a class absent from both windows is an
    insufficient-data cell (None).
    """
    AttributeSubset.covariates(names).validate_against(dataset)
    keys, counts = count_table((dataset.schema.class_attribute,) + names,
                               select_window(dataset, window_a), select_window(dataset, window_b))
    classes, _, _, d = conditional_distances(keys, counts, 1, distance_function(distance_kind))
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
    attributes = tuple(attributes) if attributes else dataset.schema.covariate_names
    cells = tuple(
        tuple(_per_class_distances(dataset, window_a, window_b, (attr,), distance_kind))
        for attr in attributes
    )
    grid = HeatMapGrid(
        map_kind=CONDITIONED_UNIVARIATE,
        row_labels=attributes,
        col_labels=_class_labels(dataset),
        values=cells,
        window_a=window_a,
        window_b=window_b,
        distance_kind=distance_kind,
    )
    grid.validate()
    return grid


def conditioned_pairwise_map(
    dataset: EncodedDataset,
    window_a: TimeInterval,
    window_b: TimeInterval,
    attributes=None,
    distance_kind: str = TOTAL_VARIATION,
) -> list[HeatMapGrid]:
    """One attribute-pair grid per class; cells are unweighted inner distances."""
    attributes = tuple(attributes) if attributes else dataset.schema.covariate_names
    n = len(attributes)
    per_pair = {
        (i, j): _per_class_distances(dataset, window_a, window_b,
                                     _pair_subset(attributes[i], attributes[j]), distance_kind)
        for i in range(n) for j in range(i, n)
    }
    grids = []
    for code, label in enumerate(_class_labels(dataset)):
        cells = [[per_pair[min(i, j), max(i, j)][code] for j in range(n)] for i in range(n)]
        grid = HeatMapGrid(
            map_kind=CONDITIONED_PAIRWISE,
            row_labels=attributes,
            col_labels=attributes,
            values=tuple(tuple(r) for r in cells),
            window_a=window_a,
            window_b=window_b,
            distance_kind=distance_kind,
            class_label=label,
        )
        grid.validate()
        grids.append(grid)
    return grids


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
    attributes = tuple(attributes) if attributes else dataset.schema.covariate_names
    n = len(attributes)
    cells: list[list[float | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            subset = AttributeSubset.covariates(_pair_subset(attributes[i], attributes[j]))
            m = posterior_drift(dataset, window_a, window_b, subset, distance_kind)
            cells[i][j] = cells[j][i] = m.magnitude
    grid = HeatMapGrid(
        map_kind=POSTERIOR_PAIRWISE,
        row_labels=attributes,
        col_labels=attributes,
        values=tuple(tuple(r) for r in cells),
        window_a=window_a,
        window_b=window_b,
        distance_kind=distance_kind,
    )
    grid.validate(monotone=False)
    return grid
