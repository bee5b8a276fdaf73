import hashlib
import xml.etree.ElementTree as ET

import pytest

from driftmap.estimate import AttributeSubset, TimeInterval
from driftmap.maps import HeatMapGrid
from driftmap.render import PlotStyle, render_heatmap, render_lineplot
from driftmap.temporal import MeasureSpec, SweepSpec, drift_series

from conftest import build_encoded

SVG_NS = "{http://www.w3.org/2000/svg}"

# sha256 of the renders in TestExactLayout; a deliberate layout change records new ones
HEATMAP_SHA256 = "534d1619354fe9405872a5e4167e296e1cc22efde232fc6329eeaef774e14152"
LINEPLOT_SHA256 = "89115164b5e243350a2ec9d5a3798a422340a843613f2ad884047f760b46246d"


def grid_of(values, labels=None):
    n = len(values)
    labels = tuple(labels or [f"a{i}" for i in range(n)])
    return HeatMapGrid(
        map_kind="pairwise_joint",
        row_labels=labels,
        col_labels=labels,
        values=tuple(tuple(row) for row in values),
        window_a=TimeInterval(0, 10),
        window_b=TimeInterval(10, 20),
    )


def series_of(n_records=20, step=1, span=3, names=("a0",)):
    ds = build_encoded([[i % 2, 0] for i in range(n_records)], [2, 2])
    spec = SweepSpec(
        compute_step=step, span=span,
        measures=(MeasureSpec("covariate", AttributeSubset.covariates(names)),))
    return drift_series(ds, spec)


class TestHeatmap:
    def test_single_cell_zero_annotation(self):
        svg = render_heatmap(grid_of([[0.0]]))
        root = ET.fromstring(svg)
        texts = [t.text for t in root.iter(SVG_NS + "text")]
        assert "0.00" in texts

    def test_symmetric_grid_mirrors_colors(self):
        svg = render_heatmap(grid_of([[0.1, 0.7], [0.7, 0.3]]))
        root = ET.fromstring(svg)
        cells = [r for r in root.iter(SVG_NS + "rect")
                 if r.get("stroke") == "white"]
        assert len(cells) == 4
        fills = [c.get("fill") for c in cells]
        assert fills[1] == fills[2]  # (0,1) and (1,0)

    def test_large_grid_structure(self):
        n = 10
        values = [[abs(i - j) / n for j in range(n)] for i in range(n)]
        labels = [f"band{i}" for i in range(n)]
        svg = render_heatmap(grid_of(values, labels))
        root = ET.fromstring(svg)
        cells = [r for r in root.iter(SVG_NS + "rect")
                 if r.get("stroke") == "white"]
        assert len(cells) == 100
        texts = [t.text for t in root.iter(SVG_NS + "text")]
        for label in labels:
            assert texts.count(label) == 2  # row and column

    def test_missing_cells_neutral(self):
        svg = render_heatmap(grid_of([[None, 0.5], [0.5, 0.0]]))
        assert "#d9d9d9" in svg
        assert "n/a" in svg

    def test_annotations_equal_serialized_values_at_display_precision(self):
        grid = grid_of([[0.123456789, 0.5], [0.5, 0.987654321]])
        svg = render_heatmap(grid)
        for row in grid.values:
            for v in row:
                assert f"{v:.2f}" in svg

    def test_deterministic(self):
        grid = grid_of([[0.25, 0.5], [0.5, 0.75]])
        assert render_heatmap(grid) == render_heatmap(grid)

    def test_color_anchored_to_unit_range(self):
        svg0 = render_heatmap(grid_of([[0.0]]))
        svg1 = render_heatmap(grid_of([[1.0]]))
        assert "#ffffff" in svg0
        assert "#b2182b" in svg1


class TestLineplot:
    def test_valid_svg_with_polyline(self):
        svg = render_lineplot(series_of())
        root = ET.fromstring(svg)
        assert root.tag == SVG_NS + "svg"
        assert any(True for _ in root.iter(SVG_NS + "polyline"))

    def test_single_point_series_draws_marker_not_line(self):
        series = series_of(n_records=8, step=100, span=4)
        assert len(series) == 1
        svg = render_lineplot(series)
        root = ET.fromstring(svg)
        assert not list(root.iter(SVG_NS + "polyline"))
        assert list(root.iter(SVG_NS + "circle"))

    def test_gap_breaks_polyline(self):
        timestamps = list(range(10)) + list(range(30, 40))
        ds = build_encoded([[i % 2, 0] for i in range(20)], [2, 2],
                           timestamps=timestamps)
        spec = SweepSpec(
            compute_step=1, span=3,
            measures=(MeasureSpec("covariate", AttributeSubset.covariates(["a0"])),))
        series = drift_series(ds, spec)
        statuses = {p.results[spec.measures[0].key].status for p in series.points}
        assert "insufficient_data" in statuses
        svg = render_lineplot(series)
        root = ET.fromstring(svg)
        polylines = list(root.iter(SVG_NS + "polyline"))
        assert len(polylines) >= 2

    def test_legend_lists_each_measure(self):
        ds = build_encoded([[i % 2, i % 3, 0] for i in range(30)], [2, 3, 2])
        spec = SweepSpec(
            compute_step=1, span=5,
            measures=(
                MeasureSpec("covariate", AttributeSubset.covariates(["a0"])),
                MeasureSpec("covariate", AttributeSubset.covariates(["a1"])),
                MeasureSpec("covariate", AttributeSubset.covariates(["a0", "a1"])),
            ))
        svg = render_lineplot(drift_series(ds, spec))
        for mspec in spec.measures:
            assert mspec.key in svg

    def test_dashed_markers(self):
        style = PlotStyle(vertical_markers=(5, 10))
        svg = render_lineplot(series_of(), style)
        assert svg.count('stroke-dasharray="4 3"') == 2

    def test_deterministic(self):
        series = series_of()
        assert render_lineplot(series) == render_lineplot(series)

    def test_empty_series_rejected(self):
        ds = build_encoded([[0, 0]] * 2, [2, 2])
        spec = SweepSpec(
            compute_step=1, span=50,
            measures=(MeasureSpec("covariate", AttributeSubset.covariates(["a0"])),))
        series = drift_series(ds, spec)
        with pytest.raises(ValueError):
            render_lineplot(series)


def sha256(svg: str) -> str:
    return hashlib.sha256(svg.encode()).hexdigest()


class TestExactLayout:
    """Digests of fixed renders: any change to the layout, an attribute's
    order or a number's format changes the bytes."""

    def test_heatmap_bytes(self):
        grid = HeatMapGrid(
            map_kind="conditioned_pairwise",
            row_labels=("a0", "<a&b>", "a2"),
            col_labels=("a0", "<a&b>", "a2"),
            values=((0.0, 0.123456, None), (0.123456, 0.5, 0.875),
                    (None, 0.875, 1.0)),
            window_a=TimeInterval(0, 10),
            window_b=TimeInterval(10, 20),
            class_label="pos",
        )
        assert sha256(render_heatmap(grid)) == HEATMAP_SHA256

    def test_lineplot_bytes(self):
        # records at 14 and 15 alone give one usable point at t=15 between gaps
        timestamps = list(range(10)) + [14, 15] + list(range(24, 34))
        ds = build_encoded([[i % 2, i % 3, i % 2] for i in range(len(timestamps))],
                           [2, 3, 2], timestamps=timestamps)
        spec = SweepSpec(compute_step=1, span=2, measures=(
            MeasureSpec("covariate", AttributeSubset.covariates(["a0"])),
            MeasureSpec("class", AttributeSubset.class_only("label"))))
        style = PlotStyle(vertical_markers=(9, 40), x_label="day <&>",
                          y_label="drift magnitude")
        assert sha256(render_lineplot(drift_series(ds, spec), style)) == LINEPLOT_SHA256
