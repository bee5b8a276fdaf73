"""Self-contained SVG renderers for heat-map grids and drift line plots.

Both plot kinds share one fixed 640x480 layout. Output is deterministic:
the same grid or series with the same style always yields byte-identical
SVG. Color is anchored to the magnitude range [0, 1] so shading is
comparable across maps. Annotations display two decimals; serialized
data files keep full precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .maps import HeatMapGrid
from .temporal import DriftSeries

WIDTH, HEIGHT = 640, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 90, 70, 30, 60
PLOT_W, PLOT_H = WIDTH - MARGIN_LEFT - MARGIN_RIGHT, HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
FONT_SIZE = 12
LOW_COLOR = (255, 255, 255)   # magnitude 0
HIGH_COLOR = (178, 24, 43)    # magnitude 1
MISSING_COLOR = "#d9d9d9"
SERIES_COLORS = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d35400", "#16a085",
                 "#2c3e50", "#7f8c8d")


@dataclass(frozen=True)
class PlotStyle:
    """Line-plot labels and markers; the layout itself is fixed."""

    x_label: str = ""
    y_label: str = ""
    # dashed vertical guide lines at these x positions (series time ticks)
    vertical_markers: tuple[int, ...] = ()


def _magnitude_color(value: float) -> str:
    v = min(1.0, max(0.0, value))
    rgb = tuple(round(lo + (hi - lo) * v) for lo, hi in zip(LOW_COLOR, HIGH_COLOR))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


_SVG_OPEN = (
    '<?xml version="1.0" encoding="UTF-8"?>',
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
    f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
    f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
)


# the heat maps' color legend: a vertical gradient bar mapping color to [0, 1]
_LEGEND_X = MARGIN_LEFT + PLOT_W + 12
_HEATMAP_LEGEND = (
    '<defs><linearGradient id="mag" x1="0" y1="1" x2="0" y2="0">',
    f'<stop offset="0" stop-color="{_magnitude_color(0.0)}"/>',
    f'<stop offset="1" stop-color="{_magnitude_color(1.0)}"/>',
    '</linearGradient></defs>',
    f'<rect x="{_LEGEND_X:.1f}" y="{MARGIN_TOP:.1f}" width="14" height="{PLOT_H:.1f}" '
    'fill="url(#mag)" stroke="black" stroke-width="0.5"/>',
) + tuple(
    f'<text x="{_LEGEND_X + 18:.1f}" y="{MARGIN_TOP + frac * PLOT_H + 4:.1f}" '
    f'font-size="{FONT_SIZE - 2}">{label}</text>'
    for frac, label in ((0.0, "1.0"), (0.5, "0.5"), (1.0, "0.0"))
)


def render_heatmap(grid: HeatMapGrid) -> str:
    """Standalone SVG heat map: one colored cell per grid cell.

    Insufficient-data cells are drawn in the neutral missing color with an
    "n/a" annotation; numeric annotations are rounded to two decimals for
    display only.
    """
    if not grid.row_labels or not grid.col_labels:
        raise ValueError("cannot render an empty grid")
    cw, ch = PLOT_W / len(grid.col_labels), PLOT_H / len(grid.row_labels)

    parts = list(_SVG_OPEN)
    title = grid.map_kind + (f" | class={grid.class_label}" if grid.class_label else "")
    parts.append(
        f'<text x="{MARGIN_LEFT}" y="{MARGIN_TOP - 10}" '
        f'font-size="{FONT_SIZE}">{_esc(title)}</text>')

    for i, row_label in enumerate(grid.row_labels):
        y = MARGIN_TOP + i * ch
        parts.append(
            f'<text x="{MARGIN_LEFT - 6}" y="{y + ch / 2 + 4:.1f}" '
            f'text-anchor="end" font-size="{FONT_SIZE - 2}">{_esc(row_label)}</text>')
        for j in range(len(grid.col_labels)):
            x = MARGIN_LEFT + j * cw
            v = grid.cell(i, j)
            fill = MISSING_COLOR if v is None else _magnitude_color(v)
            text = "n/a" if v is None else f"{v:.2f}"
            parts.extend((
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{cw:.1f}" height="{ch:.1f}" '
                f'fill="{fill}" stroke="white" stroke-width="1"/>',
                f'<text x="{x + cw / 2:.1f}" y="{y + ch / 2 + 4:.1f}" '
                f'text-anchor="middle" font-size="{FONT_SIZE - 2}">{text}</text>'))

    for j, col_label in enumerate(grid.col_labels):
        parts.append(
            f'<text x="{MARGIN_LEFT + j * cw + cw / 2:.1f}" y="{MARGIN_TOP + PLOT_H + 16}" '
            f'text-anchor="middle" font-size="{FONT_SIZE - 2}">{_esc(col_label)}</text>')

    parts.extend(_HEATMAP_LEGEND)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_lineplot(series: DriftSeries, style: PlotStyle = PlotStyle()) -> str:
    """Standalone SVG line plot: one polyline per measure, y fixed to [0, 1].

    Insufficient-data points break the polyline into separate segments so
    gaps are visible; optional dashed vertical markers flag declared times.
    """
    if len(series) == 0:
        raise ValueError("cannot render an empty series")
    times = series.times.tolist()
    t_lo, t_hi = times[0], times[-1]
    t_range = max(1, t_hi - t_lo)

    def sx(t: int) -> float:
        return MARGIN_LEFT + (t - t_lo) / t_range * PLOT_W

    def sy(v: float) -> float:
        return MARGIN_TOP + (1.0 - v) * PLOT_H

    parts = list(_SVG_OPEN)
    # axes and y gridlines at 0, 0.25, ..., 1
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{PLOT_W}" '
        f'height="{PLOT_H}" fill="none" stroke="black" stroke-width="1"/>')
    for v in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(v)
        parts.extend((
            f'<line x1="{MARGIN_LEFT}" y1="{y:.1f}" x2="{MARGIN_LEFT + PLOT_W}" y2="{y:.1f}" '
            'stroke="#cccccc" stroke-width="0.5"/>',
            f'<text x="{MARGIN_LEFT - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="{FONT_SIZE - 2}">{v:.2f}</text>'))
    for t in (t_lo, t_hi):
        parts.append(
            f'<text x="{sx(t):.1f}" y="{MARGIN_TOP + PLOT_H + 16}" '
            f'text-anchor="middle" font-size="{FONT_SIZE - 2}">{t}</text>')

    for t in style.vertical_markers:
        if t_lo <= t <= t_hi:
            x = f"{sx(t):.1f}"
            parts.append(f'<line x1="{x}" y1="{MARGIN_TOP}" x2="{x}" y2="{MARGIN_TOP + PLOT_H}" '
                         'stroke="#555555" stroke-width="1" stroke-dasharray="4 3"/>')

    for idx, mspec in enumerate(series.spec.measures):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        # runs of usable points, broken at insufficient-data points
        values = zip(times, series.magnitudes(mspec.key))
        for gap, run in groupby(values, key=lambda tv: tv[1] is None):
            if gap:
                continue
            seg = [(f"{sx(t):.2f}", f"{sy(v):.2f}") for t, v in run]
            if len(seg) == 1:
                x, y = seg[0]
                parts.append(f'<circle cx="{x}" cy="{y}" r="2.5" fill="{color}"/>')
            else:
                points = " ".join(f"{x},{y}" for x, y in seg)
                parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                             'stroke-width="1.5"/>')
        # legend entry
        ly = MARGIN_TOP + 14 * idx + 6
        lx = MARGIN_LEFT + PLOT_W + 8
        parts.extend((
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 16}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>',
            f'<text x="{lx + 20}" y="{ly + 4}" '
            f'font-size="{FONT_SIZE - 3}">{_esc(mspec.key)}</text>'))

    if style.x_label:
        parts.append(
            f'<text x="{MARGIN_LEFT + PLOT_W / 2:.1f}" y="{HEIGHT - 12}" '
            f'text-anchor="middle" font-size="{FONT_SIZE}">{_esc(style.x_label)}</text>')
    if style.y_label:
        mid = f"{MARGIN_TOP + PLOT_H / 2:.1f}"
        parts.append(f'<text x="16" y="{mid}" font-size="{FONT_SIZE}" '
                     f'transform="rotate(-90 16 {mid})">{_esc(style.y_label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
