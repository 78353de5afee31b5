"""Terminal visualisation: render figure series as ASCII charts.

The benchmark harness regenerates the paper's figures as data series; this
module draws them in any terminal, with no plotting dependencies — handy for
offline environments and CI logs.

>>> chart = AsciiChart(width=40, height=10)
>>> chart.add_series("d2-tree", [5, 10, 20, 30], [1, 2, 4, 6])
>>> print(chart.render(title="throughput"))      # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.numeric import ordered_sum

__all__ = ["AsciiChart", "render_series", "sparkline", "stacked_bar"]

#: Distinct glyphs per series, cycled.
GLYPHS = "ox+*#@%&"

#: Eight-level block glyphs for sparklines (telemetry dashboards).
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: Shade glyphs for stacked-bar segments, cycled (flame-style breakdowns).
STACK_GLYPHS = "█▓▒░·"


def stacked_bar(parts: Sequence[float], width: int = 48) -> str:
    """Render non-negative parts as one fixed-width stacked ASCII bar.

    Each part gets a run of its (cycled) shade glyph proportional to its
    share of the total; cells are apportioned by largest remainder so the
    bar is always exactly ``width`` wide and every nonzero part keeps its
    rounding fair. Returns ``""`` for an empty/zero total.
    """
    values = [max(0.0, float(v)) for v in parts]
    total = ordered_sum(values)
    if total <= 0 or width <= 0 or not values:
        return ""
    exact = [v / total * width for v in values]
    cells = [int(e) for e in exact]
    leftovers = sorted(
        range(len(values)),
        key=lambda i: (-(exact[i] - cells[i]), i),
    )
    for i in leftovers[: width - sum(cells)]:
        cells[i] += 1
    return "".join(
        STACK_GLYPHS[i % len(STACK_GLYPHS)] * n for i, n in enumerate(cells)
    )


def sparkline(
    values: Sequence[float],
    width: int = 48,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """Render a value series as a fixed-width block-glyph sparkline.

    Longer series are resampled by bucket means; shorter ones are drawn
    one glyph per point. ``lo``/``hi`` pin the scale (defaults: the series
    min/max; a flat series renders at the lowest level).
    """
    points = [float(v) for v in values]
    if not points:
        return ""
    if len(points) > width:
        resampled = []
        for i in range(width):
            start = i * len(points) // width
            stop = max(start + 1, (i + 1) * len(points) // width)
            bucket = points[start:stop]
            resampled.append(ordered_sum(bucket) / len(bucket))
        points = resampled
    floor = min(points) if lo is None else lo
    ceiling = max(points) if hi is None else hi
    span = ceiling - floor
    if span <= 0:
        return SPARK_GLYPHS[0] * len(points)
    top = len(SPARK_GLYPHS) - 1
    return "".join(
        SPARK_GLYPHS[
            max(0, min(top, round((v - floor) / span * top)))
        ]
        for v in points
    )


@dataclass
class _Series:
    name: str
    xs: List[float]
    ys: List[float]
    glyph: str


@dataclass
class AsciiChart:
    """A scatter/line chart drawn with characters.

    Parameters
    ----------
    width, height:
        Plot-area size in character cells (axes add a margin).
    logy:
        Log-scale the Y axis (useful for balance degrees).
    """

    width: int = 60
    height: int = 16
    logy: bool = False
    _series: List[_Series] = field(default_factory=list)

    def add_series(self, name: str, xs: Sequence[float], ys: Sequence[float]) -> None:
        """Add one named series; points with non-finite values are dropped."""
        if len(xs) != len(ys):
            raise ValueError("xs and ys must align")
        pairs = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if y == y and abs(y) != float("inf")
        ]
        if not pairs:
            raise ValueError(f"series {name!r} has no finite points")
        glyph = GLYPHS[len(self._series) % len(GLYPHS)]
        self._series.append(
            _Series(name, [p[0] for p in pairs], [p[1] for p in pairs], glyph)
        )

    # ------------------------------------------------------------------
    def _transform_y(self, y: float) -> float:
        if self.logy:
            import math

            return math.log10(max(y, 1e-12))
        return y

    def render(self, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
        """Draw the chart; returns a multi-line string."""
        if not self._series:
            raise ValueError("no series to draw")
        xs = [x for s in self._series for x in s.xs]
        ys = [self._transform_y(y) for s in self._series for y in s.ys]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        grid = [[" "] * self.width for _ in range(self.height)]
        for series in self._series:
            for x, y in zip(series.xs, series.ys):
                col = round((x - x_lo) / x_span * (self.width - 1))
                row = round(
                    (self._transform_y(y) - y_lo) / y_span * (self.height - 1)
                )
                grid[self.height - 1 - row][col] = series.glyph

        def y_value(row: int) -> float:
            fraction = (self.height - 1 - row) / (self.height - 1)
            value = y_lo + fraction * y_span
            if self.logy:
                return 10 ** value
            return value

        lines: List[str] = []
        if title:
            lines.append(title)
        for row in range(self.height):
            label = f"{y_value(row):>10.3g} |" if row % 4 == 0 or row == self.height - 1 else " " * 10 + " |"
            lines.append(label + "".join(grid[row]))
        lines.append(" " * 11 + "+" + "-" * self.width)
        x_axis = f"{x_lo:<10.3g}{'':^{max(0, self.width - 20)}}{x_hi:>10.3g}"
        lines.append(" " * 12 + x_axis)
        if xlabel:
            lines.append(" " * 12 + xlabel.center(self.width))
        legend = "   ".join(f"{s.glyph}={s.name}" for s in self._series)
        lines.append("legend: " + legend)
        if ylabel:
            lines.insert(1 if title else 0, f"[y: {ylabel}{' (log)' if self.logy else ''}]")
        return "\n".join(lines)


def render_series(
    title: str,
    sizes: Sequence[float],
    series: Dict[str, Sequence[float]],
    logy: bool = False,
    width: int = 60,
    height: int = 16,
    xlabel: str = "cluster size (MDS)",
    ylabel: str = "",
) -> str:
    """One-call helper: chart a {name: values} mapping over shared X values."""
    chart = AsciiChart(width=width, height=height, logy=logy)
    for name in sorted(series):
        chart.add_series(name, sizes, series[name])
    return chart.render(title=title, xlabel=xlabel, ylabel=ylabel)
