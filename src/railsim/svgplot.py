"""Minimal hand-rolled SVG output: line charts and network scene drawings.

No plotting dependency: outputs are deterministic, diff-able text files.
"""

from __future__ import annotations

from typing import Sequence

_SERIES_COLORS = ["#d62728", "#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd"]
CHART_SIZE = (640, 400)  # px, a line chart's (width, height)
SCENE_SIZE = 600  # px, the side of a square scene drawing


def _f(x: float) -> str:
    return f"{x:.2f}"


def line_chart(
    series: dict[str, list[tuple[float, float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Self-contained SVG line chart: one polyline + markers per series."""
    if not series or all(not pts for pts in series.values()):
        raise ValueError("no data to plot")
    width, height = CHART_SIZE
    margin = 55
    pw, ph = width - 2 * margin, height - 2 * margin
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.05 or 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle">{x_label}</text>',
        f'<text x="15" y="{height / 2}" text-anchor="middle" '
        f'transform="rotate(-90 15 {height / 2})">{y_label}</text>',
    ]
    n_ticks = 5
    for t in range(n_ticks + 1):
        yv = y_lo + (y_hi - y_lo) * t / n_ticks
        out.append(
            f'<text x="{margin - 6}" y="{_f(sy(yv) + 4)}" text-anchor="end">{yv:.1f}</text>'
        )
        xv = x_lo + (x_hi - x_lo) * t / n_ticks
        out.append(
            f'<text x="{_f(sx(xv))}" y="{height - margin + 16}" '
            f'text-anchor="middle">{xv:.0f}</text>'
        )
    for idx, (name, pts) in enumerate(series.items()):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        coords = " ".join(f"{_f(sx(x))},{_f(sy(y))}" for x, y in pts)
        if len(pts) > 1:
            out.append(
                f'<polyline class="series" fill="none" stroke="{color}" '
                f'stroke-width="1.5" points="{coords}"/>'
            )
        for x, y in pts:
            out.append(
                f'<circle class="marker" cx="{_f(sx(x))}" cy="{_f(sy(y))}" '
                f'r="2.5" fill="{color}"/>'
            )
        ly = margin + 16 * idx
        out.append(
            f'<line x1="{width - margin - 110}" y1="{ly}" x2="{width - margin - 90}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{width - margin - 84}" y="{ly + 4}">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def scene_svg(
    width_m: float,
    height_m: float,
    coords: Sequence[Sequence[float]],
    anchor_ids: Sequence[int],
    target_id: int,
    box: Sequence[float],
    rays: Sequence[Sequence[float]],
    intersections: Sequence[Sequence[float]],
    estimate: Sequence[float],
) -> str:
    """Draw one deployment with the selected target's box, rays and estimate.

    Every position is plain floats: ``coords`` rows and ``intersections``
    and ``estimate`` are (x, y), ``box`` is (x_min, x_max, y_min, y_max)
    and each ray is (x, y, dx, dy) from its origin along a unit direction.
    """
    margin = 30
    size = SCENE_SIZE
    scale = (size - 2 * margin) / max(width_m, height_m)

    def sx(x):
        return margin + x * scale

    def sy(y):
        return size - margin - y * scale  # y up

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}" font-family="sans-serif" font-size="11">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<rect class="arena" x="{_f(sx(0))}" y="{_f(sy(height_m))}" '
        f'width="{_f(width_m * scale)}" height="{_f(height_m * scale)}" '
        f'fill="none" stroke="#888"/>',
    ]
    anchors = set(anchor_ids)
    for i, (x, y) in enumerate(coords):
        if i in anchors:
            continue
        color = "#2ca02c" if i == target_id else "#bbbbbb"
        r = 4 if i == target_id else 2
        out.append(
            f'<circle class="node" cx="{_f(sx(x))}" cy="{_f(sy(y))}" '
            f'r="{r}" fill="{color}"/>'
        )
    for i in anchor_ids:
        x, y = coords[i]
        out.append(
            f'<rect class="anchor" x="{_f(sx(x) - 5)}" y="{_f(sy(y) - 5)}" '
            f'width="10" height="10" fill="#1f77b4"/>'
        )
    x_min, x_max, y_min, y_max = box
    out.append(
        f'<rect class="bbox" x="{_f(sx(x_min))}" y="{_f(sy(y_max))}" '
        f'width="{_f((x_max - x_min) * scale)}" '
        f'height="{_f((y_max - y_min) * scale)}" '
        f'fill="none" stroke="#d62728" stroke-width="1.5"/>'
    )
    ray_len = max(width_m, height_m) * 1.5
    for x, y, dx, dy in rays:
        out.append(
            f'<line class="ray" x1="{_f(sx(x))}" y1="{_f(sy(y))}" '
            f'x2="{_f(sx(x + dx * ray_len))}" y2="{_f(sy(y + dy * ray_len))}" '
            f'stroke="#1f77b4" stroke-width="1.2"/>'
        )
    for x, y in intersections:
        out.append(
            f'<circle class="intersection" cx="{_f(sx(x))}" cy="{_f(sy(y))}" '
            f'r="4" fill="none" stroke="black" stroke-width="1.2"/>'
        )
    x, y = estimate
    out.append(
        f'<circle class="estimate" cx="{_f(sx(x))}" cy="{_f(sy(y))}" '
        f'r="5" fill="#2ca02c" stroke="black"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
