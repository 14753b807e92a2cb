"""Minimal deterministic SVG line plots (fixed 800x600 viewport).

Output is a pure function of the numeric series passed in, so plots
regenerated from the same CSV data are byte-identical.
"""

from __future__ import annotations

import math

_PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 80, 30, 40, 60


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float):
    """Six evenly spaced ticks from lo to hi (finite, lo < hi)."""
    return [lo + (hi - lo) * i / 5 for i in range(6)]


def line_plot(
    series,
    x_label: str,
    y_label: str,
    title: str = "",
    log_y: bool = False,
    ref_lines=(),
) -> str:
    """Render labelled (x, y) series as an SVG document string.

    series: iterable of (label, xs, ys).  With log_y the base-10 logarithm
    of positive y values is plotted and non-positive points are dropped.
    ref_lines: iterable of (label, y_value) horizontal dashed markers; a
    non-finite y_value, or with log_y a non-positive one, is dropped.
    """

    def drawn(y):
        return math.isfinite(y) and (y > 0 or not log_y)

    def axis(y):
        return math.log10(y) if log_y else y

    prepared = [
        (label, [(x, axis(y)) if math.isfinite(x) and drawn(y) else None for x, y in zip(xs, ys)])
        for label, xs, ys in series
    ]
    refs = [(label, axis(y)) for label, y in ref_lines if drawn(y)]

    all_x = [p[0] for _, pts in prepared for p in pts if p]
    all_y = [p[1] for _, pts in prepared for p in pts if p]
    all_y += [y for _, y in refs]
    xlo, xhi = (min(all_x), max(all_x)) if all_x else (0.0, 1.0)
    ylo, yhi = (min(all_y), max(all_y)) if all_y else (0.0, 1.0)
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        yhi = ylo + 1.0
    xpad = 0.03 * (xhi - xlo)
    ypad = 0.05 * (yhi - ylo)
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad

    def sx(x):
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    # frame and grid
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#404040" stroke-width="1"/>'
    )
    for tx in _ticks(xlo, xhi):
        px = sx(tx)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_MT}" x2="{_fmt(px)}" y2="{_H - _MB}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_H - _MB + 18}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{tx:.4g}</text>'
        )
    for ty in _ticks(ylo, yhi):
        py = sy(ty)
        out.append(
            f'<line x1="{_ML}" y1="{_fmt(py)}" x2="{_W - _MR}" y2="{_fmt(py)}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">{ty:.4g}</text>'
        )
    # reference lines
    for label, y in refs:
        py = sy(y)
        out.append(
            f'<line x1="{_ML}" y1="{_fmt(py)}" x2="{_W - _MR}" y2="{_fmt(py)}" '
            f'stroke="#808080" stroke-width="1" stroke-dasharray="6,4"/>'
        )
        out.append(
            f'<text x="{_W - _MR - 4}" y="{_fmt(py - 4)}" font-size="11" '
            f'text-anchor="end" fill="#606060" font-family="sans-serif">{label}</text>'
        )
    # series
    for i, (label, pts) in enumerate(prepared):
        color = _PALETTE[i % len(_PALETTE)]
        segment = []
        segments = []
        for p in pts:
            if p is None:
                if len(segment) > 1:
                    segments.append(segment)
                segment = []
            else:
                segment.append(p)
        if len(segment) > 1:
            segments.append(segment)
        for seg in segments:
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in seg)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        for p in pts:
            if p is not None:
                out.append(
                    f'<circle cx="{_fmt(sx(p[0]))}" cy="{_fmt(sy(p[1]))}" r="2" '
                    f'fill="{color}"/>'
                )
        ly = _MT + 16 + 16 * i
        out.append(
            f'<line x1="{_ML + 10}" y1="{ly - 4}" x2="{_ML + 34}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_ML + 40}" y="{ly}" font-size="12" '
            f'font-family="sans-serif">{label}</text>'
        )
    # labels
    out.append(
        f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 15}" font-size="14" '
        f'text-anchor="middle" font-family="sans-serif">{x_label}</text>'
    )
    out.append(
        f'<text x="20" y="{(_MT + _H - _MB) // 2}" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 20 {(_MT + _H - _MB) // 2})">'
        f"{y_label}</text>"
    )
    if title:
        out.append(
            f'<text x="{_W // 2}" y="24" font-size="15" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
