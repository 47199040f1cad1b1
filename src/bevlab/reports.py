"""CSV and SVG report emission shared by the CLI commands.

Every output file starts with comment lines carrying the tool version and the
full run configuration, so a file can be reproduced byte-identically from its
own header (timestamps are suppressed under --deterministic).
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from typing import Iterable, Sequence

from . import __version__

__all__ = ["fmt", "write_csv", "svg_line_plot"]


def fmt(value) -> str:
    """Locale-independent numeric formatting with 9 significant digits."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.9g}"
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence], config: dict, deterministic: bool = False,
              extra_comments: Sequence[str] = ()) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# bevlab v{__version__}\n")
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        if not deterministic:
            fh.write(f"# generated: {datetime.datetime.now(datetime.timezone.utc).isoformat()}\n")
        for line in extra_comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def _ticks(lo: float, hi: float, digits: int, prefix: str = "", n: int = 5) -> list[tuple[float, str]]:
    """Each distinct one of ``n`` evenly spaced values from ``lo`` to ``hi``, labelled
    ``prefix`` + the value at the fewest significant digits, from ``digits`` on, at
    which the labels of distinct values differ."""
    step = (hi - lo) / (n - 1)
    ticks = list(dict.fromkeys(lo + i * step for i in range(n)))  # an axis a float step wide repeats values
    while digits < 17 and len({f"{t:.{digits}g}" for t in ticks}) < len(ticks):
        digits += 1
    return [(t, f"{prefix}{t:.{digits}g}") for t in ticks]


def svg_line_plot(
    path,
    series: dict[str, list[tuple[float, float]]],
    x_label: str,
    y_label: str,
    log_y: bool = False,
) -> None:
    """Minimal native SVG plot, 640 by 440 pixels: one polyline per named series plus axes."""
    width, height, margin = 640, 440, 60
    pw, ph = width - 2 * margin, height - 2 * margin
    palette = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

    def ty(v: float) -> float:
        return math.log10(v) if log_y else v

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [ty(y) for pts in series.values() for _, y in pts if not log_y or y > 0]
    if not ys:
        raise ValueError("no y value > 0 to plot on a log scale" if log_y else "no points to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:  # span 1, or to the next float up where adding 1 rounds back (|x| >= 2**53)
        x_hi = max(x_lo + 1.0, math.nextafter(x_lo, math.inf))
    if y_hi == y_lo:
        y_hi = max(y_lo + 1.0, math.nextafter(y_lo, math.inf))

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for t, label in _ticks(x_lo, x_hi, 3):
        parts.append(
            f'<text x="{px(t):.1f}" y="{height - margin + 18}" font-size="11" text-anchor="middle">{label}</text>'
        )
    for t, label in _ticks(y_lo, y_hi, 2, "1e") if log_y else _ticks(y_lo, y_hi, 3):
        parts.append(f'<text x="{margin - 8}" y="{py(t) + 4:.1f}" font-size="11" text-anchor="end">{label}</text>')
    parts.append(
        f'<text x="{margin + pw / 2:.1f}" y="{height - 12}" font-size="13" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{margin + ph / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {margin + ph / 2:.1f})">{y_label}</text>'
    )
    for idx, (name, pts) in enumerate(series.items()):
        color = palette[idx % len(palette)]
        drawable = [(x, y) for x, y in pts if not log_y or y > 0]
        coords = " ".join(f"{px(x):.2f},{py(ty(y)):.2f}" for x, y in drawable)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
        parts.append(
            f'<text x="{width - margin - 120}" y="{margin + 16 * (idx + 1)}" font-size="12" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
