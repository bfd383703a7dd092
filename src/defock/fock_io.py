"""Artifact files: CSV tables and SVG line plots.

All writers are deterministic: identical inputs produce byte-identical
files (no timestamps, no locale dependence).  Reals are written with 17
significant digits so that re-parsing reproduces the exact double.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError

__all__ = [
    "ScanTable",
    "format_real",
    "write_csv",
    "write_svg_lineplot",
]


def format_real(x: float) -> str:
    """Shortest 17-significant-digit decimal; round-trips any finite double."""
    return format(float(x), ".17g")


@dataclass
class ScanTable:
    """Rectangular numeric table with named columns and a provenance header."""

    columns: list
    rows: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if set(map(len, self.rows)) - {len(self.columns)}:
            raise ValidationError("ragged row in ScanTable")

    def append(self, row):
        if len(row) != len(self.columns):
            raise ValidationError("row length does not match columns")
        self.rows.append(list(row))

    def column(self, name):
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _format_cell(value) -> str:
    if isinstance(value, str):
        if any(ch in value for ch in ",\n\r\""):
            raise ValidationError(f"cell value needs quoting, unsupported: {value!r}")
        return value
    if isinstance(value, bool):
        raise ValidationError("boolean cells are ambiguous; use 0/1")
    if isinstance(value, int):
        return str(value)
    return format_real(value)


# %-formats with the bytes of format_real and str, for the numeric cell types
_CELL_FORMATS = {float: "%.17g", int: "%d"}


def _row_format(rows) -> str | None:
    """One %-format for every row if each column holds cells of a single
    type in ``_CELL_FORMATS``, else None."""
    specs = []
    for column in zip(*rows):
        kinds = set(map(type, column))
        spec = _CELL_FORMATS.get(kinds.pop()) if len(kinds) == 1 else None
        if spec is None:
            return None
        specs.append(spec)
    return ",".join(specs)


def write_csv(table: ScanTable, path) -> None:
    """RFC-4180-style CSV with LF endings and '# key=value' provenance lines."""
    lines = [f"# {k}={v}" for k, v in table.provenance.items()]
    lines.append(",".join(table.columns))
    row_format = _row_format(table.rows)
    if row_format is not None:
        lines += [row_format % tuple(row) for row in table.rows]
    else:
        for row in table.rows:
            lines.append(",".join(_format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


# a y span of at most this fraction of max|y| is plotted flat rather than
# scaled to full height: the entropy of a harmonic squeezed scan is constant
# in alpha but spreads over up to ~450 ulps (6e-14 relative) from rounding
_FLAT_SPAN = 1e-12


def _widen(lo: float, hi: float):
    """(lo - 1, hi + 1); where that rounds back to an empty range, which
    takes |lo| or |hi| above 2^53, lo and hi moved apart by 2^-50 of the
    larger, kept inside the finite doubles."""
    if lo - 1.0 < hi + 1.0:
        return lo - 1.0, hi + 1.0
    step = 2.0**-50 * max(abs(lo), abs(hi))
    return max(lo - step, -sys.float_info.max), min(hi + step, sys.float_info.max)


def _ticks(lo: float, hi: float, count: int = 5):
    # lo + i (hi - lo) / (count - 1), on half-spans like write_svg_lineplot's
    step = (hi / 2 - lo / 2) / (count - 1)
    return [2.0 * (lo / 2 + i * step) for i in range(count)]


def write_svg_lineplot(table: ScanTable, x_col: str, y_cols, path,
                       style: dict | None = None) -> None:
    """Standalone SVG 1.1 line plot with linear axes and a legend.

    Rows whose x or y value is not finite are skipped.  A y range no
    wider than 1e-12 max|y| (rounding noise on a constant) is drawn flat.
    Output depends only on the inputs.
    """
    style = dict(style or {})
    if x_col not in table.columns:
        raise ValidationError(f"unknown x column {x_col!r}")
    for col in y_cols:
        if col not in table.columns:
            raise ValidationError(f"unknown y column {col!r}")

    width, height = 640.0, 420.0
    ml, mr, mt, mb = 72.0, 18.0, 24.0, 52.0
    inner_w, inner_h = width - ml - mr, height - mt - mb

    # a cell that is not a float becomes NaN and is skipped like a NaN cell
    values = {col: np.array([v if isinstance(v, float) else math.nan
                             for v in table.column(col)], dtype=float)
              for col in (x_col, *y_cols)}
    xs = values[x_col][np.isfinite(values[x_col])]
    ys = np.concatenate([values[col][np.isfinite(values[col])] for col in y_cols])
    if not xs.size or not ys.size:
        xs = xs if xs.size else np.array([0.0, 1.0])
        ys = ys if ys.size else np.array([0.0, 1.0])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    flat = y_hi - y_lo <= _FLAT_SPAN * max(abs(y_lo), abs(y_hi))
    # Spans are taken on halves, so that hi - lo may exceed the double range.
    # Halving is exact for normal doubles, so every other plot keeps its bytes
    # (0.08 is 2 * 0.04 in binary too).  A zero half-span (one value, or a
    # range a subnormal wide) would be divided by, so that axis is widened too;
    # the y pad only widens, so it keeps the y half-span above 0.
    (x_lo, x_hi), (y_lo, y_hi) = (_widen(lo, hi) if widen or hi / 2 - lo / 2 == 0 else (lo, hi)
                                  for lo, hi, widen in ((x_lo, x_hi, False), (y_lo, y_hi, flat)))
    pad = 0.08 * (y_hi / 2 - y_lo / 2)
    y_lo, y_hi = max(y_lo - pad, -sys.float_info.max), min(y_hi + pad, sys.float_info.max)
    x_half, y_half = x_hi / 2 - x_lo / 2, y_hi / 2 - y_lo / 2

    def sx(x):
        return ml + (x / 2 - x_lo / 2) / x_half * inner_w

    def sy(y):
        return mt + (1.0 - (y / 2 - y_lo / 2) / y_half) * inner_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<rect x="{ml:g}" y="{mt:g}" width="{inner_w:g}" height="{inner_h:g}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(
            f'<line x1="{px:.2f}" y1="{mt + inner_h:.2f}" x2="{px:.2f}" '
            f'y2="{mt + inner_h + 5:.2f}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{mt + inner_h + 18:.2f}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(
            f'<line x1="{ml - 5:.2f}" y1="{py:.2f}" x2="{ml:.2f}" y2="{py:.2f}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 8:.2f}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{ml + inner_w / 2:.2f}" y="{height - 12:.2f}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">{style.get("xlabel", x_col)}</text>'
    )
    if "title" in style:
        parts.append(
            f'<text x="{ml + inner_w / 2:.2f}" y="{mt - 8:.2f}" font-size="13" '
            f'text-anchor="middle" font-family="sans-serif">{style["title"]}</text>'
        )

    x_vals = values[x_col]
    px = sx(x_vals)
    for i, col in enumerate(y_cols):
        color = _PALETTE[i % len(_PALETTE)]
        keep = ~(np.isnan(x_vals) | np.isnan(values[col]))
        if keep.any():
            # sx and sy on arrays run the scalar operations in the same order,
            # and %.2f formats like the {:.2f} of the tick labels
            pts = np.column_stack((px[keep], sy(values[col][keep]))).ravel().tolist()
            points = " ".join(["%.2f,%.2f"] * (len(pts) // 2)) % tuple(pts)
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{points}"/>'
            )
        ly = mt + 16.0 + 16.0 * i
        parts.append(
            f'<line x1="{ml + inner_w - 150:.2f}" y1="{ly - 4:.2f}" '
            f'x2="{ml + inner_w - 130:.2f}" y2="{ly - 4:.2f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{ml + inner_w - 125:.2f}" y="{ly:.2f}" font-size="11" '
            f'font-family="sans-serif">{col}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
