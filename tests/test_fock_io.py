import math
import re

import numpy as np
import pytest

from defock.errors import ValidationError
from defock.fock_io import (
    ScanTable,
    _widen,
    format_real,
    write_csv,
    write_svg_lineplot,
)
from oracles import read_csv


TRICKY_DOUBLES = [
    0.0,
    -0.0,
    1.0,
    math.pi,
    -2.0 / 3.0,
    1e-308,
    5e-324,
    1.7976931348623157e308,
    0.1 + 0.2,
    float(np.nextafter(1.0, 2.0)),
]


def test_format_real_roundtrips_doubles():
    for x in TRICKY_DOUBLES:
        back = float(format_real(x))
        assert (
            np.float64(back).tobytes() == np.float64(x).tobytes()
        ), f"{x!r} -> {format_real(x)!r} -> {back!r}"


def test_csv_roundtrip_bit_exact(tmp_path):
    table = ScanTable(
        columns=["a", "b", "flag"],
        provenance={"who": "roundtrip-test", "n": "3"},
    )
    rng_vals = [
        [math.pi, 1e-300, "ok"],
        [-0.0, 1.7976931348623157e308, ""],
        [float("nan"), 2.5, "TruncationError"],
    ]
    for row in rng_vals:
        table.append(row)
    path = tmp_path / "t.csv"
    write_csv(table, path)
    back = read_csv(path)
    assert back.columns == table.columns
    assert back.provenance == table.provenance
    for r0, r1 in zip(table.rows, back.rows):
        for v0, v1 in zip(r0, r1):
            if isinstance(v0, str):
                assert v1 == v0
            elif isinstance(v0, float) and math.isnan(v0):
                assert math.isnan(v1)
            else:
                assert np.float64(v1).tobytes() == np.float64(float(v0)).tobytes()


def test_csv_empty_table_is_header_only(tmp_path):
    table = ScanTable(columns=["x", "y"])
    path = tmp_path / "empty.csv"
    write_csv(table, path)
    assert path.read_text(encoding="utf-8") == "x,y\n"


def test_csv_one_by_one_two_lines(tmp_path):
    table = ScanTable(columns=["x"])
    table.append([1.5])
    path = tmp_path / "one.csv"
    write_csv(table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["x", "1.5"]


def test_table_validation():
    with pytest.raises(ValidationError):
        ScanTable(columns=["a"], rows=[[1.0, 2.0]])
    t = ScanTable(columns=["a"])
    with pytest.raises(ValidationError):
        t.append([1.0, 2.0])


def test_csv_rejects_unquotable_strings(tmp_path):
    t = ScanTable(columns=["s"])
    t.append(["has,comma"])
    with pytest.raises(ValidationError):
        write_csv(t, tmp_path / "bad.csv")


def test_svg_deterministic_and_wellformed(tmp_path):
    table = ScanTable(columns=["t", "A", "B"])
    for i in range(20):
        x = i / 4.0
        table.append([x, math.sin(x) ** 2, float("nan") if i == 7 else math.cos(x) ** 2])
    p1 = tmp_path / "a.svg"
    p2 = tmp_path / "b.svg"
    write_svg_lineplot(table, "t", ["A", "B"], p1, style={"title": "demo"})
    write_svg_lineplot(table, "t", ["A", "B"], p2, style={"title": "demo"})
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    text = b1.decode("utf-8")
    assert text.count("<polyline") == 2
    assert text.startswith('<?xml version="1.0"')
    assert "</svg>" in text
    with pytest.raises(ValidationError):
        write_svg_lineplot(table, "missing", ["A"], tmp_path / "c.svg")


# ------------------------------------------- per-cell writers, reference only

def _format_cell_loop(value):
    if isinstance(value, str):
        if any(ch in value for ch in ",\n\r\""):
            raise ValidationError(f"cell value needs quoting, unsupported: {value!r}")
        return value
    if isinstance(value, bool):
        raise ValidationError("boolean cells are ambiguous; use 0/1")
    if isinstance(value, int):
        return str(value)
    return format_real(value)


def write_csv_loop(table, path):
    """One _format_cell call per cell; reference only."""
    lines = [f"# {k}={v}" for k, v in table.provenance.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_format_cell_loop(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_svg_lineplot_loop(table, x_col, y_cols, path, style=None):
    """The plot with its range and polyline points built cell by cell;
    reference only."""
    from defock.fock_io import _FLAT_SPAN, _PALETTE, _ticks

    style = dict(style or {})
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 72.0, 18.0, 24.0, 52.0
    inner_w, inner_h = width - ml - mr, height - mt - mb

    def _finite(values):
        return [v for v in values if isinstance(v, float) and v == v and abs(v) != float("inf")]

    xs = _finite(table.column(x_col))
    ys = []
    for col in y_cols:
        ys.extend(_finite(table.column(col)))
    if not xs or not ys:
        xs = xs or [0.0, 1.0]
        ys = ys or [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi - y_lo <= _FLAT_SPAN * max(abs(y_lo), abs(y_hi)):
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * inner_w

    def sy(y):
        return mt + (1.0 - (y - y_lo) / (y_hi - y_lo)) * inner_h

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
    x_vals = table.column(x_col)
    for i, col in enumerate(y_cols):
        color = _PALETTE[i % len(_PALETTE)]
        pts = []
        for xv, yv in zip(x_vals, table.column(col)):
            if not (isinstance(xv, float) and isinstance(yv, float)):
                continue
            if xv != xv or yv != yv:
                continue
            pts.append(f"{sx(xv):.2f},{sy(yv):.2f}")
        if pts:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{" ".join(pts)}"/>'
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
    path.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")


def _mixed_tables():
    """Tables whose cells mix int, str, float, nan, inf and -0.0, and
    all-float and int/float tables that take the writers' fast paths."""
    rng = np.random.default_rng(5)
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300]
    mixed = ScanTable(columns=["x", "y", "n", "flag"], provenance={"who": "mixed"})
    for i in range(200):
        x = float(i) / 7.0 if i % 13 else specials[i % len(specials)]
        y = float(rng.normal()) if i % 5 else specials[(3 * i) % len(specials)]
        if i % 17 == 3:
            y = i  # an int cell in a float column
        if i % 23 == 4:
            x = "gap"
        mixed.append([x, y, i - 100, "" if i % 3 else "TruncationError"])
    floats = ScanTable(columns=["t", "A"], provenance={"J": "1.5"})
    for i in range(500):
        floats.append([i * 0.37, float(np.cos(0.1 * i)) ** 2 if i % 41 else specials[i % 8]])
    ints = ScanTable(columns=["n", "P_n"])
    for n, p in enumerate(rng.random(64).tolist()):
        ints.append([n, p if n != 7 else -0.0])
    big = ScanTable(columns=["n", "v"], rows=[[2**70, 1.0], [-(2**63), np.float64(0.1)]])
    # a harmonic squeezed entropy: constant in alpha up to rounding
    near_flat = ScanTable(columns=["alpha", "S"],
                          rows=[[0.1 * i, 0.05556561371368873 * (1.0 + 1e-15 * (i % 3))]
                                for i in range(20)])
    return {"mixed": mixed, "floats": floats, "ints": ints, "big": big,
            "near_flat": near_flat}


@pytest.mark.parametrize("name", ["mixed", "floats", "ints", "big"])
def test_csv_byte_equal_to_per_cell_writer(tmp_path, name):
    table = _mixed_tables()[name]
    write_csv(table, tmp_path / "new.csv")
    write_csv_loop(table, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("cell", [True, False, "has,comma", 'quote"d', "new\nline"])
def test_csv_still_rejects_bool_and_quoted_cells(tmp_path, cell):
    for rows in ([[1.0, cell]], [[1.0, 2.0], [3.0, cell]]):
        table = ScanTable(columns=["a", "b"], rows=rows)
        with pytest.raises(ValidationError):
            write_csv(table, tmp_path / "bad.csv")


@pytest.mark.parametrize("name, x_col, y_cols", [
    ("mixed", "x", ["y"]),
    ("mixed", "x", ["y", "n"]),
    ("mixed", "n", ["x", "y"]),
    ("floats", "t", ["A"]),
    ("ints", "n", ["P_n"]),
    ("big", "n", ["v"]),
    ("near_flat", "alpha", ["S"]),
])
def test_svg_byte_equal_to_per_point_loop(tmp_path, name, x_col, y_cols):
    table = _mixed_tables()[name]
    style = {"title": name, "xlabel": x_col}
    write_svg_lineplot(table, x_col, y_cols, tmp_path / "new.svg", style=style)
    write_svg_lineplot_loop(table, x_col, y_cols, tmp_path / "ref.svg", style=style)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


@pytest.mark.parametrize("level", [0.05556561371368873, -3.25, 1.0])
def test_svg_draws_a_curve_flat_up_to_rounding_as_flat(tmp_path, level):
    # the entropy of a harmonic squeezed scan is constant in alpha; its
    # rounding noise must not fill the plot's height
    alphas = [0.1 * i for i in range(20)]
    noise = np.random.default_rng(9).uniform(-1e-16, 1e-16, 20) * max(1.0, abs(level))
    flat = ScanTable(columns=["alpha", "S"], rows=[[a, level] for a in alphas])
    noisy = ScanTable(columns=["alpha", "S"],
                      rows=[[a, level + float(e)] for a, e in zip(alphas, noise)])
    assert len({row[1] for row in noisy.rows}) > 1
    write_svg_lineplot(flat, "alpha", ["S"], tmp_path / "flat.svg")
    write_svg_lineplot(noisy, "alpha", ["S"], tmp_path / "noisy.svg")
    assert (tmp_path / "flat.svg").read_bytes() == (tmp_path / "noisy.svg").read_bytes()
    # a real trend of 1e-9 relative is still scaled to the full height
    trend = ScanTable(columns=["alpha", "S"],
                      rows=[[a, level * (1.0 + 1e-9 * i)] for i, a in enumerate(alphas)])
    write_svg_lineplot(trend, "alpha", ["S"], tmp_path / "trend.svg")
    assert (tmp_path / "trend.svg").read_bytes() != (tmp_path / "flat.svg").read_bytes()


@pytest.mark.parametrize("value", [0.0, 3.0, -2.5e15, 2.0**53])
def test_svg_constant_axis_widened_by_one_where_that_works(tmp_path, value):
    table = ScanTable(columns=["x", "y"], rows=[[value, value], [value, value]])
    write_svg_lineplot(table, "x", ["y"], tmp_path / "new.svg")
    write_svg_lineplot_loop(table, "x", ["y"], tmp_path / "ref.svg")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


@pytest.mark.parametrize("value", [2.0**54 + 2.0, 1e308, -1e308, 1.7976931348623157e308,
                                   -1.7976931348623157e308])
def test_svg_constant_axis_past_2_53_keeps_a_range(tmp_path, value):
    # value - 1 and value + 1 round back to value here
    table = ScanTable(columns=["x", "y"], rows=[[value, value], [value, value]])
    write_svg_lineplot(table, "x", ["y"], tmp_path / "plot.svg")
    svg = (tmp_path / "plot.svg").read_text()
    assert "<polyline" in svg and "nan" not in svg and "inf" not in svg
    lo, hi = _widen(value, value)
    assert lo < hi and math.isfinite(lo) and math.isfinite(hi)


@pytest.mark.parametrize("lo, hi", [(0.0, 5e-324), (-5e-324, 0.0), (-5e-324, 5e-324)])
def test_svg_subnormal_span_drawn_like_a_constant(tmp_path, lo, hi):
    # hi/2 - lo/2 rounds to 0 here, which the scale divided by; such an axis
    # is widened like a constant one, and draws the same bytes as 0
    for axis in (0, 1):
        span, zero = [[0.25, 0.5], [0.75, 0.5]], [[0.25, 0.5], [0.75, 0.5]]
        span[0][axis], span[1][axis] = lo, hi
        zero[0][axis] = zero[1][axis] = 0.0
        write_svg_lineplot(ScanTable(["x", "y"], span), "x", ["y"], tmp_path / "span.svg")
        write_svg_lineplot(ScanTable(["x", "y"], zero), "x", ["y"], tmp_path / "zero.svg")
        assert (tmp_path / "span.svg").read_bytes() == (tmp_path / "zero.svg").read_bytes()


# the last tick of (-1.8e308, 0.5) is 0: 0.5 is far below one ulp of the span
@pytest.mark.parametrize("lo, hi, last", [
    (-1e308, 1e308, "1e+308"), (-1.7976931348623157e308, 0.5, "0"),
    (-1.7976931348623157e308, 1.7976931348623157e308, "1.798e+308"),
])
def test_svg_range_wider_than_the_doubles(tmp_path, lo, hi, last):
    # hi - lo overflowed to inf, which put nan into the ticks and the points
    table = ScanTable(columns=["x", "y"], rows=[[lo, lo], [0.5, 0.25], [hi, hi]])
    write_svg_lineplot(table, "x", ["y"], tmp_path / "plot.svg")
    svg = (tmp_path / "plot.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    ticks = re.findall(r'text-anchor="middle" font-family="sans-serif">([^<]*)<', svg)
    assert (ticks[0], ticks[4]) == (f"{lo:.4g}", last)
    points = [float(v) for v in re.search(r'points="([^"]*)"', svg)[1].replace(",", " ").split()]
    xs, ys = points[0::2], points[1::2]
    assert xs[0] == 72.0 and xs[-1] == 622.0 and xs == sorted(xs)
    # the pad past +-1.798e308 is clipped, so an extreme point may touch the frame
    assert all(24.0 <= y <= 368.0 for y in ys)
