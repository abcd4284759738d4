"""Dependency-free SVG plotting with byte-deterministic output.

Coordinates are always formatted with a fixed "%.6f" pattern and elements
are emitted in a fixed order, so the same data yields the same bytes. Three
plot kinds cover the reporting needs: exponent-versus-depth curves, spectral
gap versus N, and the seed-function profile (|f| on the letters together
with |G_f| over one period).
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

WIDTH = 640
HEIGHT = 420
MARGIN = {"left": 72, "right": 24, "top": 42, "bottom": 52}
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
# curve plots: kind -> (x column, y column, columns that label a series, title)
CURVES = {
    "beta-vs-k": ("k", "beta_k", ("M", "alphabet", "delta"), "uncertainty exponent vs depth"),
    "gap-vs-N": ("N", "rho_upper", ("M", "alphabet", "cutoff"), "spectral radius bound vs N"),
}
KINDS = (*CURVES, "profile")


def _fmt(x: float) -> str:
    return "%.6f" % float(x)


def _pad_range(vals):
    lo, hi = float(min(vals)), float(max(vals))
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _panel(out, series, xlabel, ylabel, title, x0, y0, w, h):
    """Append one axes panel with polyline+marker series to out (list of str)."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    xlo, xhi = _pad_range(xs_all)
    ylo, yhi = _pad_range(ys_all)
    left, right = x0 + MARGIN["left"], x0 + w - MARGIN["right"]
    top, bottom = y0 + MARGIN["top"], y0 + h - MARGIN["bottom"]

    def sx(v):
        return left + (v - xlo) / (xhi - xlo) * (right - left)

    def sy(v):
        return bottom - (v - ylo) / (yhi - ylo) * (bottom - top)

    out.append(f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(right - left)}" '
               f'height="{_fmt(bottom - top)}" fill="none" stroke="#000000" stroke-width="1"/>')
    for tv in np.linspace(xlo, xhi, 5):
        px = sx(tv)
        out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(bottom)}" x2="{_fmt(px)}" '
                   f'y2="{_fmt(bottom + 5)}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_fmt(bottom + 18)}" font-size="11" '
                   f'text-anchor="middle" font-family="monospace">{"%.4g" % tv}</text>')
    for tv in np.linspace(ylo, yhi, 5):
        py = sy(tv)
        out.append(f'<line x1="{_fmt(left - 5)}" y1="{_fmt(py)}" x2="{_fmt(left)}" '
                   f'y2="{_fmt(py)}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(left - 8)}" y="{_fmt(py + 4)}" font-size="11" '
                   f'text-anchor="end" font-family="monospace">{"%.4g" % tv}</text>')
    out.append(f'<text x="{_fmt((left + right) / 2)}" y="{_fmt(y0 + h - 14)}" font-size="13" '
               f'text-anchor="middle" font-family="monospace">{xlabel}</text>')
    out.append(f'<text x="{_fmt(x0 + 18)}" y="{_fmt((top + bottom) / 2)}" font-size="13" '
               f'text-anchor="middle" font-family="monospace" transform="rotate(-90 '
               f'{_fmt(x0 + 18)} {_fmt((top + bottom) / 2)})">{ylabel}</text>')
    out.append(f'<text x="{_fmt((left + right) / 2)}" y="{_fmt(y0 + 24)}" font-size="14" '
               f'text-anchor="middle" font-family="monospace">{title}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        if len(xs) > 1:
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.500000" fill="{color}"/>')
        out.append(f'<rect x="{_fmt(right - 150)}" y="{_fmt(top + 8 + 16 * i)}" width="10" '
                   f'height="10" fill="{color}"/>')
        out.append(f'<text x="{_fmt(right - 136)}" y="{_fmt(top + 17 + 16 * i)}" font-size="11" '
                   f'font-family="monospace">{label}</text>')


def render_panels(panels, width=WIDTH, height=HEIGHT) -> str:
    """panels: list of (series, xlabel, ylabel, title), stacked vertically."""
    total_h = height * len(panels)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{total_h}" '
           f'viewBox="0 0 {width} {total_h}">',
           f'<rect x="0" y="0" width="{width}" height="{total_h}" fill="#ffffff"/>']
    for i, (series, xlabel, ylabel, title) in enumerate(panels):
        _panel(out, series, xlabel, ylabel, title, 0, i * height, width, height)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _require(rows, keys, kind):
    ok = [r for r in rows if r.get("status", "ok") == "ok"
          and all(r.get(k) is not None for k in keys)]
    if not ok:
        raise ValueError(f"plot kind {kind!r} needs columns {keys} with data")
    return ok


def _grouped(rows, keyfields):
    groups = {}
    for r in rows:
        key = " ".join(f"{f}={r[f]}" for f in keyfields if f in r and r[f] is not None)
        groups.setdefault(key, []).append(r)
    return sorted(groups.items())


def emit_plot(rows, kind: str, path) -> None:
    """Render records (dicts with flat numeric columns) to an SVG file."""
    if kind in CURVES:
        x, y, keyfields, title = CURVES[kind]
        rows = _require(rows, [x, y], kind)
        series = []
        for label, rs in _grouped(rows, keyfields):
            rs = sorted(rs, key=lambda r: r[x])
            series.append((label, [r[x] for r in rs], [r[y] for r in rs]))
        svg = render_panels([(series, x, y, title)])
    elif kind == "profile":
        rows = _require(rows, ["M", "delta"], kind)
        from .cantor import build_alphabet_interval
        from .testfn import band_masses, gaussian_seed, symbol_eval
        r0 = rows[0]
        M, delta = int(r0["M"]), float(r0["delta"])
        seed = gaussian_seed(build_alphabet_interval(M, delta)).normalized()
        ls = np.arange(M)
        fv = np.abs(seed.values)
        xs = np.linspace(0.0, 1.0, 801)
        gv = np.abs(symbol_eval(seed, xs))
        band = band_masses(seed, seed.alphabet.letters, np.linspace(0.0, 1.0 / M, 401))
        panels = [
            ([("|f(l)|", ls.tolist(), fv.tolist())], "l", "|f|",
             f"seed profile M={M} delta={delta:g}"),
            ([("|G_f(x)|", xs.tolist(), gv.tolist())], "x", "|G_f|",
             "symbol modulus over one period"),
            ([("band mass", np.linspace(0.0, 1.0 / M, 401).tolist(), band.tolist())],
             "y", "sum_A |G_f(a/M+y)|^2", "alphabet band mass"),
        ]
        svg = render_panels(panels)
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    Path(path).write_text(svg, encoding="utf-8")
