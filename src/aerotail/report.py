"""Deterministic CSV, JSON, and SVG emission.

Every writer formats floating-point values through one shared routine at 12
significant digits and emits no timestamps or environment state, so repeated
runs of the same analysis produce byte-identical files.  The SVG plots are
generated directly, with no plotting dependency: an eigenvalue scatter, a MAC
heatmap with per-cell annotations, and an optimizer convergence trace.
"""

from __future__ import annotations

import json
import math

import numpy as np

PRECISION = 12

__all__ = [
    "PRECISION",
    "format_value",
    "write_csv",
    "write_json",
    "comparison_rows",
    "report_payload",
    "eigenvalue_scatter",
    "mac_heatmap",
    "convergence_trace",
]


def format_value(x) -> str:
    """Canonical text form of one scalar at the documented precision."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.{PRECISION}g}"


def write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v) or math.isinf(v):
            return format_value(v)
        return float(f"{v:.{PRECISION}g}")
    return obj


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def comparison_rows(lf_values, hf_values, errors) -> tuple[list[str], list[list]]:
    """Frozen comparison-table layout: index, LF value, HF value, rel. error."""
    header = ["index", "lf_value", "hf_value", "relative_error"]
    rows = []
    for i, key in enumerate(lf_values):
        rows.append([i, lf_values[key], hf_values[key], errors.get(key, "")])
    return header, rows


def report_payload(report) -> dict:
    """JSON form of a ComparisonReport."""
    payload = {
        "case": report.case,
        "lf_values": dict(report.lf_values),
        "hf_values": dict(report.hf_values),
        "relative_errors": dict(report.relative_errors),
        "flags": dict(report.flags),
    }
    if report.eigenvalue_tables:
        payload["eigenvalue_tables"] = {
            k: np.asarray(v) for k, v in report.eigenvalue_tables.items()
        }
    if report.mac is not None:
        payload["mac"] = report.mac
    return payload


# -- SVG ----------------------------------------------------------------------

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 30, 40, 55


def _f(v: float) -> str:
    return f"{v:.6g}"


def _svg_open(title: str, frame: bool = True) -> list[str]:
    """Header, background and title, then the plot frame unless frame is False."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    if frame:
        parts.append(
            f'<rect x="{_ML}" y="{_MT}" width="{_W - _MR - _ML}" height="{_H - _MB - _MT}" '
            f'fill="none" stroke="black"/>'
        )
    return parts


def _axis_labels(parts, x_ticks, y_ticks, x_title, y_title, top=_MT, tick_gap=6, title_x=18):
    """Tick labels and axis titles of the plot area between top and _H - _MB.

    Ticks are (value, pixel) pairs: x ticks below the area, y ticks tick_gap
    left of it.  The y title is rotated and centred on the area at title_x.
    """
    x0, x1, bottom = _ML, _W - _MR, _H - _MB
    for v, px in x_ticks:
        parts.append(
            f'<text x="{_f(px)}" y="{bottom + 18}" text-anchor="middle" font-size="11">'
            f"{format_value(v)}</text>"
        )
    for v, py in y_ticks:
        parts.append(
            f'<text x="{x0 - tick_gap}" y="{_f(py + 4)}" text-anchor="end" font-size="11">'
            f"{format_value(v)}</text>"
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2}" y="{_H - 16}" text-anchor="middle" '
        f'font-size="12">{x_title}</text>'
    )
    ym = (bottom + top) / 2
    parts.append(
        f'<text x="{title_x}" y="{ym}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 {title_x} {ym})">{y_title}</text>'
    )


def _write_svg(path, parts: list[str]) -> None:
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _axis_limits(values: np.ndarray) -> tuple[float, float]:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if lo == hi:
        lo -= 1.0
        hi += 1.0
    pad = 0.08 * (hi - lo)
    return lo - pad, hi + pad


def _scale(v, lo, hi, p0, p1):
    return p0 + (v - lo) / (hi - lo) * (p1 - p0)


def eigenvalue_scatter(path, lf_eigs, hf_eigs, title="Eigenvalues") -> None:
    """Complex-plane scatter: circles for the coarse model, crosses refined."""
    lf_eigs = np.asarray(lf_eigs, dtype=complex).ravel()
    hf_eigs = np.asarray(hf_eigs, dtype=complex).ravel()
    allv = np.concatenate([lf_eigs, hf_eigs])
    xlo, xhi = _axis_limits(allv.real)
    ylo, yhi = _axis_limits(allv.imag)
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT  # y grows upward in data space

    parts = _svg_open(title)
    # zero axes when inside range
    if xlo < 0.0 < xhi:
        xz = _scale(0.0, xlo, xhi, x0, x1)
        parts.append(
            f'<line x1="{_f(xz)}" y1="{_MT}" x2="{_f(xz)}" y2="{y0}" '
            f'stroke="#bbbbbb" stroke-dasharray="4 3"/>'
        )
    if ylo < 0.0 < yhi:
        yz = _scale(0.0, ylo, yhi, y0, y1)
        parts.append(
            f'<line x1="{x0}" y1="{_f(yz)}" x2="{x1}" y2="{_f(yz)}" '
            f'stroke="#bbbbbb" stroke-dasharray="4 3"/>'
        )
    _axis_labels(parts, ((xlo, x0), (xhi, x1)), ((ylo, y0), (yhi, y1)), "Re", "Im")
    for z in lf_eigs:
        cx = _scale(z.real, xlo, xhi, x0, x1)
        cy = _scale(z.imag, ylo, yhi, y0, y1)
        parts.append(
            f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="5" fill="none" '
            f'stroke="#1f77b4" stroke-width="1.5"/>'
        )
    for z in hf_eigs:
        cx = _scale(z.real, xlo, xhi, x0, x1)
        cy = _scale(z.imag, ylo, yhi, y0, y1)
        parts.append(
            f'<path d="M {_f(cx - 4)} {_f(cy - 4)} L {_f(cx + 4)} {_f(cy + 4)} '
            f'M {_f(cx - 4)} {_f(cy + 4)} L {_f(cx + 4)} {_f(cy - 4)}" '
            f'stroke="#d62728" stroke-width="1.5"/>'
        )
    lx = x1 - 120
    parts.append(
        f'<circle cx="{lx}" cy="{_MT + 14}" r="5" fill="none" stroke="#1f77b4" '
        f'stroke-width="1.5"/>'
    )
    parts.append(f'<text x="{lx + 10}" y="{_MT + 18}" font-size="12">LF</text>')
    parts.append(
        f'<path d="M {lx - 4} {_MT + 28} L {lx + 4} {_MT + 36} M {lx - 4} '
        f'{_MT + 36} L {lx + 4} {_MT + 28}" stroke="#d62728" stroke-width="1.5"/>'
    )
    parts.append(f'<text x="{lx + 10}" y="{_MT + 36}" font-size="12">HF</text>')
    _write_svg(path, parts)


def _cell_color(v: float) -> str:
    """White through blue ramp for values in [0, 1]."""
    t = min(max(float(v), 0.0), 1.0)
    r = round(255 * (1.0 - 0.88 * t))
    g = round(255 * (1.0 - 0.71 * t))
    b = round(255 * (1.0 - 0.29 * t))
    return f"rgb({r},{g},{b})"


def mac_heatmap(path, mac: np.ndarray, title="MAC") -> None:
    """Annotated heatmap; rows are LF modes, columns HF modes."""
    m = np.asarray(mac, dtype=float)
    if m.ndim != 2:
        raise ValueError("MAC matrix must be two-dimensional")
    nr, nc = m.shape
    x0, x1 = _ML, _W - _MR
    y0, y1 = _MT + 10, _H - _MB
    cw = (x1 - x0) / nc
    ch = (y1 - y0) / nr
    parts = _svg_open(title, frame=False)
    for i in range(nr):
        for j in range(nc):
            cx = x0 + j * cw
            cy = y0 + i * ch
            parts.append(
                f'<rect x="{_f(cx)}" y="{_f(cy)}" width="{_f(cw)}" '
                f'height="{_f(ch)}" fill="{_cell_color(m[i, j])}" '
                f'stroke="#888888" stroke-width="0.5"/>'
            )
            color = "white" if m[i, j] > 0.6 else "black"
            parts.append(
                f'<text x="{_f(cx + cw / 2)}" y="{_f(cy + ch / 2 + 4)}" '
                f'text-anchor="middle" font-size="11" fill="{color}">'
                f"{m[i, j]:.2f}</text>"
            )
    _axis_labels(
        parts,
        [(j + 1, x0 + (j + 0.5) * cw) for j in range(nc)],
        [(i + 1, y0 + (i + 0.5) * ch) for i in range(nr)],
        "HF mode",
        "LF mode",
        top=y0,
        tick_gap=8,
        title_x=16,
    )
    _write_svg(path, parts)


def convergence_trace(path, trace, title="Optimizer trace") -> None:
    """Objective per iterate; accepted points filled, rejected hollow."""
    f_vals = np.array([t.f_hf for t in trace], dtype=float)
    finite = np.isfinite(f_vals)
    idx = np.arange(f_vals.size, dtype=float)
    if not np.any(finite):
        raise ValueError("trace holds no finite objective values")
    xlo, xhi = -0.5, float(f_vals.size - 1) + 0.5
    ylo, yhi = _axis_limits(f_vals[finite])
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT

    parts = _svg_open(title)
    pts = [
        (
            _scale(idx[i], xlo, xhi, x0, x1),
            _scale(f_vals[i], ylo, yhi, y0, y1),
        )
        for i in range(f_vals.size)
        if finite[i]
    ]
    accepted = [bool(t.accepted) and np.isfinite(t.f_hf) for t in trace]
    acc_pts = [
        (
            _scale(idx[i], xlo, xhi, x0, x1),
            _scale(f_vals[i], ylo, yhi, y0, y1),
        )
        for i in range(f_vals.size)
        if accepted[i]
    ]
    if len(acc_pts) > 1:
        d = " ".join(f"{_f(px)},{_f(py)}" for px, py in acc_pts)
        parts.append(
            f'<polyline points="{d}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
        )
    for i, (px, py) in zip([k for k in range(f_vals.size) if finite[k]], pts):
        fill = "#1f77b4" if accepted[i] else "none"
        parts.append(
            f'<circle cx="{_f(px)}" cy="{_f(py)}" r="4" fill="{fill}" '
            f'stroke="#1f77b4" stroke-width="1.2"/>'
        )
    _axis_labels(
        parts, ((0, x0), (f_vals.size - 1, x1)), ((ylo, y0), (yhi, y1)), "iterate", "objective"
    )
    _write_svg(path, parts)
