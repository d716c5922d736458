"""Deterministic report, CSV and SVG emission for the command-line pipelines.

report.json files are byte-reproducible for identical inputs: keys are sorted
and wall-clock metadata goes to a separate run_meta.json instead.  The SVG
writer is a self-contained polyline plotter so plotting needs no extra
dependency.
"""

from __future__ import annotations

import json
import math
import time
from typing import Optional, Sequence

import numpy as np


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuples for json.dumps."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return to_jsonable(float(obj))
    if isinstance(obj, complex):
        return {"re": to_jsonable(obj.real), "im": to_jsonable(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return repr(obj)


def write_report(path, payload: dict) -> None:
    text = json.dumps(to_jsonable(payload), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_run_meta(path, extra: Optional[dict] = None) -> None:
    """Wall-clock and version info, kept out of report.json on purpose."""
    from . import __version__
    payload = {"written_at_unix": time.time(), "rdcert_version": __version__}
    if extra:
        payload.update(extra)
    write_report(path, payload)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _format_column(column: np.ndarray) -> list:
    """The text of each entry: ``%.17g`` for floats, ``str`` otherwise."""
    if column.ndim == 1 and column.dtype.kind == "f" and column.dtype.itemsize <= 8:
        return ["%.17g" % v for v in column.tolist()]
    return [_fmt(v) for v in column]


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Comma-separated columns with a header line; floats carry 17 significant
    digits so round-trips are lossless."""
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError("one column per header entry required")
    n = len(cols[0]) if cols else 0
    if any(len(c) != n for c in cols):
        raise ValueError("all columns must have equal length")
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*map(_format_column, cols))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_WIDTH, _HEIGHT = 800, 500  # pixels of an svg_line_plot
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def svg_line_plot(path, curves, title: str = "", xlabel: str = "", ylabel: str = "",
                  logy: bool = False) -> None:
    """Minimal _WIDTH x _HEIGHT line plot: ``curves`` is a sequence of (x, y, label) triples.

    With ``logy`` the vertical axis is log10 and nonpositive samples are
    dropped from the plot (but still present in the CSV outputs).
    """
    margin_l, margin_r, margin_t, margin_b = 70, 20, 40, 55
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    prepared = []
    for x, y, label in curves:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if logy:
            keep &= y > 0.0
        x, y = x[keep], y[keep]
        if x.size:
            prepared.append((x, np.log10(y) if logy else y, label))
    if not prepared:
        prepared = [(np.array([0.0, 1.0]), np.array([0.0, 0.0]), "")]

    x_lo = min(float(np.min(x)) for x, _, _ in prepared)
    x_hi = max(float(np.max(x)) for x, _, _ in prepared)
    y_lo = min(float(np.min(y)) for _, y, _ in prepared)
    y_hi = max(float(np.max(y)) for _, y, _ in prepared)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
                     f'font-size="16" font-family="sans-serif">{title}</text>')
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(f'<line x1="{px:.1f}" y1="{margin_t + plot_h}" x2="{px:.1f}" '
                     f'y2="{margin_t + plot_h + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{margin_t + plot_h + 20}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{tick:.4g}</text>')
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        label = f"1e{tick:.2f}" if logy else f"{tick:.4g}"
        parts.append(f'<line x1="{margin_l - 5}" y1="{py:.1f}" x2="{margin_l}" '
                     f'y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{label}</text>')
    if xlabel:
        parts.append(f'<text x="{margin_l + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
                     f'text-anchor="middle" font-size="13" font-family="sans-serif">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="18" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
                     f'font-size="13" font-family="sans-serif" '
                     f'transform="rotate(-90 18 {margin_t + plot_h / 2:.1f})">{ylabel}</text>')
    for i, (x, y, label) in enumerate(prepared):
        color = _PALETTE[i % len(_PALETTE)]
        step = max(1, len(x) // 4000)  # cap the polyline size
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x[::step], y[::step]))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if label:
            ly = margin_t + 16 + 16 * i
            parts.append(f'<line x1="{margin_l + 8}" y1="{ly - 4}" x2="{margin_l + 28}" '
                         f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{margin_l + 33}" y="{ly}" font-size="12" '
                         f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
