"""Self-contained SVG line plots of error-curve CSVs (no plotting deps).

One polyline per predictor with a shaded +-stderr band, labeled axes, and a
legend. Rows of several experiments (dist-shift's noise levels) draw one
polyline per experiment and predictor, labeled "<experiment> <predictor>".
Series are drawn by experiment, then mop first, then by name, whatever the
row order, so ratio mode divides the model's curve by the baseline's.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

__all__ = ["render_curves", "render_from_rows"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 28, 48
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
TICKS = 5                            # tick intervals an axis aims for


def _nice_ticks(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-9 * step:
        ticks.append(round(v, 10))
        v += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_from_rows(rows, ratio=False, title=None) -> str:
    """Build the SVG text from CSV rows (dicts with predictor, t, mean_err,
    stderr, and optionally experiment). Every mean_err and stderr must be
    finite, and in ratio mode exactly two series are required."""
    series = {}
    for row in rows:
        name = row["predictor"]
        point = (int(row["t"]), float(row["mean_err"]), float(row["stderr"]))
        if not all(map(math.isfinite, point[1:])):
            raise ValueError(f"predictor {name!r} at t={point[0]} has a non-finite "
                             f"mean_err or stderr ({point[1]}, {point[2]})")
        series.setdefault((row.get("experiment", ""), name), []).append(point)
    for pts in series.values():
        pts.sort(key=lambda p: p[0])
    several = len({experiment for experiment, _ in series}) > 1
    series = {f"{e} {p}" if several else p: series[e, p]
              for e, p in sorted(series, key=lambda k: (k[0], k[1] != "mop", k[1]))}
    if ratio:
        if len(series) != 2:
            raise ValueError(f"ratio plot needs exactly 2 predictors, got {len(series)}")
        (num_name, num), (den_name, den) = series.items()
        pts = []
        for (t1, m1, _), (t2, m2, _) in zip(num, den):
            if t1 == t2 and m2 > 1e-12:
                pts.append((t1, m1 / m2, 0.0))
        series = {f"{num_name}/{den_name}": pts}
        ylabel = "error ratio"
    else:
        ylabel = "mean prediction error"
    return render_curves(series, ylabel=ylabel, title=title,
                         refline=1.0 if ratio else None)


def render_curves(series: dict, ylabel="mean prediction error", title=None,
                  refline=None) -> str:
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] + p[2] for pts in series.values() for p in pts]
    ys += [max(p[1] - p[2], 0.0) for pts in series.values() for p in pts]
    if not xs:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.05
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    if refline is not None:
        y_hi = max(y_hi, refline * 1.2)

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return MARGIN_T + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{escape(title)}</text>')

    # axes + ticks
    axis = (f'M {MARGIN_L} {MARGIN_T} L {MARGIN_L} {MARGIN_T + ph} '
            f'L {MARGIN_L + pw} {MARGIN_T + ph}')
    parts.append(f'<path d="{axis}" stroke="black" fill="none" stroke-width="1"/>')
    for x in _nice_ticks(x_lo, x_hi):
        px = sx(x)
        parts.append(f'<line x1="{px:.1f}" y1="{MARGIN_T + ph}" x2="{px:.1f}" '
                     f'y2="{MARGIN_T + ph + 4}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{MARGIN_T + ph + 17}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_fmt(x)}</text>')
    for y in _nice_ticks(y_lo, y_hi):
        py = sy(y)
        parts.append(f'<line x1="{MARGIN_L - 4}" y1="{py:.1f}" x2="{MARGIN_L}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 7}" y="{py + 3.5:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{_fmt(y)}</text>')
    parts.append(f'<text x="{MARGIN_L + pw / 2}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">t</text>')
    parts.append(f'<text x="16" y="{MARGIN_T + ph / 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {MARGIN_T + ph / 2})">'
                 f'{escape(ylabel)}</text>')

    if refline is not None:
        py = sy(refline)
        parts.append(f'<line x1="{MARGIN_L}" y1="{py:.1f}" x2="{MARGIN_L + pw}" '
                     f'y2="{py:.1f}" stroke="#999" stroke-dasharray="4 3"/>')

    for ci, (name, pts) in enumerate(series.items()):
        color = PALETTE[ci % len(PALETTE)]
        if any(p[2] > 0 for p in pts) and len(pts) > 1:
            upper = [(sx(t), sy(m + s)) for t, m, s in pts]
            lower = [(sx(t), sy(max(m - s, 0.0))) for t, m, s in reversed(pts)]
            band = " ".join(f"{x:.1f},{y:.1f}" for x, y in upper + lower)
            parts.append(f'<polygon points="{band}" fill="{color}" '
                         f'opacity="0.15" stroke="none"/>')
        if len(pts) == 1:
            t, m, _ = pts[0]
            parts.append(f'<circle cx="{sx(t):.1f}" cy="{sy(m):.1f}" r="3.5" '
                         f'fill="{color}"/>')
        else:
            line = " ".join(f"{sx(t):.1f},{sy(m):.1f}" for t, m, _ in pts)
            parts.append(f'<polyline points="{line}" fill="none" '
                         f'stroke="{color}" stroke-width="1.6"/>')
        ly = MARGIN_T + 12 + 16 * ci
        lx = MARGIN_L + pw - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{escape(name)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
