"""Tiny dependency-free SVG chart renderer: each command-line plot is returned as its text."""

from __future__ import annotations

import math

import numpy as np

_WIDTH = 640
_HEIGHT = 420
#: Most heatmap cells a side: ``heat_blocks`` averages blocks down to at most this.
_HEAT_CELLS = 220
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 50
_COLORS = ("#1f6fb4", "#c23b22", "#2e8b57")
#: Every chart's first two lines: the canvas and its white background.
_HEADER = (
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
    f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>'
)


def _fmt_tick(v: float) -> str:
    return f"{v:.3g}"


def _x_pix(x, lo, hi):
    return _MARGIN_L + (x - lo) / (hi - lo) * (_WIDTH - _MARGIN_L - _MARGIN_R)


def _y_pix(y, lo, hi):
    return _HEIGHT - _MARGIN_B - (y - lo) / (hi - lo) * (_HEIGHT - _MARGIN_T - _MARGIN_B)


def _axes(parts, x_lo, x_hi, y_lo, y_hi, x_label, y_label, title, y_tick_fmt=_fmt_tick):
    parts.append(
        f'\n<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_WIDTH - _MARGIN_L - _MARGIN_R}" '
        f'height="{_HEIGHT - _MARGIN_T - _MARGIN_B}" fill="none" stroke="#333"/>'
    )
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        px = _x_pix(fx, x_lo, x_hi)
        parts.append(
            f'\n<line x1="{px:.1f}" y1="{_HEIGHT - _MARGIN_B}" x2="{px:.1f}" '
            f'y2="{_HEIGHT - _MARGIN_B + 5}" stroke="#333"/>'
        )
        parts.append(
            f'\n<text x="{px:.1f}" y="{_HEIGHT - _MARGIN_B + 18}" font-size="11" '
            f'text-anchor="middle">{_fmt_tick(fx)}</text>'
        )
        fy = y_lo + (y_hi - y_lo) * i / 4
        py = _y_pix(fy, y_lo, y_hi)
        parts.append(
            f'\n<line x1="{_MARGIN_L - 5}" y1="{py:.1f}" x2="{_MARGIN_L}" y2="{py:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'\n<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" font-size="11" '
            f'text-anchor="end">{y_tick_fmt(fy)}</text>'
        )
    parts.append(
        f'\n<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2}" y="{_HEIGHT - 12}" '
        f'font-size="12" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'\n<text x="16" y="{(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2})">'
        f"{y_label}</text>"
    )
    parts.append(
        f'\n<text x="{_WIDTH / 2}" y="22" font-size="14" text-anchor="middle">{title}</text>'
    )


def line_chart(series, *, title, x_label, y_label, hline=None, log_y=False) -> str:
    """The text of a line chart. ``series`` is a list of (xs, ys, label) triples.

    With ``log_y`` the y axis is base-10 logarithmic and non-positive values
    are dropped from the plot.
    """
    cleaned = []
    for xs, ys, label in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if log_y:
            keep = ys > 0.0
            xs, ys = xs[keep], np.log10(ys[keep])
        if xs.size:
            cleaned.append((xs, ys, label))
    if cleaned:
        x_lo = min(float(xs.min()) for xs, _, _ in cleaned)
        x_hi = max(float(xs.max()) for xs, _, _ in cleaned)
        y_lo = min(float(ys.min()) for _, ys, _ in cleaned)
        y_hi = max(float(ys.max()) for _, ys, _ in cleaned)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if hline is not None and not log_y:
        y_lo = min(y_lo, hline)
        y_hi = max(y_hi, hline)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    parts = [_HEADER]
    tick = (lambda v: f"1e{v:.2g}") if log_y else _fmt_tick
    _axes(parts, x_lo, x_hi, y_lo, y_hi, x_label, y_label, title, y_tick_fmt=tick)
    if hline is not None and not log_y:
        py = _y_pix(hline, y_lo, y_hi)
        parts.append(
            f'\n<line x1="{_MARGIN_L}" y1="{py:.1f}" x2="{_WIDTH - _MARGIN_R}" y2="{py:.1f}" '
            f'stroke="#777" stroke-dasharray="6 4"/>'
        )
    for idx, (xs, ys, label) in enumerate(cleaned):
        color = _COLORS[idx % len(_COLORS)]
        # One %-format over the flat (x, y) pairs; "%.1f" % v is f"{v:.1f}".
        xy = np.column_stack((_x_pix(xs, x_lo, x_hi), _y_pix(ys, y_lo, y_hi))).ravel().tolist()
        points = " ".join(["%.1f,%.1f"] * xs.size) % tuple(xy)
        parts.append(
            f'\n<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.3"/>'
        )
        if label:
            parts.append(
                f'\n<text x="{_WIDTH - _MARGIN_R - 6}" y="{_MARGIN_T + 16 + 14 * idx}" '
                f'font-size="11" text-anchor="end" fill="{color}">{label}</text>'
            )
    parts.append("\n</svg>\n")
    return "".join(parts)


def heat_blocks(rows: int, cols: int):
    """Block means of a ``rows x cols`` field fed in one row at a time.

    Returns ``(means, add)``: ``add(t, start, values)`` sets row ``t`` to
    ``values`` from column ``start`` on and 0 elsewhere. Blocks are the
    smallest that leave at most ``_HEAT_CELLS`` a side; rows and columns that
    fill no block are dropped, and one block of rows is held at a time."""
    row_step, col_step = max(1, math.ceil(rows / _HEAT_CELLS)), max(1, math.ceil(cols / _HEAT_CELLS))
    means = np.zeros((rows // row_step, cols // col_step))
    block = np.zeros((row_step, cols))

    def add(t: int, start: int, values: np.ndarray) -> None:
        r, i = divmod(t, row_step)
        block[i] = 0.0
        block[i, start : start + len(values)] = values
        if i == row_step - 1 and r < len(means):
            blocks = block[:, : means.shape[1] * col_step].reshape(1, row_step, -1, col_step)
            means[r] = np.add.reduce(blocks, axis=(1, 3)) / (row_step * col_step)  # .mean(axis=(1, 3)) bit for bit

    return means, add


def heatmap(means, *, extent, x0, title, x_label, y_label) -> str:
    """The text of a space-time heatmap of the ``means`` that ``heat_blocks``
    took of an ``extent = (steps + 1, sites)`` field whose first site is ``x0``."""
    peak = float(means.max()) or 1.0
    # Square-root intensity keeps faint ballistic fronts visible next to the
    # bright localized column.
    shade = np.sqrt(means / peak)
    rows, cols = means.shape
    cell_w = (_WIDTH - _MARGIN_L - _MARGIN_R) / cols
    cell_h = (_HEIGHT - _MARGIN_T - _MARGIN_B) / rows
    # Each drawn cell is its column's head (opening a new line), its row's middle
    # and its colour's tail. Time increases upward, as in space-time diagrams.
    size = f'width="{cell_w + 0.3:.2f}" height="{cell_h + 0.3:.2f}"'
    heads = [f'\n<rect x="{_MARGIN_L + c * cell_w:.2f}" y="' for c in range(cols)]
    mids = [f'{_HEIGHT - _MARGIN_B - (r + 1) * cell_h:.2f}" {size} fill="rgb(' for r in range(rows)]
    drawn = shade > 0.0
    # np.rint rounds half to even, as round() does.
    rgb = np.rint(255.0 - np.array([[247.0], [207.0], [148.0]]) * shade[drawn]).astype(int)
    colours, which = np.unique(rgb[0] << 16 | rgb[1] << 8 | rgb[2], return_inverse=True)
    tails = [f'{c >> 16},{c >> 8 & 255},{c & 255})"/>' for c in colours.tolist()]
    table = np.array(heads + mids + tails, dtype=object)
    r_idx, c_idx = np.nonzero(drawn)
    parts = table[np.stack((c_idx, cols + r_idx, cols + rows + which), axis=1)].ravel().tolist()
    parts.insert(0, _HEADER)
    _axes(parts, x0, x0 + extent[1], 0, extent[0], x_label, y_label, title)
    parts.append("\n</svg>\n")
    return "".join(parts)
