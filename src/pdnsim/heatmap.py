"""Byte-deterministic SVG heatmap of a tile grid.

One rectangle per tile, linear color scale from the map minimum (blue) to
the maximum (red), with the range annotated in mV.  All numbers are
formatted with fixed precision so identical inputs give identical bytes.
"""

from __future__ import annotations

_CELL = 12          # px per tile
_LEGEND_H = 26


def _color(frac):
    """Linear blue -> red through white."""
    frac = min(1.0, max(0.0, frac))
    if frac < 0.5:
        t = frac / 0.5
        r, g, b = int(255 * t), int(255 * t), 255
    else:
        t = (frac - 0.5) / 0.5
        r, g, b = 255, int(255 * (1 - t)), int(255 * (1 - t))
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap_svg(values, title="IR drop", unit="mV") -> str:
    """Render a 2-D array (row index = y) as an SVG string."""
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty map")
    ny, nx = arr.shape
    vmin, vmax = float(arr.min()), float(arr.max())
    span = vmax - vmin

    w, h = nx * _CELL, ny * _CELL + _LEGEND_H
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
    ]
    for j in range(ny):
        for i in range(nx):
            frac = 0.5 if span == 0.0 else (arr[j, i] - vmin) / span
            out.append(
                f'<rect x="{i * _CELL}" y="{j * _CELL}" width="{_CELL}" '
                f'height="{_CELL}" fill="{_color(frac)}"/>'
            )
    legend = f"{title}: {vmin:.3f}–{vmax:.3f} {unit}"
    out.append(
        f'<text x="2" y="{ny * _CELL + 18}" font-family="monospace" '
        f'font-size="12">{legend}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"

