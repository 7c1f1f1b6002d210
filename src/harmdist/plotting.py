"""Plot-data emission: images of circles/rays as SVG polylines and raw CSV."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .harmonic import HarmonicMap, as_harmonic
from .verifier import write_float_csv


def image_polylines(
    f: HarmonicMap,
    circles: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    rays: int = 12,
    samples: int = 256,
) -> list[tuple[str, np.ndarray]]:
    """Images under f of concentric circles and radial segments."""
    f = as_harmonic(f)
    r_cap = min(0.95, f.reliable_radius * 0.999)
    out = []
    th = np.linspace(0.0, 2.0 * np.pi, samples)
    for r in circles:
        r = min(r, r_cap)
        out.append((f"circle-{r:g}", np.asarray(f(r * np.exp(1j * th)))))
    t = np.linspace(0.0, max(circles[-1] if circles else 0.9, 0.9), samples)
    t = np.minimum(t, r_cap)
    for k in range(rays):
        ang = 2.0 * np.pi * k / rays
        out.append((f"ray-{k}", np.asarray(f(t * np.exp(1j * ang)))))
    return out


def write_polylines_svg(
    polylines: list[tuple[str, np.ndarray]], path: str | Path, size: int = 640
) -> None:
    pts = np.concatenate([p for _, p in polylines])
    lo_x, hi_x = pts.real.min(), pts.real.max()
    lo_y, hi_y = pts.imag.min(), pts.imag.max()
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-12)
    pad = 0.05 * span
    scale = (size - 2) / (span + 2 * pad)

    def xy(p):
        x = (p.real - lo_x + pad) * scale + 1
        y = size - ((p.imag - lo_y + pad) * scale + 1)  # flip: SVG y grows down
        return x, y

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for name, p in polylines:
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in (xy(q) for q in p))
        color = "#1f77b4" if name.startswith("circle") else "#d62728"
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1" '
            f'data-name="{name}" points="{coords}"/>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")


def write_polylines_csv(
    polylines: list[tuple[str, np.ndarray]], path: str | Path
) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["curve", "index", "re", "im"])
        for name, p in polylines:
            for i, q in enumerate(p):
                w.writerow([name, i, repr(float(q.real)), repr(float(q.imag))])


def write_margin_scatter_csv(report, path: str | Path) -> None:
    """rho vs signed margins, from a BoundReport's per-pair table."""
    write_float_csv(path, report.table, ["rho", "lower_margin", "upper_margin"])
