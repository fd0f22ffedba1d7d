"""Self-contained SVG charts for the metric CSVs: learning curves, the
penalty-vs-queue trade-off cloud with its per-V mean line, and queue-length
timelines. No plotting dependency; every marker is one <circle>, every series
one <polyline>, which keeps the output byte-deterministic and easy to check.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .harness import sweep_means

WIDTH, HEIGHT = 640, 480
MARGIN = 60
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


class PlotError(ValueError):
    """Malformed plot input; message carries the offending line number."""


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _scale(values, lo, hi, out_lo, out_hi):
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    span = hi - lo
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def render_chart(series, path, title, xlabel, ylabel) -> None:
    """series: list of dicts with keys x, y (lists), kind ('line'|'scatter'),
    and optional label. Empty series render as bare axes."""
    x0, x1 = MARGIN, WIDTH - MARGIN
    y0, y1 = HEIGHT - MARGIN, MARGIN

    xs = [v for s in series for v in s["x"]]
    ys = [v for s in series for v in s["y"]]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="30" text-anchor="middle" '
        f'font-size="16">{title}</text>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 15}" '
        f'text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 18 {HEIGHT // 2})">'
        f'{ylabel}</text>',
    ]

    if xs and ys:
        xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)
        for tick_val, px in ((xlo, x0), (xhi, x1)):
            parts.append(f'<text x="{px}" y="{y0 + 18}" text-anchor="middle" '
                         f'font-size="10">{tick_val:.4g}</text>')
        for tick_val, py in ((ylo, y0), (yhi, y1)):
            parts.append(f'<text x="{x0 - 6}" y="{py + 4}" text-anchor="end" '
                         f'font-size="10">{tick_val:.4g}</text>')
        for idx, s in enumerate(series):
            color = s.get("color", PALETTE[idx % len(PALETTE)])
            px = _scale(s["x"], xlo, xhi, x0, x1)
            py = _scale(s["y"], ylo, yhi, y0, y1)
            if s.get("kind", "line") == "scatter":
                for cx, cy in zip(px, py):
                    parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4" '
                                 f'fill="{color}" fill-opacity="0.6"/>')
            else:
                pts = " ".join(f"{_fmt(cx)},{_fmt(cy)}" for cx, cy in zip(px, py))
                parts.append(f'<polyline points="{pts}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
            if s.get("label"):
                ly = y1 + 16 * idx
                parts.append(f'<text x="{x1 - 120}" y="{ly}" font-size="11" '
                             f'fill="{color}">{s["label"]}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _read_csv(path):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise PlotError(f"{path}: line 1: empty file") from None
        rows = list(reader)
    return header, rows


def _column(header, rows, name, path):
    try:
        idx = header.index(name)
    except ValueError:
        raise PlotError(f"{path}: line 1: missing column {name!r}") from None
    out = []
    for k, row in enumerate(rows):
        cell = row[idx] if idx < len(row) else ""
        if cell == "":
            out.append(None)
            continue
        try:
            out.append(float(cell))
        except ValueError:
            raise PlotError(
                f"{path}: line {k + 2}: bad value {cell!r} in column {name!r}"
            ) from None
    return out


def plot_learning_curve(csv_path, out_svg) -> None:
    header, rows = _read_csv(csv_path)
    steps = _column(header, rows, "steps", csv_path)
    reward = _column(header, rows, "reward_sum", csv_path)
    pts = [(s, r) for s, r in zip(steps, reward) if s is not None and r is not None]
    series = []
    if pts:
        series.append({"x": [p[0] for p in pts], "y": [p[1] for p in pts],
                       "kind": "line"})
    render_chart(series, out_svg, title="Evaluation reward over training",
                 xlabel="training steps", ylabel="episode reward sum")


def plot_tradeoff(csv_path, out_svg) -> None:
    header, rows = _read_csv(csv_path)
    V = _column(header, rows, "V", csv_path)
    q = _column(header, rows, "avg_queue", csv_path)
    p = _column(header, rows, "avg_penalty", csv_path)
    means = sweep_means({"V": vv, "avg_queue": qq, "avg_penalty": pp}
                        for vv, qq, pp in zip(V, q, p))
    series = []
    if means:
        ok = [(qq, pp) for qq, pp in zip(q, p) if qq is not None and pp is not None]
        series.append({"x": [r[0] for r in ok], "y": [r[1] for r in ok],
                       "kind": "scatter", "label": "episodes"})
        series.append({"x": [m["avg_queue"] for m in means],
                       "y": [m["avg_penalty"] for m in means],
                       "kind": "line", "label": "per-V mean", "color": "#d62728"})
    render_chart(series, out_svg, title="Penalty vs queue length trade-off",
                 xlabel="average episode queue length (bits)",
                 ylabel="average episode penalty")


def plot_queue_timeline(csv_path, out_svg) -> None:
    header, rows = _read_csv(csv_path)
    t = _column(header, rows, "t", csv_path)
    q_cols = [c for c in header if c.startswith("q_")]
    if not q_cols:
        raise PlotError(f"{csv_path}: line 1: no q_i columns")
    totals = None
    for c in q_cols:
        col = _column(header, rows, c, csv_path)
        totals = col if totals is None else [a + b for a, b in zip(totals, col)]
    series = []
    if t:
        series.append({"x": t, "y": totals, "kind": "line"})
    render_chart(series, out_svg, title="Total queue length over time",
                 xlabel="slot", ylabel="sum of queue lengths (bits)")


def emit_plots(csv_paths, out_dir) -> list[Path]:
    """Render each CSV to an SVG next to it (in out_dir unless that is None),
    picking the chart type from the header."""
    outputs = []
    for csv_path in csv_paths:
        csv_path = Path(csv_path)
        out = (Path(out_dir) if out_dir else csv_path.parent) / (csv_path.stem + ".svg")
        header, _ = _read_csv(csv_path)
        if "steps" in header and "reward_sum" in header:
            plot_learning_curve(csv_path, out)
        elif "avg_queue" in header and "avg_penalty" in header and "V" in header:
            plot_tradeoff(csv_path, out)
        elif "t" in header and any(c.startswith("q_") for c in header):
            plot_queue_timeline(csv_path, out)
        else:
            raise PlotError(f"{csv_path}: line 1: unrecognized schema {header}")
        outputs.append(out)
    return outputs
