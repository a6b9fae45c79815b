"""Minimal SVG renderings for explanation bundles.

Pure string assembly so output is deterministic; no plotting library.
"""

from __future__ import annotations

from pathlib import Path

BAR_HEIGHT = 18
BAR_GAP = 6
LABEL_WIDTH = 180
CHART_WIDTH = 420
CELL = 14


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def importance_bars_svg(ranking: list[list], title: str) -> str:
    """Horizontal bar chart for a [[term, importance], ...] ranking."""
    top = max((v for _, v in ranking), default=0.0)
    rows = []
    for n, (term, value) in enumerate(ranking):
        y = 40 + n * (BAR_HEIGHT + BAR_GAP)
        width = 0 if top == 0 else (value / top) * (CHART_WIDTH - LABEL_WIDTH - 60)
        rows.append(
            f'<text x="{LABEL_WIDTH - 6}" y="{y + 13}" text-anchor="end" '
            f'font-size="12">{_esc(str(term))}</text>'
        )
        rows.append(
            f'<rect x="{LABEL_WIDTH}" y="{y}" width="{width:.1f}" '
            f'height="{BAR_HEIGHT}" fill="#4878a8"/>'
        )
        rows.append(
            f'<text x="{LABEL_WIDTH + width + 4:.1f}" y="{y + 13}" '
            f'font-size="11">{value:.4g}</text>'
        )
    height = 50 + len(ranking) * (BAR_HEIGHT + BAR_GAP)
    body = "\n".join(rows)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CHART_WIDTH}" height="{height}">\n'
        f'<text x="10" y="20" font-size="14" font-weight="bold">{_esc(title)}</text>\n'
        f"{body}\n</svg>\n"
    )


def _cell_color(value: float, extent: float) -> str:
    """Blue for negative, white for zero, red for positive scores."""
    if extent == 0:
        return "#ffffff"
    t = max(-1.0, min(1.0, value / extent))
    if t >= 0:
        other = round(255 * (1 - t))
        return f"#ff{other:02x}{other:02x}"
    other = round(255 * (1 + t))
    return f"#{other:02x}{other:02x}ff"


def pair_heatmap_svg(grid: list[list[float]], features: list[str], title: str) -> str:
    """Score heatmap for one pair term's bin-pair grid."""
    n_rows = len(grid)
    n_cols = len(grid[0]) if n_rows else 0
    extent = max((abs(v) for row in grid for v in row), default=0.0)
    cells = []
    for r, row in enumerate(grid):
        for c, value in enumerate(row):
            cells.append(
                f'<rect x="{60 + c * CELL}" y="{40 + r * CELL}" width="{CELL}" '
                f'height="{CELL}" fill="{_cell_color(value, extent)}" '
                f'stroke="#cccccc" stroke-width="0.5"/>'
            )
    width = 80 + n_cols * CELL
    height = 80 + n_rows * CELL
    label_x = _esc(features[1] if len(features) > 1 else "")
    label_y = _esc(features[0] if features else "")
    body = "\n".join(cells)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<text x="10" y="20" font-size="14" font-weight="bold">{_esc(title)}</text>\n'
        f'<text x="60" y="{height - 10}" font-size="11">{label_x} (bins)</text>\n'
        f'<text x="10" y="38" font-size="11">{label_y}</text>\n'
        f"{body}\n</svg>\n"
    )


def write_explanation_svgs(bundle: dict, out_dir: str | Path) -> list[Path]:
    """Emit a bar chart and pair heatmaps per class of an explanation bundle.

    Files are named by the class's index k in ``bundle["classes"]``, so a
    label never becomes a path: ``importance_<k>.svg`` and
    ``pair_<k>_<n>.svg`` for the class's n-th pair.  Titles carry the label.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for k, name in enumerate(bundle["classes"]):
        entry = bundle["per_class"][name]
        path = out / f"importance_{k}.svg"
        path.write_text(importance_bars_svg(entry["importances"], f"importances: {name}"))
        written.append(path)
        for n, pair in enumerate(entry.get("pairs", [])):
            ppath = out / f"pair_{k}_{n}.svg"
            title = f"{name}: {pair['features'][0]} x {pair['features'][1]}"
            ppath.write_text(pair_heatmap_svg(pair["grid"], pair["features"], title))
            written.append(ppath)
    return written
