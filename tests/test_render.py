"""Tests for the SVG explanation renderings."""

from gaborboost.render import importance_bars_svg, pair_heatmap_svg, write_explanation_svgs


def test_importance_bars_contain_terms_and_scale():
    svg = importance_bars_svg([["q_tl", 2.0], ["y<star>", 1.0]], "demo")
    assert svg.startswith("<svg")
    assert svg.count("<rect") == 2
    assert "q_tl" in svg
    assert "y&lt;star&gt;" in svg  # markup in names must be escaped
    assert 'width="180.0"' in svg  # top term spans the full bar width


def test_importance_bars_empty_ranking():
    svg = importance_bars_svg([], "nothing")
    assert svg.startswith("<svg")
    assert "<rect" not in svg


def test_pair_heatmap_colors_by_sign():
    grid = [[1.0, -1.0], [0.0, 0.5]]
    svg = pair_heatmap_svg(grid, ["a", "b"], "a x b")
    assert svg.count("<rect") == 4
    assert "#ff0000" in svg  # strongest positive is pure red
    assert "#0000ff" in svg  # strongest negative is pure blue
    assert "#ffffff" in svg  # zero stays white


def test_pair_heatmap_all_zero_grid_is_white():
    svg = pair_heatmap_svg([[0.0, 0.0], [0.0, -0.0]], ["a", "b"], "flat")
    assert svg.count('fill="#ffffff"') == 4

def test_write_explanation_svgs_per_class(tmp_path):
    bundle = {
        "classes": ["a", "b"],
        "per_class": {
            "a": {"importances": [["q_tl", 1.0]], "shapes": [], "pairs": []},
            "b": {
                "importances": [["q_tl", 0.5]],
                "shapes": [],
                "pairs": [
                    {"features": ["q_tl", "q_tr"], "cuts_i": [], "cuts_j": [],
                     "grid": [[0.0, 1.0], [-1.0, 0.0]]}
                ],
            },
        },
    }
    written = write_explanation_svgs(bundle, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["importance_0.svg", "importance_1.svg", "pair_1_0.svg"]
    for path in written:
        assert path.read_text().startswith("<svg")
    assert "importances: b" in (tmp_path / "importance_1.svg").read_text()
