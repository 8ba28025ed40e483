"""SVG rendering of error-curve rows: deterministic output, the ratio view,
single-point series and empty input."""

import numpy as np
import pytest

from moplab import svgplot


def curve_rows(predictors=("mop", "kf"), horizon=6):
    return [{"predictor": kind, "t": str(t), "mean_err": str(0.5 + 0.1 * k + 0.05 * t),
             "stderr": str(0.01 * (t + 1))}
            for k, kind in enumerate(predictors) for t in range(horizon)]


@pytest.mark.parametrize("ratio", [False, True])
def test_output_is_byte_identical_under_a_shuffled_row_order(ratio):
    rows = curve_rows()
    # fully shuffled, with a baseline row first: mop still takes the first
    # colour and is the ratio's numerator
    shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    shuffled.sort(key=lambda row: row["predictor"] == "mop")
    assert shuffled[0]["predictor"] == "kf"
    svg = svgplot.render_from_rows(shuffled, ratio=ratio, title="t")
    assert svg == svgplot.render_from_rows(rows, ratio=ratio, title="t")
    assert (">mop/kf</text>" in svg) == ratio


def test_curves_are_drawn_mop_first_then_by_name():
    svg = svgplot.render_from_rows(curve_rows(predictors=("kf", "ar-ols", "mop")))
    legend = [svg.index(f">{name}</text>") for name in ("mop", "ar-ols", "kf")]
    assert legend == sorted(legend)


def test_ratio_mode_draws_the_dashed_line_at_one_and_labels_the_series():
    svg = svgplot.render_from_rows(curve_rows(), ratio=True)
    dashed = [line for line in svg.splitlines() if "stroke-dasharray" in line]
    assert len(dashed) == 1
    # the ratios stay below 1, so the y range is [0, 1.2] and 1 sits at 5/6
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B
    y_one = f'{svgplot.MARGIN_T + plot_h - plot_h / 1.2:.1f}'
    assert f'y1="{y_one}"' in dashed[0] and f'y2="{y_one}"' in dashed[0]
    assert ">mop/kf</text>" in svg
    assert ">mop</text>" not in svg and ">kf</text>" not in svg
    assert "error ratio" in svg


def test_curves_mode_draws_no_reference_line():
    svg = svgplot.render_from_rows(curve_rows())
    assert "stroke-dasharray" not in svg
    assert ">mop</text>" in svg and ">kf</text>" in svg


def test_one_point_series_draws_a_circle():
    svg = svgplot.render_from_rows(curve_rows(predictors=("kf",), horizon=1))
    assert svg.count("<circle") == 1
    assert "<polyline" not in svg


def test_empty_series_raises():
    with pytest.raises(ValueError, match="nothing to plot"):
        svgplot.render_curves({"kf": []})
    with pytest.raises(ValueError, match="nothing to plot"):
        svgplot.render_from_rows([])
