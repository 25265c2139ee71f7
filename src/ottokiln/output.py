"""File emission: CSVs, gnuplot-style .dat twins, and minimal SVG charts.

All numeric output is printed as "%.12g", with "-0" as "0", so repeated
runs with the same configuration are byte-identical; each series is
formatted in one block, one column at a time, and a time series'
populations once per distinct row.  Undefined efficiencies are
written as "nan", never as a large float.  SVG charts are rendered from the
already-written numeric series and never feed back into them.
"""

import math

import numpy as np

from .analysis import cycle_power, efficiency_or_nan
from .exceptions import OttoKilnError


def fmt(value):
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if value == 0:
        return "0"
    return format(value, ".12g")


def _format_column(values):
    """One series as fmt() prints it, one string per entry.

    Each distinct value is formatted once: ramps repeat the populations of
    every sample, and a converged run repeats its cycle bit for bit.
    """
    col = np.asarray(values, dtype=float) + 0.0  # -0.0 becomes 0.0, printed "0"
    distinct, where = np.unique(col, return_inverse=True)
    text = (("%.12g\n" * distinct.size) % tuple(distinct.tolist())).split("\n")[:-1]
    return np.array(text, dtype=object)[where].tolist()


def _format_rows(block):
    """Each row of a 2-D block as its fmt() entries joined by commas.

    Each distinct row (bit for bit, after -0.0 becomes 0.0) is formatted and
    joined once: ramps repeat one population row for every sample, and
    copied cycles repeat every row of the cycle they copy.
    """
    block = np.ascontiguousarray(block, dtype=float) + 0.0
    if not block.shape[0]:
        return []
    rows = block.view(np.dtype((np.void, block.itemsize * block.shape[1]))).ravel()
    _, first, where = np.unique(rows, return_index=True, return_inverse=True)
    entries = _format_column(block[first].ravel())
    text = list(map(",".join, zip(*[iter(entries)] * block.shape[1])))  # one string per distinct row
    return np.array(text, dtype=object)[where].tolist()


def write_timeseries_csv(path, trace, csv_levels=8):
    """t, omega, U, S, stroke, total probability, first csv_levels populations."""
    k = min(csv_levels, trace.probs.shape[1]) if trace.probs.size else csv_levels
    header = ["t", "omega", "U", "S", "stroke", "p_sum"] + [f"P_{n}" for n in range(k)]
    p_sum = trace.probs.sum(axis=1)
    bad = np.flatnonzero(abs(p_sum - 1.0) > 1e-9)
    if bad.size:
        i = int(bad[0])
        raise OttoKilnError(f"trace row {i} carries probability sum {float(p_sum[i])!r}")
    columns = [_format_column(s) for s in (trace.times, trace.omegas, trace.energies, trace.entropies)]
    columns += [trace.stroke_labels, _format_column(p_sum), _format_rows(trace.probs[:, :k])]
    _write_table(path, header, columns)


def write_wide_timeseries_csv(path, trace):
    """Full-distribution twin of the time series (every ladder level)."""
    n = trace.probs.shape[1] if trace.probs.size else 0
    header = ["t", "omega", "U", "S", "stroke"] + [f"P_{level}" for level in range(n)]
    columns = [_format_column(s) for s in (trace.times, trace.omegas, trace.energies, trace.entropies)]
    columns += [trace.stroke_labels, _format_rows(trace.probs)]
    _write_table(path, header, columns)


def write_cycles_csv(path, trace):
    header = ["cycle", "q_in", "q_out", "w_out", "w_in", "w_eff", "q_pump",
              "q_pump_gross", "efficiency", "power", "a_shift_tv"]
    records = trace.records
    columns = [_format_column([r.cycle_index + 1 for r in records])]
    columns += [_format_column([getattr(r, name) for r in records]) for name in header[1:8]]
    columns += [_format_column([efficiency_or_nan(r) for r in records]),
                _format_column([cycle_power(r, trace.cycle_time) for r in records]),
                _format_column(trace.a_shift_tv)]
    _write_table(path, header, columns)


def write_sweep_csv(path, sweep):
    header = ["t_h", "ratio", "efficiency", "power"]
    _write_table(path, header, [_format_column(getattr(sweep, name)) for name in header])


def write_dat(path, columns, series):
    """Whitespace-separated twin of a chart's series for gnuplot-style tools."""
    _write_table(path, ["#", *columns], [_format_column(s) for s in series], sep=" ")


def _write_table(path, header, columns, sep=","):
    """The header line, then one line per row of the formatted columns."""
    lines = [sep.join(header)]
    lines += map(sep.join, zip(*columns))
    lines.append("")  # ends the text with a newline without copying it
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines))


def write_svg_chart(path, x, y, title, x_label, y_label, width=720, height=420):
    """Single-polyline SVG chart; finite points only."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], y[keep]
    if x.size < 2:
        raise OttoKilnError("an SVG chart needs at least two finite points")
    pad_l, pad_r, pad_t, pad_b = 72, 24, 36, 48
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return pad_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return pad_t + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    pixels = np.column_stack((sx(x), sy(y))).ravel()  # x0, y0, x1, y1, ...
    points = " ".join(["%.2f,%.2f"] * x.size) % tuple(pixels.tolist())
    tick_labels = []
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        tick_labels.append(
            f'<text x="{sx(xv):.2f}" y="{height - pad_b + 18}" text-anchor="middle" '
            f'font-size="11">{fmt(xv)}</text>'
        )
        tick_labels.append(
            f'<text x="{pad_l - 8}" y="{sy(yv) + 4:.2f}" text-anchor="end" '
            f'font-size="11">{fmt(yv)}</text>'
        )
    svg = f"""<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">
<rect width="{width}" height="{height}" fill="white"/>
<text x="{width / 2}" y="22" text-anchor="middle" font-size="14">{title}</text>
<rect x="{pad_l}" y="{pad_t}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#999"/>
{chr(10).join(tick_labels)}
<text x="{pad_l + plot_w / 2}" y="{height - 12}" text-anchor="middle" font-size="12">{x_label}</text>
<text x="18" y="{pad_t + plot_h / 2}" text-anchor="middle" font-size="12" transform="rotate(-90 18 {pad_t + plot_h / 2})">{y_label}</text>
<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>
</svg>
"""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(svg)
