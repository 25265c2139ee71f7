"""File emission: CSVs, gnuplot-style .dat twins, and minimal SVG charts.

All numeric output is printed as "%.12g", with "-0" as "0", so repeated
runs with the same configuration are byte-identical.  Each series of a
command is formatted once, in one block, and every file that prints it
reuses those strings: a CSV and its .dat twin, or the narrow and the wide
time series.  A time series' populations are formatted once per distinct
row.  Undefined efficiencies are written as "nan", never as a large float.
SVG charts are rendered from the numeric series and never feed back into
them.
"""

import math

import numpy as np

from .analysis import cycle_power, efficiency_or_nan
from .exceptions import OttoKilnError

CYCLE_COLUMNS = ("cycle", "q_in", "q_out", "w_out", "w_in", "w_eff", "q_pump",
                 "q_pump_gross", "efficiency", "power", "a_shift_tv")
SWEEP_CSV_COLUMNS = ("t_h", "ratio", "efficiency", "power")


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


class SeriesText:
    """Named series of one command as fmt() prints them.

    Each series is formatted at its first use, inside the writer of the
    first file that prints it; every later file reuses the same strings.
    """

    def __init__(self, values):
        self.values = values  # name -> numbers
        self._text = {}

    def __getitem__(self, name):
        text = self._text.get(name)
        if text is None:
            text = self._text[name] = _format_column(self.values[name])
        return text


def sweep_text(sweep):
    """The sweep.csv columns of a Sweep, shared with its eta_power .dat twins."""
    return SeriesText({name: getattr(sweep, name) for name in SWEEP_CSV_COLUMNS})


class TraceText(SeriesText):
    """The series of one engine run: time series and cycle ledger columns,
    and the population rows.

    The populations are formatted once per distinct row (bit for bit, after
    -0.0 becomes 0.0): ramps repeat one population row for every sample, and
    copied cycles repeat every row of the cycle they copy.  Each distinct row
    holds every level when the wide file is written, else the csv_levels the
    narrow file prints; narrower rows are prefixes of the same entries.
    """

    def __init__(self, trace, csv_levels=8, wide=False):
        records = trace.records
        super().__init__({
            "t": trace.times, "omega": trace.omegas, "U": trace.energies, "S": trace.entropies,
            "cycle": [r.cycle_index + 1 for r in records],
            **{name: [getattr(r, name) for r in records] for name in CYCLE_COLUMNS[1:8]},
            "efficiency": [efficiency_or_nan(r) for r in records],
            "power": [cycle_power(r, trace.cycle_time) for r in records],
            "a_shift_tv": trace.a_shift_tv,
        })
        self.trace = trace
        self.levels = trace.probs.shape[1] if trace.probs.size else 0
        self.csv_levels = min(csv_levels, self.levels) if self.levels else csv_levels
        self._row_levels = self.levels if wide else self.csv_levels
        self._rows = None  # (distinct rows joined by commas, row -> distinct row)

    def population_rows(self, levels):
        """Each trace row's first `levels` populations, joined by commas."""
        if not self.levels:
            return []
        if levels > self._row_levels:
            raise ValueError(f"{levels} population levels asked, {self._row_levels} formatted")
        if self._rows is None:
            block = np.ascontiguousarray(self.trace.probs[:, :self._row_levels], dtype=float) + 0.0
            rows = block.view(np.dtype((np.void, block.itemsize * block.shape[1]))).ravel()
            _, first, where = np.unique(rows, return_index=True, return_inverse=True)
            entries = _format_column(block[first].ravel())
            # only the joined rows are kept: every entry as its own string would
            # hold several times their memory until the last file is written
            self._rows = list(map(",".join, zip(*[iter(entries)] * block.shape[1]))), where
        text, where = self._rows
        if levels < self._row_levels:
            text = [",".join(row.split(",", levels)[:levels]) for row in text]
        return np.array(text, dtype=object)[where].tolist()


def write_timeseries_csv(path, text):
    """t, omega, U, S, stroke, total probability, first csv_levels populations."""
    trace, k = text.trace, text.csv_levels
    header = ["t", "omega", "U", "S", "stroke", "p_sum"] + [f"P_{n}" for n in range(k)]
    p_sum = trace.probs.sum(axis=1)
    bad = np.flatnonzero(abs(p_sum - 1.0) > 1e-9)
    if bad.size:
        i = int(bad[0])
        raise OttoKilnError(f"trace row {i} carries probability sum {float(p_sum[i])!r}")
    columns = [text[name] for name in ("t", "omega", "U", "S")]
    columns += [trace.stroke_labels, _format_column(p_sum), text.population_rows(k)]
    _write_table(path, header, columns)


def write_wide_timeseries_csv(path, text):
    """Full-distribution twin of the time series (every ladder level)."""
    n = text.levels
    header = ["t", "omega", "U", "S", "stroke"] + [f"P_{level}" for level in range(n)]
    columns = [text[name] for name in ("t", "omega", "U", "S")]
    columns += [text.trace.stroke_labels, text.population_rows(n)]
    _write_table(path, header, columns)


def write_cycles_csv(path, text):
    _write_table(path, CYCLE_COLUMNS, [text[name] for name in CYCLE_COLUMNS])


def write_sweep_csv(path, text):
    _write_table(path, SWEEP_CSV_COLUMNS, [text[name] for name in SWEEP_CSV_COLUMNS])


def write_dat(path, text, columns, rows=slice(None)):
    """Whitespace-separated twin of a chart's series for gnuplot-style tools:
    the given rows of the named columns of a SeriesText."""
    _write_table(path, ["#", *columns], [text[name][rows] for name in columns], sep=" ")


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
