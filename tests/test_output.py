"""Cross-check of the column-at-a-time output path against per-value fmt().

The writers format each series in one block; the reference below renders
the same files one value at a time through fmt(), row by row.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ottokiln import EngineConfig, OttoKilnError, Sweep, cycle, output, run_engine, sweep_efficiency_power
from ottokiln.analysis import SWEEP_COLUMNS, cycle_power, efficiency_or_nan
from ottokiln.cycle import EngineTrace
from ottokiln.output import (
    TraceText,
    _format_column,
    _format_rows,
    fmt,
    sweep_text,
    write_cycles_csv,
    write_dat,
    write_svg_chart,
    write_sweep_csv,
    write_timeseries_csv,
    write_wide_timeseries_csv,
)

EDGE_VALUES = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               1e-5, 1e-4, 1e12, 1e16, 123456789012.5, -123456789012.5, 1, 2, 20, 999]


def render(first_line, rows, sep=","):
    """Lines of the file, the empty string after the final newline included.

    Files are compared as lists of lines, so a mismatch reports the first
    differing line instead of diffing megabytes of text.
    """
    lines = [first_line] + [sep.join(v if isinstance(v, str) else fmt(v) for v in row)
                            for row in rows]
    return lines + [""]


def lines_of(path):
    return path.read_text().split("\n")


def test_column_formatter_matches_fmt_on_edge_values():
    values = EDGE_VALUES + EDGE_VALUES[::-1]  # every value twice, in both orders
    assert _format_column(values) == [fmt(v) for v in values]
    assert _format_column([-0.0]) == ["0"]
    assert _format_column([]) == []


@given(st.lists(st.floats() | st.integers(min_value=-10**6, max_value=10**6)
                | st.sampled_from(EDGE_VALUES)))
def test_column_formatter_matches_fmt_on_drawn_values(values):
    assert _format_column(values) == [fmt(v) for v in values]


def test_probability_guard_names_the_first_bad_row(tmp_path):
    probs = np.array([[1.0, 0.0], [0.5, 0.5 + 1e-10], [0.7, 0.2], [0.9, 0.2]])
    trace = EngineTrace(mode="otto", n_max=1, cycle_time=1.0, times=np.arange(4.0),
                        omegas=np.ones(4), energies=probs[:, 1], entropies=np.zeros(4),
                        rows=probs, row_index=np.arange(4), stroke_labels=["hot_isochore"] * 4)
    expected = f"trace row 2 carries probability sum {float(probs[2].sum())!r}"
    with pytest.raises(OttoKilnError, match=re.escape(expected)):
        write_timeseries_csv(tmp_path / "ts.csv", TraceText(trace))
    assert not (tmp_path / "ts.csv").exists()



def test_probability_guard_rejects_a_nan_row(tmp_path):
    probs = np.array([[1.0, 0.0], [np.nan, 0.5], [0.5, 0.5]])
    trace = EngineTrace(mode="otto", n_max=1, cycle_time=1.0, times=np.arange(3.0),
                        omegas=np.ones(3), energies=probs[:, 1], entropies=np.zeros(3),
                        rows=probs, row_index=np.arange(3), stroke_labels=["hot_isochore"] * 3)
    with pytest.raises(OttoKilnError, match=re.escape("trace row 1 carries probability sum nan")):
        write_timeseries_csv(tmp_path / "ts.csv", TraceText(trace))
    assert not (tmp_path / "ts.csv").exists()


@pytest.mark.parametrize("index,text", [
    (None, "trace series differ in length: times 2, omegas 2, energies 2, entropies 2, row_index 0, stroke_labels 2"),
    ([0, 2], "trace row_index reaches outside its 2 stored rows"),
    ([-1, 0], "trace row_index reaches outside its 2 stored rows"),
], ids=["rows-without-row-index", "past-the-last-row", "negative"])
def test_a_hand_built_trace_whose_rows_do_not_fit_its_samples_is_refused_where_it_is_built(tmp_path, index, text):
    probs = np.array([[1.0, 0.0], [0.5, 0.5]])
    fields = dict(mode="otto", n_max=1, cycle_time=1.0, times=np.arange(2.0), omegas=np.ones(2),
                  energies=probs[:, 1], entropies=np.zeros(2), rows=probs, stroke_labels=["hot_isochore"] * 2)
    if index is not None:
        fields["row_index"] = np.array(index)
    with pytest.raises(OttoKilnError, match=f"^{re.escape(text)}$"):
        write_timeseries_csv(tmp_path / "ts.csv", TraceText(EngineTrace(**fields)))
    assert list(tmp_path.iterdir()) == []

@pytest.fixture(scope="module", params=["simulate", "pump", "empty"])
def trace(request):
    config = {
        "simulate": EngineConfig(n_cycles=2),
        "pump": EngineConfig(mode="pump", n_cycles=2),
        "empty": EngineConfig(n_cycles=0),
    }[request.param]
    return run_engine(config)


def test_timeseries_writers_match_per_value_rendering(tmp_path, trace):
    n = trace.probs.shape[1]
    k = min(8, n) if trace.probs.size else 8
    rows = [[trace.times[i], trace.omegas[i], trace.energies[i], trace.entropies[i],
             trace.stroke_labels[i], float(trace.probs[i].sum()), *trace.probs[i, :k]]
            for i in range(trace.times.shape[0])]
    header = ["t", "omega", "U", "S", "stroke", "p_sum"] + [f"P_{j}" for j in range(k)]
    text = TraceText(trace)  # one text for both files, in either order
    write_timeseries_csv(tmp_path / "ts.csv", text)
    assert lines_of(tmp_path / "ts.csv") == render(",".join(header), rows)

    wide_rows = [[trace.times[i], trace.omegas[i], trace.energies[i], trace.entropies[i],
                  trace.stroke_labels[i], *trace.probs[i]] for i in range(trace.times.shape[0])]
    wide_header = ["t", "omega", "U", "S", "stroke"] + [f"P_{j}" for j in range(n)]
    write_wide_timeseries_csv(tmp_path / "wide.csv", text)
    assert lines_of(tmp_path / "wide.csv") == render(",".join(wide_header), wide_rows)
    write_timeseries_csv(tmp_path / "ts.csv", text)
    assert lines_of(tmp_path / "ts.csv") == render(",".join(header), rows)


def test_cycles_and_dat_writers_match_per_value_rendering(tmp_path, trace):
    rows = [[r.cycle_index + 1, r.q_in, r.q_out, r.w_out, r.w_in, r.w_eff, r.q_pump,
             r.q_pump_gross, efficiency_or_nan(r), cycle_power(r, trace.cycle_time), shift]
            for r, shift in zip(trace.records, trace.a_shift_tv)]
    header = "cycle,q_in,q_out,w_out,w_in,w_eff,q_pump,q_pump_gross,efficiency,power,a_shift_tv"
    text = TraceText(trace)
    write_cycles_csv(tmp_path / "cycles.csv", text)
    assert lines_of(tmp_path / "cycles.csv") == render(header, rows)

    write_dat(tmp_path / "u_t.dat", text, ["t", "U"])
    expected = render("# t U", zip(trace.times, trace.energies), sep=" ")
    assert lines_of(tmp_path / "u_t.dat") == expected


def concatenated_probs(cycles):
    """The population array as the trace was assembled before it stored rows:
    each segment's samples (a ramp's row broadcast over them), concatenated
    less the joint sample every segment but the first repeats."""
    probs = []
    for cycle_segments in cycles:
        for segment in cycle_segments:
            ramp = segment.label in ("expansion", "compression")
            assert len(segment.rows) == (1 if ramp else len(segment.times))
            samples = np.broadcast_to(segment.rows, (len(segment.times), segment.rows.shape[1]))
            probs.append(samples[1 if probs else 0:])
    return np.concatenate(probs) if probs else np.empty((0, 0))


def distinct_row_text(probs, levels):
    """Population text as it was printed before the trace stored rows: each
    row's first levels entries found once by np.unique over their bytes."""
    if not probs.size:
        return []
    block = np.ascontiguousarray(probs[:, :levels] + 0.0)
    rows = block.view(np.dtype((np.void, block.itemsize * levels))).ravel()
    _, first, where = np.unique(rows, return_index=True, return_inverse=True)
    return np.array(_format_rows(block[first]), dtype=object)[where].tolist()


@pytest.mark.parametrize("config", [
    EngineConfig(), EngineConfig(mode="pump"), EngineConfig(sample_stride=7),
    EngineConfig(tau=0.3), EngineConfig(n_cycles=0),
], ids=["otto", "pump", "stride-7", "tau-0.3-no-copies", "zero-cycles"])
def test_stored_rows_reproduce_the_concatenated_trace(tmp_path, monkeypatch, config):
    segments, assemble = [], cycle._assemble_trace

    def spy(trace, cycles):
        segments.append(cycles)
        return assemble(trace, cycles)

    monkeypatch.setattr(cycle, "_assemble_trace", spy)
    trace = run_engine(config)
    probs = concatenated_probs(segments[0])
    assert trace.probs.shape == probs.shape and trace.probs.tobytes() == probs.tobytes()
    occupations = trace.rows @ np.arange(trace.rows.shape[1])
    assert trace.energies.tobytes() == (trace.omegas * occupations[trace.row_index]).tobytes()
    with np.errstate(divide="ignore", invalid="ignore"):
        entropies = -np.where(probs > 0.0, probs * np.log(probs), 0.0).sum(axis=1)
    assert trace.entropies.tobytes() == entropies.tobytes()
    text = TraceText(trace)
    for write, levels, columns in ((write_timeseries_csv, text.csv_levels, 6),
                                   (write_wide_timeseries_csv, text.levels, 5)):
        write(tmp_path / "ts.csv", text)
        lines = lines_of(tmp_path / "ts.csv")[1:-1]
        assert [line.split(",", columns)[columns] for line in lines] == distinct_row_text(probs, levels)


def test_each_stored_row_is_formatted_once_per_file(tmp_path, monkeypatch):
    # copied cycles add samples but no stored rows, and each file's
    # populations are formatted once per stored row
    short, trace = run_engine(EngineConfig(n_cycles=20)), run_engine(EngineConfig(n_cycles=40))
    assert len(short.rows) == len(trace.rows) < len(short.times) < len(trace.times)
    shapes = []
    monkeypatch.setattr(output, "_format_rows", lambda m: shapes.append(np.shape(m)) or _format_rows(m))
    text = TraceText(trace)
    for write, columns in ((write_timeseries_csv, text.csv_levels + 1), (write_wide_timeseries_csv, text.levels)):
        shapes.clear()
        write(tmp_path / "ts.csv", text)
        # series are one-column; the narrow file prints p_sum with the populations
        assert [shape for shape in shapes if shape[1] > 1] == [(len(trace.rows), columns)]


def test_sweep_writer_matches_per_value_rendering(tmp_path):
    swept = sweep_efficiency_power(0.4, [0.8, 1.6], ratio_steps=7)
    extra = [(2.0, 0.5, math.nan, -0.0, True), (2.0, 0.75, math.inf, 1e16, True)]
    points = Sweep(*(np.concatenate([getattr(swept, name), column])
                     for name, column in zip(SWEEP_COLUMNS, zip(*extra))))
    write_sweep_csv(tmp_path / "sweep.csv", sweep_text(points))
    rows = [[p.t_h, p.ratio, p.efficiency, p.power] for p in points]
    assert lines_of(tmp_path / "sweep.csv") == render("t_h,ratio,efficiency,power", rows)


def reference_polyline(x, y):
    """Pixel coordinates of the default 720x420 chart, one point at a time."""
    pairs = [(float(a), float(b)) for a, b in zip(x, y) if math.isfinite(a) and math.isfinite(b)]
    xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    return " ".join(f"{72 + (a - x_lo) / (x_hi - x_lo) * 624:.2f},"
                    f"{36 + 336 - (b - y_lo) / (y_hi - y_lo) * 336:.2f}" for a, b in pairs)


@pytest.mark.parametrize("trace", ["simulate", "pump"], indirect=True)
def test_svg_polyline_matches_per_point_rendering(tmp_path, trace):
    cycles = [r.cycle_index + 1 for r in trace.records] + [3, 4]
    efficiencies = [efficiency_or_nan(r) for r in trace.records] + [math.nan, -0.0]
    for x, y in ((trace.times, trace.energies), (cycles, efficiencies)):
        write_svg_chart(tmp_path / "chart.svg", x, y, "title", "x", "y")
        svg = (tmp_path / "chart.svg").read_text()
        assert re.search(r'<polyline points="([^"]*)"', svg).group(1) == reference_polyline(x, y)


@pytest.mark.parametrize("value", [0.25, 3.0, -1.84608102585e26, 1e300])
def test_svg_chart_of_one_value_spans_at_least_the_value(tmp_path, value):
    # a unit span rounds away beside -1.8e26: the span is the value's own
    write_svg_chart(tmp_path / "chart.svg", [1, 2], [value, value], "title", "x", "y")
    svg = (tmp_path / "chart.svg").read_text()
    assert re.search(r'<polyline points="([^"]*)"', svg).group(1) == "72.00,372.00 696.00,372.00"
    assert f'font-size="11">{fmt(value + max(1.0, abs(value)))}</text>' in svg
