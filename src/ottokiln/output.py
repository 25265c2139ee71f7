"""File emission: CSVs, gnuplot-style .dat twins, and minimal SVG charts.

All numeric output is printed as "%.12g", with "-0" as "0", so repeated
runs with the same configuration are byte-identical.  Each series of a
command is formatted once, in one block, and every file that prints it
reuses those strings: a CSV and its .dat twin, or the columns the narrow
and the wide time series share.  One printer, _format_rows, prints both
the series, each as the one-column matrix of its distinct values, and
each time-series file's populations, once per stored trace row; each
printed value ends in its own separator, a comma or the row's newline.
Undefined efficiencies are written as "nan", never as a large float.
SVG charts are rendered from the numeric series and never feed back into
them.

Long matrices are printed by numpy kernels that reproduce Python's "%.12g"
(and the "%.2f" of the chart polylines) byte for byte, in blocks of 8192
values cut at whole rows.  A value's decimal exponent comes from log10;
the value times a correctly rounded power of ten, rounded to an integer,
is its 12-digit mantissa, within 2.3e-4 of the exact one.  Digit tables turn the mantissa
and its separator into uint32 words of four characters, with zero bytes for the leading and
trailing zeros that %g drops; the blanks are deleted from the block in one
pass.  Values whose mantissa lies within 1e-3 of a rounding tie (pixels:
1e-6), and zero, nan, inf and |x| outside [1e-280, 1e280] are printed by %
itself, as are whole matrices smaller than the measured crossover (512
entries; 128 pixels), where the kernels' fixed cost exceeds that of %.
"""

import functools
import itertools
import math
from types import SimpleNamespace

import numpy as np

from .analysis import cycle_power, efficiency_or_nan
from .exceptions import OttoKilnError

CYCLE_COLUMNS = ("cycle", "q_in", "q_out", "w_out", "w_in", "w_eff", "q_pump",
                 "q_pump_gross", "efficiency", "power", "a_shift_tv")
SWEEP_CSV_COLUMNS = ("t_h", "ratio", "efficiency", "power")
# rows per write: about 0.25 MB of text for the widest time series (51 levels)
_WRITE_ROWS = 256


def fmt(value):
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if value == 0:
        return "0"
    return format(value, ".12g")


_EXP_MIN, _EXP_MAX = -300, 300  # exponents of the pow10 and exponent tables
_FIXED_ROW = _EXP_MAX - _EXP_MIN + 1  # the row of .exponent for fixed notation
_COMMA_ROWS = _FIXED_ROW + 1  # offset of the .exponent rows that end in "," instead of "\n"


def _ascii_words(codes):
    """Rows of ASCII codes, four per word, as uint32 words whose bytes in
    memory read each row in order, on either byte order."""
    return np.ascontiguousarray(codes, dtype=np.uint8).view(np.uint32)


def _text_words(strings):
    """Equal-length ASCII strings as rows of _ascii_words."""
    data = np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint8)
    return _ascii_words(data.reshape(len(strings), -1))


@functools.cache
def _tables():
    """Lookup tables of the formatting kernels, built at their first use:
    a fresh interpreter takes a few milliseconds for them, which commands
    that print only short columns never pay."""
    pair = np.arange(100)
    pair = np.stack([pair // 10, pair % 10], axis=1) + ord("0")  # "00".."99"
    chars = np.concatenate(np.broadcast_arrays(pair[:, None], pair[None, :]), axis=2).reshape(10000, 4)
    zero = chars == ord("0")
    leading = np.logical_and.accumulate(zero, axis=1)  # all four for 0
    trailing = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    units = leading.copy()
    units[:, 3] = False  # keeps the "0" of 0
    digits = _ascii_words(chars).ravel()
    # whole digits at offset 0 without leading zeros, 10000 every digit,
    # 20000 without leading zeros but "0" for 0
    whole = np.concatenate([_ascii_words(np.where(leading, 0, chars)).ravel(), digits,
                            _ascii_words(np.where(units, 0, chars)).ravel()])
    # fraction digits at offset 0 without trailing zeros, 10000 every digit
    fraction = np.concatenate([_ascii_words(np.where(trailing, 0, chars)).ravel(), digits])
    # "." and three fraction digits at offset 0 without trailing zeros (and
    # without the point if all three are), 1000 every digit
    point = chars[:1000].copy()
    point[:, 0] = ord(".")
    blank = trailing[:1000].copy()
    blank[:, 0] = blank[:, 1]
    point = np.concatenate([_ascii_words(np.where(blank, 0, point)).ravel(), _ascii_words(point).ravel()])
    # "e-05\n" .. "e+280\n" in two words and "\n" alone for fixed notation, then all ending in ","
    exponent = _text_words([text.ljust(8, "\0") for sep in "\n," for text in
                            ["e%+03d%s" % (e, sep) for e in range(_EXP_MIN, _EXP_MAX + 1)] + ["\0\0\0\0" + sep]])
    # correctly rounded powers of ten: float() rounds a decimal exactly
    pow10 = np.array([float("1e%d" % k) for k in range(_EXP_MIN, _EXP_MAX + 1)])
    # "." and the cents of %.2f and "," after x, then 100 the same and " " after y
    cents = _text_words([".%02d%s" % (c, sep) for sep in ", " for c in range(100)]).ravel()
    tables = SimpleNamespace(whole=whole, fraction=fraction, point=point, exponent=exponent,
                             pow10=pow10, cents=cents)
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


# Inputs shorter than these take the % path whole: below them the kernels'
# fixed cost of some 60 numpy calls per block exceeds that of % (measured).
_G12_MIN_SIZE = 512
_POLYLINE_MIN_SIZE = 128
# values per kernel block: keeps each block's temporaries under 1 MB
_BLOCK = 8192
# Distance of the scaled mantissa from a rounding tie below which % decides.
# The %.12g mantissa below 1e12 is the value times a correctly rounded power
# of ten, rounded: two relative errors of at most 2**-53 each, so it lies
# within 2.3e-4 of the exact one; the %.2f cents below 1e8 are rounded once,
# within 1.2e-8.
_G12_TIE_MARGIN = 1e-3
_POLYLINE_TIE_MARGIN = 1e-6


def _patch_records(records, values, fallback, text_format):
    """Write text_format % v into the records of the fallback values (a mask)."""
    index = np.flatnonzero(fallback)
    if index.size:
        width = records.itemsize * records.shape[1]
        records[index] = _text_words([(text_format % v).ljust(width, "\0") for v in values[index].tolist()])


def _g12_records(x, row_length=1):
    """%.12g of each value of whole rows of row_length values, and a newline
    after each row's last value and a comma after every other, as nine uint32
    words per value with zero bytes for blanks: sign, 12 whole digits, "." and
    15 fraction digits (the last four shared with the exponent), exponent and separator."""
    t = _tables()
    ends = np.arange(1, x.size + 1) % row_length == 0
    a = np.abs(x)
    fallback = ~((a >= 1e-280) & (a <= 1e280))  # zero, nan, inf, the far range
    a[fallback] = 1.0
    # The decimal exponent e from log10 puts the 12-digit mantissa in
    # [1e11, 1e12).  log10 errs by far less than 1e-13, so next to a power of
    # ten, where e may be one off, the mantissa lies within 0.05 of 1e11 or
    # 1e12 and rounds to it; the carry below turns 1e12 into 1e11.
    e = np.floor(np.log10(a)).astype(np.int64)
    scaled = a * t.pow10[11 - e - _EXP_MIN]
    m = np.rint(scaled)
    fallback |= np.abs(scaled - m) > 0.5 - _G12_TIE_MARGIN
    carry = m == 1e12  # 999999999999.5 and up round to the next power of ten
    m[carry] = 1e11
    e += carry

    scientific = (e < -4) | (e >= 12)
    point = np.where(scientific, 0, e)  # digits before the point, minus one
    # exact in floats: every operand is an integer below 2**53
    q = t.pow10[11 - point - _EXP_MIN]
    whole = np.floor(m / q)
    fraction = ((m - whole * q) * t.pow10[point + 4 - _EXP_MIN]).astype(np.int64)  # 15 digits
    whole = whole.astype(np.int64)

    records = np.empty((x.size, 9), dtype=np.uint32)
    records[:, 0] = (x < 0).view(np.uint8) * np.uint8(ord("-"))
    top = whole // 10 ** 8
    rest = whole - top * 10 ** 8
    middle = rest // 10000
    rest -= middle * 10000
    records[:, 1] = t.whole.take(top)
    records[:, 2] = t.whole.take(middle + 10000 * np.minimum(top, 1))
    records[:, 3] = t.whole.take(rest + 20000 - 10000 * np.minimum(top + middle, 1))
    f0 = fraction // 10 ** 12
    rest = fraction - f0 * 10 ** 12
    records[:, 4] = t.point.take(f0 + 1000 * np.minimum(rest, 1))
    f1 = rest // 10 ** 8
    rest -= f1 * 10 ** 8
    records[:, 5] = t.fraction.take(f1 + 10000 * np.minimum(rest, 1))
    f2 = rest // 10000
    rest -= f2 * 10000
    records[:, 6] = t.fraction.take(f2 + 10000 * np.minimum(rest, 1))
    exponent = t.exponent.take(np.where(scientific, e - _EXP_MIN, _FIXED_ROW) + _COMMA_ROWS * ~ends, axis=0)
    # a scientific mantissa has 11 fraction digits: its last group is blank
    records[:, 7] = t.fraction.take(rest) | exponent[:, 0]
    records[:, 8] = exponent[:, 1]
    _patch_records(records, x, fallback & ends, "%.12g\n")
    _patch_records(records, x, fallback & ~ends, "%.12g,")
    return records


def _polyline_records(pixels):
    """%.2f of each pixel in [+0, 1e6), "," after x and " " after y, as three
    uint32 words per pixel with zero bytes for blanks."""
    t = _tables()
    scaled = pixels * 100.0
    m = np.rint(scaled)
    fallback = np.abs(scaled - m) > 0.5 - _POLYLINE_TIE_MARGIN
    m = m.astype(np.int64)
    whole = m // 100
    cents = m - whole * 100
    top = whole // 10000
    records = np.empty((pixels.size, 3), dtype=np.uint32)
    records[:, 0] = t.whole.take(top)
    records[:, 1] = t.whole.take(whole - top * 10000 + 20000 - 10000 * np.minimum(top, 1))
    cents[1::2] += 100  # y pixels take the cents that end in " "
    records[:, 2] = t.cents.take(cents)
    _patch_records(records[0::2], pixels[0::2], fallback[0::2], "%.2f,")
    _patch_records(records[1::2], pixels[1::2], fallback[1::2], "%.2f ")
    return records


def _compact(records_of, values, block=_BLOCK):
    """The records of values, block by block, with their blanks dropped."""
    return b"".join(records_of(values[i:i + block]).tobytes().translate(None, b"\0")
                    for i in range(0, values.size, block))


def _format_rows(matrix):
    """Each row of a matrix as fmt() prints it: each printed value ends in its
    own separator, a comma inside the row and a newline at its end."""
    matrix = np.asarray(matrix, dtype=float) + 0.0  # -0.0 becomes 0.0, printed "0"
    n, m = matrix.shape
    if matrix.size < _G12_MIN_SIZE:
        text = (("%.12g," * (m - 1) + "%.12g\n") * n) % tuple(matrix.ravel().tolist())
    else:
        text = _compact(lambda x: _g12_records(x, row_length=m), matrix.ravel(),
                        max(_BLOCK // m, 1) * m).decode("ascii")
    return text.split("\n")[:-1]


def _format_polyline(pixels):
    """The points of a polyline, " ".join(["%.2f,%.2f"] * n) % tuple(pixels),
    for the pixels x0, y0, x1, y1, ..."""
    in_range = ~np.signbit(pixels) & (pixels < 1e6)  # % prints -0.0 as "-0.00"
    if pixels.size < _POLYLINE_MIN_SIZE or not in_range.all():
        return " ".join(["%.2f,%.2f"] * (pixels.size // 2)) % tuple(pixels.tolist())
    return _compact(_polyline_records, pixels)[:-1].decode("ascii")  # _BLOCK is even


def _format_column(values):
    """One series as fmt() prints it, one string per entry, each distinct value
    formatted once: ramps repeat the populations of every sample, and a
    converged run repeats its cycle bit for bit."""
    distinct, where = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    return _format_indexed(distinct[:, None], where)


def _format_indexed(matrix, index):
    """The printed rows of a matrix, each printed once, taken by an index."""
    return np.array(_format_rows(matrix), dtype=object)[index].tolist()


class SeriesText:
    """Named series of one command as fmt() prints them.

    Each series is formatted at its first use, inside the writer of the
    first file that prints it; every later file reuses the same strings.
    """

    def __init__(self, values):
        self.values = values  # name -> numbers
        self._text = {}

    def __getitem__(self, name):
        if name not in self._text:
            self._text[name] = _format_column(self.values[name])
        return self._text[name]


def sweep_text(sweep):
    """The sweep.csv columns of a Sweep, shared with its eta_power .dat twins."""
    return SeriesText({name: getattr(sweep, name) for name in SWEEP_CSV_COLUMNS})


class TraceText(SeriesText):
    """The series of one engine run: time series and cycle ledger columns,
    and the population rows.

    Each file's populations are printed once per stored row (EngineTrace.rows):
    ramps repeat one population row for every sample, and copied cycles
    repeat every row of the cycle they copy.
    """

    def __init__(self, trace, csv_levels=8):
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
        self.levels = trace.rows.shape[1]
        self.csv_levels = min(csv_levels, self.levels) if self.levels else csv_levels

    def population_rows(self, levels):
        """Each trace sample's first `levels` populations, joined by commas."""
        return _format_indexed(self.trace.rows[:, :levels], self.trace.row_index)


def write_timeseries_csv(path, text):
    """t, omega, U, S, stroke, total probability, first csv_levels populations."""
    trace, k = text.trace, text.csv_levels
    header = ["t", "omega", "U", "S", "stroke", "p_sum"] + [f"P_{n}" for n in range(k)]
    p_sum = trace.rows.sum(axis=1)[trace.row_index]
    bad = np.flatnonzero(~(abs(p_sum - 1.0) <= 1e-9))  # a nan sum is bad too
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
    """The header line, then one line per row of the formatted columns.

    Rows are joined and written _WRITE_ROWS at a time, so that the text of
    a large file is never held whole, let alone once as lines, once joined
    and once encoded.
    """
    lines = map(sep.join, zip(*columns))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(sep.join(header) + "\n")
        while block := list(itertools.islice(lines, _WRITE_ROWS)):
            block.append("")  # ends the block with a newline without copying it
            handle.write("\n".join(block))


def write_svg_chart(path, x, y, title, x_label, y_label):
    """Single-polyline SVG chart; finite points only."""
    width, height = 720, 420
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
    if x_hi == x_lo:  # one value: a span of 1 or |value|, the larger, so that it never rounds away
        x_hi = x_lo + max(1.0, abs(x_lo))
    if y_hi == y_lo:
        y_hi = y_lo + max(1.0, abs(y_lo))

    def sx(v):
        return pad_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return pad_t + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    pixels = np.column_stack((sx(x), sy(y))).ravel()  # x0, y0, x1, y1, ...
    points = _format_polyline(pixels)
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
