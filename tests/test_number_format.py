"""The vectorised number printing of output.py against Python's % operator.

The kernels print "%.12g" and "%.2f" from digit tables and must agree with
% byte for byte, on every float and on both sides of the size below which
the writers use % directly.  The row printer of the time-series
populations must print each row as fmt() prints its entries, joined by
commas, on both sides of that size and of its block of whole rows.  Values too close to a rounding tie for the
kernel's error bound are printed by %; the tests build such near-ties on
purpose.  CI runs this file once more under the "ci" hypothesis profile.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ottokiln import output
from ottokiln.output import _format_polyline, _format_rows, fmt


def percent_g12(values):
    return ["%.12g" % v for v in values]


def kernel_g12(values):
    """%.12g through the kernel, whatever the input size."""
    x = np.asarray(values, dtype=float)
    return output._compact(output._g12_records, x).decode("ascii").split("\n")[:-1]


def percent_polyline(pixels):
    return " ".join("%.2f,%.2f" % (x, y) for x, y in zip(pixels[0::2], pixels[1::2]))


def kernel_polyline(pixels):
    """The "%.2f,%.2f" pairs through the kernel, whatever the input size."""
    return output._compact(output._polyline_records, np.asarray(pixels, dtype=float))[:-1].decode("ascii")


def nudged(value, ulps):
    """value moved by `ulps` units in the last place (past the largest float: inf)."""
    toward = math.inf if ulps > 0 else -math.inf
    with np.errstate(over="ignore"):
        for _ in range(abs(ulps)):
            value = float(np.nextafter(value, toward))
    return value


def arranged(values, order):
    """The values as drawn, sorted, or reversed."""
    if order == "sorted":
        return np.sort(values)
    return values[::-1] if order == "reversed" else values


orders = st.sampled_from(["drawn", "sorted", "reversed"])


@given(st.lists(st.floats(), min_size=1, max_size=400), orders)
def test_g12_kernel_prints_drawn_floats_like_percent(values, order):
    # st.floats() draws subnormals, both zeros, nan and both infinities
    x = arranged(np.array(values), order)
    assert kernel_g12(x) == percent_g12(x)


# 12-digit mantissas m and exponents k: (m + 0.5) * 10**k lies next to a
# tie of %.12g; the exponents reach fixed notation (k in -16..0) as often
# as the whole range
near_ties = st.tuples(st.integers(10 ** 11, 10 ** 12 - 1),
                      st.integers(-17, 1) | st.integers(-292, 268),
                      st.integers(-4, 4), st.booleans())


@given(st.lists(near_ties, min_size=1, max_size=200), orders)
def test_g12_kernel_prints_near_ties_like_percent(ties, order):
    values = [nudged((m + 0.5) * 10.0 ** k, ulps) * (-1 if negative else 1)
              for m, k, ulps, negative in ties]
    x = arranged(np.array(values), order)
    assert kernel_g12(x) == percent_g12(x)


# where the notation, the exponent width or the kernel's range changes
EDGES = [1e-4, 9.9999999999995e-5, 9.99999999999949e-5, 1e-5, 999999999999.5,
         999999999999.4, 999999999999.49, 1e12, 1e11, 99999999999.95, 1e-99, 1e-100,
         9.999999999995e99, 1e100, 1e-280, 1e280, 1.00000000000001e-280, 5e-324,
         2.2250738585072014e-308, 1.7976931348623157e308, 123456789012.5, 0.5, 1.0,
         0.1, 0.3, 2.5e-5, 72.125, 1e22, 1e23]
EDGES += [float("1e%d" % k) for k in range(-281, 282)]  # log10 may err by one below them


@pytest.mark.parametrize("order", ["drawn", "sorted", "reversed"])
def test_g12_kernel_prints_notation_edges_like_percent(order):
    values = [nudged(edge, ulps) * sign for edge in EDGES for ulps in range(-3, 4) for sign in (1, -1)]
    x = arranged(np.array(values), order)
    assert kernel_g12(x) == percent_g12(x)


pixels = st.floats(min_value=0.0, max_value=1e6, exclude_max=True)
# (c + 0.5) / 100 lies next to a tie of %.2f
pixel_ties = st.tuples(st.integers(0, 10 ** 8 - 1), st.integers(-4, 4)).map(
    lambda drawn: max(0.0, nudged((drawn[0] + 0.5) / 100, drawn[1])))


@given(st.lists(pixels | pixel_ties, min_size=1, max_size=200).map(lambda p: p + p[-1:] * (len(p) % 2)),
       orders)
def test_polyline_kernel_prints_drawn_pixels_like_percent(values, order):
    p = arranged(np.array(values), order)
    assert kernel_polyline(p) == percent_polyline(p)


def test_polyline_kernel_prints_exact_ties_like_percent():
    # x.125, x.375, x.625 and x.875 are binary fractions: exact ties of %.2f
    ties = [whole + eighth / 8 for whole in (0, 1, 72, 695, 99999, 999999) for eighth in (1, 3, 5, 7)]
    p = np.array(ties + [nudged(v, ulps) for v in ties for ulps in (-2, -1, 1, 2)])
    assert kernel_polyline(p) == percent_polyline(p)


def sizes(minimum, step):
    """Input sizes on both sides of a crossover, and over two blocks."""
    return [step, minimum - step, minimum, 2 * output._BLOCK + 2 * step]


@pytest.mark.parametrize("n", sizes(output._G12_MIN_SIZE, 1))
def test_g12_takes_the_kernel_from_its_crossover_size(monkeypatch, n):
    calls = []
    records = output._g12_records
    monkeypatch.setattr(output, "_g12_records", lambda x: calls.append(x.size) or records(x))
    x = np.random.default_rng(n).lognormal(0.0, 20.0, n) * np.where(np.arange(n) % 3, 1, -1)
    x[::7] = 0.0
    assert _format_rows(x[:, None]) == percent_g12(x)
    assert sum(calls) == (n if n >= output._G12_MIN_SIZE else 0)
    assert max(calls, default=0) <= output._BLOCK


@pytest.mark.parametrize("n", sizes(output._POLYLINE_MIN_SIZE, 2))  # x, y pairs
@pytest.mark.parametrize("outlier", [None, -0.0, -0.001, 1e6, math.nan])
def test_polyline_takes_the_kernel_from_its_crossover_size_inside_its_range(monkeypatch, n, outlier):
    calls = []
    records = output._polyline_records
    monkeypatch.setattr(output, "_polyline_records", lambda p: calls.append(p.size) or records(p))
    p = np.random.default_rng(n).random(n) * 720
    if outlier is not None:
        p[n // 2] = outlier
    assert _format_polyline(p) == " ".join(["%.2f,%.2f"] * (n // 2)) % tuple(p.tolist())
    in_range = outlier is None and n >= output._POLYLINE_MIN_SIZE
    assert sum(calls) == (n if in_range else 0)


def test_ties_and_unprintable_values_take_the_percent_path(monkeypatch):
    patched = []
    patch = output._patch_records
    monkeypatch.setattr(output, "_patch_records", lambda records, values, fallback, text_format:
                        patched.append(values[fallback].tolist()) or
                        patch(records, values, fallback, text_format))
    # 123456789012.5 and 72.125 are exact ties; 0.1 * 3 is no tie
    x = np.array([123456789012.5, 0.1 * 3, 0.0, math.inf, 1e-300, 2.5, -123456789012.5])
    printed = kernel_g12(x)
    assert printed == percent_g12(x) and printed[0] == "123456789012"
    pixels = np.array([72.125, 10.0, 300.5, 1.0])
    assert kernel_polyline(pixels) == "72.12,10.00 300.50,1.00"
    assert patched[0] == [123456789012.5, 0.0, math.inf, 1e-300, -123456789012.5]
    assert patched[1:] == [[72.125], []]  # x pixels, then y pixels


ROW_WIDTHS = [1, 8, 51, 81]  # a single level, the default csv_levels, the default ladder, and more


def row_counts(width):
    """Row counts on both sides of the % crossover and of one kernel block."""
    first_kernel = -(-output._G12_MIN_SIZE // width)  # fewest rows the kernel prints
    block = output._BLOCK // width
    return [1, first_kernel - 1, first_kernel, block, block + 1]


specials = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0])
tie_values = near_ties.map(lambda t: nudged((t[0] + 0.5) * 10.0 ** t[1], t[2]) * (-1 if t[3] else 1))


@given(st.sampled_from(ROW_WIDTHS).flatmap(lambda w: st.tuples(st.just(w), st.sampled_from(row_counts(w)))),
       st.lists(specials | tie_values | st.floats(), min_size=1, max_size=100), st.integers(0, 99))
def test_row_printer_prints_each_row_like_fmt(shape, values, shift):
    # the drawn values, repeated to fill the matrix, land in every column
    width, n = shape
    matrix = np.resize(np.roll(np.array(values), shift), n * width).reshape(n, width)
    assert _format_rows(matrix) == [",".join(fmt(v) for v in row) for row in matrix.tolist()]


@pytest.mark.parametrize("width", ROW_WIDTHS)
def test_row_printer_takes_the_kernel_from_its_crossover_in_blocks_of_whole_rows(monkeypatch, width):
    calls = []
    records = output._g12_records
    monkeypatch.setattr(output, "_g12_records", lambda x: calls.append(x.size) or records(x))
    rng = np.random.default_rng(width)
    for n in row_counts(width):
        calls.clear()
        matrix = rng.lognormal(0.0, 20.0, (n, width)) * np.where(rng.random((n, width)) < 0.5, -1, 1)
        matrix[::3, :-1] = np.nan  # fallback records outside the last column
        assert _format_rows(matrix) == [",".join(fmt(v) for v in row) for row in matrix.tolist()]
        assert sum(calls) == (matrix.size if matrix.size >= output._G12_MIN_SIZE else 0)
        assert all(size % width == 0 and size <= output._BLOCK for size in calls)
