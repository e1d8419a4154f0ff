import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiorbit import _csv
from adiorbit._csv import write_rows


def format_rows(table):
    """The bytes ``write_rows`` writes for the columns of a 2-D table."""
    fh = io.BytesIO()
    write_rows(fh, np.asarray(table, dtype=np.float64).T)
    return fh.getvalue()


def reference(table):
    """The CSV text of ``table`` with ``'%.16e' %`` applied to every field."""
    return "".join(",".join("%.16e" % x for x in row) + "\n" for row in table).encode()


def assert_formats_like_percent(values, cols=1):
    table = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    assert format_rows(table) == reference(table)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_any_float(values):
    # nan, ±inf, ±0.0 and subnormals included
    assert_formats_like_percent(values)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.lists(st.floats(allow_nan=False), min_size=8, max_size=8))
def test_row_layout(cols, values):
    assert_formats_like_percent(values[: 8 // cols * cols], cols)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    values = np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    )
    assert_formats_like_percent(np.concatenate([values, -values]), cols=3)


def test_dyadic_values_reach_ties():
    # i / 2^j has a finite decimal expansion, so some fields are exact ties
    rng = np.random.default_rng(5)
    i = rng.integers(1, 2**53, size=20000)
    j = rng.integers(0, 80, size=20000)
    values = i / 2.0**j
    # 1234567890123456.75 has 18 significant digits: 17 of them round
    # half-even up to ...68
    values[:2] = [1234567890123456.75, 1234567890123455.25]
    assert "%.16e" % values[0] == "1.2345678901234568e+15"
    assert_formats_like_percent(values, cols=4)


def test_digits_carry_into_the_next_decade():
    # doubles just below 10^k whose 17 digits round up to 1.0000000000000000e+k
    below = [
        x
        for x in (float(f"1e{k}") for k in range(-300, 301))
        if Fraction(x) < Fraction(10) ** round(math.log10(x))
    ]
    carries = [x for x in below if ("%.16e" % x).startswith("1.")]
    assert len(carries) >= 10
    assert_formats_like_percent(below)
    assert_formats_like_percent(carries)


def test_edge_values():
    values = [
        0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
        5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        1e-200, 1e200, np.nextafter(1e-200, 0.0), np.nextafter(1e200, np.inf),
        1.0, -1.0, 0.1, 1 / 3, 123456789.0, 1e100, 1e-100,
    ]
    assert_formats_like_percent(values)
    assert format_rows(np.array([[0.0, -0.0]])) == (
        b"0.0000000000000000e+00,-0.0000000000000000e+00\n"
    )


# (2500, 7): three chunks of _CHUNK // 7 rows (1170 at 8192), the last one partial
@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (3, 7), (2500, 7)])
def test_shapes(shape):
    values = np.random.default_rng(1).standard_normal(shape) * 1e3
    assert format_rows(values) == reference(values)


def test_separators_on_fallback_fields():
    # every fallback kind in the first, a middle and the last column, in rows
    # that also hold negative values and 3-digit exponents
    near_tie = 1234567890123456.75  # its 17 digits end in a tie, see above
    assert not _csv._digits(np.array([near_tie]))[2][0]
    fallbacks = [np.nan, -np.inf, np.inf, 5e-324, -2.5e-310, near_tie, -near_tie, 1e-250]
    rng = np.random.default_rng(9)
    blocks = []
    for value in fallbacks:
        for col in (0, 3, 6):
            rows = rng.standard_normal((3, 7)) * 10.0 ** rng.integers(-150, 150, (3, 7))
            rows[1, col] = value
            blocks.append(rows)
    table = np.concatenate(blocks)
    assert np.signbit(table).sum() > 50 and (np.abs(table) < 1e-99).sum() > 50
    assert format_rows(table) == reference(table)
    # fallback fields side by side, and rows of nothing else
    assert_formats_like_percent(fallbacks, cols=4)
    assert_formats_like_percent(fallbacks, cols=1)


def test_fast_path_covers_probability_tables(monkeypatch):
    # a 2e5-row table shaped like evolution.csv: tau, probabilities near 1,
    # tiny residuals and level populations. '%' must stay a rare fallback.
    seen, masks = [], []
    digits = _csv._digits

    def recording(ax):
        out = digits(ax)
        seen.append(ax)
        masks.append(out[2])
        return out

    monkeypatch.setattr(_csv, "_digits", recording)
    n = 200_001
    rng = np.random.default_rng(13)
    p = 1.0 - 1e-2 * rng.random((n, 5))
    table = np.column_stack(
        [np.linspace(0.0, 200.0, n), p, 1e-15 * rng.random(n), p[:, 0], 1.0 - p[:, 0]]
    )
    text = format_rows(table)
    # a field takes the fast path when its own magnitude reached _digits
    # (not a stand-in) and came back exact
    fast = (np.concatenate(seen) == np.abs(table.ravel())) & np.concatenate(masks)
    assert fast.mean() >= 0.9999
    rows = slice(None, None, 97)
    assert text.splitlines(keepends=True)[rows] == reference(table[rows]).splitlines(keepends=True)
