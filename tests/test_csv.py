import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiorbit._csv import format_rows


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


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (3, 7)])
def test_shapes(shape):
    values = np.random.default_rng(1).standard_normal(shape) * 1e3
    assert format_rows(values) == reference(values)
