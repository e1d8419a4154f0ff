"""Exact, vectorized ``'%.16e'`` formatting of float tables as CSV bytes.

``format_rows(table)`` returns the bytes of
``"".join(",".join("%.16e" % x for x in row) + "\\n" for row in table)``
without calling ``%`` once per field. For a finite x with
1e-200 <= |x| <= 1e200 the 17 significant digits D and the decimal
exponent E are computed in numpy:

* E = floor(log10|x|), corrected by one where the estimate is off;
* y = |x| * 10^(16 - E) as a double-double: Dekker's exact two-product
  of |x| with the high part of 10^k (k = 16 - E) plus |x| times its low
  part, both parts taken from exact integer arithmetic. The error of y
  is a few 1e-15 in units of its last digit;
* D = round(y), a 17-digit integer; D = 10^17 becomes 10^16 with E + 1.

A field whose y lies within ``_GUARD`` of a half-integer (a possible
tie, which ``%`` rounds half-even on the exact binary value) or of 1e16
or 1e17 is formatted by ``%`` itself, and so is every other field: nan,
±inf, subnormals and magnitudes outside the range above. ±0.0 is written
directly. Each field fills a 25-byte slot: sign or pad, lead digit,
``.``, 16 digits, ``e±XX`` or ``e±XXX``, then ``,`` or ``\\n``. Pads are
zero bytes and are compressed out at the end.
"""

import numpy as np

_E_MIN, _E_MAX = -210, 210  # decimal exponents the power table covers
_X_MIN, _X_MAX = 1e-200, 1e200  # magnitudes formatted without '%'
_GUARD = 1e-6  # distance from a tie or a decade edge that falls back to '%'
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_SLOT = 25  # bytes per field: "-d." + 16 digits + "e+XXX" + separator


def _split(a: np.ndarray):
    """Veltkamp split: a = hi + lo exactly, each with at most 26 bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _power_table():
    """10^k = hi + lo for k = 16 - E, E in [_E_MIN, _E_MAX], plus hi's split.

    Python's int / int division rounds correctly, so hi is the nearest
    double to 10^k and lo the nearest double to the remainder.
    """
    hi, lo = [], []
    for k in range(16 - _E_MAX, 16 - _E_MIN + 1):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        h = num / den
        m, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - m * den) / (den * d))
    hi = np.array(hi)
    return hi, np.array(lo), *_split(hi)


_P_HI, _P_LO, _P_HI_HI, _P_HI_LO = _power_table()


def _ascii_digits(values: np.ndarray, width: int) -> np.ndarray:
    """ASCII decimal digits of each value, zero-padded to ``width``."""
    places = 10 ** np.arange(width - 1, -1, -1)
    return (values[:, None] // places % 10 + ord("0")).astype(np.uint8)


# ASCII of every 4-digit group 0000..9999, four bytes viewed as one uint32
_DIGITS4 = _ascii_digits(np.arange(10000), 4).view(np.uint32).ravel()
_GROUP_PLACES = np.array([10**12, 10**8, 10**4, 1])
# ASCII of |E|: two digits and a zero pad below 100, else three digits
_EXP3 = _ascii_digits(np.arange(400), 3)
_EXP3[:100] = np.roll(_EXP3[:100], -1, axis=1)
_EXP3[:100, 2] = 0


def _scaled(ax: np.ndarray, e: np.ndarray):
    """y = ax * 10^(16 - e) as a normalized double-double (yh, yl)."""
    idx = _E_MAX - e
    b, b_hi, b_lo = _P_HI[idx], _P_HI_HI[idx], _P_HI_LO[idx]
    a_hi, a_lo = _split(ax)
    p = ax * b
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    t = err + ax * _P_LO[idx]
    yh = p + t
    return yh, t - (yh - p)


def _digits(ax: np.ndarray):
    """17 significant digits and decimal exponent of each ax in range.

    Returns (digits, exponent, exact): ``exact`` is False where ``%``
    must decide, near a rounding tie or a decade edge.
    """
    e = np.floor(np.log10(ax)).astype(np.int64)
    yh, yl = _scaled(ax, e)
    low = (yh < 1e16) | ((yh == 1e16) & (yl < 0))
    high = (yh > 1e17) | ((yh == 1e17) & (yl >= 0))
    off = low | high
    if off.any():
        e[off] += np.where(high[off], 1, -1)
        yh[off], yl[off] = _scaled(ax[off], e[off])
    floor = np.floor(yl)
    frac = yl - floor
    exact = (
        (np.abs(frac - 0.5) >= _GUARD)
        & (np.abs((yh - 1e16) + yl) >= _GUARD)
        & (np.abs((yh - 1e17) + yl) >= _GUARD)
        & (yh >= 1e16)
        & (yh <= 1e17)
    )
    digits = yh.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    e += carry
    return digits, e, exact


def format_rows(table: np.ndarray) -> bytes:
    """The CSV bytes of a 2-D float table, every field as ``'%.16e'``."""
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    x = table.ravel()
    ax = np.abs(x)
    fast = (ax >= _X_MIN) & (ax <= _X_MAX)
    zero = ax == 0
    digits, exponent, exact = _digits(np.where(fast, ax, 1.0))
    digits[zero] = 0  # 1.0 stood in for ±0.0: exponent 0 already
    slow = ~(fast & exact | zero)  # nan, ±inf, subnormals, out of range, near ties

    out = np.zeros((x.size, _SLOT), dtype=np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    lead, rest = np.divmod(digits, 10**16)
    out[:, 1] = lead + ord("0")
    out[:, 2] = ord(".")
    out[:, 3:19] = _DIGITS4[rest[:, None] // _GROUP_PLACES % 10000].view(np.uint8)
    out[:, 19] = ord("e")
    out[:, 20] = np.where(exponent < 0, ord("-"), ord("+"))
    out[:, 21:24] = _EXP3[np.abs(exponent)]
    sep = out.reshape(rows, cols, _SLOT)[:, :, _SLOT - 1]
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    for i in np.flatnonzero(slow):
        text = ("%.16e" % x[i]).encode()
        out[i, : _SLOT - 1] = 0
        out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    flat = out.ravel()
    return flat[flat != 0].tobytes()
