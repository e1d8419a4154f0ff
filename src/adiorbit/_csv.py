"""Exact, vectorized ``'%.16e'`` formatting of float tables as CSV bytes.

``write_rows(fh, columns)`` writes to ``fh`` the bytes of
``"".join(",".join("%.16e" % x for x in row) + "\\n" for row in zip(*columns))``
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
directly.

Each field fills a slot of seven uint32 words, every word a 1-D ``take``
from a small table of four ASCII bytes:

    [pad|sign|lead|.] [dddd] [dddd] [dddd] [dddd] [e|±|X|X] [X|sep|pad|pad]

The sign word is indexed by 10 * signbit + lead digit, each digit word by
a 4-digit group of D (split by scalar divisors: 10^16, 10^8, 10^4), and
the two exponent words by E; the last word holds the separator, ``,`` or
``\\n``, right after the exponent's last digit (``[sep|pad|pad|pad]``
when |E| < 100). A ``%`` field is its text plus the separator, zero-padded
to the slot. Pads are zero bytes, deleted at the end by
``bytes.translate``; where every field of a chunk is positive, with
|E| < 100 and no ``%`` text, they sit at fixed places and a strided copy
of bytes 2..24 of each slot drops them instead. ``_CHUNK`` is the one
size of the writer's working set: each pass copies ``_CHUNK // len(columns)``
rows into one reused buffer, so every temporary takes 64 KiB or less,
which malloc reuses from its heap, where temporaries of a larger block can
be mapped fresh from the system and page-faulted in on every call.
"""

import numpy as np

_E_MIN, _E_MAX = -210, 210  # decimal exponents the power table covers
_X_MIN, _X_MAX = 1e-200, 1e200  # magnitudes formatted without '%'
_GUARD = 1e-6  # distance from a tie or a decade edge that falls back to '%'
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_CHUNK = 8192  # fields formatted at once, so that every temporary stays small
_WORDS = 7  # uint32 words per field: "-d." + 16 digits + "e+XXX" + separator + pads


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


def _words(*columns) -> np.ndarray:
    """A 1-D uint32 table whose entry i holds the four bytes ``columns[:][i]``."""
    columns = np.broadcast_arrays(*columns)
    return np.stack(columns, axis=-1).astype(np.uint8).view(np.uint32).ravel()


def _exponent_tables():
    """The last two words of a field, from its exponent E and separator.

    ``['e'|±|X|X]`` at index E - _E_MIN, then ``[X|sep|pad|pad]`` or
    ``[sep|pad|pad|pad]`` at index 2 (E - _E_MIN) + (sep is ``\\n``): |E|
    takes two digits below 100, else three.
    """
    e = np.arange(_E_MIN, _E_MAX + 1)
    d = _ascii_digits(np.abs(e), 3).T
    three = np.abs(e) >= 100
    sign = np.where(e < 0, ord("-"), ord("+"))
    high = _words(ord("e"), sign, np.where(three, d[0], d[1]), np.where(three, d[1], d[2]))
    sep = np.array([ord(","), ord("\n")])
    three, last = three[:, None], d[2][:, None]
    return high, _words(np.where(three, last, sep), np.where(three, sep, 0), 0, 0)


# every 4-digit group 0000..9999
_DIGITS4 = _words(*_ascii_digits(np.arange(10000), 4).T)
# [pad|sign|lead|'.'] at index 10 * signbit + lead digit
_LEAD = _words(
    0, np.where(np.arange(20) < 10, 0, ord("-")), np.arange(20) % 10 + ord("0"), ord(".")
)
_EXP_HI, _EXP_SEP = _exponent_tables()


def _scaled(ax: np.ndarray, e: np.ndarray):
    """y = ax * 10^(16 - e) as a normalized double-double (yh, yl)."""
    idx = _E_MAX - e
    b, b_hi, b_lo = _P_HI.take(idx), _P_HI_HI.take(idx), _P_HI_LO.take(idx)
    a_hi, a_lo = _split(ax)
    p = ax * b
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    t = err + ax * _P_LO.take(idx)
    yh = p + t
    return yh, t - (yh - p)


def _digits(ax: np.ndarray):
    """17 significant digits and decimal exponent of each ax in range.

    Returns (digits, exponent, exact): ``exact`` is False where ``%``
    must decide, near a rounding tie or a decade edge.
    """
    e = np.floor(np.log10(ax)).astype(np.int64)
    yh, yl = _scaled(ax, e)
    i = np.flatnonzero((yh <= 1e16) | (yh >= 1e17))  # E may be one off
    if i.size:
        h, l = yh[i], yl[i]
        low = (h < 1e16) | ((h == 1e16) & (l < 0))
        high = (h > 1e17) | ((h == 1e17) & (l >= 0))
        e[i] += high.astype(np.int64) - low
        yh[i], yl[i] = _scaled(ax[i], e[i])
    floor = np.floor(yl)
    frac = yl - floor
    exact = np.abs(frac - 0.5) >= _GUARD
    digits = yh.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    # |yl| <= 8, half an ulp of yh: only these y can lie within _GUARD of
    # 1e16 or 1e17, or round up to 1e17
    i = np.flatnonzero((yh < 1e16 + 16) | (yh > 1e17 - 32))
    if i.size:
        h, l = yh[i], yl[i]
        exact[i] &= (
            (np.abs((h - 1e16) + l) >= _GUARD)
            & (np.abs((h - 1e17) + l) >= _GUARD)
            & (h >= 1e16)
            & (h <= 1e17)
        )
        carry = i[digits[i] == 10**17]
        digits[carry] = 10**16
        e[carry] += 1
    return digits, e, exact


def _format_fields(table: np.ndarray) -> bytes:
    """The CSV bytes of one C-contiguous 2-D chunk of rows."""
    rows, cols = table.shape
    x = table.ravel()
    ax = np.abs(x)
    fast = (ax >= _X_MIN) & (ax <= _X_MAX)
    zero = ax == 0
    digits, exponent, exact = _digits(np.where(fast, ax, 1.0))
    digits[zero] = 0  # 1.0 stood in for ±0.0: exponent 0 already
    # nan, ±inf, subnormals, out of range, near ties
    slow = np.flatnonzero(~(fast & exact | zero))
    negative = np.signbit(x)

    out = np.empty((x.size, _WORDS), dtype=np.uint32)
    lead = digits // 10**16
    out[:, 0] = _LEAD.take(lead + 10 * negative)
    digits -= lead * 10**16
    high = digits // 10**8
    for word, half in ((1, high), (3, digits - high * 10**8)):
        group = half // 10**4
        out[:, word] = _DIGITS4.take(group)
        out[:, word + 1] = _DIGITS4.take(half - group * 10**4)
    narrow = not (slow.size or negative.any()) and -100 < exponent.min() and exponent.max() < 100
    exponent -= _E_MIN
    out[:, 5] = _EXP_HI.take(exponent)
    exponent *= 2
    exponent.reshape(rows, cols)[:, -1] += 1
    out[:, 6] = _EXP_SEP.take(exponent)
    for i in slow:
        sep = b"\n" if i % cols == cols - 1 else b","
        text = ("%.16e" % x[i]).encode() + sep
        out[i] = np.frombuffer(text.ljust(4 * _WORDS, b"\0"), dtype=np.uint32)
    if narrow:  # every field is "d." + 16 digits + "e±XX" + separator
        return out.view(np.uint8)[:, 2:25].tobytes()
    return out.tobytes().translate(None, b"\0")


def write_rows(fh, columns) -> None:
    """Write equal-length 1-D float columns to ``fh`` as ``'%.16e'`` CSV rows.

    A column may be a callable ``(lo, hi) -> array`` that forms rows
    lo..hi - 1 as the writer reaches them; the first array sets the count.
    """
    n_rows = next(len(column) for column in columns if not callable(column))
    step = max(1, _CHUNK // len(columns))
    buffer = np.empty((step, len(columns)))
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        rows = buffer[: stop - start]
        for j, column in enumerate(columns):
            rows[:, j] = column(start, stop) if callable(column) else column[start:stop]
        fh.write(_format_fields(rows))
