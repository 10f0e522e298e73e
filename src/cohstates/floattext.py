"""The text `repr` gives each float of an array, a block of values at a time.

repr writes the shortest decimal that reads back as the same double and,
of those, the one nearest to it (Steele and White; Gay's dtoa), in fixed
notation for a decimal d.dd x 10^e with -4 <= e < 16.  A sphere report
prints tens of thousands of floats at about half a microsecond each, so
`reprs` finds the digits of a block of values in numpy by R. Giulietti's
Schubfach ("The Schubfach way to render doubles", 2020), whose digits are
U. Adams's Ryu's and repr's.  A double c 2^q, c in [2^52, 2^53), and the
ends (c -+ 1/2) 2^q of the interval that rounds to it are scaled by 10^K
next to integers of 16 or 17 digits; of the integers in the interval, the
one ending in 0 is taken, else the nearer of the two around the double.
For |v| in [2^-14, 2^52), which holds every fixed-notation value but the
integers from 2^52 up, 10^K 2^(q + 46) is an integer below 2^50, and the
scaled values are its products with 2c and 2c -+ 1 over 2^45: exact in
32-bit limbs, so an exact tie shows as one.

The text is read off a table of 4-character groups into rows of 40: the
integer part ends in a "." at column 19, the 20 fraction digits follow,
and leading and trailing zeros are blank.  One `str.split` of a block's
rows gives its strings.  repr writes what is left: other magnitudes,
subnormals and non-finite values, powers of two (whose lower neighbour is
nearer) and exact ties.  The tables are formed on first use.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["reprs"]

# Values are converted this many at a time: numpy's cost per call is then
# small beside the work, and a block's arrays stay in cache.  A block costs
# about 120 us beside its values, as much as repr on 250 values (a 2-core
# Xeon), so a shorter one goes to repr.
_BLOCK, _SHORT = 2048, 256
_LO, _HI = 1023 - 14, 1023 + 51     # biased exponents of [2^-14, 2^52)
_U = np.uint64
_M32 = _U(0xFFFFFFFF)
# the table's groups: "dddd", then trailing zeros blank, "0", "ddd." and with
# leading zeros blank (the units digit kept), and "dddd" leading zeros blank
_TRAIL, _ZERO, _DOT, _DOT_LEAD, _LEAD = 10_000, 20_000, 20_001, 21_001, 22_001
_ROW = 40


@cache
def _tables() -> tuple:
    """(scale, K, text, pow10), the first two indexed by a double's sign and
    biased exponent e: 10^K 2^(q + 46), q = e - 1075, in range, else 0; and
    K, 15 for +-0, whose d = 0 then has its point after digit 1."""
    scale = np.zeros(4096, dtype=np.uint64)
    ks = np.ones(4096, dtype=np.int64)
    ks[[0, 2048]] = 15
    for e in range(_LO, _HI + 1):
        q = e - 1075
        k = -((q * 661_971_961_083) >> 41)      # -floor(q log10 2)
        scale[[e, e + 2048]] = 5**k << (k + q + 46)
        ks[[e, e + 2048]] = k
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1)
    digits = digits.reshape(10_000, 4)
    zeros = digits == ord("0")
    run = np.logical_and.accumulate
    trail = np.where(run(zeros[:, ::-1], axis=1)[:, ::-1], 32, digits)
    lead = np.where(run(zeros, axis=1), 32, digits)
    dot = np.full((1000, 1), ord("."), dtype=np.uint8)
    dot_lead = np.hstack([lead[:1000, 1:], dot])
    dot_lead[0, 2] = ord("0")
    text = np.vstack([digits, trail, np.array([[ord("0"), 32, 32, 32]],
                                               dtype=np.uint8),
                      np.hstack([digits[:1000, 1:], dot]), dot_lead, lead])
    pow10 = np.array([10**i for i in range(20)], dtype=np.uint64)
    return scale, ks, text.view(np.uint32).ravel(), pow10


def reprs(values) -> list[str]:
    """[repr(float(v)) for v in values], for any array of floats."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    out = []
    for block in np.split(x, range(_BLOCK, len(x), _BLOCK)):
        if len(block) < _SHORT:
            out += map(repr, block.tolist())
            continue
        bits = block.view(np.uint64)
        d, point, fallback = _shortest(bits)
        texts = _layout(d, point, bits >> _U(63)).tobytes().decode().split()
        if len(texts) != len(block):    # a row not one word would shift all
            raise AssertionError("a float's text is not one word")
        where = np.flatnonzero(fallback)
        for i, v in zip(where.tolist(), block[where].tolist()):
            texts[i] = repr(v)
        out += texts
    return out


def _shortest(bits: np.ndarray) -> tuple:
    """(d, point, fallback): the shortest decimal nearest to each double is
    d 10^(point - 17), d of 17 digits, where fallback is False; d = 10^16
    and point = 1 where it is True, and repr must write the value."""
    scale, ks = _tables()[:2]
    top = (bits >> _U(52)).astype(np.intp)          # sign and exponent
    f = scale[top]
    c = bits & _U(2**52 - 1)
    odd = (c & _U(1)).view(np.int64)            # the interval is then open
    fallback = np.where(f != 0, c == 0, bits << _U(1) != 0)
    # 4 v 10^K and its interval's ends, rounded to odd: m f / 2^45 for
    # m = 2c - 1, 2c, 2c + 1, below 2^54, and f below 2^50
    m = np.empty((3, len(bits)), dtype=np.uint64)
    np.left_shift(c | _U(2**52), _U(1), out=m[1])
    np.subtract(m[1], _U(1), out=m[0])
    np.add(m[1], _U(1), out=m[2])
    m1, f0, f1 = m >> _U(32), f & _M32, f >> _U(32)
    m &= _M32
    lo = m * f0
    mid = m * f1                    # m f = lo + mid 2^32, mid below 2^55
    mid += m1 * f0
    mid += lo >> _U(32)
    inexact = ((mid & _U(0x1FFF)) | (lo & _M32)) != 0
    mid >>= _U(13)
    m1 *= f1
    mid += m1 << _U(19)
    vbl, vb, vbr = (mid | inexact).view(np.int64)
    # Schubfach's choice: s 10^-K <= v < t 10^-K, sp10 the multiple of 10
    s = vb >> 2
    t = s + 1
    sp10 = s - s % 10
    upin = vbl + odd <= sp10 << 2
    wpin = (sp10 + 10 << 2) + odd <= vbr
    uin, win = vbl + odd <= s << 2, (t << 2) + odd <= vbr
    cmp = vb - (s + t << 1)
    d = np.where(upin != wpin, sp10 + 10 * ~upin,
                 np.where(uin != win, s + ~uin, s + (cmp > 0)))
    fallback |= (upin == wpin) & (uin == win) & ~(uin & (cmp != 0))
    short = d < 10**16
    point = 17 - short - ks[top]
    fallback |= point < -3                      # repr's exponent notation
    d = np.where(fallback, 10**16, np.where(short, d * 10, d)).view(np.uint64)
    return d, np.where(fallback, 1, point), fallback


def _layout(d: np.ndarray, point: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The text of d 10^(point - 17), with a "-" where sign is 1, one row of
    _ROW characters per value, blank but for it."""
    text, pow10 = _tables()[2:]
    # integer part ip; the fraction's 20 digits, head and then rest
    ip, fr = np.divmod(d, pow10[17 - np.maximum(point, 0)])
    head, rest = np.divmod(fr, pow10[np.maximum(13 - point, 0)])
    rest *= pow10[np.minimum(3 + point, 19)]
    g = np.empty((len(d), 10), dtype=np.intp)
    for k in (9, 8, 7, 6):
        rest, g[:, k] = np.divmod(rest, _U(10**4))
    g[:, 5] = head * pow10[np.maximum(point - 13, 0)]
    # a fraction group is _TRAIL's when no later one has a digit
    g[:, 9] += _TRAIL
    for k in (8, 7, 6, 5):
        g[:, k] += _TRAIL * (g[:, k + 1] == _TRAIL)
    g[:, 5] += (_ZERO - _TRAIL) * (fr == 0)
    # an integer group is _LEAD's when no earlier one has a digit
    ip, g[:, 4] = np.divmod(ip, _U(1000))
    g[:, 4] += _DOT + (_DOT_LEAD - _DOT) * (ip == 0)
    for k in (3, 2, 1):
        ip, g[:, k] = np.divmod(ip, _U(10**4))
        g[:, k] += _LEAD * (ip == 0)
    g[:, 0] = ip + _LEAD
    chars = text.take(g).view(np.uint8).ravel()
    # the character before the first digit, blank, is " " or "-"
    chars[np.arange(18, _ROW * len(d), _ROW) - np.maximum(point, 1)] = (
        32 + 13 * sign)
    return chars
