"""The repr text of many finite floats at once, in numpy integer arithmetic.

repr_text(values) returns [repr(v) for v in values] for a 1-D float64 array
of finite values, computed in blocks of _BLOCK values:

- Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
  2020; the algorithm of Java's Double.toString since JDK 19) finds the
  shortest decimal that reads back as the same double and, of those, the
  one nearest it, ties to an even last digit.  These are the digits
  Python's repr writes (David Gay's dtoa, mode 0).  The 126-bit powers of
  ten g and their products with the scaled significand are carried in
  np.uint64 words, each 64 x 64 -> 128-bit product from four products of
  32-bit halves.
- No two-digit floor: the published algorithm keeps at least two digits,
  so it scales the subnormals 5e-324 and 1e-323 by ten and skips the
  10^(k+1) candidate when s < 100, and would print 4.9e-324 where Python
  prints 5e-324.  Here every value tries the 10^(k+1) candidate and no
  value is scaled.
- Layout, by Python's repr rules for a value of n significant digits and
  decimal exponent E (the value is d.ddd x 10^E): the exponent form
  d[.ddd]e+XX when E < -4 or E > 15, with at least two exponent digits;
  otherwise the fixed form, 0.000ddd for E < 0 and ddd.ddd for E >= 0,
  with at least one digit after the point (1e16 is "1e+16", 1e15 is
  "1000000000000000.0", and -0.0 is "-0.0").
- Each block's rows are sorted by a layout code, so that each run of
  rows with one code is written by a few slice assignments into a
  NUL-padded (rows, 24) byte matrix.  Its rows, as UCS-4 "U24" items,
  become str objects in one tolist.

Scalar operands are np.uint64, or Python ints beside int64 arrays, so that
numpy 1.24's value-based casting and numpy 2's NEP 50 give the same dtypes.
The tables are built on the first call.
"""

import functools
import typing

import numpy as np

_BLOCK = 4096
_WIDTH = 24  # len(repr(-1.2345678901234567e-300))
_TEXT = np.dtype(f"U{_WIDTH}")
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k a double can need
_E_SPAN = 640  # more than the 633 exponents E of 5e-324 to 1.8e308

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_ONE, _TWO, _FOUR, _TEN = _U(1), _U(2), _U(4), _U(10)
_LOG10_THREE_QUARTERS = -274743187321  # log10(3/4) 2^41
_C_MIN = _U(2**52)
_ZEROS = np.frombuffer(b"0.000", dtype=np.uint8)
_POINT_ZERO = np.frombuffer(b".0", dtype=np.uint8)
_E_SIGN = np.frombuffer(b"e+e-", dtype=np.uint8).reshape(2, 2)


def _flog10pow2(e, shift=0):
    """floor(e log10 2), exact for |e| < 5.4e6, for an int64 array e; with
    shift _LOG10_THREE_QUARTERS, floor(log10(3/4 2^e)), exact for |e| <
    2.6e6."""
    return (e * 661971961083 + shift) >> 41


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| < 1.8e6."""
    return (e * 913124641741) >> 38


class _Tables(typing.NamedTuple):
    # by the biased exponent, plus 2048 for c = 2^52 above the subnormals,
    # whose gap below is half the gap above
    k: np.ndarray  # the decimal exponent of s: floor(log10 of the gap)
    h: np.ndarray  # q + floor(-k log2 10) + 2
    # 10^-k as g = g1 2^63 + g0 = floor(10^-k 2^(125 - floor(-k log2 10)))
    # + 1, in [2^125, 2^126)
    g1: np.ndarray
    g0: np.ndarray
    # the powers of ten 10^0 .. 10^17, and by v in 0000 .. 9999: the zeros
    # that end v and its four ASCII digits as one uint32
    pow10: np.ndarray
    trailing: np.ndarray
    digits4: np.ndarray
    # row k keeps the bytes 0 .. k + 2 and 20 .. 23 of a digit row
    masks: np.ndarray
    # by n 640 + E + 324: the layout code, 0..39 for the fixed form (E + 4,
    # plus 20 when no digit follows the point) and 40 + 4n + 2 (3-digit
    # exponent) + (E < 0) for the exponent form, to which a minus sign adds
    # 128; and the digits written, n or, when no digit follows the point,
    # E + 1, so that the zeros of 1000.0 are kept
    codes: np.ndarray
    keeps: np.ndarray


@functools.cache
def _tables():
    """The _Tables, built on the first call."""
    biased = np.arange(2048)
    q = np.concatenate([np.maximum(biased, 1) - 1075] * 2)
    k = _flog10pow2(q, (np.arange(q.size) >= 2048) * _LOG10_THREE_QUARTERS)
    tens = [1]
    for _ in range(-_K_MIN):
        tens.append(10 * tens[-1])
    g1, g0 = [], []
    for kk in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-kk)
        if kk <= 0:
            g = tens[-kk] << shift if shift >= 0 else tens[-kk] >> -shift
        else:
            g = (1 << shift) // tens[kk]
        g1.append((g + 1) >> 63)
        g0.append((g + 1) & (2**63 - 1))
    # int16 throughout, which keeps the build's heap small
    v = np.arange(10**4, dtype=np.int16)
    quads = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], 1)
    trailing = np.argmax(quads[:, ::-1] != 0, axis=1).astype(np.int16)
    trailing[0] = 4
    n = np.arange(18, dtype=np.int16)[:, None]
    e = np.arange(_E_SPAN, dtype=np.int16) - 324
    expo = (e < -4) | (e > 15)
    codes = np.where(expo, 40 + 4 * n + 2 * (np.abs(e) >= 100) + (e < 0),
                     e + 4 + 20 * (n <= e + 1))
    keeps = np.maximum(n, np.where(expo, 0, e + 1))
    byte = np.arange(24)
    masks = (byte < np.arange(3, 21)[:, None]) | (byte >= 20)
    return _Tables(
        k, (q + _flog2pow10(-k) + 2).astype(_U),
        np.array(g1, dtype=_U)[k - _K_MIN], np.array(g0, dtype=_U)[k - _K_MIN],
        _U(10) ** np.arange(18, dtype=_U), trailing,
        (quads + 48).astype(np.uint8).view(np.uint32).ravel(),
        (masks * 255).astype(np.uint8), codes.astype(np.uint8).ravel(),
        keeps.ravel())


def _product(g, cp_hi, cp_lo, cp):
    """The 128-bit product of g < 2^63 and cp < 2^60 as its (high, low)
    words, from the four products of their 32-bit halves, the middle two
    of which sum below 2^64."""
    g_hi, g_lo = g >> _U(32), g & _M32
    cross = g_lo * cp_hi + g_hi * cp_lo
    mid = ((g_lo * cp_lo) >> _U(32)) + (cross & _M32)
    return g_hi * cp_hi + (cross >> _U(32)) + (mid >> _U(32)), g * cp


def _plus(hi, lo, g, s, rest):
    """(hi, lo) + g 2^s in 128 bits, for 0 < s < 64 and rest = 64 - s."""
    low = lo + (g << s)
    return hi + (g >> rest) + (low < lo), low


def _minus(hi, lo, g, s, rest):
    """(hi, lo) - g 2^s in 128 bits, for 0 < s < 64 and rest = 64 - s."""
    low = lo - (g << s)
    return hi - (g >> rest) - (low > lo), low


def _rop(g1_cp, g0_cp):
    """Giulietti's rop: floor(g cp 2^-127) with its last bit set when the
    remainder is not zero (round to odd), for g = g1 2^63 + g0 and cp
    < 2^63, from the 128-bit products g1 cp and g0 cp."""
    (y1, y0), x1 = g1_cp, g0_cp[0]
    z = (y0 >> _ONE) + x1
    return (y1 + (z >> _U(63))) | ((z & _M63) != _U(0))


def _shortest(bits):
    """(f, k): the shortest decimal f 10^k that reads back as each positive
    finite double v = c 2^q, given as its raw bits; f may end in zeros."""
    t = _tables()
    biased = (bits >> _U(52)).astype(np.intp)
    frac = bits & (_C_MIN - _ONE)
    c = frac | (biased > 0) * _C_MIN
    # the gap below c 2^q is half the gap above when c = 2^52, except at
    # the smallest normal exponent, whose neighbour below is subnormal
    regular = (frac != _U(0)) | (biased <= 1)
    row = biased + ~regular * 2048
    k, h, g1, g0 = t.k[row], t.h[row], t.g1[row], t.g0[row]
    # the interval's ends are c 2^q -/+ half a gap: 4c - 2 (or 4c - 1 below
    # a power of two) and 4c + 2 quarters, each shifted by h as cp is
    cp = c << (h + _TWO)
    cp_hi, cp_lo = cp >> _U(32), cp & _M32
    p1, p0 = _product(g1, cp_hi, cp_lo, cp), _product(g0, cp_hi, cp_lo, cp)
    vb = _rop(p1, p0)
    shift = h + regular, _U(64) - h - regular
    vbl = _rop(_minus(*p1, g1, *shift), _minus(*p0, g0, *shift))
    shift = h + _ONE, _U(63) - h
    vbr = _rop(_plus(*p1, g1, *shift), _plus(*p0, g0, *shift))
    # vb, vbl and vbr are v and the interval's ends in quarters of 10^k,
    # rounded to odd.  The candidates, in units of 10^k, are down and down
    # + 10, the multiples of 10^(k+1) about v, and then s and s + 1.  When
    # just one of down and down + 10 is in the interval it is the shortest;
    # otherwise s, s + 1 or both are in, and of both the nearer is taken,
    # ties to an even s.  An even c keeps the interval's ends, which read
    # back as the double.
    out = c & _ONE
    low, high = vbl + out, vbr - out
    s = vb >> _TWO
    down = s // _TEN * _TEN
    down_in = low <= down << _TWO
    up_in = (down << _TWO) + _U(40) <= high
    s4 = s << _TWO
    s_in, t_in = low <= s4, s4 + _FOUR <= high
    # s + 1 when only it is in, or both are and it is nearer, or as near
    # with s odd
    take_t = t_in & (~s_in | (vb + (s & _ONE) > s4 + _TWO))
    f = np.where(down_in != up_in, down + _TEN * up_in, s + take_t)
    return f, k


def _rows(a):
    """A 2-D C-contiguous array as a 1-D array of its rows, each one item,
    which numpy gathers far faster than rows of a 2-D array."""
    return a.view(f"V{a.shape[1] * a.itemsize}").ravel()


def _block(x, ucs4):
    """repr_text of one block, through ucs4, a (_BLOCK, _WIDTH) uint32
    array that the blocks of one call share."""
    t = _tables()
    size = x.size
    bits = x.view(_U)
    neg = (bits >> _U(63)).astype(np.uint8)
    bits = bits & _M63
    zero = bits == _U(0)
    # 0 is read as 2^56, whose k is 1, and written as f = 0 with E = 0
    f, k = _shortest(bits | zero * _U(1079 << 52))
    f = f * ~zero
    # f as exactly 17 digits, in a leading one and four groups of four,
    # and then |E|, each of which the digit table spells in four bytes
    width = np.searchsorted(t.pow10, f, side="right")
    f = f * t.pow10[17 - width]
    quad = np.empty((size, 6), dtype=np.intp)
    for j, unit in enumerate((10**16, 10**12, 10**8, 10**4)):
        quad[:, j] = high = f // _U(unit)
        f = f - high * _U(unit)
    quad[:, 4] = f
    exp10 = k + width + 323  # E + 324, >= 0
    quad[:, 5] = np.abs(exp10 - 324)
    # n significant digits, from the zeros that end each group of four
    # (4 for 0000): the last group's, then the group before's if the last
    # is 0000, and so on
    tz = t.trailing[quad[:, 1]]
    for group in quad.T[2:5]:
        tz = t.trailing[group] + tz * (group == 0)
    layout = (17 - tz) * _E_SPAN + exp10
    code = t.codes[layout] + (neg << np.uint8(7))
    # 24 bytes a row: three ASCII zeros, 17 digits with NULs after the
    # kept ones, a zero and the three digits of |E|
    digits = t.digits4[quad].view(np.uint8) & _rows(t.masks)[
        t.keeps[layout]].view(np.uint8).reshape(size, 24)
    # rows sorted by layout code, so that each code is a run of rows that
    # a few slice assignments write
    order = np.argsort(code, kind="stable")
    code = code[order]
    digits = _rows(digits)[order].view(np.uint8).reshape(size, 24)
    dn, mag = digits[:, 3:20], digits[:, 20:]
    text = np.zeros((size, _WIDTH), dtype=np.uint8)
    counts = np.bincount(code, minlength=256)
    starts = [0, *np.cumsum(counts).tolist()]
    text[starts[128]:, 0] = ord("-")
    for c in np.flatnonzero(counts).tolist():
        rows = slice(starts[c], starts[c + 1])
        col, c = divmod(c, 128)  # col 1 after a minus sign
        if c >= 40:  # d[.ddd]e+XX: m digits, a 3-digit exponent if w
            m, w, minus = (c - 40) // 4, c // 2 % 2, c % 2
            text[rows, col] = dn[rows, 0]
            if m > 1:
                text[rows, col + 1] = ord(".")
                text[rows, col + 2:col + m + 1] = dn[rows, 1:m]
                col += 1
            text[rows, col + m:col + m + 2] = _E_SIGN[minus]
            text[rows, col + m + 2:col + m + 4 + w] = mag[rows, 2 - w:]
            continue
        whole, e4 = divmod(c, 20)
        if e4 < 4:  # 0.000ddd: "0." and -E - 1 zeros, for E = e4 - 4
            lead = 5 - e4
            text[rows, col:col + lead] = _ZEROS[:lead]
            text[rows, col + lead:col + lead + 17] = dn[rows]
            continue
        a = e4 - 3  # ddd.ddd or ddd.0, with E + 1 digits before the point
        text[rows, col:col + a] = dn[rows, :a]
        if whole:
            text[rows, col + a:col + a + 2] = _POINT_ZERO
        else:
            text[rows, col + a] = ord(".")
            text[rows, col + a + 1:col + 18] = dn[rows, a:]
    # back in the block's order, as UCS-4 rows, which tolist makes str
    # objects with the NULs stripped
    out = np.empty_like(_rows(text))
    out[order] = _rows(text)
    ucs4 = ucs4[:size]
    np.copyto(ucs4, out.view(np.uint8).reshape(size, _WIDTH))
    return ucs4.view(_TEXT).ravel().tolist()


def repr_text(values):
    """[repr(v) for v in values], for a 1-D array of finite float64
    values."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    ucs4 = np.empty((_BLOCK, _WIDTH), dtype=np.uint32)
    out = []
    for start in range(0, x.size, _BLOCK):
        out += _block(x[start:start + _BLOCK], ucs4)
    return out
