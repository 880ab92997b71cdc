"""The sample formatter: _floatrepr.repr_text writes what repr writes.

repr_text computes shortest round-trip digits in numpy integer arithmetic
and lays them out by repr's rules, so every case here is compared with
repr itself: the exponent extremes, the subnormals whose digits the
published algorithm would pad to two, the layout boundaries and a million
random bit patterns.
"""

import numpy as np

from mvfrac._floatrepr import _BLOCK, repr_text


def check(values):
    values = np.asarray(values, dtype=np.float64)
    got = repr_text(values)
    assert len(got) == values.size
    want = list(map(repr, values.tolist()))
    if got != want:
        bad = [(w, g) for w, g in zip(want, got) if w != g]
        raise AssertionError(f"{len(bad)} differ from repr, first {bad[:5]}")


def test_powers_of_two_and_their_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    neighbours = [np.nextafter(powers, 0.0), np.nextafter(powers[:-1], np.inf)]
    check(np.concatenate([powers, *neighbours]))
    check(-np.concatenate([powers, *neighbours]))


def test_subnormals_with_small_significands():
    # below 1e-322 Python writes one digit (5e-324, 1e-323, 7e-323)
    significands = np.arange(2**16, dtype=np.uint64)
    check(significands.view(np.float64))
    check(-significands.view(np.float64))


def test_signed_zeros_and_integers_near_2_53():
    near = np.arange(2**53 - 2000, 2**53 + 2000, dtype=np.float64)
    check(np.concatenate([[0.0, -0.0, 1.0, -1.0], near, -near]))


def test_layout_edges():
    # the last fixed and first exponent forms at both ends of the fixed range
    check([9.999999999999999e-05, 1e-04, 1e-05, 9999999999999998.0, 1e16,
           1.0000000000000002e16, 1e15, 123456789012345.67, 0.1, 0.5, 100.0,
           1e22, 1e23, 5e-324, 1e-323, 7e-323, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, -1e-300])


def test_random_bit_patterns():
    bits = np.random.default_rng(20181).integers(
        0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    check(values[np.isfinite(values)])


def test_sizes_around_the_block():
    values = np.random.default_rng(7).standard_normal(2 * _BLOCK + 1)
    for size in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        check(values[:size])
    check(values[::3])  # not contiguous
