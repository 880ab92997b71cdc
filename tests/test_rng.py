"""Counter-based generator: determinism, index stability, distribution fit.

Distribution checks use scipy's reference CDFs at the 1% level with fixed
seeds, so they are deterministic.
"""

import hashlib
import math

import numpy as np
import pytest
import scipy.stats

from mvfrac import ParameterDomainError, derive_key, gamma_variates, normals, uniforms
from mvfrac.rng import _CHUNK, uniforms_at


def test_uniforms_open_interval():
    u = uniforms(derive_key(123), 0, 100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_uniforms_batch_split_invariance():
    key = derive_key(7, 2)
    whole = uniforms(key, 0, 1000)
    pieces = np.concatenate([uniforms(key, 0, 313), uniforms(key, 313, 687)])
    assert np.array_equal(whole, pieces)
    # an empty request is valid and draws nothing
    assert (uniforms(key, 0, 0).size == normals(key, 0, 0).size
            == gamma_variates(key, 2.5, 0).size == 0)


def test_stream_words_pinned():
    # SHA-256 of the float64 bytes, computed when the finalizer ran out of
    # place and normals evaluated both Box-Muller branches at every position
    key = derive_key(11, 3)
    assert hashlib.sha256(uniforms(key, 5, 10_001).tobytes()).hexdigest() == (
        "ba81695e6b91682a6bb4f52d1c0686c8a672b0685535c4a6c4e0a55d062b632e")
    assert hashlib.sha256(normals(key, 3, 10_001).tobytes()).hexdigest() == (
        "5632422f827d56181d116c3eaf6d71d4e702e223a693f06f16337c85bdf30a7c")
    gammas = (gamma_variates(key, 0.7, 2_000, 5).tobytes()
              + gamma_variates(key, 2.5, 2_000).tobytes())
    assert hashlib.sha256(gammas).hexdigest() == (
        "72a8a279c2ca12911084369b0f582210809d13d70e9b57b7019a5c195d0dadf9")


@pytest.mark.parametrize("start", [0, 5, _CHUNK - 1])
def test_uniforms_chunks_match_explicit_positions(start):
    # lengths and cuts straddle the internal chunk size
    key = derive_key(13, 1)
    n = 3 * _CHUNK + 17
    whole = uniforms(key, start, n)
    assert np.array_equal(whole, uniforms_at(key, np.arange(start, start + n)))
    for cut in (_CHUNK - 1, _CHUNK, _CHUNK + 1):
        pieces = [uniforms(key, start, cut), uniforms(key, start + cut, n - cut)]
        assert np.array_equal(whole, np.concatenate(pieces))


@pytest.mark.parametrize("first", [0, 1, 7, _CHUNK - 1])
def test_normals_chunks_match_explicit_pairs(first):
    key = derive_key(13, 2)
    n = 3 * _CHUNK + 17
    whole = normals(key, first, n)
    for cut in (_CHUNK - 1, _CHUNK, _CHUNK + 1):
        pieces = [normals(key, first, cut), normals(key, first + cut, n - cut)]
        assert np.array_equal(whole, np.concatenate(pieces))
    # Box-Muller on the uniform pair of every position, one position at a time
    pos = np.arange(first, first + n)
    radius = np.sqrt(-2.0 * np.log(uniforms_at(key, pos - pos % 2)))
    angle = 2.0 * np.pi * uniforms_at(key, pos - pos % 2 + 1)
    expected = np.where(pos % 2 == 0, radius * np.cos(angle), radius * np.sin(angle))
    assert np.array_equal(whole, expected)


def test_uniforms_at_scalar_and_array_positions():
    key = derive_key(7, 2)
    block = uniforms(key, 0, 8)
    assert np.array_equal(uniforms_at(key, np.arange(8)[::-1]), block[::-1])
    assert float(uniforms_at(key, 5)) == block[5]


def test_counter_slots_stop_below_two_to_the_64():
    # the finalizer reads slot i as i + 1 in 64 bits, so a request reaching
    # slot 2**64 - 1 is refused instead of wrapping to the low slots
    key = derive_key(1)
    for call, value in (
            (lambda: gamma_variates(key, 2.0, 2, first=2**56), 2**56),
            (lambda: gamma_variates(key, 2.0, 2, first=2**70), 2**70),
            (lambda: uniforms(key, 2**64 - 1, 1), 2**64 - 1),
            (lambda: normals(key, 2**64 - 2, 1), 2**64 - 2),
            (lambda: normals(key, 2**64, 2), 2**64),
            (lambda: uniforms_at(key, [-1]), [-1]),
            (lambda: uniforms_at(key, [2**64 - 1]), [2**64 - 1]),
            (lambda: uniforms_at(key, [2.0]), [2.0])):
        with pytest.raises(ParameterDomainError) as info:
            call()
        assert str(info.value).endswith(f"got {value!r}")
    # the slots just below are drawn, by every path alike
    top = uniforms(key, 2**64 - 4, 2)
    assert np.array_equal(top, uniforms_at(key, np.array([2**64 - 4, 2**64 - 3],
                                                         dtype=np.uint64)))
    assert normals(key, 2**64 - 3, 1)[0] == normals(key, 2**64 - 4, 2)[1]
    last = gamma_variates(key, 0.5, 3, first=2**56 - 4)
    assert np.array_equal(last[1:], gamma_variates(key, 0.5, 2, first=2**56 - 3))


def test_uniforms_distinct_keys_decorrelated():
    a = uniforms(derive_key(1), 0, 4096)
    b = uniforms(derive_key(2), 0, 4096)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_derive_key_tag_separation():
    assert derive_key(42, 0) != derive_key(42, 1)
    assert derive_key(42) != derive_key(43)


def test_derive_key_is_total():
    # any integer seed is masked into range rather than rejected
    derive_key(2 ** 80 + 17)
    derive_key(-5)


@pytest.mark.parametrize("seed", [1.7, 1.0, True, "1", None])
def test_derive_key_refuses_non_integer_seeds(seed):
    # seeds take the integer rule: 1.7 used to draw as seed 1, True as 1
    with pytest.raises(ParameterDomainError, match="seed must be an integer"):
        derive_key(seed)


def test_derive_key_takes_numpy_and_negative_seeds():
    assert derive_key(np.int64(7)) == derive_key(7)
    assert derive_key(-1) == derive_key(2 ** 64 - 1)


def test_uniforms_ks():
    u = uniforms(derive_key(99), 0, 50_000)
    stat = scipy.stats.kstest(u, "uniform").statistic
    assert stat < 1.6276 / np.sqrt(len(u))  # 1% critical value


def test_normals_ks_and_index_stability():
    key = derive_key(5, 1)
    x = normals(key, 0, 50_000)
    stat = scipy.stats.kstest(x, "norm").statistic
    assert stat < 1.6276 / np.sqrt(len(x))
    # an offset run reproduces the same positions
    tail = normals(key, 10, 40)
    assert np.array_equal(tail, x[10:50])


def test_normals_pair_structure_unbiased():
    # even and odd positions use the two halves of one polar rotation; both
    # halves must carry the full distribution
    key = derive_key(17)
    x = normals(key, 0, 60_000)
    even, odd = x[0::2], x[1::2]
    assert scipy.stats.kstest(even, "norm").statistic < 1.6276 / np.sqrt(len(even))
    assert scipy.stats.kstest(odd, "norm").statistic < 1.6276 / np.sqrt(len(odd))


@pytest.mark.parametrize("shape", [0.4, 1.0, 2.5, 9.0])
def test_gamma_variates_ks(shape):
    g = gamma_variates(derive_key(31, int(shape * 10)), shape, 30_000)
    stat = scipy.stats.kstest(g, "gamma", args=(shape,)).statistic
    assert stat < 1.6276 / np.sqrt(len(g))


def test_gamma_variates_index_stability():
    key = derive_key(11, 4)
    whole = gamma_variates(key, 1.7, 500)
    offset = gamma_variates(key, 1.7, 100, first=250)
    assert np.array_equal(offset, whole[250:350])


def test_gamma_variates_positive_and_finite():
    g = gamma_variates(derive_key(2), 0.05, 5_000)  # deep boost branch
    assert np.all(np.isfinite(g))
    assert np.all(g > 0.0)


def test_gamma_variates_domain():
    with pytest.raises(ParameterDomainError):
        gamma_variates(derive_key(1), 0.0, 10)
    with pytest.raises(ParameterDomainError):
        gamma_variates(derive_key(1), -1.0, 10)


def test_moments_match_theory():
    g = gamma_variates(derive_key(8, 8), 3.0, 200_000)
    se_mean = g.std() / np.sqrt(len(g))
    assert abs(g.mean() - 3.0) < 4 * se_mean
    x = normals(derive_key(8, 9), 0, 200_000)
    assert abs(x.mean()) < 4 / np.sqrt(len(x))
    assert abs(x.var() - 1.0) < 4 * np.sqrt(2.0 / len(x))


# ---------------------------------------------------------------------------
# the streams against an independent finalizer in Python integers

_M64 = (1 << 64) - 1


def _reference_uniforms(key, positions):
    """Slot i's uniform from splitmix64's finalizer on key + (i+1) * golden
    mod 2**64, in Python ints and floats."""
    out = []
    for i in positions:
        w = (int(key) + (int(i) + 1) * 0x9E3779B97F4A7C15) & _M64
        w = ((w ^ (w >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        w = ((w ^ (w >> 27)) * 0x94D049BB133111EB) & _M64
        w ^= w >> 31
        out.append(((w >> 11) + 0.5) * 2.0 ** -53)
    return np.array(out)


@pytest.mark.parametrize("start", [0, 5, _CHUNK - 1, 2**64 - 4])
def test_uniforms_match_reference_finalizer(start):
    key = derive_key(11, 3)
    n = min(_CHUNK + 3, 2**64 - 1 - start)  # straddles a chunk where it can
    got = uniforms(key, start, n)
    want = _reference_uniforms(key, range(start, start + n))
    assert np.array_equal(got, want)


def test_uniforms_at_matches_reference_finalizer():
    key = derive_key(2**64 - 7, 2**63 + 1)
    pos = [0, 1, 7, 2**31, 2**40 + 3, 2**63 - 1]
    want = _reference_uniforms(key, pos)
    ipos = np.array(pos, dtype=np.int64)
    assert np.array_equal(uniforms_at(key, ipos), want)
    upos = np.array(pos + [2**63, 2**64 - 2], dtype=np.uint64)
    assert np.array_equal(uniforms_at(key, upos),
                          _reference_uniforms(key, upos.tolist()))
    assert float(uniforms_at(key, 2**40 + 3)) == want[4]


@pytest.mark.parametrize("first", [0, 3, 2**60 + 1])
def test_normals_match_reference_pairs(first):
    # Box-Muller on the reference uniform pairs, each branch from its pair
    key = derive_key(5, 9)
    n = 9
    pos = np.arange(n) + first % 2
    pairs = _reference_uniforms(key, range(first & ~1, (first & ~1) + n + 2))
    u1, u2 = pairs[pos - pos % 2], pairs[pos - pos % 2 + 1]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    want = np.where(pos % 2 == 0, radius * np.cos(angle),
                    radius * np.sin(angle))
    assert np.array_equal(normals(key, first, n), want)


@pytest.mark.parametrize("shape", [0.7, 2.5])
def test_gamma_first_attempt_matches_reference_slots(shape):
    # a variate accepted at its first attempt is the Marsaglia-Tsang value,
    # in the sampler's numpy arithmetic, of the reference uniforms at slots
    # 0, 1, 2 of its block, boosted below shape one by the one at slot 255
    key = derive_key(3, 1)
    first, n = 6, 64
    base = np.arange(first, first + n) * 256
    u1, u2, u3 = (_reference_uniforms(key, base + s) for s in range(3))
    a = shape + 1.0 if shape < 1.0 else shape
    d = a - 1.0 / 3.0
    c = 1.0 / (3.0 * math.sqrt(d))
    x = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    v = (1.0 + c * x) ** 3
    x2 = x * x
    safe_v = np.where(v > 0.0, v, 1.0)
    accept = (v > 0.0) & ((u3 < 1.0 - 0.0331 * x2 * x2) | (
        np.log(u3) < 0.5 * x2 + d * (1.0 - safe_v + np.log(safe_v))))
    want = d * v
    if shape < 1.0:
        want *= _reference_uniforms(key, base + 255) ** (1.0 / shape)
    got = gamma_variates(key, shape, n, first)
    assert accept.sum() > 50
    assert np.array_equal(got[accept], want[accept])
