"""Deterministic counter-based random streams.

Every draw is a pure function of (key, counter index): the raw 64-bit output
at index i is the splitmix finalizer applied to key + (i+1) * golden ratio
mod 2**64.  The finalizer _unit takes counters already multiplied by the
golden ratio: uniforms adds one scalar to a table of j * golden built on
first use, uniforms_at multiplies in one pass, and the gamma and cone
samplers add slot steps to block offsets held times golden.
The same seed gives the same draws bit for bit across reruns and batch sizes
on one host (numpy's float kernels may round differently on another CPU),
and sub-streams are addressed by absolute index instead of by shared mutable
state.

Uniforms are mapped to the open interval (0,1) as (x >> 11 + 0.5) * 2**-53,
normals come from Box-Muller on consecutive uniform pairs (even index takes
the cosine branch, odd the sine branch), and gamma variates use the
Marsaglia-Tsang squeeze with the power boost below shape one.  Each gamma
variate owns a fixed block of counter slots so rejection never desynchronizes
neighbouring variates.
"""

import functools
import math

import numpy as np

from .errors import ParameterDomainError, ResourceLimitError, as_int, as_shape

__all__ = [
    "derive_key",
    "uniforms",
    "uniforms_at",
    "normals",
    "gamma_variates",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO_NEG53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi

# counter budget per gamma variate: 84 squeeze attempts of 3 slots each,
# plus one reserved slot for the small-shape boost
_GAMMA_STRIDE = 256
_GAMMA_MAX_ATTEMPTS = 84
_GAMMA_BOOST_SLOT = 255
_ATTEMPT_SLOTS = np.arange(3, dtype=np.uint64)[:, None] * _GOLDEN

# words per pass of uniforms and normals: a chunk and its scratch (512 KB)
# stay in L2 cache instead of streaming through memory once per round
_CHUNK = 1 << 15


def derive_key(seed, tag=0):
    """A 64-bit stream key from a seed and a stream tag, each an int or
    numpy integer of any sign taken modulo 2**64; a float, string, bool or
    None is a ParameterDomainError."""
    z = as_int(seed, "seed", -math.inf) & _MASK64
    z = (z * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03) & _MASK64
    tag = as_int(tag, "stream tag", -math.inf) & _MASK64
    z ^= (tag * 0xC2B2AE3D27D4EB4F) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return np.uint64(z)


def _golden(i):
    """i * golden ratio mod 2**64 as a uint64 scalar, for a Python int i."""
    return np.uint64(i * int(_GOLDEN) & _MASK64)


@functools.cache
def _golden_steps():
    """j * golden ratio mod 2**64 for j in 0.._CHUNK-1, built on first use."""
    return np.arange(_CHUNK, dtype=np.uint64) * _GOLDEN


def _unit(key, z, t):
    """Uniforms (word >> 11 + 0.5) * 2**-53 in place of the uint64 buffer z
    of counter slots i times the golden ratio: key + golden is added as one
    scalar, so slot i reads key + (i+1)*golden; t is the finalizer's scratch.
    The shifted words are below 2**53, so the int64 conversion is exact."""
    z += np.uint64((int(key) + int(_GOLDEN)) & _MASK64)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mix
    np.right_shift(z, 31, out=t)
    z ^= t
    z >>= np.uint64(11)
    u = z.view(np.float64)
    np.add(z.view(np.int64), 0.5, out=u)
    u *= _TWO_NEG53
    return u


def _check_slots(first, end):
    """Refuse a request from counter position first whose slots reach
    end - 1 >= 2**64 - 1: the finalizer reads slot i as i + 1 in 64 bits."""
    if end > _MASK64:
        raise ParameterDomainError(
            f"counter slots must lie below 2**64 - 1, got {first!r}")


def uniforms(key, start, n):
    """n uniforms in the open interval (0,1) at counter positions
    start..start+n-1, each below 2**64 - 1."""
    start = as_int(start, "counter position")
    out = np.empty(as_int(n, "count"))
    _check_slots(start, start + out.size)
    steps = _golden_steps()
    t = np.empty(min(out.size, _CHUNK), dtype=np.uint64)
    for lo in range(0, out.size, _CHUNK):
        z = out[lo:lo + _CHUNK].view(np.uint64)
        np.add(steps[:z.size], _golden(start + lo), out=z)
        _unit(key, z, t[:z.size])
    return out


def uniforms_at(key, idx):
    """Uniforms in (0,1) at explicit counter positions in [0, 2**64 - 1)."""
    pos = np.asarray(idx)
    if pos.size and not (pos.max() < _MASK64 if pos.dtype.kind == "u"
                         else pos.dtype.kind == "i" and pos.min() >= 0):
        raise ParameterDomainError("counter positions must be integers in "
                                   f"[0, 2**64 - 1), got {idx!r}")
    # int64 positions, checked non-negative, cast to uint64 in the multiply
    z = np.multiply(pos, _GOLDEN, out=np.empty(pos.shape, dtype=np.uint64),
                    dtype=np.uint64, casting="unsafe")
    return _unit(key, z, np.empty_like(z))


def normals(key, first, n):
    """n standard normals at normal-stream positions first..first+n-1.

    Normal position e consumes the uniform pair (2*(e//2), 2*(e//2)+1); even
    positions take the Box-Muller cosine branch, odd ones the sine branch, so
    any contiguous block of positions is reproducible in isolation.  Each
    pair is transformed once and yields both branches.
    """
    first = as_int(first, "counter position")
    n = as_int(n, "count")
    _check_slots(first, (first + n + 1) & ~1)
    z = np.empty((((first + n + 1) >> 1) - (first >> 1), 2))
    for lo in range(0, len(z), _CHUNK // 2):
        zc = z[lo:lo + _CHUNK // 2]
        u = uniforms(key, (first & ~1) + 2 * lo, zc.size).reshape(-1, 2)
        radius = np.sqrt(-2.0 * np.log(u[:, 0]))
        angle = _TWO_PI * u[:, 1]
        np.multiply(radius, np.cos(angle), out=zc[:, 0])
        np.multiply(radius, np.sin(angle), out=zc[:, 1])
    return z.reshape(-1)[first & 1:(first & 1) + n]


def gamma_variates(key, shape, n, first=0):
    """n gamma(shape, rate 1) variates at variate positions first..first+n-1.

    Marsaglia-Tsang: with d = shape - 1/3 and c = 1/(3 sqrt(d)), propose
    d*(1+c*x)**3 for a standard normal x and accept via the quartic squeeze
    u < 1 - 0.0331 x**4 or the exact log test.  Shapes below one are drawn at
    shape+1 and scaled by u**(1/shape).  Each variate consumes slots from its
    own fixed counter block; the acceptance rate is high enough that running
    out of the 84-attempt budget is not a reachable event for valid shapes.
    """
    shape = as_shape(shape, "gamma shape", 1)
    n = as_int(n, "count")
    first = as_int(first, "counter position")
    _check_slots(first, (first + n) * _GAMMA_STRIDE)
    # slot 0 of each variate's block times the golden ratio, as _unit takes it
    blocks = (first + np.arange(n, dtype=np.uint64)) * _golden(_GAMMA_STRIDE)
    boosted = shape < 1.0
    a = shape + 1.0 if boosted else shape
    d = a - 1.0 / 3.0
    c = 1.0 / (3.0 * math.sqrt(d))
    out = np.empty(n, dtype=np.float64)
    pending = np.arange(n, dtype=np.int64)
    for attempt in range(_GAMMA_MAX_ATTEMPTS):
        if pending.size == 0:
            break
        z = blocks[pending] + (_ATTEMPT_SLOTS + _golden(3 * attempt))
        u1, u2, u3 = _unit(key, z, np.empty_like(z))
        x = np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)
        v = (1.0 + c * x) ** 3
        positive = v > 0.0
        x2 = x * x
        squeeze = u3 < 1.0 - 0.0331 * x2 * x2
        safe_v = np.where(positive, v, 1.0)
        slow = np.log(u3) < 0.5 * x2 + d * (1.0 - safe_v + np.log(safe_v))
        accept = positive & (squeeze | slow)
        out[pending[accept]] = d * v[accept]
        pending = pending[~accept]
    if pending.size:
        raise ResourceLimitError(
            f"gamma sampler exhausted {_GAMMA_MAX_ATTEMPTS} attempts for "
            f"{pending.size} variates (shape={shape})")
    if boosted:
        blocks += _golden(_GAMMA_BOOST_SLOT)
        out *= _unit(key, blocks, np.empty_like(blocks)) ** (1.0 / shape)
    return out
