"""Matrix samplers and cone Monte Carlo.

Distributional checks run at fixed seeds, so every assertion is a
deterministic comparison even where the underlying statement is
statistical.  Tolerances are standard-error multiples computed from the
sample itself.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats

from mvfrac import (
    DegenerateInputError,
    DetPowerOperand,
    DimensionError,
    FracOrder,
    McEstimate,
    ParameterDomainError,
    RectConfig,
    SpdMatrix,
    frac_integral_numeric,
    log_matrix_beta,
    log_matrix_gamma,
    mc_integrate_unit_cone,
    sample_matrix_gamma,
    sample_rect_exponential,
    sample_type1_beta,
    sample_uniform_spd_unit,
    verify_sum_density,
)
from mvfrac.matsample import (
    _CONE_BLOCK,
    _CONE_RATE,
    _CONE_SLACK,
    _EDGE,
    _GAMMA_OFF,
    _TAG_BETA_FIRST,
    _TAG_BETA_SECOND,
    _TAG_CONE,
    _TAG_GAMMA_DIAG,
    _TAG_RECT,
    _cone_raw,
    _indicator_estimate,
    _rect_raw,
)
from mvfrac.rng import derive_key, uniforms
from mvfrac.spdcore import _batch_det, check_spd, rect_transform, stiefel_constant
from mvfrac.verify import _gamma_cdf


# ---------------------------------------------------------------------------
# matrix gamma sampler

def test_matrix_gamma_p1_is_scalar_gamma():
    # density w^{a-1} e^{-w} for a single entry
    a = 1.8
    mats = sample_matrix_gamma(1, a, 100_000, 3)
    x = mats[:, 0, 0]
    stat = scipy.stats.kstest(x, "gamma", args=(a,)).statistic
    assert stat < 1.6276 / math.sqrt(len(x))  # 1% level


# shapes just above (p-1)/2 put mass next to singular matrices, and every
# draw there is still valid
_GAMMA_SHAPES = [(2, 3.5), (3, 2.6), (2, 0.55), (2, 0.75), (3, 1.1)]


@pytest.mark.parametrize("p,a", _GAMMA_SHAPES)
def test_matrix_gamma_trace_moment(p, a):
    mats = sample_matrix_gamma(p, a, 40_000, 17)
    tr = np.trace(mats, axis1=1, axis2=2)
    se = tr.std() / math.sqrt(len(tr))
    assert abs(tr.mean() - p * a) < 4 * se


@pytest.mark.parametrize("p,a", _GAMMA_SHAPES)
def test_matrix_gamma_determinant_moment(p, a):
    # E|W| is the ratio of consecutive matrix gamma values
    mats = sample_matrix_gamma(p, a, 40_000, 29)
    dt = _batch_det(mats)
    want = math.exp(log_matrix_gamma(p, a + 1) - log_matrix_gamma(p, a))
    se = dt.std() / math.sqrt(len(dt))
    assert abs(dt.mean() - want) < 4 * se


@pytest.mark.parametrize("p,a", [(1, 1e-300), (2, 0.51), (1, 1e308)])
def test_matrix_gamma_refuses_underflow_and_overflow(p, a):
    # a diagonal variate that underflows to zero leaves T T' singular, and
    # at 1e308 W itself overflows; neither has a draw to return
    with pytest.raises(DegenerateInputError, match="underflowed or overflowed"):
        sample_matrix_gamma(p, a, 20_000, 3)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_matrix_gamma_draws_pass_spd_check(p):
    # from shape (p+1)/2 on the density stays bounded at the boundary, and
    # the construction's draws also meet SpdMatrix's eigenvalue rule
    for a in (0.5 * (p + 1), p + 1.0):
        for seed in range(3):
            check_spd(sample_matrix_gamma(p, a, 20_000, seed))


def test_matrix_gamma_refuses_rows_past_its_stream_tags():
    # row 240's gamma stream would share its key with the off-diagonal
    # normals; 240 rows still have keys of their own
    assert sample_matrix_gamma(240, 130.0, 2, 7).shape == (2, 240, 240)
    for draw in (lambda: sample_matrix_gamma(241, 130.0, 2, 7),
                 lambda: sample_type1_beta(241, 130.0, 130.0, 2, 7)):
        with pytest.raises(ParameterDomainError, match="at most 240, got 241"):
            draw()


def test_stream_tags_give_distinct_keys():
    # every tag the program draws under keys a stream of its own at one
    # seed: matrix gamma rows and off-diagonal normals under each of their
    # three bases, the rectangular streams of the sampler and the
    # sum-density check, the cone, and suite_binomial's _random_spd pairs
    tags = [base + j
            for base in (_TAG_GAMMA_DIAG, _TAG_BETA_FIRST, _TAG_BETA_SECOND)
            for j in [*range(_GAMMA_OFF), _GAMMA_OFF]]
    tags += [_TAG_RECT + stream for stream in (0, 1, 2)]
    tags += [_TAG_CONE, *range(0x700, 0x70C)]
    keys = {int(derive_key(42, tag)) for tag in tags}
    assert len(keys) == len(tags) == 3 * 241 + 16


def test_matrix_gamma_shape_domain():
    with pytest.raises(ParameterDomainError):
        sample_matrix_gamma(3, 1.0, 3, 7)  # needs a > (p-1)/2


@pytest.mark.parametrize("shape", [math.inf, -math.inf, math.nan])
def test_matrix_gamma_shape_must_be_finite(shape):
    with pytest.raises(ParameterDomainError, match="shape must be finite"):
        sample_matrix_gamma(2, shape, 3, 7)


def test_matrix_gamma_determinism():
    a = sample_matrix_gamma(2, 2.0, 3, 5)
    b = sample_matrix_gamma(2, 2.0, 3, 5)
    assert a.shape == (3, 2, 2)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# rectangular exponential-weight sampler

def test_rect_entry_variance():
    # identity weights make every entry centered with variance 1/2
    cfg = RectConfig.with_identity_weights(1, 1)
    xs = sample_rect_exponential(cfg, 100_000, 7)
    v = xs[:, 0, 0]
    assert abs(v.mean()) < 4 * v.std() / math.sqrt(len(v))
    assert v.var() == pytest.approx(0.5, abs=0.01)


def test_rect_transform_mean():
    # the quadratic transform averages to (r/2) I for any weights
    from mvfrac import rect_transform

    a = SpdMatrix(np.array([[1.3, 0.4], [0.4, 0.9]]))
    b = SpdMatrix.diagonal((2.0, 0.5, 1.0))
    cfg = RectConfig(2, 3, a, b)
    xs = sample_rect_exponential(cfg, 30_000, 13)
    assert xs.shape == (30_000, 2, 3)
    acc = rect_transform(xs, cfg).mean(axis=0)
    assert np.max(np.abs(acc - 1.5 * np.eye(2))) < 0.05


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
def test_identity_weights_skip_products_bitwise(p):
    # with identity weights the draws and their transforms are the bytes
    # of the product path, taken here by a config whose cached _identity
    # is set to False
    for r in (p, p + 1, p + 3):
        cfg = RectConfig.with_identity_weights(p, r)
        forced = RectConfig.with_identity_weights(p, r)
        object.__setattr__(forced, "_identity", False)
        assert cfg._identity and not forced._identity
        x = _rect_raw(cfg, 600, 11, 1, 5)
        assert x.tobytes() == _rect_raw(forced, 600, 11, 1, 5).tobytes()
        assert (rect_transform(x, cfg).tobytes()
                == rect_transform(x, forced).tobytes())


def test_rect_sampler_checks_its_draws_in_place():
    # the rank rule reads the drawn array itself; a copy of it for the
    # check would put two (n, p, r) stacks in memory at once
    cfg = RectConfig.with_identity_weights(2, 3)
    sample_rect_exponential(cfg, 100, 1)  # imports
    tracemalloc.start()
    try:
        x = sample_rect_exponential(cfg, 200_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * x.nbytes


def test_identity_rule_needs_exact_identity():
    # a scaled identity or a non-diagonal weight is not the identity
    eye3 = SpdMatrix.identity(3)
    scaled = RectConfig(2, 3, SpdMatrix.diagonal((2.0, 2.0)), eye3)
    mixed = RectConfig(2, 3, [[1.0, 0.25], [0.25, 1.0]], eye3)
    assert not scaled._identity and not mixed._identity
    assert RectConfig(2, 3, np.eye(2), np.eye(3))._identity


# ---------------------------------------------------------------------------
# uniform sampler on the open unit cone

def test_cone_p1_mean():
    w = sample_uniform_spd_unit(1, 50_000, 5)
    v = w[:, 0, 0]
    assert abs(v.mean() - 0.5) < 4 * v.std() / math.sqrt(len(v))


def test_cone_samples_inside_cone():
    w = sample_uniform_spd_unit(2, 200, 21)
    check_spd(w)
    check_spd(np.eye(2) - w)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cone_draws_pass_spd_check(p):
    # the _EDGE margin on the leading minors certifies W and I - W for
    # SpdMatrix's eigenvalue rule, which the sampler does not re-check
    for seed in range(4):
        w = sample_uniform_spd_unit(p, 20_000, seed)
        check_spd(w)
        check_spd(np.eye(p) - w)


def test_cone_acceptance_rate():
    # the acceptance rate estimates vol(cone)/box: pi/6 over 2
    proposals = _cone_raw(2, 10_000, 5)[3]
    assert 10_000 / proposals == pytest.approx(math.pi / 12, rel=0.05)


@pytest.mark.parametrize("p,proposals", [(1, 10_000), (2, 38_855),
                                         (3, 736_791)])
def test_cone_accepted_draws_pinned(p, proposals):
    # the proposal count of a seeded run pins the accepted draws
    assert _cone_raw(p, 10_000, 5)[3] == proposals


# SHA-256 of W, det W and det(I - W) bytes and the proposal count, computed
# when every proposal was assembled into a matrix before any minor was tested
@pytest.mark.parametrize("p,proposals,digest", [
    (1, 20_000,
     "848016e5bfb773ddfa074b65f94ee8d5ae0397fb6edefba425c40543b615e8fe"),
    (2, 75_696,
     "8e4cc420fa5e5ac89b3bf923fc96d45d91de602b2d0739a7395d1d6d5794d8af"),
    (3, 1_455_930,
     "d29967ea8417c0fbdffc2421bb78be5a62f423d827189de4bb5a7c30010a444d"),
])
def test_cone_raw_outputs_pinned(p, proposals, digest):
    w, det_w, det_v, n_proposals = _cone_raw(p, 20_000, 1)
    assert n_proposals == proposals
    h = hashlib.sha256(w.tobytes() + det_w.tobytes() + det_v.tobytes()
                       + str(n_proposals).encode())
    assert h.hexdigest() == digest


def _cone_reference(p, seed, n_proposals):
    """Accepted proposals among the first n_proposals, drawn in one uniforms
    call and tested on every leading minor of the assembled W and I - W, as
    (positions, W, det W, det(I - W))."""
    width = p + p * (p - 1) // 2
    slots = uniforms(derive_key(seed, _TAG_CONE), 0, n_proposals * width)
    slots = slots.reshape(n_proposals, width)
    w = np.zeros((n_proposals, p, p))
    for j in range(p):
        w[:, j, j] = slots[:, j]
    for t, (i, j) in enumerate(zip(*np.tril_indices(p, -1))):
        w[:, i, j] = w[:, j, i] = 2.0 * slots[:, p + t] - 1.0
    ok = np.ones(n_proposals, dtype=bool)
    for k in range(1, p + 1):
        lead = w[:, :k, :k]
        ok &= (_batch_det(lead) > _EDGE) & (_batch_det(np.eye(k) - lead) > _EDGE)
    hits = np.flatnonzero(ok)
    return hits, w[hits], _batch_det(w[hits]), _batch_det(np.eye(p) - w[hits])


# seeds whose first five blocks hold an acceptance on a block's first
# proposal (after block 0) and one on a block's last proposal; at (2, 7)
# and (3, 185) some n below 200 also has a first block, sized for n draws,
# that falls short and is finished by a second one.  At p = 1 only the
# edge layer is rejected, so a first block never falls short
@pytest.mark.parametrize("p,seed", [(1, 11), (2, 2), (2, 7), (3, 185)])
def test_cone_blocks_match_one_pass_reference(p, seed):
    hits, w, det_w, det_v = _cone_reference(p, seed, 5 * _CONE_BLOCK)
    offset = hits % _CONE_BLOCK
    on_first = np.flatnonzero((offset == 0) & (hits >= _CONE_BLOCK))[0]
    on_last = np.flatnonzero(offset == _CONE_BLOCK - 1)[0]
    deep = np.searchsorted(hits, 4 * _CONE_BLOCK + _CONE_BLOCK // 2)
    few = np.arange(1, 200)
    first_block = [math.ceil(_CONE_SLACK * n / _CONE_RATE[p]) for n in few]
    short = few[hits[:few.size] >= first_block]
    assert (short.size > 0) == ((p, seed) in ((2, 7), (3, 185)))
    for n in (2, on_first + 1, on_last + 1, deep, *short[-2:]):
        got_w, got_dw, got_dv, n_proposals = _cone_raw(p, n, seed)
        assert n_proposals == hits[n - 1] + 1
        assert np.array_equal(got_w, w[:n])
        assert np.array_equal(got_dw, det_w[:n])
        assert np.array_equal(got_dv, det_v[:n])


@pytest.mark.parametrize("p,seed", [(2, 2), (3, 185)])
def test_cone_draws_have_small_off_diagonal(p, seed):
    # the sampler drops proposals with |w01| >= 1/2 before drawing their
    # diagonal, and at p = 3 those with |w02| or |w12| >= 1/2 before their
    # 3x3 determinants; no accepted draw of the one-pass reference is lost
    _, w, _, _ = _cone_reference(p, seed, 5 * _CONE_BLOCK)
    i, j = np.triu_indices(p, 1)
    assert len(w) > 1000
    assert np.abs(w[:, i, j]).max() < 0.5


def test_cone_dimension_frontier():
    # rejection filling is only viable in low dimension
    with pytest.raises(ParameterDomainError):
        sample_uniform_spd_unit(4, 10, 1)


# ---------------------------------------------------------------------------
# plain Monte Carlo over the unit cone

@pytest.mark.parametrize("p", [1, 2, 3])
def test_mc_volume(p):
    # the hit rate times the box volume is the volume of the unit cone,
    # the beta value B_p((p+1)/2, (p+1)/2): pi/6 at p = 2.  At p = 1 every
    # proposal hits, so the standard error is 0 and the exact-identity
    # tolerance 1e-12 covers the beta value's rounding
    est = mc_integrate_unit_cone(lambda w: np.ones(len(w)), p, 100_000, 9)
    vol = math.exp(log_matrix_beta(p, 0.5 * (p + 1), 0.5 * (p + 1)))
    assert est.value == pytest.approx(vol, rel=1e-12, abs=3 * est.stderr)


@pytest.mark.parametrize("p,s,t", [(1, 1.5, 2.0), (2, 2.0, 2.5),
                                   (3, 2.5, 3.0)])
def test_mc_beta_weight(p, s, t):
    # with shapes (s, t) the estimator weights each draw by the type-1 beta
    # density kernel, so the constant 1 integrates to B_p(s, t); shapes of
    # at least (p+1)/2 keep the weight bounded
    est = mc_integrate_unit_cone(lambda w: np.ones(len(w)), p, 50_000, 21,
                                 shapes=(s, t))
    want = math.exp(log_matrix_beta(p, s, t))
    assert abs(est.value - want) < 3 * est.stderr


@pytest.mark.parametrize("p", [1, 2, 3])
def test_mc_unit_weight_is_unweighted(p):
    # at shapes ((p+1)/2, (p+1)/2) both weight exponents are 0, so every
    # weight is exactly 1 and the estimate keeps every bit
    g = lambda w: np.trace(w, axis1=1, axis2=2)
    half = 0.5 * (p + 1)
    assert (mc_integrate_unit_cone(g, p, 2_000, 5, shapes=(half, half))
            == mc_integrate_unit_cone(g, p, 2_000, 5))


@pytest.mark.parametrize("shapes", [(2.0,), (1.5, 2.0, 2.5), 2.0],
                         ids=["one", "three", "scalar"])
def test_mc_shapes_must_be_a_pair(shapes):
    with pytest.raises(ParameterDomainError, match="must be a pair"):
        mc_integrate_unit_cone(lambda w: w[:, 0, 0], 2, 100, 1, shapes=shapes)


def _never_called(w):
    raise AssertionError("integrand called")


@pytest.mark.parametrize("p,shapes", [(2, (0.5, 2.0)), (2, (2.0, 0.5)),
                                      (2, (0.0, 2.0)), (1, (0.0, 1.0))])
def test_mc_shapes_must_exceed_half_p_minus_one(p, shapes):
    # B_p(s, t) diverges unless s and t exceed (p-1)/2, so there is nothing
    # to estimate; the weight is refused before any draw
    with pytest.raises(ParameterDomainError, match=r"^cone shape must exceed"):
        mc_integrate_unit_cone(_never_called, p, 100, 1, shapes=shapes)


def test_mc_monomial_p1():
    # integral of w^2 on (0,1)
    est = mc_integrate_unit_cone(lambda w: w[:, 0, 0] ** 2, 1, 100_000, 33)
    assert abs(est.value - 1.0 / 3.0) < 3 * est.stderr


def test_mc_beta_integrand_p2():
    # |W|^{a-3/2}|I-W|^{b-3/2} integrates to the two-argument beta value
    a = bw = 2.0
    eye = np.eye(2)

    def g(w):
        return (np.linalg.det(w) ** (a - 1.5)
                * np.linalg.det(eye - w) ** (bw - 1.5))

    est = mc_integrate_unit_cone(g, 2, 150_000, 41)
    want = math.exp(log_matrix_beta(2, a, bw))
    assert abs(est.value - want) < 3 * est.stderr


def test_mc_stderr_scaling():
    # quadrupling the sample count halves the standard error
    g = lambda w: w[:, 0, 0]
    small = mc_integrate_unit_cone(g, 2, 50_000, 77)
    big = mc_integrate_unit_cone(g, 2, 200_000, 78)
    ratio = small.stderr / big.stderr
    assert abs(ratio - 2.0) < 0.3


def test_mc_determinism():
    g = lambda w: np.trace(w, axis1=1, axis2=2)
    a = mc_integrate_unit_cone(g, 2, 5_000, 11)
    b = mc_integrate_unit_cone(g, 2, 5_000, 11)
    assert a == b


def test_mc_rejects_nonfinite_integrand():
    with pytest.raises(DegenerateInputError):
        mc_integrate_unit_cone(lambda w: np.full(len(w), np.nan), 1, 100, 1)


@pytest.mark.parametrize("g", [lambda w: 1.0,
                               lambda w: w[:, 0, :],
                               lambda w: np.ones(len(w) - 1)])
def test_mc_rejects_wrong_integrand_shape(g):
    # the integrand must return one value per accepted draw
    with pytest.raises(DimensionError):
        mc_integrate_unit_cone(g, 2, 100, 1)


@pytest.mark.parametrize("seed", [1.7, True])
def test_mc_refuses_non_integer_seed(seed):
    # 1.7 used to give seed 1's draws and report seed=1
    with pytest.raises(ParameterDomainError, match="seed must be an integer"):
        mc_integrate_unit_cone(lambda w: w[:, 0, 0], 2, 100, seed)


def test_mc_reports_the_seed_as_a_plain_int():
    est = mc_integrate_unit_cone(lambda w: w[:, 0, 0], 2, 100, np.int64(-3))
    assert type(est.seed) is int and est.seed == -3
    assert est == mc_integrate_unit_cone(lambda w: w[:, 0, 0], 2, 100, -3)


def test_mc_needs_two_samples():
    # one draw leaves no standard error
    with pytest.raises(ParameterDomainError):
        mc_integrate_unit_cone(lambda w: w[:, 0, 0], 1, 1, 3)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("symmetric", [True, False])
def test_batch_det_matches_linalg(p, symmetric):
    m = np.random.default_rng(10 * p + symmetric).standard_normal((50, p, p))
    if symmetric:
        m = m + m.transpose(0, 2, 1)
    np.testing.assert_allclose(_batch_det(m), np.linalg.det(m),
                               rtol=1e-12, atol=1e-12)


def test_mc_estimate_validation():
    with pytest.raises(DegenerateInputError):
        McEstimate(value=1.0, stderr=-0.1, n=10, seed=1, n_proposals=20)
    with pytest.raises(DegenerateInputError):
        McEstimate(value=float("inf"), stderr=0.1, n=10, seed=1,
                   n_proposals=20)
    with pytest.raises(ParameterDomainError):
        McEstimate(value=1.0, stderr=0.1, n=0, seed=1, n_proposals=20)


# ---------------------------------------------------------------------------
# type-1 beta sampler

def test_type1_beta_mean():
    # E[W] = a1/(a1+a2) I
    mats = sample_type1_beta(2, 2.0, 3.0, 30_000, 19)
    assert mats.shape == (30_000, 2, 2)
    acc = mats.mean(axis=0)
    assert np.max(np.abs(acc - 0.4 * np.eye(2))) < 0.02


def test_type1_beta_inside_cone():
    u = sample_type1_beta(2, 2.0, 2.0, 100, 23)
    check_spd(u)
    check_spd(np.eye(2) - u)


@pytest.mark.parametrize("seed", [13, 18, 20])
def test_type1_beta_near_singular_draws(seed):
    # Beta_2(1, 1) puts mass next to singular matrices; an eigenvalue
    # re-check with a 1e-12 relative rule refused a valid draw at these seeds
    assert sample_type1_beta(2, 1.0, 1.0, 200_000, seed).shape == (200_000, 2, 2)


@pytest.mark.parametrize("p,a1,a2", [(2, 0.6, 0.7), (3, 1.3, 2.2)])
def test_type1_beta_moments(p, a1, a2):
    # E|U| and E|I-U| are ratios of matrix beta functions; E U = a1/(a1+a2) I
    n = 100_000
    u = sample_type1_beta(p, a1, a2, n, 43)
    base = log_matrix_beta(p, a1, a2)
    for x, mean in (
            (_batch_det(u), math.exp(log_matrix_beta(p, a1 + 1, a2) - base)),
            (_batch_det(np.eye(p) - u),
             math.exp(log_matrix_beta(p, a1, a2 + 1) - base)),
            (u[:, 0, 0], a1 / (a1 + a2))):
        assert abs(x.mean() - mean) < 4 * x.std() / math.sqrt(n)


def test_type1_beta_p1_is_scalar_beta():
    a1, a2 = 0.7, 1.6
    x = sample_type1_beta(1, a1, a2, 100_000, 47)[:, 0, 0]
    stat = scipy.stats.kstest(x, "beta", args=(a1, a2)).statistic
    assert stat < 1.6276 / math.sqrt(len(x))  # 1% level


# ---------------------------------------------------------------------------
# sum of transformed rectangular draws

def test_sum_density_scalar_case():
    cfg = RectConfig.with_identity_weights(1, 1)
    rep = verify_sum_density(cfg, cfg, 100_000, 42)
    assert rep["pass"]


def test_sum_density_order_invariance():
    # swapping the two configurations relabels streams only; the checks
    # must still pass and the shape parameter is symmetric
    c1 = RectConfig.with_identity_weights(2, 3)
    c2 = RectConfig.with_identity_weights(2, 4)
    a = verify_sum_density(c1, c2, 50_000, 9)
    b = verify_sum_density(c2, c1, 50_000, 9)
    assert a["pass"] and b["pass"]
    assert a["orders"] == [3, 4] and b["orders"] == [4, 3]


@pytest.mark.parametrize("p,r1,r2", [(1, 1, 1), (2, 3, 4)])
def test_sum_density_blocks_match_whole_stack(p, r1, r2):
    # the check runs its draws block by block; over three and a half
    # blocks every reported number equals the one-stack computation's
    n, seed = 3 * _CONE_BLOCK + _CONE_BLOCK // 2, 7
    c1 = RectConfig.with_identity_weights(p, r1)
    c2 = RectConfig.with_identity_weights(p, r2)
    rep = verify_sum_density(c1, c2, n, seed)
    u = (rect_transform(_rect_raw(c1, n, seed, 1), c1)
         + rect_transform(_rect_raw(c2, n, seed, 2), c2))
    moments = rep["cases"][:2]
    for case, xs in zip(moments, (np.trace(u, axis1=1, axis2=2),
                                  _batch_det(u))):
        observed = float(np.mean(xs))
        se = float(np.std(xs, ddof=1) / math.sqrt(n))
        assert case["observed"] == observed
        assert case["z"] == (observed - case["expected"]) / se
    if p == 1:
        xs = np.sort(u[:, 0, 0])
        cdf = _gamma_cdf(0.5 * (r1 + r2), xs)
        grid = np.arange(1, n + 1) / n
        stat = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n))))
        assert rep["cases"][2]["statistic"] == stat
    else:
        assert len(rep["cases"]) == 2


def _one_stack_estimate(h, p, m, scale=1.0):
    """(value, stderr) of the hit-or-miss estimate from the weighted values
    h of one whole stack of draws, m proposals and an outside scale."""
    box = 2.0 ** (p * (p - 1) // 2)
    total = float(np.sum(h))
    var = (float(np.sum(np.square(h))) - total * total / m) / (m - 1)
    return (box * total / m * scale,
            box * math.sqrt(max(var, 0.0) / m) * scale)


@pytest.mark.parametrize("p", [1, 2])
def test_streamed_estimators_match_whole_stack(p):
    # the estimators weigh each block of draws as it is drawn and keep only
    # the weighted values; over three and a half blocks every estimate
    # equals the one computed from the whole (n, p, p) stack at once
    n, seed = 3 * _CONE_BLOCK + _CONE_BLOCK // 2, 7
    w, det_w, det_v, m = _cone_raw(p, n, seed)
    half = 0.5 * (p + 1)
    traces = lambda x: np.trace(x, axis1=1, axis2=2)

    est = mc_integrate_unit_cone(traces, p, n, seed)
    assert (est.value, est.stderr) == _one_stack_estimate(traces(w), p, m)
    s, t = p + 0.5, p + 1.0
    est = mc_integrate_unit_cone(traces, p, n, seed, shapes=(s, t))
    h = det_v ** (t - half) * det_w ** (s - half) * traces(w)
    assert (est.value, est.stderr) == _one_stack_estimate(h, p, m)
    assert est.n == n and est.n_proposals == m

    r, alpha, eta = p + 1, 1.5, 1.0
    cfg = RectConfig.with_identity_weights(p, r)
    z = SpdMatrix(np.array([[1.2, 0.3], [0.3, 0.8]])[:p, :p])
    est = frac_integral_numeric(FracOrder(alpha, cfg), z, DetPowerOperand(eta),
                                n, seed)
    root = z.matrix_power(0.5)
    x = (w.reshape(-1, p * p) @ np.kron(root, root).T).reshape(w.shape)
    h = (det_v ** (alpha - half) * det_w ** (0.5 * r - half)
         * _batch_det(x) ** eta)
    scale = math.exp(stiefel_constant(p, r) - cfg.log_weight_factor
                     - log_matrix_gamma(p, alpha)
                     + (alpha + 0.5 * r - half) * z.log_det)
    assert (est.value, est.stderr) == _one_stack_estimate(h, p, m, scale)
    assert est.n == n and est.n_proposals == m


def test_streamed_estimator_memory_stays_below_one_stack():
    # the operator keeps n weighted values and one block of draws; the
    # whole-stack version held the (n, 2, 2) W and X stacks at its peak
    n = 100_000
    order = FracOrder(1.5, RectConfig.with_identity_weights(2, 3))
    z = SpdMatrix(np.array([[1.2, 0.3], [0.3, 0.8]]))
    frac_integral_numeric(order, z, DetPowerOperand(1.0), 100, 1)  # imports
    tracemalloc.start()
    try:
        frac_integral_numeric(order, z, DetPowerOperand(1.0), n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 2 * 2 * 8


def test_indicator_estimate_squares_in_place():
    # the sum of squares reuses the values' buffer: a second n-vector of
    # squares would double the estimator's footprint for one sum
    n = 200_000
    h = np.random.default_rng(5).uniform(0.0, 2.0, n)
    want_sum, want_sq = math.fsum(h), math.fsum(h * h)
    _indicator_estimate((h[:10].copy(), None, None, 20), 1, 1)  # imports
    nbytes = h.nbytes
    tracemalloc.start()
    try:
        est = _indicator_estimate((h, None, None, 2 * n), 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nbytes / 2
    assert est.n == n and est.n_proposals == 2 * n
    assert est.value == pytest.approx(want_sum / (2 * n), rel=1e-12)
    var = (want_sq - want_sum ** 2 / (2 * n)) / (2 * n - 1)
    assert est.stderr == pytest.approx(math.sqrt(var / (2 * n)), rel=1e-9)


def test_sum_density_memory_stays_below_one_stack():
    # one block of draws at a time plus n traces, n determinants and the
    # standard deviation's n-float temporary; the whole-stack version held
    # four (n, 2, 4) stacks at its peak
    n = 200_000
    c1 = RectConfig.with_identity_weights(2, 3)
    c2 = RectConfig.with_identity_weights(2, 4)
    verify_sum_density(c1, c2, 100, 1)  # cached square roots, imports
    tracemalloc.start()
    try:
        verify_sum_density(c1, c2, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 2 * 4 * 8


@pytest.mark.parametrize("run", [
    lambda c1, c2, z: verify_sum_density(c1, c2, 1 << 14, 5),
    lambda c1, c2, z: verify_sum_density(c1, c2, (1 << 16) + 1, 5),
    lambda c1, c2, z: frac_integral_numeric(
        FracOrder(1.5, c1), z, DetPowerOperand(1.0), 1000, 5),
], ids=["sumdensity-2^14", "sumdensity-2^16+1", "numeric"])
def test_derived_matrices_are_not_revalidated(run, monkeypatch):
    # validation is for matrices from outside: once the configurations and
    # the argument are built, the weight roots, the block draws and Z^(1/2)
    # are plain arrays, so the hot paths construct no SpdMatrix
    a = SpdMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
    c1 = RectConfig(2, 3, a, SpdMatrix.diagonal((1.0, 2.0, 0.5)))
    c2 = RectConfig(2, 4, a, SpdMatrix.identity(4))
    z = SpdMatrix(np.array([[1.1, 0.3], [0.3, 0.8]]))
    built = []
    init = SpdMatrix.__init__

    def counting(self, entries):
        built.append(entries)
        init(self, entries)

    monkeypatch.setattr(SpdMatrix, "__init__", counting)
    run(c1, c2, z)
    assert built == []


@pytest.mark.parametrize("a", np.arange(0.5, 8.5, 0.5))
def test_gamma_cdf_matches_scipy(a):
    # the elementary form behind the sum-density KS test, against scipy's
    # incomplete gamma function on small and large arguments
    x = np.union1d(np.geomspace(1e-8, 1.0, 200), np.linspace(1.0, 80.0, 400))
    err = np.abs(_gamma_cdf(a, x) - scipy.special.gammainc(a, x))
    assert err.max() <= 1e-14


def test_sum_density_needs_two_samples():
    cfg = RectConfig.with_identity_weights(1, 1)
    with pytest.raises(ParameterDomainError):
        verify_sum_density(cfg, cfg, 1, 42)


def test_sum_density_dimension_mismatch():
    with pytest.raises(DimensionError):
        verify_sum_density(RectConfig.with_identity_weights(1, 1),
                           RectConfig.with_identity_weights(2, 2), 100, 1)
