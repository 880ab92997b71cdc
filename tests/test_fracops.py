"""Fractional integral operators: closed forms, series form, MC form.

The dimension-1 oracle for the Gauss-kernel operator is assembled from
scipy's beta function: expanding the truncated kernel termwise turns the
integral into a finite sum of beta values, which pins the implementation
at the same truncation with no statistical slack.
"""

import math

import numpy as np
import pytest
import scipy.special

from mvfrac import (
    DetPowerOperand,
    FracOrder,
    FracValue,
    ParameterDomainError,
    Partition,
    RectConfig,
    SaigoParams,
    SpdMatrix,
    Truncation,
    frac_integral_numeric,
    frac_integral_power_closed,
    frac_integral_zonal_closed,
    gen_pochhammer,
    saigo_power_closed,
    zonal_eval,
)


def _cfg(p, r):
    return RectConfig.with_identity_weights(p, r)


# ---------------------------------------------------------------------------
# determinant-power closed form

def test_power_p1_alpha1_is_sqrt_rule():
    # half-integral of the constant function: 2 sqrt(z)
    order = FracOrder(1.0, _cfg(1, 1))
    for z in (0.25, 1.0, 2.0):
        fv = frac_integral_power_closed(order, SpdMatrix(np.array([[z]])))
        assert fv.value() == pytest.approx(2.0 * math.sqrt(z), rel=1e-12)


def test_power_p1_alpha2_frozen():
    order = FracOrder(2.0, _cfg(1, 1))
    fv = frac_integral_power_closed(order, SpdMatrix(np.array([[1.0]])))
    assert fv.value() == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_power_scalar_beta_oracle():
    # dimension 1, order r=1: value = z^{alpha+eta-1/2} B(alpha, eta+1/2)
    # divided by Gamma(alpha)
    alpha, eta, z = 1.5, 1.0, 0.7
    order = FracOrder(alpha, _cfg(1, 1))
    fv = frac_integral_power_closed(order, SpdMatrix(np.array([[z]])), eta)
    want = (z ** (alpha + eta - 0.5)
            * scipy.special.beta(alpha, eta + 0.5) / math.gamma(alpha))
    assert fv.value() == pytest.approx(want, rel=1e-12)


def test_power_weight_scaling():
    # non-identity weights only rescale by |A|^{r/2} |B|^{p/2}
    z = SpdMatrix.diagonal((0.9, 1.4))
    plain = frac_integral_power_closed(FracOrder(1.5, _cfg(2, 3)), z, 1.0)
    a = SpdMatrix.diagonal((2.0, 2.0))
    b = SpdMatrix.diagonal((3.0, 3.0, 3.0))
    weighted = frac_integral_power_closed(
        FracOrder(1.5, RectConfig(2, 3, a, b)), z, 1.0)
    factor = a.det ** 1.5 * b.det ** 1.0
    assert weighted.value() * factor == pytest.approx(plain.value(), rel=1e-12)


def test_power_det_exponent_field():
    order = FracOrder(1.5, _cfg(2, 3))
    fv = frac_integral_power_closed(order, SpdMatrix.identity(2), eta=1.0)
    # alpha + r/2 + eta - (p+1)/2
    assert fv.det_exponent == pytest.approx(1.5 + 1.5 + 1.0 - 1.5)


def test_order_domain():
    with pytest.raises(ParameterDomainError):
        FracOrder(0.5, _cfg(2, 2))  # needs alpha > (p-1)/2
    with pytest.raises(ParameterDomainError):
        FracOrder(0.0, _cfg(1, 1))


# ---------------------------------------------------------------------------
# zonal-weighted closed form

def test_zonal_p1_frozen():
    # weight-1 partition against z = 1: Pochhammer ratio (1/2)/(3/2) times
    # the half-integral of the identity function evaluates to 2/3
    order = FracOrder(1.0, _cfg(1, 1))
    fv = frac_integral_zonal_closed(order, SpdMatrix(np.array([[1.0]])),
                                    Partition.coerce((1,)))
    assert fv.value() == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_zonal_empty_partition_matches_power_form():
    for p, r, alpha in ((1, 1, 1.0), (2, 2, 1.5), (2, 3, 1.5)):
        z = SpdMatrix.diagonal(tuple(0.8 + 0.2 * i for i in range(p)))
        order = FracOrder(alpha, _cfg(p, r))
        a = frac_integral_zonal_closed(order, z, Partition.coerce(()))
        b = frac_integral_power_closed(order, z, eta=0.0)
        assert a.value() == pytest.approx(b.value(), rel=1e-12)


def test_zonal_scalar_reduction_oracle():
    # dimension 1: the weight-k partition inserts (r/2+k).../(alpha+r/2+k)...
    # explicitly: value = z^{alpha+k-1/2} * B(alpha, k+1/2) / Gamma(alpha)
    alpha, k, z = 1.5, 2, 0.6
    order = FracOrder(alpha, _cfg(1, 1))
    fv = frac_integral_zonal_closed(order, SpdMatrix(np.array([[z]])),
                                    Partition.coerce((k,)))
    want = (z ** (alpha + k - 0.5)
            * scipy.special.beta(alpha, k + 0.5) / math.gamma(alpha))
    assert fv.value() == pytest.approx(want, rel=1e-12)


def test_zonal_sign_pass_through():
    # the polynomial itself is positive on SPD arguments; a negative
    # Pochhammer numerator would flip the sign, which value() must honor
    fv = FracValue(log_magnitude=0.0, sign=-1, det_exponent=1.0)
    assert fv.value() == -1.0
    assert FracValue(log_magnitude=12.0, sign=0, det_exponent=1.0).value() == 0.0


# ---------------------------------------------------------------------------
# Gauss-kernel operator

@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_saigo_zero_a_collapses_bitwise(p):
    order = FracOrder(0.5 * (p + 1), _cfg(p, p))
    z = SpdMatrix.diagonal((1.1, 0.7, 1.3, 0.9)[:p])
    sg = saigo_power_closed(order, z, SaigoParams(0.0, 0.4, 2.5), eta=1.0)
    pw = frac_integral_power_closed(order, z, eta=1.0)
    assert sg.log_magnitude == pw.log_magnitude
    assert sg.sign == pw.sign


def test_saigo_scalar_termwise_beta_oracle():
    # expand the truncated kernel termwise: each power of the integration
    # variable contributes one exact beta value
    a, b, c = 0.3, 0.2, 2.0
    alpha, eta, z, k_max = 1.0, 0.5, 1.3, 25
    order = FracOrder(alpha, _cfg(1, 1))
    fv = saigo_power_closed(order, SpdMatrix(np.array([[z]])),
                            SaigoParams(a, b, c), eta=eta,
                            trunc=Truncation(k_max=k_max))
    s = eta + 0.5
    total = 0.0
    for k in range(k_max + 1):
        part = Partition.coerce((k,) if k else ())
        coef = (gen_pochhammer(a, part) * gen_pochhammer(b, part)
                / (gen_pochhammer(c, part) * math.factorial(k)))
        total += coef * scipy.special.beta(alpha + k, s)
    want = z ** (alpha + eta - 0.5) * total / math.gamma(alpha)
    assert fv.value() == pytest.approx(want, rel=1e-11)


# ---------------------------------------------------------------------------
# Monte Carlo operator form

def test_numeric_matches_power_closed():
    z = SpdMatrix.diagonal((1.2, 0.6))
    order = FracOrder(1.5, _cfg(2, 2))
    closed = frac_integral_power_closed(order, z, eta=1.0).value()
    est = frac_integral_numeric(order, z, DetPowerOperand(1.0), 60_000, 27)
    assert abs(est.value - closed) < 3 * est.stderr


def test_numeric_matches_zonal_closed():
    z = SpdMatrix.diagonal((1.2, 0.6))
    order = FracOrder(1.5, _cfg(2, 2))
    part = Partition.coerce((1,))
    closed = frac_integral_zonal_closed(order, z, part).value()

    def g(x):
        return zonal_eval(part, x)

    est = frac_integral_numeric(order, z, g, 40_000, 31)
    assert abs(est.value - closed) < 3 * est.stderr


def test_numeric_determinism():
    z = SpdMatrix(np.array([[1.0]]))
    order = FracOrder(1.0, _cfg(1, 1))
    a = frac_integral_numeric(order, z, DetPowerOperand(0.0), 10_000, 3)
    b = frac_integral_numeric(order, z, DetPowerOperand(0.0), 10_000, 3)
    assert a == b


def test_numeric_operand_kinds_agree():
    # a plain array callable and DetPowerOperand must estimate the same
    # integral; identical seeds share identical cone samples
    z = SpdMatrix(np.array([[0.9]]))
    order = FracOrder(1.0, _cfg(1, 1))
    fast = frac_integral_numeric(order, z, DetPowerOperand(1.0), 20_000, 8)
    slow = frac_integral_numeric(order, z, lambda x: np.linalg.det(x),
                                 20_000, 8)
    assert fast.value == pytest.approx(slow.value, rel=1e-10)
