"""The real-parameter rule: every site that reads an order, a series,
Gauss or Pochhammer parameter, a matrix gamma or beta argument, a shape or
the pathway q reads it through
errors.as_real, so a non-finite or non-real value is a ParameterDomainError
there and never comes back as a NaN value.  The gamma-domain rule: every
site whose value is an argument of Gamma_p, or a shape of a gamma or beta
integral, reads it through errors.as_shape, which refuses (p-1)/2 and
below."""

import math
import re

import numpy as np
import pytest

from mvfrac import (
    DetPowerOperand,
    FracOrder,
    HyperParams,
    ParameterDomainError,
    RectConfig,
    SaigoParams,
    derive_key,
    frac_integral_numeric,
    frac_integral_power_closed,
    frac_integral_zonal_closed,
    gamma_variates,
    gauss_2f1_rect,
    gen_pochhammer,
    hyper_pfq,
    hyper_pfq_at_identity,
    log_gamma,
    log_matrix_beta,
    log_matrix_gamma,
    mc_integrate_unit_cone,
    pathway_det_limit,
    pathway_factor,
    rect_transform,
    saigo_power_closed,
    sample_matrix_gamma,
    sample_rect_exponential,
    sample_type1_beta,
    signed_log_gen_pochhammer,
    stiefel_constant,
    verify_sum_density,
)
from mvfrac.errors import as_real, as_shape

_CFG = RectConfig.with_identity_weights(1, 1)

# each site as a function of its one real parameter, the others valid
_SITES = {
    "HyperParams-numerator": lambda x: HyperParams((0.5, x), ()),
    "HyperParams-denominator": lambda x: HyperParams((0.5,), (x,)),
    "SaigoParams": lambda x: SaigoParams(0.2, 0.4, x),
    "MatrixGammaSpec": lambda x: sample_matrix_gamma(2, x, 3, 7),
    "FracOrder": lambda x: FracOrder(x, _CFG),
    "log_gamma": log_gamma,
    "gen_pochhammer": lambda x: gen_pochhammer(x, (2,)),
    "signed_log_gen_pochhammer": lambda x: signed_log_gen_pochhammer(x, (2,)),
    "pathway_factor": lambda x: pathway_factor(x, (1,)),
    "pathway_det_limit": lambda x: pathway_det_limit(x, [1.0]),
    "gamma_variates": lambda x: gamma_variates(derive_key(1), x, 3),
    "eta": lambda x: frac_integral_power_closed(FracOrder(1.0, _CFG),
                                                [[1.3]], x),
    "DetPowerOperand": DetPowerOperand,
    "log_matrix_gamma": lambda x: log_matrix_gamma(2, x),
    "log_matrix_beta-alpha": lambda x: log_matrix_beta(2, x, 3.0),
    "log_matrix_beta-beta": lambda x: log_matrix_beta(2, 3.0, x),
    "gauss_2f1_rect-a": lambda x: gauss_2f1_rect(x, 0.2, 5.0, [[0.5]], _CFG),
    "gauss_2f1_rect-b": lambda x: gauss_2f1_rect(0.1, x, 5.0, [[0.5]], _CFG),
    "gauss_2f1_rect-c": lambda x: gauss_2f1_rect(0.1, 0.2, x, [[0.5]], _CFG),
    "cone-shape": lambda x: mc_integrate_unit_cone(
        lambda w: w[:, 0, 0], 1, 100, 1, shapes=(x, 1.0)),
}


_CFG3 = RectConfig.with_identity_weights(3, 4)  # r/2 = 2
_Y3 = np.diag([0.5, 0.4, 0.3])

# each site that reads as_shape, with its p, as a function of the quantity
# the rule reads: for eta that is r/2 + eta, c - a and a + r/2 for
# gauss_2f1_rect, and r/2 for stiefel_constant, whose integer r is 2x
# rounded up
_SHAPE_SITES = {
    "log_gamma": (1, log_gamma),
    "log_matrix_gamma": (3, lambda x: log_matrix_gamma(3, x)),
    "log_matrix_beta-alpha": (3, lambda x: log_matrix_beta(3, x, 3.0)),
    "log_matrix_beta-beta": (3, lambda x: log_matrix_beta(3, 3.0, x)),
    "gamma_variates": (1, lambda x: gamma_variates(derive_key(1), x, 3)),
    "sample_matrix_gamma": (3, lambda x: sample_matrix_gamma(3, x, 3, 7)),
    "sample_type1_beta-a1": (3, lambda x: sample_type1_beta(3, x, 2.5, 3, 7)),
    "sample_type1_beta-a2": (3, lambda x: sample_type1_beta(3, 2.5, x, 3, 7)),
    "FracOrder": (3, lambda x: FracOrder(x, _CFG3)),
    "eta": (3, lambda x: frac_integral_power_closed(
        FracOrder(1.5, _CFG3), np.eye(3), x - 2.0)),
    "frac_integral_numeric": (3, lambda x: frac_integral_numeric(
        FracOrder(1.5, _CFG3), np.eye(3), DetPowerOperand(x - 2.0), 100, 1)),
    "gauss_2f1_rect-c-a": (3, lambda x: gauss_2f1_rect(
        0.5, 0.2, 0.5 + x, _Y3, _CFG3)),
    "gauss_2f1_rect-a+r/2": (3, lambda x: gauss_2f1_rect(
        x - 2.0, 0.2, 4.0, _Y3, _CFG3)),
    "cone-shape-s": (2, lambda x: mc_integrate_unit_cone(
        lambda w: np.ones(len(w)), 2, 100, 1, shapes=(x, 2.0))),
    "cone-shape-t": (2, lambda x: mc_integrate_unit_cone(
        lambda w: np.ones(len(w)), 2, 100, 1, shapes=(2.0, x))),
    "stiefel_constant": (3, lambda x: stiefel_constant(3, math.ceil(2 * x))),
}


@pytest.mark.parametrize("p,site", _SHAPE_SITES.values(),
                         ids=_SHAPE_SITES.keys())
def test_every_shape_site_refuses_half_p_minus_one(p, site):
    bound = 0.5 * (p - 1)
    with pytest.raises(ParameterDomainError,
                       match=r"must exceed \(p-1\)/2 = .*got "):
        site(bound)
    site(bound + 0.25)


def test_as_shape_message_and_type():
    with pytest.raises(ParameterDomainError, match=(
            r"^gamma argument must exceed \(p-1\)/2 = 1\.0 at p = 3, "
            r"got 0\.5$")):
        as_shape(0.5, "gamma argument", 3)
    with pytest.raises(ParameterDomainError, match=r"^x must be finite"):
        as_shape(math.nan, "x", 3)
    assert type(as_shape(np.int64(2), "x", 3)) is float


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "1.5", True,
                                 None], ids=repr)
@pytest.mark.parametrize("site", _SITES.values(), ids=_SITES.keys())
def test_every_real_site_refuses_non_finite_and_non_real(site, bad):
    with pytest.raises(ParameterDomainError, match=r"got "):
        site(bad)


@pytest.mark.parametrize("site", _SITES.values(), ids=_SITES.keys())
def test_every_real_site_reads_numpy_and_int_values(site):
    # a numpy float, a numpy int and a plain int give what the float gives
    want = repr(site(2.0))
    for value in (np.float64(2.0), np.int64(2), 2):
        assert repr(site(value)) == want


def test_parameter_types_store_floats():
    assert HyperParams((1, np.float32(0.5)), (np.int64(2),)) == \
        HyperParams((1.0, 0.5), (2.0,))
    assert type(SaigoParams(0, 1, np.int64(3)).c) is float
    assert type(FracOrder(np.int64(1), _CFG).alpha) is float
    assert (sample_matrix_gamma(2, np.int64(3), 3, 7).tobytes()
            == sample_matrix_gamma(2, 3.0, 3, 7).tobytes())


@pytest.mark.parametrize("value,message", [
    (math.inf, "x must be finite, got inf"),
    (np.float64(-math.inf), "x must be finite, got -inf"),
    (np.float32(math.inf), "x must be finite, got inf"),
    (math.nan, "x must be finite, got nan"),
    ("1.5", "x must be a real number, got '1.5'"),
    (True, "x must be a real number, got True"),
    (None, "x must be a real number, got None"),
    (1 + 0j, "x must be a real number, got (1+0j)"),
    (10 ** 400, "x must be finite, got inf"),
    (-10 ** 400, "x must be finite, got -inf"),
], ids=["inf", "numpy-minus-inf", "float32-inf", "nan", "string", "bool",
        "none", "complex", "huge-int", "minus-huge-int"])
def test_as_real_messages(value, message):
    with pytest.raises(ParameterDomainError, match=f"^{re.escape(message)}$"):
        as_real(value, "x")


@pytest.mark.parametrize("call,message", [
    (lambda: derive_key(1, 2.7), "stream tag must be an integer, got 2.7"),
    (lambda: derive_key(1, "3"), "stream tag must be an integer, got '3'"),
    (lambda: derive_key(1, True), "stream tag must be an integer, got True"),
    (lambda: derive_key(1, None), "stream tag must be an integer, got None"),
    (lambda: HyperParams(1.5, ()),
     "numerator parameters must be a sequence of real numbers, got 1.5"),
    (lambda: HyperParams(None, ()),
     "numerator parameters must be a sequence of real numbers, got None"),
    (lambda: HyperParams((), 2),
     "denominator parameters must be a sequence of real numbers, got 2"),
    (lambda: FracOrder(1.5, None), "config must be a RectConfig, got None"),
    (lambda: frac_integral_power_closed(None, [[1.3]]),
     "order must be a FracOrder, got None"),
    (lambda: frac_integral_zonal_closed(None, [[1.3]], (1,)),
     "order must be a FracOrder, got None"),
    (lambda: saigo_power_closed(FracOrder(1.5, _CFG), [[1.3]], None),
     "saigo must be a SaigoParams, got None"),
    (lambda: frac_integral_numeric(None, [[1.3]], DetPowerOperand(1.0),
                                   100, 1),
     "order must be a FracOrder, got None"),
    (lambda: frac_integral_numeric(FracOrder(1.5, _CFG), [[1.3]], None,
                                   100, 1),
     "operand must be callable, got None"),
    (lambda: hyper_pfq(None, [[1.3]]), "params must be a HyperParams, got None"),
    (lambda: hyper_pfq(HyperParams((1.0,), ()), [[0.5]], None),
     "trunc must be a Truncation, got None"),
    (lambda: hyper_pfq_at_identity(None, 2),
     "params must be a HyperParams, got None"),
    (lambda: gauss_2f1_rect(1.0, 0.5, 3.0, [[0.5]], None),
     "cfg must be a RectConfig, got None"),
    (lambda: verify_sum_density(None, _CFG, 10, 1),
     "cfg1 must be a RectConfig, got None"),
    (lambda: sample_rect_exponential(None, 10, 1),
     "cfg must be a RectConfig, got None"),
    (lambda: rect_transform(np.ones((1, 2, 2)), None),
     "cfg must be a RectConfig, got None"),
    (lambda: mc_integrate_unit_cone(None, 2, 100, 1),
     "g must be callable, got None"),
], ids=["tag-float", "tag-string", "tag-bool", "tag-none", "params-float",
        "params-none", "params-int", "FracOrder-config",
        "frac_integral_power_closed-order", "frac_integral_zonal_closed-order",
        "saigo_power_closed-saigo", "frac_integral_numeric-order",
        "frac_integral_numeric-operand", "hyper_pfq-params", "hyper_pfq-trunc",
        "hyper_pfq_at_identity-params", "gauss_2f1_rect-cfg",
        "verify_sum_density-cfg1", "sample_rect_exponential-cfg",
        "rect_transform-cfg", "mc_integrate_unit_cone-g"])
def test_malformed_tags_and_parameter_lists(call, message):
    # these were truncated, read as ints or leaked a bare TypeError or
    # AttributeError
    with pytest.raises(ParameterDomainError, match=f"^{re.escape(message)}$"):
        call()


def test_tags_and_parameter_lists_keep_their_accepted_forms():
    assert derive_key(1, np.int64(2)) == derive_key(1, 2)
    assert derive_key(1, -1) == derive_key(1, (1 << 64) - 1)
    want = HyperParams((0.5, 2.0), (1.5,))
    for num, den in (([0.5, 2], [1.5]), (np.array([0.5, 2.0]), (1.5,))):
        assert HyperParams(num, den) == want


def test_parameter_messages_name_the_parameter():
    with pytest.raises(ParameterDomainError,
                       match=r"^numerator parameter 1 must be finite, got nan$"):
        HyperParams((math.nan,), ())
    with pytest.raises(ParameterDomainError,
                       match=r"^Saigo parameter b must be finite, got inf$"):
        SaigoParams(0.1, math.inf, 2.0)
