"""The real-parameter rule: every site that reads an order, a series,
Gauss or Pochhammer parameter, a matrix gamma or beta argument, a shape or
the pathway q reads it through
errors.as_real, so a non-finite or non-real value is a ParameterDomainError
there and never comes back as a NaN value."""

import math
import re

import numpy as np
import pytest

from mvfrac import (
    DetPowerOperand,
    FracOrder,
    HyperParams,
    MatrixGammaSpec,
    ParameterDomainError,
    RectConfig,
    SaigoParams,
    derive_key,
    frac_integral_power_closed,
    gamma_variates,
    gauss_2f1_rect,
    gen_pochhammer,
    log_gamma,
    log_matrix_beta,
    log_matrix_gamma,
    mc_integrate_unit_cone,
    pathway_det_limit,
    pathway_factor,
    signed_log_gen_pochhammer,
)
from mvfrac.errors import as_real

_CFG = RectConfig.with_identity_weights(1, 1)

# each site as a function of its one real parameter, the others valid
_SITES = {
    "HyperParams-numerator": lambda x: HyperParams((0.5, x), ()),
    "HyperParams-denominator": lambda x: HyperParams((0.5,), (x,)),
    "SaigoParams": lambda x: SaigoParams(0.2, 0.4, x),
    "MatrixGammaSpec": lambda x: MatrixGammaSpec(2, x),
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
    assert type(MatrixGammaSpec(2, 3).shape) is float


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


def test_parameter_messages_name_the_parameter():
    with pytest.raises(ParameterDomainError,
                       match=r"^numerator parameter 1 must be finite, got nan$"):
        HyperParams((math.nan,), ())
    with pytest.raises(ParameterDomainError,
                       match=r"^Saigo parameter b must be finite, got inf$"):
        SaigoParams(0.1, math.inf, 2.0)
