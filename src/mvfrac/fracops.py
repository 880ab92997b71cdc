"""Fractional integral operators for matrix argument.

The operator of order alpha with rectangular weight configuration (p, r, A, B)
acts on a scalar function f of a symmetric positive definite matrix as

    (I f)(Z) = pi^(rp/2) / (|A|^(r/2) |B|^(p/2) Gamma_p(alpha) Gamma_p(r/2))
               * integral over O < X < Z of
                 |Z - X|^(alpha-(p+1)/2) |X|^(r/2-(p+1)/2) f(X) dX,

the rectangular-variable average with weight exp(-tr(A X B X')) already
reduced to the cone through the r-frame surface constant.  Closed forms are
available when f is a determinant power or a zonal polynomial; everything
else goes through the Monte Carlo route: X = Z^(1/2) W Z^(1/2) turns the
integral into matsample's weighted cone estimator with shapes (r/2, alpha),
whose operands map each block's (k, p, p) stack of X values to its k values.

Values are carried in log-magnitude plus sign form since gamma ratios
overflow quickly as the dimension grows.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, as_instance, as_real, as_shape
from .gammacalc import (
    Partition,
    log_matrix_gamma,
    signed_log_gen_pochhammer,
)
from .hyperseries import HyperParams, Truncation, hyper_pfq_at_identity
from .matsample import _cone_raw, _indicator_estimate, _weighted
from .spdcore import RectConfig, _batch_det, _spd_argument, stiefel_constant
from .zonal import zonal_eval

__all__ = [
    "FracOrder",
    "FracValue",
    "SaigoParams",
    "DetPowerOperand",
    "frac_integral_power_closed",
    "frac_integral_zonal_closed",
    "saigo_power_closed",
    "frac_integral_numeric",
]


@dataclass(frozen=True)
class FracOrder:
    """Order alpha and weight configuration of a fractional integral."""

    alpha: float
    config: RectConfig

    def __post_init__(self):
        p = as_instance(self.config, "config", RectConfig).p
        object.__setattr__(self, "alpha", as_shape(self.alpha, "order", p))


@dataclass(frozen=True)
class SaigoParams:
    """Upper parameters (a, b) and lower parameter c of the Gauss kernel
    |Z - X|^(alpha-(p+1)/2) 2F1(a, b; c; I - Z^(-1/2) X Z^(-1/2))."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, as_real(getattr(self, name),
                                                   f"Saigo parameter {name}"))


@dataclass(frozen=True)
class DetPowerOperand:
    """The operand f(X) = |X|^exponent, eligible for closed forms; called on
    a (k, p, p) stack it returns the k determinant powers."""

    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "exponent", as_real(self.exponent, "eta"))

    def __call__(self, x):
        return _batch_det(x) ** self.exponent


@dataclass(frozen=True)
class FracValue:
    """Signed log-scale operator value.

    det_exponent records the power of |Z| the value carries, which is how
    these operators act on determinant-power operands; the |Z| factor itself
    is already included in log_magnitude.
    """

    log_magnitude: float
    sign: int
    det_exponent: float

    def value(self):
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_magnitude)
        except OverflowError as exc:
            raise DegenerateInputError(
                f"value exp({self.log_magnitude}) overflows a float") from exc


def _signed(log_base, det_exponent, factor=1.0):
    """The closed-form value exp(log_base) * factor; a zero factor gives
    sign 0 and log magnitude -inf."""
    if factor == 0.0:
        return FracValue(log_magnitude=float("-inf"), sign=0,
                         det_exponent=det_exponent)
    return FracValue(log_magnitude=log_base + math.log(abs(factor)),
                     sign=1 if factor > 0.0 else -1,
                     det_exponent=det_exponent)


def frac_integral_power_closed(order, Z, eta=0.0):
    """Exact operator value on the operand |X|^eta.

    The cone integral is a matrix beta integral, so the result is
    |Z|^(alpha+r/2+eta-(p+1)/2) * pi^(rp/2) Gamma_p(r/2+eta) /
    (|A|^(r/2) |B|^(p/2) Gamma_p(r/2) Gamma_p(alpha+r/2+eta)).
    """
    cfg = as_instance(order, "order", FracOrder).config
    Z = _spd_argument(Z, "Z", cfg.p)
    eta = as_real(eta, "eta")
    as_shape(0.5 * cfg.r + eta, "r/2 + eta", cfg.p)
    det_exponent = order.alpha + 0.5 * cfg.r + eta - 0.5 * (cfg.p + 1)
    return _signed(det_exponent * Z.log_det
                   + stiefel_constant(cfg.p, cfg.r)
                   - cfg.log_weight_factor
                   + log_matrix_gamma(cfg.p, 0.5 * cfg.r + eta)
                   - log_matrix_gamma(cfg.p, order.alpha + 0.5 * cfg.r + eta),
                   det_exponent)


def frac_integral_zonal_closed(order, Z, K):
    """Exact operator value on a zonal polynomial operand.

    The cone average of a zonal polynomial against the beta weight scales it
    by a ratio of partition Pochhammer symbols, giving

        |Z|^(alpha+r/2-(p+1)/2) * pi^(rp/2) /
        (|A|^(r/2) |B|^(p/2) Gamma_p(alpha+r/2))
        * [(r/2)_K / (alpha+r/2)_K] * C_K(Z).

    C_K(Z) = 0 for K with more than p parts gives exactly zero; otherwise
    both Pochhammer symbols are positive, since r >= p and alpha > (p-1)/2.
    """
    cfg = as_instance(order, "order", FracOrder).config
    Z = _spd_argument(Z, "Z", cfg.p)
    K = Partition.coerce(K)
    cz = zonal_eval(K, Z)
    # a zero cz (K longer than p) gives sign 0; _signed reads no logs then
    num_log = signed_log_gen_pochhammer(0.5 * cfg.r, K)[0]
    den_log = signed_log_gen_pochhammer(order.alpha + 0.5 * cfg.r, K)[0]
    det_exponent = order.alpha + 0.5 * cfg.r - 0.5 * (cfg.p + 1)
    return _signed(det_exponent * Z.log_det
                   + 0.5 * cfg.r * cfg.p * math.log(math.pi)
                   - cfg.log_weight_factor
                   - log_matrix_gamma(cfg.p, order.alpha + 0.5 * cfg.r)
                   + num_log - den_log,
                   det_exponent, cz)


def saigo_power_closed(order, Z, saigo, eta=0.0, trunc=Truncation()):
    """Operator value on |X|^eta when the kernel carries the extra Gauss
    factor 2F1(a, b; c; I - Z^(-1/2) X Z^(-1/2)).

    Expanding the kernel and integrating term by term turns each Gauss term
    into a beta average that contributes a partition Pochhammer of the order,
    so the cone integral collapses to a one-higher series at the identity:
    the value is the power form frac_integral_power_closed(order, Z, eta)
    times 3F2(a, b, alpha; c, alpha+eta+r/2; I).

    With a = 0 the Gauss factor is identically one and the value is the
    plain power form, bit for bit.
    """
    as_instance(saigo, "saigo", SaigoParams)
    power = frac_integral_power_closed(order, Z, eta)
    params = HyperParams((saigo.a, saigo.b, order.alpha),
                         (saigo.c, order.alpha + (0.5 * order.config.r + eta)))
    series = hyper_pfq_at_identity(params, order.config.p, trunc=trunc)
    return _signed(power.log_magnitude, power.det_exponent, series.value)


def frac_integral_numeric(order, Z, operand, n, seed):
    """Monte Carlo operator value on an arbitrary operand.

    The operand is called once per block of accepted cone draws W with the
    block's (k, p, p) stack of exactly symmetric X = Z^(1/2) W Z^(1/2) and
    returns their k values, so it must map every X to its value on its own;
    DetPowerOperand is one such operand.  Returns the estimate on the
    absolute scale together with its standard error.
    """
    cfg = as_instance(order, "order", FracOrder).config
    p, alpha = cfg.p, order.alpha
    as_instance(operand, "operand", callable)
    Z = _spd_argument(Z, "Z", p)
    if isinstance(operand, DetPowerOperand):
        as_shape(0.5 * cfg.r + operand.exponent, "r/2 + eta", p)
    root = Z.matrix_power(0.5)
    kron_t = np.kron(root, root).T
    lower = [(i, j) for i in range(p) for j in range(i)]

    def at_x(w):
        x = (w.reshape(-1, p * p) @ kron_t).reshape(w.shape)
        for i, j in lower:  # the triangle eigvalsh reads, copied up
            x[:, j, i] = x[:, i, j]
        return operand(x)

    cone = _cone_raw(p, n, seed, _weighted(at_x, p, (0.5 * cfg.r, alpha)))
    raw = _indicator_estimate(cone, p, seed)
    scale = math.exp(stiefel_constant(p, cfg.r)
                     - cfg.log_weight_factor
                     - log_matrix_gamma(p, alpha)
                     + (alpha + 0.5 * cfg.r - 0.5 * (p + 1)) * Z.log_det)
    return replace(raw, value=raw.value * scale, stderr=raw.stderr * scale)
