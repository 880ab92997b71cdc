"""Fractional integral operators for matrix argument.

The operator of order alpha with rectangular weight configuration (p, r, A, B)
acts on a scalar function f of a symmetric positive definite matrix as

    (I f)(Z) = pi^(rp/2) / (|A|^(r/2) |B|^(p/2) Gamma_p(alpha) Gamma_p(r/2))
               * integral over O < X < Z of
                 |Z - X|^(alpha-(p+1)/2) |X|^(r/2-(p+1)/2) f(X) dX,

the rectangular-variable average with weight exp(-tr(A X B X')) already
reduced to the cone through the r-frame surface constant.  Closed forms are
available when f is a determinant power or a zonal polynomial; everything
else goes through the Monte Carlo route, which substitutes X = Z^(1/2) W
Z^(1/2) and integrates uniformly over {W : O < W < I}; its operands map the
(n, p, p) stack of X values to n values.

Values are carried in log-magnitude plus sign form since gamma ratios
overflow quickly as the dimension grows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, ParameterDomainError
from .gammacalc import (
    Partition,
    log_matrix_gamma,
    signed_log_gen_pochhammer,
)
from .hyperseries import HyperParams, hyper_pfq_at_identity
from .matsample import McEstimate, _batch_det, _cone_raw, _indicator_estimate
from .spdcore import RectConfig, spd_sqrt, stiefel_constant
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
        if not self.alpha > 0.5 * (self.config.p - 1):
            raise ParameterDomainError(
                f"order must exceed (p-1)/2 = {0.5 * (self.config.p - 1)}, "
                f"got {self.alpha}")


@dataclass(frozen=True)
class SaigoParams:
    """Upper parameters (a, b) and lower parameter c of the Gauss kernel
    |Z - X|^(alpha-(p+1)/2) 2F1(a, b; c; I - Z^(-1/2) X Z^(-1/2))."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterDomainError(
                    f"Saigo parameter {name} must be finite, "
                    f"got {getattr(self, name)}")


@dataclass(frozen=True)
class DetPowerOperand:
    """The operand f(X) = |X|^exponent, eligible for closed forms; called on
    an (n, p, p) stack it returns the n determinant powers."""

    exponent: float

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


def _check_argument(order, Z):
    if Z.dim != order.config.p:
        raise DimensionError(
            f"argument dimension {Z.dim} does not match configuration "
            f"dimension {order.config.p}")


def _operand_exponent_check(cfg, eta):
    if not 0.5 * cfg.r + eta > 0.5 * (cfg.p - 1):
        raise ParameterDomainError(
            f"need r/2 + eta > (p-1)/2: r={cfg.r}, eta={eta}, p={cfg.p}")


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
    _check_argument(order, Z)
    cfg = order.config
    eta = float(eta)
    _operand_exponent_check(cfg, eta)
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

    The leading Pochhammer factor vanishes for some partitions when r/2 sits
    on a half-integer ladder, in which case the value is exactly zero.
    """
    _check_argument(order, Z)
    cfg = order.config
    K = Partition.coerce(K)
    cz = zonal_eval(K, Z)
    num_log, num_sign = signed_log_gen_pochhammer(0.5 * cfg.r, K)
    den_log, den_sign = signed_log_gen_pochhammer(order.alpha + 0.5 * cfg.r, K)
    if den_sign == 0:
        raise ParameterDomainError(
            f"partition Pochhammer of alpha + r/2 = {order.alpha + 0.5 * cfg.r} "
            f"vanishes at {K.parts}")
    det_exponent = order.alpha + 0.5 * cfg.r - 0.5 * (cfg.p + 1)
    return _signed(det_exponent * Z.log_det
                   + 0.5 * cfg.r * cfg.p * math.log(math.pi)
                   - cfg.log_weight_factor
                   - log_matrix_gamma(cfg.p, order.alpha + 0.5 * cfg.r)
                   + num_log - den_log,
                   det_exponent, num_sign * den_sign * cz)


def saigo_power_closed(order, Z, saigo, eta=0.0, trunc=None):
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
    power = frac_integral_power_closed(order, Z, eta)
    params = HyperParams((saigo.a, saigo.b, order.alpha),
                         (saigo.c, order.alpha + (0.5 * order.config.r + eta)))
    series = hyper_pfq_at_identity(params, order.config.p, trunc=trunc)
    return _signed(power.log_magnitude, power.det_exponent, series.value)


def frac_integral_numeric(order, Z, operand, n, seed):
    """Monte Carlo operator value on an arbitrary operand.

    The operand takes the (n, p, p) stack X = Z^(1/2) W Z^(1/2) over the
    accepted cone draws W and returns their n values; DetPowerOperand is one
    such operand.  Returns the estimate on the absolute scale together with
    its standard error.
    """
    _check_argument(order, Z)
    cfg = order.config
    if isinstance(operand, DetPowerOperand):
        _operand_exponent_check(cfg, operand.exponent)
    p = cfg.p
    half = 0.5 * (p + 1)
    alpha = order.alpha
    w, det_w, det_v, n_proposals = _cone_raw(p, n, seed)
    root = np.asarray(spd_sqrt(Z).entries)
    x = (w.reshape(-1, p * p) @ np.kron(root, root).T).reshape(w.shape)
    kernel = det_v ** (alpha - half) * det_w ** (0.5 * cfg.r - half)
    raw = _indicator_estimate(operand(x), n_proposals, p, n, seed, kernel)
    scale = math.exp(stiefel_constant(p, cfg.r)
                     - cfg.log_weight_factor
                     - log_matrix_gamma(p, alpha)
                     + (alpha + 0.5 * cfg.r - half) * Z.log_det)
    return McEstimate(value=raw.value * scale, stderr=raw.stderr * scale,
                      n=n, seed=int(seed), n_proposals=n_proposals)
