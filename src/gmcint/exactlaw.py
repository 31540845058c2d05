"""Closed-form quantities for the total mass of GMC on the unit interval.

Exact fractional moments, the Selberg product for integer moments, shift
equation ratios, the moment normalization constant, reflection
coefficients, the product-of-independent-laws decomposition, derivative
martingale moments, and the hypergeometric-basis prediction for the two
auxiliary observables.

All products of Gamma-type factors are assembled in log space; signs are
tracked separately where individual Euler Gamma factors can be negative.
The double gamma factors of each closed form are one signed
`DoubleGamma.log_value` sum, that is one integral.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BoundsError, DegenerateParamsError, DomainError
from .specfun import (
    BETA22_SIGNS,
    Beta22Params,
    HypTriple,
    beta22_args,
    checked_exp,
    connection_coeffs,
    double_gamma_evaluator,
    gamma_ratio,
    hyp2f1_negative,
    log_gamma_ratio,
)

_INT_GUARD = 1e-9  # distance to the nearest integer below which the basis degenerates
# predict_observable sums the |t|^-1 basis from |t| = _BASIS_SWITCH on: above
# it the basis at 0 can cancel, below it the |t|^-1 series takes up to 37/|t| terms
_BASIS_SWITCH = 0.005
_MAX_SELBERG_ORDER = 10**6  # one loop step per order: about 1.2 s at the cap

# the double gamma factors of the exact moment, in exact_moment_factors order
EXACT_DG_FACTORS = ("num_a", "num_b", "num_ab", "num_p", "den_base", "den_a", "den_b", "den_ab")
# log_exact_moment's order of those factors and their weights: each numerator
# factor next to the denominator one whose argument differs from it by p m,
# and the pairs that a <-> b swaps side by side (`DoubleGamma.log_value`)
_MOMENT_ORDER = np.array([0, 5, 1, 6, 2, 7, 3, 4])
_MOMENT_SIGNS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def _check_gamma(gamma: float) -> None:
    """gamma must lie in (0, 2), and gamma^2/4 must not underflow to 0."""
    if not 0.0 < gamma < 2.0:
        raise DomainError(f"gamma must be in (0, 2), got {gamma!r}")
    if gamma * gamma / 4.0 == 0.0:
        raise DomainError(f"gamma^2/4 underflows to 0 at gamma={gamma!r}")


@dataclass(frozen=True)
class GmcParams:
    """Moment order p and endpoint weight exponents (a, b) at coupling gamma."""

    gamma: float
    p: float
    a: float
    b: float

    def __post_init__(self):
        _check_gamma(self.gamma)


class ObservableKind(enum.Enum):
    """Insertion power of the moving weight (x - t)^chi in the observable."""

    POWER_GAMMA_SQ_OVER_4 = "gamma-sq-over-4"
    POWER_ONE = "one"

    def chi(self, gamma: float) -> float:
        return gamma * gamma / 4.0 if self is ObservableKind.POWER_GAMMA_SQ_OVER_4 else 1.0


class ShiftKind(enum.Enum):
    A_PLUS_GAMMA_SQ_OVER_4 = "a+gamma^2/4"
    A_PLUS_ONE = "a+1"
    P_MINUS_ONE_TO_P = "p-1->p"


def bounds_check(params: GmcParams) -> bool:
    """True iff the moment is non-trivial (finite and nonzero).

    Requires a, b > -gamma^2/4 - 1 and p strictly below
    min(4/gamma^2, 1 + (4/gamma^2)(1+a), 1 + (4/gamma^2)(1+b)).
    """
    g2over4 = params.gamma * params.gamma / 4.0
    four_over_g2 = 1.0 / g2over4
    if not (params.a > -g2over4 - 1.0 and params.b > -g2over4 - 1.0):
        return False
    p_cap = min(
        four_over_g2,
        1.0 + four_over_g2 * (1.0 + params.a),
        1.0 + four_over_g2 * (1.0 + params.b),
    )
    return params.p < p_cap


def _require_bounds(params: GmcParams) -> None:
    if not bounds_check(params):
        raise BoundsError(f"moment does not exist for {params}")


def exact_moment_factors(params: GmcParams) -> tuple[float, float, np.ndarray]:
    """The factors of the exact moment: (ln num, ln den, double gamma args).

    The moment is exp(ln num - ln den) times the double gamma values at the
    first four arguments over those at the last four, in EXACT_DG_FACTORS
    order.
    """
    g, p, a, b = params.gamma, params.p, params.a, params.b
    m = g / 2.0
    n = 2.0 / g
    ab = (a + 1.0) + (b + 1.0)  # grouped so a <-> b symmetry is bit-exact
    ln_num = p * math.log(2.0 * math.pi)
    ln_den = p * (g * g / 4.0) * math.log(m) + p * math.lgamma(1.0 - g * g / 4.0)
    args = np.array([
        n * (a + 1.0) - (p - 1.0) * m, n * (b + 1.0) - (p - 1.0) * m,
        n * ab - (p - 2.0) * m, n - p * m,
        n, n * (a + 1.0) + m, n * (b + 1.0) + m, n * ab - (2.0 * p - 2.0) * m,
    ])
    return ln_num, ln_den, args


def log_exact_moment(params: GmcParams) -> float:
    """ln of the exact fractional moment.

    Its eight double gamma factors are one signed `DoubleGamma.log_value`
    sum, so the moment is one integral.
    """
    _require_bounds(params)
    ln_num, ln_den, args = exact_moment_factors(params)
    dg = double_gamma_evaluator(params.gamma).log_value(args[_MOMENT_ORDER], _MOMENT_SIGNS)
    return (ln_num - ln_den) + dg


def exact_moment(params: GmcParams) -> float:
    return checked_exp(log_exact_moment(params), "moment")


def selberg_product(gamma: float, p: int, a: float, b: float) -> float:
    """Integer moment as the finite product of Euler Gamma ratios.

    The independent route against which the analytic continuation is
    checked; all arguments are positive whenever the bounds hold.
    """
    if not 0 <= p < math.inf or p != int(p):
        raise DomainError(f"p must be a nonnegative integer, got {p!r}")
    if p > _MAX_SELBERG_ORDER:
        raise DomainError(f"p must be at most {_MAX_SELBERG_ORDER}, got {p!r}")
    p = int(p)
    if not (a > -1.0 and b > -1.0):
        raise DomainError("selberg product needs a, b > -1")
    _require_bounds(GmcParams(gamma, float(p), a, b))
    g2over4 = gamma * gamma / 4.0
    logval = 0.0
    for j in range(1, p + 1):
        logval += (
            math.lgamma(1.0 + a - (j - 1) * g2over4)
            + math.lgamma(1.0 + b - (j - 1) * g2over4)
            + math.lgamma(1.0 - j * g2over4)
            - math.lgamma(2.0 + a + b - (p + j - 2) * g2over4)
            - math.lgamma(1.0 - g2over4)
        )
    return checked_exp(logval, "Selberg product")


def c_of_p(gamma: float, p: float) -> float:
    """Normalization constant of the moment formula at weight exponents 0.

    The moment's prefactor times its a,b-free double gamma factors
    Gamma_gamma(n - p m) / Gamma_gamma(n), from `exact_moment_factors`.
    """
    ln_num, ln_den, args = exact_moment_factors(GmcParams(gamma, p, 0.0, 0.0))
    if not p < 4.0 / (gamma * gamma):
        raise DomainError(f"need p < 4/gamma^2, got p={p!r}")
    dg = double_gamma_evaluator(gamma).log_value(args[3:5], (1.0, -1.0))
    return checked_exp(ln_num - ln_den + dg, "normalization constant")


def shifted_params(params: GmcParams, kind: ShiftKind) -> GmcParams:
    """The point that the shift equation of `kind` relates to params.

    `shift_ratio` is M(shifted)/M(params) for the two a-shifts; for
    P_MINUS_ONE_TO_P it is M(p)/M(p-1), that is M(params)/M(shifted).
    """
    if kind is ShiftKind.A_PLUS_GAMMA_SQ_OVER_4:
        return replace(params, a=params.a + params.gamma * params.gamma / 4.0)
    if kind is ShiftKind.A_PLUS_ONE:
        return replace(params, a=params.a + 1.0)
    if kind is ShiftKind.P_MINUS_ONE_TO_P:
        return replace(params, p=params.p - 1.0)
    raise DomainError(f"unknown shift kind {kind!r}")


def shift_ratio(params: GmcParams, kind: ShiftKind) -> float:
    """Closed-form moment ratio of a shift equation; see `shifted_params`."""
    shifted = shifted_params(params, kind)
    g, p, a, b = params.gamma, params.p, params.a, params.b
    u = g * g / 4.0
    v = 4.0 / (g * g)
    if kind is ShiftKind.A_PLUS_GAMMA_SQ_OVER_4:
        args_num = (1.0 + a + u, 2.0 + a + b - (2.0 * p - 2.0) * u)
        args_den = (1.0 + a - (p - 1.0) * u, 2.0 + a + b - (p - 2.0) * u)
    elif kind is ShiftKind.A_PLUS_ONE:
        args_num = (v * (1.0 + a) + 1.0, v * (2.0 + a + b) - (2.0 * p - 2.0))
        args_den = (v * (1.0 + a) - (p - 1.0), v * (2.0 + a + b) - (p - 2.0))
    else:
        args_num = (
            1.0 - p * u,
            1.0 + a - (p - 1.0) * u,
            1.0 + b - (p - 1.0) * u,
            2.0 + a + b - (p - 2.0) * u,
        )
        args_den = (
            1.0 - u,
            2.0 + a + b - (2.0 * p - 3.0) * u,
            2.0 + a + b - (2.0 * p - 2.0) * u,
        )
    _require_bounds(params)
    _require_bounds(shifted)
    return gamma_ratio(args_num, args_den)


def tail_exponent(gamma: float, alpha: float) -> tuple[float, float]:
    """(Q - alpha, s): s = (2/gamma)(Q - alpha) is the tail exponent of an alpha insertion.

    Raises DomainError unless gamma is in (0, 2) and gamma/2 < alpha < Q.
    """
    _check_gamma(gamma)
    q = gamma / 2.0 + 2.0 / gamma
    if not gamma / 2.0 < alpha < q:
        raise DomainError(f"alpha must lie in (gamma/2, Q), got {alpha!r}")
    return q - alpha, (2.0 / gamma) * (q - alpha)


def log_reflection_boundary_1d(gamma: float, alpha: float) -> float:
    """ln of the tail constant of GMC with a boundary insertion of strength alpha."""
    q_alpha, s = tail_exponent(gamma, alpha)
    args = np.array([alpha - gamma / 2.0, q_alpha])
    dg = double_gamma_evaluator(gamma).log_value(args, (1.0, -1.0))
    logval = (
        (s - 0.5) * math.log(2.0 * math.pi)
        + ((gamma / 2.0) * q_alpha - 0.5) * math.log(2.0 / gamma)
        - math.log(q_alpha)
        - s * math.lgamma(1.0 - gamma * gamma / 4.0)
        + dg
    )
    return logval


def reflection_boundary_1d(gamma: float, alpha: float) -> float:
    """Tail constant of GMC with a boundary insertion of strength alpha."""
    return checked_exp(log_reflection_boundary_1d(gamma, alpha), "reflection coefficient")


def reflection_bulk_2d(gamma: float, alpha: float) -> float:
    """Tail constant of two-dimensional GMC with a bulk insertion."""
    q_alpha, s = tail_exponent(gamma, alpha)
    logval = s * (math.log(math.pi) + math.lgamma(gamma * gamma / 4.0))
    logval -= s * math.lgamma(1.0 - gamma * gamma / 4.0)
    logval += math.log(gamma / (2.0 * q_alpha))
    lg, sign = log_gamma_ratio((-(gamma / 2.0) * q_alpha,), ((gamma / 2.0) * q_alpha, s))
    return -sign * checked_exp(logval + lg, "reflection coefficient")


def law_decomposition_log_moment(params: GmcParams) -> float:
    """ln of the moment assembled from five independent laws.

    Constant * log-normal * circle-mass law * three inverse generalized
    beta variables; evaluating the inverse-beta moments at -p.
    """
    _require_bounds(params)
    g, p, a, b = params.gamma, params.p, params.a, params.b
    v = 4.0 / (g * g)
    ln_const = math.log(2.0 * math.pi) - (3.0 * (1.0 + g * g / 4.0) + 2.0 * (a + b)) * math.log(2.0)
    ln_l = p * p * g * g * math.log(2.0) / 2.0
    ln_y = math.lgamma(1.0 - p * g * g / 4.0) - p * math.lgamma(1.0 - g * g / 4.0)
    x1 = Beta22Params(g, 1.0 + v * (1.0 + a), (b - a) * v / 2.0, (b - a) * v / 2.0)
    x2 = Beta22Params(g, 1.0 + v * (2.0 + a + b) / 2.0, 0.5, v / 2.0)
    x3 = Beta22Params(g, 1.0 + v, 0.5 + v * (1.0 + a + b) / 2.0, 0.5 + v * (1.0 + a + b) / 2.0)
    args = np.array([beta22_args(x, -p) for x in (x1, x2, x3)])  # one sign row per beta law
    lv = double_gamma_evaluator(g).log_value(args, BETA22_SIGNS).tolist()
    return p * ln_const + ln_l + ln_y + lv[0] + lv[1] + lv[2]


def derivative_martingale_moment(p: float) -> float:
    """Moment of twice the derivative-martingale total mass, for p < 1."""
    if not p < 1.0:
        raise DomainError(f"need p < 1, got {p!r}")
    # the weights sum to 1: the odd term's partner, q/2, carries the e^{-qt/2} term
    dg = double_gamma_evaluator(2.0).log_value(
        np.array([2.0 - p, 2.0, 4.0 - p, 4.0 - 2.0 * p, 1.0 - p]), (2.0, -2.0, 1.0, -1.0, 1.0)
    )
    logval = p * math.log(2.0 * math.pi) + dg
    return checked_exp(logval, "derivative martingale moment")


def hyp_triple(params: GmcParams, kind: ObservableKind) -> HypTriple:
    """Hypergeometric equation parameters for the chosen observable."""
    g, p, a, b = params.gamma, params.p, params.a, params.b
    u = g * g / 4.0
    if kind is ObservableKind.POWER_GAMMA_SQ_OVER_4:
        return HypTriple(-p * u, -(a + b + 1.0) - (2.0 - p) * u, -a - u)
    v = 4.0 / (g * g)
    return HypTriple(-p, -v * (a + b + 2.0) + p - 1.0, -v * (1.0 + a))


def _check_generic(triple: HypTriple) -> None:
    for name, val in (("c", triple.c_param), ("a-b", triple.a_param - triple.b_param)):
        if not math.isfinite(val):
            raise DomainError(f"parameter {name}={val!r} is not finite")
        if abs(val - round(val)) < _INT_GUARD:
            raise DegenerateParamsError(
                f"parameter {name}={val!r} within {_INT_GUARD} of an integer"
            )


def predict_observable(params: GmcParams, kind: ObservableKind, t: float) -> float:
    """Value of the auxiliary observable at a finite t <= 0, from the exact moment.

    The expansion-at-infinity constants are (d1, 0), d1 the exact moment.
    For t <= -_BASIS_SWITCH that expansion is summed as it stands,
    d1 |t|^-a F(a, 1+a-c, 1+a-b, 1/t); above it the connection matrix maps
    the constants to the expansion-at-zero basis, which is summed instead
    (at t = 0 that sum is c1, since 1 - c > 0 inside the bounds).  Which
    basis runs is a function of t alone.  Against a 40-digit evaluation of
    the |t|^-1 form at 600 seeded points inside the bounds (gamma 0.1 to
    1.95, p in (-3, 3), a and b in (-1.4, 3), both kinds) and 16 or 22
    values of t in [-1e3, -1e-4], the worst error is 9.1e-13 relative.
    Kind one with a near -1 at small gamma is the exception: there both
    bases lose digits for |t| near the switch.  A value that is not a
    finite double, as when |t|^-a overflows, raises DomainError.
    """
    if not -math.inf < t <= 0.0:
        raise DomainError(f"observable defined for finite t <= 0, got {t!r}")
    _require_bounds(params)
    chi = kind.chi(params.gamma)
    _require_bounds(GmcParams(params.gamma, params.p, params.a + chi, params.b))
    triple = hyp_triple(params, kind)
    _check_generic(triple)
    a, b, c = triple.a_param, triple.b_param, triple.c_param
    d1 = exact_moment(params)
    try:
        if t <= -_BASIS_SWITCH:
            tail = hyp2f1_negative(HypTriple(a, 1.0 + a - c, 1.0 + a - b), 1.0 / t)
            value = d1 * abs(t) ** (-a) * tail
        else:
            c1, c2 = connection_coeffs(triple, d1)
            first = c1 * hyp2f1_negative(triple, t)
            second = c2 * abs(t) ** (1.0 - c) * hyp2f1_negative(
                HypTriple(1.0 + a - c, 1.0 + b - c, 2.0 - c), t
            )
            value = first + second
    except OverflowError:  # a float power overflowed
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"observable is not a finite double at t={t!r}")
    return value
