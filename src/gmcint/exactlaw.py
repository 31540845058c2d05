"""Closed-form quantities for the total mass of GMC on the unit interval.

Exact fractional moments, the Selberg product for integer moments, shift
equation ratios, the moment normalization constant, reflection
coefficients, the product-of-independent-laws decomposition, derivative
martingale moments, and the hypergeometric-basis prediction for the two
auxiliary observables.

All products of Gamma-type factors are assembled in log space; signs are
tracked separately where individual Euler Gamma factors can be negative.
Each closed form with double gamma factors is a form of `_log_forms`, the
one caller of `DoubleGamma.log_value`, whose forms at one gamma are one call,
that is one integral: exact moments at many points (`log_exact_moments`),
the normalization constant at many p (`c_of_ps`), and the law decomposition
beside the exact moment it decomposes (`law_and_exact_log_moments`).  Each
lone form, the 1d reflection coefficient and the martingale moment included,
is the one-point case of a batch; the observable takes one t per call.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BoundsError, DegenerateParamsError, DomainError
from .specfun import (
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
_LN_2, _LN_2PI = math.log(2.0), math.log(2.0 * math.pi)

# the double gamma factors of the exact moment, in exact_moment_factors order
EXACT_DG_FACTORS = ("num_a", "num_b", "num_ab", "num_p", "den_base", "den_a", "den_b", "den_ab")


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
    u = g * g / 4.0
    na, nb = n * (a + 1.0), n * (b + 1.0)
    nab = n * ((a + 1.0) + (b + 1.0))  # grouped so a <-> b symmetry is bit-exact
    p1m = (p - 1.0) * m
    ln_num = p * _LN_2PI
    ln_den = p * u * math.log(m) + p * math.lgamma(1.0 - u)
    args = np.array([
        na - p1m, nb - p1m, nab - (p - 2.0) * m, n - p * m,
        n, na + m, nb + m, nab - (2.0 * p - 2.0) * m,
    ])
    return ln_num, ln_den, args


def _log_forms(gamma: float, forms) -> list[float]:
    """ln of closed forms at one gamma, with all their double gamma factors as one call.

    A form is (ln prefactor, num rows, den rows): at least one numerator
    row, each with a denominator row; forms batched together have numerator
    rows of one length and denominator rows of one length.  Its value is the
    prefactor plus, row by row in order, the sum of ln G over the numerator
    row less that over the denominator row.  The rows of all forms are the
    rows of one `DoubleGamma.log_value` call.  A row does not depend on its
    batch, so a form's value does not depend on the forms beside it, and a
    lone form is the one-point case of a batch of its kind.
    """
    if not forms:
        return []
    num, den = [], []
    for _, form_num, form_den in forms:
        num += form_num
        den += form_den
    sums = iter(double_gamma_evaluator(gamma).log_value(np.array(num), den=np.array(den)).tolist())
    values = []
    for ln_value, form_num, _ in forms:
        for _ in form_num:
            ln_value += next(sums)
        values.append(ln_value)
    return values


def _moment_form(params: GmcParams) -> tuple:
    """The exact moment as a `_log_forms` form: its prefactor and its one row, four over four."""
    _require_bounds(params)
    ln_num, ln_den, args = exact_moment_factors(params)
    return ln_num - ln_den, [args[:4]], [args[4:]]


def log_exact_moments(points) -> np.ndarray:
    """ln of the exact fractional moment at each of a sequence of points at one gamma.

    Each point's eight double gamma factors, four over four, are one row of
    terms, and the rows are one `DoubleGamma.log_value` call (`_log_forms`),
    so a batch of moments is one integral per slice of rows.  Each value
    equals `log_exact_moment` of its point bit for bit.  The first point at
    another gamma than the first point's raises DomainError, and the first
    point outside the bounds BoundsError, which names it.
    """
    points = list(points)
    if not points:
        return np.empty(0)
    gamma = points[0].gamma
    forms = []
    for pt in points:
        if pt.gamma != gamma:
            raise DomainError(f"moments are batched at one gamma, got {gamma!r} and {pt.gamma!r}")
        forms.append(_moment_form(pt))
    return np.array(_log_forms(gamma, forms))


def log_exact_moment(params: GmcParams) -> float:
    """ln of the exact fractional moment: the one-point case of `log_exact_moments`."""
    return _log_forms(params.gamma, [_moment_form(params)])[0]


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
    try:
        for j in range(1, p + 1):
            logval += (
                math.lgamma(1.0 + a - (j - 1) * g2over4)
                + math.lgamma(1.0 + b - (j - 1) * g2over4)
                + math.lgamma(1.0 - j * g2over4)
                - math.lgamma(2.0 + a + b - (p + j - 2) * g2over4)
                - math.lgamma(1.0 - g2over4)
            )
    except OverflowError:
        raise DomainError(f"log Gamma overflows at a={a!r}, b={b!r}") from None
    return checked_exp(logval, "Selberg product")


def _c_form(gamma: float, p: float) -> tuple:
    """The normalization constant's log as a `_log_forms` form.

    The moment's prefactor at weight exponents 0 and its a,b-free double
    gamma factors Gamma_gamma(n - p m) / Gamma_gamma(n), from
    `exact_moment_factors`.  Needs p < 4/gamma^2.
    """
    ln_num, ln_den, args = exact_moment_factors(GmcParams(gamma, p, 0.0, 0.0))
    if not p < 4.0 / (gamma * gamma):
        raise DomainError(f"need p < 4/gamma^2, got p={p!r}")
    return ln_num - ln_den, [args[3:4]], [args[4:5]]


def c_of_ps(gamma: float, ps) -> list[float]:
    """Normalization constant of the moment formula (`_c_form`) at each p of ps.

    The constants are rows of one `DoubleGamma.log_value` call, and each
    equals `c_of_p` of its p bit for bit.  The first p at or above
    4/gamma^2 raises DomainError.
    """
    values = _log_forms(gamma, [_c_form(gamma, p) for p in ps])
    return [checked_exp(v, "normalization constant") for v in values]


def c_of_p(gamma: float, p: float) -> float:
    """Normalization constant of the moment formula: the one-point case of `c_of_ps`."""
    return c_of_ps(gamma, [p])[0]


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
    ln_value = (
        (s - 0.5) * _LN_2PI
        + ((gamma / 2.0) * q_alpha - 0.5) * math.log(2.0 / gamma)
        - math.log(q_alpha)
        - s * math.lgamma(1.0 - gamma * gamma / 4.0)
    )
    return _log_forms(gamma, [(ln_value, [[alpha - gamma / 2.0]], [[q_alpha]])])[0]


def reflection_boundary_1d(gamma: float, alpha: float) -> float:
    """Tail constant of GMC with a boundary insertion of strength alpha."""
    return checked_exp(log_reflection_boundary_1d(gamma, alpha), "reflection coefficient")


def log_reflection_bulk_2d(gamma: float, alpha: float) -> float:
    """ln of the tail constant of 2d GMC with a bulk insertion; DomainError where not finite."""
    q_alpha, s = tail_exponent(gamma, alpha)
    logval = s * (math.log(math.pi) + math.lgamma(gamma * gamma / 4.0))
    logval -= s * math.lgamma(1.0 - gamma * gamma / 4.0)
    logval += math.log(gamma / (2.0 * q_alpha))
    # (gamma/2)(Q - alpha) lies in (0, 1): the ratio is negative, and the constant its negation
    logval += log_gamma_ratio((-(gamma / 2.0) * q_alpha,), ((gamma / 2.0) * q_alpha, s))[0]
    if not math.isfinite(logval):
        raise DomainError(f"reflection coefficient has no finite log: ln = {logval!r}")
    return logval


def reflection_bulk_2d(gamma: float, alpha: float) -> float:
    """Tail constant of two-dimensional GMC with a bulk insertion."""
    return checked_exp(log_reflection_bulk_2d(gamma, alpha), "reflection coefficient")


def _law_form(params: GmcParams) -> tuple:
    """The law decomposition as a `_log_forms` form.

    Constant * log-normal * circle-mass law * three inverse generalized
    beta variables, whose moments are taken at -p: the prefactor is ln of
    the first three factors, and each beta law is a row of four numerator
    and four denominator double gamma arguments.
    """
    _require_bounds(params)
    g, p, a, b = params.gamma, params.p, params.a, params.b
    u, v = g * g / 4.0, 4.0 / (g * g)
    ln_const = _LN_2PI - (3.0 * (1.0 + u) + 2.0 * (a + b)) * _LN_2
    ln_l = p * p * g * g * _LN_2 / 2.0
    try:
        ln_y = math.lgamma(1.0 - p * g * g / 4.0) - p * math.lgamma(1.0 - u)
    except OverflowError:
        raise DomainError(f"log Gamma overflows at x={1.0 - p * g * g / 4.0!r}") from None
    b12, b3 = (b - a) * v / 2.0, 0.5 + v * (1.0 + a + b) / 2.0
    x1 = Beta22Params(g, 1.0 + v * (1.0 + a), b12, b12)
    x2 = Beta22Params(g, 1.0 + v * (2.0 + a + b) / 2.0, 0.5, v / 2.0)
    x3 = Beta22Params(g, 1.0 + v, b3, b3)
    # one row per beta law
    num, den = zip(beta22_args(x1, -p), beta22_args(x2, -p), beta22_args(x3, -p))
    return p * ln_const + ln_l + ln_y, num, den


def law_decomposition_log_moment(params: GmcParams) -> float:
    """ln of the moment assembled from five independent laws (`_law_form`).

    The one-form case of `law_and_exact_log_moments`, without the exact
    moment's row.
    """
    return _log_forms(params.gamma, [_law_form(params)])[0]


def law_and_exact_log_moments(params: GmcParams) -> tuple[float, float]:
    """(`law_decomposition_log_moment`, `log_exact_moment`) at params, bit for bit.

    The three generalized-beta rows and the exact moment's row are one
    `DoubleGamma.log_value` call (`_log_forms`).
    """
    law, exact = _log_forms(params.gamma, [_law_form(params), _moment_form(params)])
    return law, exact


def derivative_martingale_moment(p: float) -> float:
    """Moment of twice the derivative-martingale total mass, for p < 1."""
    if not p < 1.0:
        raise DomainError(f"need p < 1, got {p!r}")
    form = (p * _LN_2PI, [[2.0 - p, 2.0 - p, 4.0 - p, 1.0 - p]], [[2.0, 2.0, 4.0 - 2.0 * p]])
    return checked_exp(_log_forms(2.0, [form])[0], "derivative martingale moment")


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
    bases lose digits for |t| near the switch.  t is checked before the
    parameters.  A value that is not a finite double, as when |t|^-a
    overflows, raises DomainError.
    """
    if not -math.inf < t <= 0.0:
        raise DomainError(f"observable defined for finite t <= 0, got {t!r}")
    _require_bounds(params)
    chi = kind.chi(params.gamma)
    _require_bounds(GmcParams(params.gamma, params.p, params.a + chi, params.b))
    triple = hyp_triple(params, kind)
    _check_generic(triple)
    a, b, c = triple.a_param, triple.b_param, triple.c_param
    # c and a-b are not integers, so neither lower parameter degenerates
    far = HypTriple(a, 1.0 + a - c, 1.0 + a - b)
    second_at_zero = HypTriple(1.0 + a - c, 1.0 + b - c, 2.0 - c)
    d1 = exact_moment(params)
    try:
        if t <= -_BASIS_SWITCH:
            value = d1 * abs(t) ** (-a) * hyp2f1_negative(far, 1.0 / t)
        else:
            c1, c2 = connection_coeffs(triple, d1)
            first = c1 * hyp2f1_negative(triple, t)
            second = c2 * abs(t) ** (1.0 - c) * hyp2f1_negative(second_at_zero, t)
            value = first + second
    except OverflowError:  # a float power overflowed
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"observable is not a finite double at t={t!r}")
    return value
