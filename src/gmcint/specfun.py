"""Special functions.

Euler Gamma (with reflection to negative arguments), the Gauss
hypergeometric function restricted to nonpositive argument, the double
gamma function (over an array of arguments at once, for gamma in
[0.01, 2]: a Taylor series head on the first ladder panels, up to 2.7e-2,
then its defining integral over the rest of the panel ladder, up to its top
edge, taken by `quadrature.integrate_panels` in one round, then the
algebraic tail in closed form; larger arguments by differences of its
asymptotic series and at most a few shift steps),
Barnes G, moments of the generalized beta law, and the first column of
the connection matrix between hypergeometric solution bases.  A ratio of
double gamma products, the form of every closed form in `exactlaw`, is one
integral of the summed integrand (`DoubleGamma.log_value` with den).

Everything here is a pure function of its arguments; evaluator objects are
immutable after construction, so all operations are safe to call
concurrently.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DegenerateCError, DomainError, PoleError
from .quadrature import LADDER, LADDER_T, integrate_panels

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_POLE_TOL = 1e-12  # absolute tolerance for nonpositive-integer detection

_SERIES_TOL = 1e-16
_SERIES_MAX_TERMS = 100_000

_HEAD_TERMS = 20  # Taylor terms of the double gamma series head
_FACTORIAL = np.cumprod(np.concatenate(([1.0], np.arange(1.0, _HEAD_TERMS + 3))))


def _bernoulli(n: int) -> list:
    """B_0 .. B_n as exact fractions (B_1 = -1/2): sum_{k<=j} C(j+1, k) B_k = 0 for j >= 1."""
    b = [Fraction(1)]
    for j in range(1, n + 1):
        b.append(-sum(math.comb(j + 1, k) * b[k] for k in range(j)) / (j + 1))
    return b


# u / (1 - e^{-u}) = sum_k (-1)^k B_k u^k / k!, as far as the head needs; each
# coefficient is the double nearest its exact value
_BERNOULLI = _bernoulli(_HEAD_TERMS + 1)
_INV_H = np.array([float((-1) ** k * b / math.factorial(k)) for k, b in enumerate(_BERNOULLI)])
_EVALUATORS_KEPT = 128  # per-gamma evaluators kept by double_gamma_evaluator
# lone values, or numerator and denominator terms, per `integrate_panels` call,
# which bounds its memory
_BATCH_ROWS = 128
# The double gamma integral's Taylor head covers [0, LADDER[k]] and the
# quadrature LADDER the rest.  The head's series converges for t < pi gamma,
# and k is the largest k <= _HEAD_PANELS with LADDER[k] <= _HEAD_REACH * pi
# gamma: k = 3, [0, 2.7e-2], for gamma >= 0.048 (the panels above pass their
# test at every gamma), and k = 1 at _GAMMA_FLOOR.  Below the floor the sums
# lose digits (2e-10 at gamma 0.005), and below 0.0018 no ladder edge is left
# inside the head's reach.  Every row runs on to the top ladder edge, 1594,
# and adds the tail (x - q/2)/1594 beyond it.  That tail is exact: past
# T = max(45, (45 - ln mu) / mu), mu = min(x, q/2, 1), the integrand is
# (x - q/2)/t^2 in doubles, and T = 960 < 1594 at x = _X_FLOOR.
_HEAD_PANELS = 3
_HEAD_REACH = 0.18
_GAMMA_FLOOR = 0.01
_X_FLOOR = 0.05  # arguments below this are lifted by m-shifts
# A sum of values takes x up to _HEAD_XS / LADDER[k] into its one
# integral, k the head's panels, and reduces only larger x.
# The head's reach keeps q LADDER[k] <= 1.13, so that cap is above q and
# above n, and an n-step from above it lands above 13.
_HEAD_XS = 1.5
# Past x_asym = max(cap, _ASYM_REACH / (pi gamma)), ln G is its asymptotic series
# (`DoubleGamma._series_diff`) in the 22 coefficients of recip.  From pi gamma x = 45
# on its error is below 4e-14 max(1, |ln G|); the series diverges, and more terms
# are worse below pi gamma x = 30, so the reach and the term count go together.
_ASYM_REACH = 45.0
# the series' weight on r_k: 1 for k <= 2, then (k - 3)!
_ASYM_SCALE = np.concatenate((np.ones(3), _FACTORIAL[: len(_INV_H) - 3]))
# e^{-t}/t, -t and 1/t^2 on the ladder nodes: the integrand's factors of t alone
_EXP_OVER_T = np.exp(-LADDER_T) / LADDER_T
_NEG_T = -LADDER_T
_EXP_FLOOR = -700.0  # e^-700 = 1e-304, far below any term it is added to
_INV_T_SQUARED = 1.0 / LADDER_T**2
_LADDER_EDGES = LADDER.tolist()  # as floats, for bisect and scalar arithmetic

# Stirling's series lgamma(z) ~ (z - 1/2) ln z - z + ln sqrt(2 pi) + sum_r c_r z^(1-2r),
# c_r = B_2r / (2r (2r - 1)), r = 1 .. 7: from z = _STIRLING_MIN on, the next
# term is below 3e-17
_STIRLING = [float(_BERNOULLI[k] / (k * (k - 1))) for k in range(2, 15, 2)]
_STIRLING_MIN = 10.0


def _sinpi(x: float) -> float:
    """sin(pi*x) with exact argument reduction (accurate near integers)."""
    n = round(x)
    r = x - n
    s = math.sin(math.pi * r)
    return s if (n % 2 == 0) else -s


def is_nonpositive_integer(x: float) -> bool:
    return x <= 0.5 and math.isfinite(x) and abs(x - round(x)) <= _POLE_TOL


def gammaln_signed(x: float) -> tuple[float, float]:
    """(log|Gamma(x)|, sign of Gamma(x)).

    Negative arguments go through the reflection formula
    Gamma(x) = pi / (sin(pi x) Gamma(1-x)), so only positive arguments ever
    reach lgamma.  Raises PoleError at nonpositive integers, and DomainError
    at a non-finite x or where log|Gamma(x)| overflows.
    """
    if not math.isfinite(x):
        raise DomainError(f"Gamma at non-finite x={x!r}")
    if is_nonpositive_integer(x):
        raise PoleError(f"Gamma pole at x={x!r}")
    if x > 0.0:
        try:
            return math.lgamma(x), 1.0
        except OverflowError:
            raise DomainError(f"log Gamma overflows at x={x!r}") from None
    s = _sinpi(x)
    # log Gamma(x) = log pi - log|sin(pi x)| - log Gamma(1-x)
    logval = math.log(math.pi) - math.log(abs(s)) - math.lgamma(1.0 - x)
    return logval, math.copysign(1.0, s)


def checked_exp(logval: float, what: str) -> float:
    """exp(logval); DomainError, naming `what`, when that overflows the double range."""
    try:
        return math.exp(logval)
    except OverflowError:
        raise DomainError(f"{what} overflows the double range: ln = {logval!r}") from None


def log_gamma_ratio(num, den) -> tuple[float, float]:
    """(log|ratio|, sign) of the product of Gamma(x) over num divided by that over den.

    The log terms are added over num, then subtracted over den, in order.
    Raises PoleError when an argument is a nonpositive integer.
    """
    logval = 0.0
    sign = 1.0
    for arg in num:
        lg, s = gammaln_signed(arg)
        logval += lg
        sign *= s
    for arg in den:
        lg, s = gammaln_signed(arg)
        logval -= lg
        sign *= s
    return logval, sign


def gamma_ratio(num, den) -> float:
    """The product of Gamma(x) over num divided by that over den."""
    logval, sign = log_gamma_ratio(num, den)
    return sign * checked_exp(logval, "Gamma ratio")


@dataclass(frozen=True)
class HypTriple:
    """Parameters (a, b, c) of a Gauss hypergeometric function."""

    a_param: float
    b_param: float
    c_param: float

    def __post_init__(self):
        if is_nonpositive_integer(self.c_param):
            raise DegenerateCError(f"lower parameter c={self.c_param!r} degenerates the series")


def _hyp2f1_series(a: float, b: float, c: float, z: float) -> float:
    """Defining power series, for |z| < 1."""
    term = 1.0
    total = 1.0
    for k in range(_SERIES_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        total += term
        if abs(term) <= _SERIES_TOL * abs(total):
            return total
    raise ConvergenceError(
        f"hypergeometric series did not converge: a={a}, b={b}, c={c}, z={z}"
    )


def hyp2f1_negative(params: HypTriple, t: float) -> float:
    """F(a, b, c, t) for finite t <= 0.

    The series is summed directly on (-0.5, 0]; for t <= -0.5 the Pfaff
    transformation F(a,b,c,t) = (1-t)^(-a) F(a, c-b, c, t/(t-1)) maps the
    argument into (0, 1) where the series converges.
    """
    if not -math.inf < t <= 0.0:
        raise DomainError(f"argument must be finite and <= 0, got {t!r}")
    a, b, c = params.a_param, params.b_param, params.c_param
    if t == 0.0:
        return 1.0
    if t > -0.5:
        return _hyp2f1_series(a, b, c, t)
    z = t / (t - 1.0)
    return (1.0 - t) ** (-a) * _hyp2f1_series(a, c - b, c, z)


def _head_matrix(s: float) -> tuple[np.ndarray, float]:
    """(C, v) of the series head over [0, s]: its weights are w = C @ recip.

    The double gamma log-integrand is
        [e^{-xt} - e^{-Qt/2}] / [(1-e^{-mt})(1-e^{-nt}) t]
        - (Q/2-x)^2/2 * e^{-t}/t + (x-Q/2)/t^2
    with m n = 1 and m + n = Q; the 1/t^2 and 1/t parts cancel identically.
    Its Taylor coefficients about t=0 are those of the numerator
    e^{-xt} - e^{-Qt/2} = sum_{j>=1} a_j t^j, a_j = ((-x)^j - (-Q/2)^j)/j!,
    times recip, the series of t^2 over the denominator, less the
    (Q/2-x)^2 part.  Coefficient k is sum_j a_j recip[k+3-j], and
    integrating t^k over [0, s] gives s^(k+1)/(k+1), so the head is
        sum_j ((-x)^j - (-Q/2)^j) w_j - (Q/2-x)^2/2 * v,   j = 1 .. len(w),
    with w_j = sum_k recip[k+3-j] s^(k+1) / ((k+1) j!): linear in recip,
    through a matrix C that depends on s alone, and v on s alone.
    """
    k = np.arange(_HEAD_TERMS)
    power = s ** (k + 1) / (k + 1)
    i = np.arange(len(_INV_H))[:, None]  # j = i + 1
    lag = k + 2 - i  # k + 3 - j
    c = np.zeros((len(_INV_H), len(_INV_H)))
    row, col = np.nonzero(lag >= 0)
    c[row, lag[row, col]] = power[col] / _FACTORIAL[row + 1]
    v = float(np.dot((-1.0) ** (k + 1) / _FACTORIAL[k + 1], power))
    return c, v


# (C, v) of the series head over [0, LADDER[k]] for every k <= _HEAD_PANELS
_HEAD = [_head_matrix(edge) for edge in LADDER[: _HEAD_PANELS + 1].tolist()]
_HEAD_J = np.arange(len(_INV_H))


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """a summed over its axis 1 in a fixed pairwise tree, neighbours first.

    A level of odd length gets a zero appended.  Two neighbours may swap
    without changing a bit of the sum, and each index of the other axes is
    summed on its own.
    """
    while a.shape[1] > 1:
        if a.shape[1] % 2:
            a = np.concatenate((a, np.zeros_like(a[:, :1])), axis=1)
        a = a[:, 0::2] + a[:, 1::2]
    return a[:, 0]


def _lgamma_diff(z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """lgamma(z + dz) - lgamma(z) for z > 0 and z + dz > 0, element by element.

    From _STIRLING_MIN on both are Stirling's series, whose difference is
        (z - 1/2) log1p(dz/z) + dz (ln(z + dz) - 1) + sum_r c_r ((z + dz)^(1-2r) - z^(1-2r)),
    so its error is a few ulp of the difference, not of lgamma(z); below it
    the two `math.lgamma` values are subtracted.
    """
    big = np.minimum(z, z + dz) >= _STIRLING_MIN
    zs, dzs = np.where(big, z, _STIRLING_MIN), np.where(big, dz, 0.0)
    za = zs + dzs
    out = (zs - 0.5) * np.log1p(dzs / zs) + dzs * (np.log(za) - 1.0)
    ia, ib = 1.0 / za, 1.0 / zs
    ia2, ib2 = ia * ia, ib * ib
    for c in _STIRLING:
        out += c * (ia - ib)
        ia, ib = ia * ia2, ib * ib2
    if big.all():
        return out
    small = [math.lgamma(a) - math.lgamma(b) for a, b in zip((z + dz).tolist(), z.tolist())]
    return np.where(big, out, small)


@dataclass
class DoubleGamma:
    """Evaluator for the double gamma function at fixed gamma in [0.01, 2].

    gamma = 2 is admitted solely as the bridge to the Barnes G function.
    Below _GAMMA_FLOOR the sums lose digits (2e-10 at gamma 0.005), and
    below 0.0018 no ladder edge is left inside the series head's reach, so
    such gamma are refused.  The quasi-periods are m = gamma/2 and
    n = 2/gamma with m*n = 1, and q = m + n.  Evaluation strategy: every
    value is a term of a sum of ln G over numerator arguments less that
    over denominator ones, which the evaluator pairs itself (`log_value`);
    a lone value is the pair ln G(x) - ln G(q/2), as ln G(q/2) = 0.  A row
    of pairs is one integral of its summed integrand (`_ln_signed`): a
    Taylor-series head on the first ladder panels, Gauss-Legendre panels of
    the shared quadrature LADDER up to its top edge T, and the algebraic
    tail added in closed form; every row shares the same panels and is one
    row of a call of `quadrature.integrate_panels`, the package's one
    ladder kernel.  Each row has its own sum, so a value does not depend on
    the batch it was computed in.  Arguments up to the cap
    _HEAD_XS / LADDER[k] go into the integral as they are.  Past
    x_asym = max(cap, 45 / (pi gamma)) ln G is its asymptotic series, of
    which only differences are taken (`_series_diff`); between the cap and
    x_asym, below gamma 0.26 only, arguments take at most 6 n-steps of the
    shift equation, and below a small floor at most 10 m-steps lift them
    (the function has a simple pole at 0), each step one lgamma term
    (`_reduce_pairs`).  So every finite argument costs a bounded time, and
    only where ln G itself leaves the double range is it refused.
    """

    gamma: float
    q: float = field(init=False)

    def __post_init__(self):
        if not _GAMMA_FLOOR <= self.gamma <= 2.0:
            raise DomainError(
                f"double gamma needs gamma in [{_GAMMA_FLOOR}, 2], got {self.gamma!r}"
            )
        self.q = self.gamma / 2.0 + 2.0 / self.gamma
        self._m = self.gamma / 2.0
        self._n = 2.0 / self.gamma
        reach = bisect.bisect_right(_LADDER_EDGES, _HEAD_REACH * math.pi * self.gamma)
        self._head_panels = int(min(reach - 1, _HEAD_PANELS))
        c, self._head_v = _HEAD[self._head_panels]
        i = _HEAD_J
        # t^2 / denominator = 1 / (h(mt) h(nt)), h(u) = (1 - e^{-u}) / u
        recip = np.convolve(_INV_H * self._m**i, _INV_H * self._n**i)[: len(i)]
        self._head_w = c @ recip
        self._asym_w = (recip * _ASYM_SCALE).tolist()
        # (-q/2)^j, j >= 1, by a running product
        self._q_powers = np.array(list(itertools.accumulate([-0.5 * self.q] * len(i), operator.mul)))
        self._x_cap = _HEAD_XS / _LADDER_EDGES[self._head_panels]
        self._x_asym = max(self._x_cap, _ASYM_REACH / (math.pi * self.gamma))
        # 1 / (den t) on the ladder nodes past the head, den the integrand's denominator
        t = LADDER_T[self._head_panels:]
        self._inv_den_t = 1.0 / (np.expm1(-self._m * t) * np.expm1(-self._n * t) * t)

    def _head(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The series head of ln G(x) over [0, LADDER[k]] at each x, d = q/2 - x and d^2/2.

        The head's powers (-x)^j come by a running product, which at x = q/2
        repeats the evaluator's (-q/2)^j exactly, so the head is 0 there.
        """
        d = 0.5 * self.q - x
        dd = 0.5 * d * d
        powers = (-x)[..., None].repeat(len(self._q_powers), axis=-1).cumprod(axis=-1)
        return ((powers - self._q_powers) * self._head_w).sum(axis=-1) - dd * self._head_v, d, dd

    def _ln_signed(self, y: np.ndarray, shift: np.ndarray | None) -> np.ndarray:
        """Per row of y and shift (2-D, pairs of neighbours, y in [_X_FLOOR, cap]), the sum
        of ln G(y) + shift over the first term of each pair less that over the second;
        shift None is 0.

        Each ln G(y) is its head, its integral over the ladder and its tail,
        and the integrand is linear in e^{-yt} - e^{-qt/2}, d and d^2/2
        (`_head_matrix`), so a row is one head-and-tail sum and one integral:
        of the signed sum of the numerators over den t, less
        C2 e^{-t}/t + C1/t^2, with C1 and C2 the signed sums of d and
        d^2/2.  A pair, u its smaller argument and g the gap to the larger,
        has the numerator e^{-ut} expm1(-g t), negated when its first term
        is the smaller, so nearly equal arguments cancel before they are
        rounded.  The pairs are summed node by node in a fixed pairwise tree
        (`_pairwise_sum`), and the short sums per row with math.fsum, so a
        row does not depend on the other rows.
        """
        head, d, dd = self._head(y)
        tail = head - d / _LADDER_EDGES[-1]
        parts = (tail if shift is None else tail + shift, d, dd)
        for p in parts:
            p[:, 1::2] *= -1.0
        sums = np.array([[math.fsum(r) for r in p.tolist()] for p in parts])
        c1, c2 = sums[1:, :, None, None]
        ya, yb = y[:, 0::2, None, None], y[:, 1::2, None, None]
        near = np.minimum(ya, yb)
        gap = np.maximum(ya, yb) - near
        sign = np.where(ya > yb, 1.0, -1.0)
        k = self._head_panels
        neg_t = _NEG_T[k:]

        def integrand(t):
            # e^{-ut} below e^_EXP_FLOOR is lost against the other terms; clamped, it
            # never underflows, which keeps exp off its slow path
            decay = np.maximum(near * neg_t, _EXP_FLOOR)
            num = _pairwise_sum(np.exp(decay, out=decay) * np.expm1(gap * neg_t) * sign)
            return num * self._inv_den_t - (c2 * _EXP_OVER_T[k:] + c1 * _INV_T_SQUARED[k:])

        return sums[0] + integrate_panels(integrand, k, len(LADDER) - 1)

    def _series_diff(self, a: float, b: float) -> float:
        """P(a) - P(b) at a >= b >= x_asym, P the asymptotic series
            ln G(x) ~ A - r_0 (x^2/2 ln x - 3x^2/4) + r_1 (x ln x - x) - r_2 ln x
                      + sum_{k>=3} r_k (k - 3)! x^(2-k)
        of Watson's lemma on the defining integral (Barnes, Phil. Trans. R. Soc.
        A 196 (1901); Ruijsenaars, Adv. Math. 156 (2000)), r = recip.

        The constant A cancels, so it is never computed.  Each term is
        differenced through l = log1p((a - b)/b) = ln a - ln b, as
        a^-j - b^-j = b^-j expm1(-j l) and a^2 ln a - b^2 ln b =
        a (a l) + (a - b)(a + b) ln b, so nearly equal a and b cancel before
        they are rounded.  A difference beyond the double range is nan, which
        math.fsum carries and `_sum_rows` refuses.
        """
        w = self._asym_w
        d = a - b
        l = math.log1p(d / b)
        ln_b = math.log(b)
        tail, inv_b = 0.0, 1.0 / b
        power = inv_b
        for j, c in enumerate(w[3:], 1):
            tail += c * power * math.expm1(-j * l)
            power *= inv_b
        out = (tail - w[2] * l + w[1] * (a * l + d * (ln_b - 1.0))
               - w[0] * (a * (0.5 * a * l) + d * (a + b) * (0.5 * ln_b - 0.75)))
        return out if math.isfinite(out) else math.nan

    def _reduce_pairs(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Arguments y in [_X_FLOOR, cap] and shifts for the rows x of `_ln_signed`, with
        the same difference ln G(y_a) + shift_a - ln G(y_b) - shift_b over each pair of
        neighbours as of ln G(x_a) - ln G(x_b).

        A pair with both arguments past x_asym adds the difference of their
        series (`_series_diff`) to its first term, and both of its terms
        become q/2.  A pair above the cap otherwise steps down together, by
        the n-steps of its larger argument, if its smaller one stays
        positive: fewer than x_asym / n <= 56 steps.  Its n-steps then add
        shift_a - shift_b to the first term, one lgamma difference of
        arguments n (y_a - y_b) apart per step (`_lgamma_diff`), which keeps
        its digits where each lgamma is large.  Every other argument is
        reduced on its own, and every m-lift is (`_reduce`).
        """
        n, cap = self._n, self._x_cap
        xa, xb = x[:, 0::2], x[:, 1::2]
        low = np.minimum(xa, xb)
        series = None
        if low.max() > self._x_asym:
            far = low > self._x_asym
            series = [self._series_diff(u, v) if u >= v else -self._series_diff(v, u)
                      for u, v in zip(xa[far].tolist(), xb[far].tolist())]
            x = np.where(np.repeat(far, 2, axis=1), 0.5 * self.q, x)
            xa, xb = x[:, 0::2], x[:, 1::2]
            low = np.minimum(xa, xb)
        # a pair whose smaller argument is at most n cannot step (a lone value's q/2 < n)
        joint = low.max() > n
        if joint:
            k = np.ceil((np.maximum(xa, xb) - cap) / n)
            together = (k > 0) & (low - k * n > 0.0)
            joint = together.any()
        if joint:
            x = x - np.repeat(np.where(together, k, 0.0), 2, axis=1) * n
        y, shift = self._reduce(x.ravel().tolist())
        shift = np.zeros(x.shape) if shift is None else np.reshape(shift, x.shape)
        if series is not None:
            shift[:, 0::2][far] += series
        if joint:
            ya, yb, steps = x[:, 0::2][together], x[:, 1::2][together], k[together].astype(int)
            dz = n * (ya - yb)
            z = n * (np.repeat(yb, steps) + n * np.concatenate([np.arange(j) for j in steps]))
            diff = np.add.reduceat(_lgamma_diff(z, np.repeat(dz, steps)), np.cumsum(steps) - steps)
            shift[:, 0::2][together] -= diff + steps * dz * math.log(self._m)
        return np.reshape(y, x.shape), shift

    def _reduce(self, xs: list) -> tuple[list, list | None]:
        """Arguments y and shifts with ln G(x) = ln G(y) + shift, or shift None if every
        x is in [_X_FLOOR, cap].

        Past x_asym, x is taken to x_asym by the series (`_series_diff`).
        Above the cap it then takes n-steps down into (cap - n, cap], at most
        6 and only below gamma 0.26, where x_asym is above the cap; below the
        floor m-steps lift it, at most 10.  The cap is above n + 13, so no x
        takes both.  A step at y adds or takes away ln G(y) - ln G(y + s),
        which by the shift equation of s = m or n is
        lgamma(s y) -/+ (s y - 1/2) ln m - ln sqrt(2 pi); for an m-step,
        lgamma(m y) is lgamma(1 + m y) - ln m - ln y, finite where m y
        underflows.  The terms of each x are summed with math.fsum.
        """
        m, n, floor, cap, top = self._m, self._n, _X_FLOOR, self._x_cap, self._x_asym
        if floor <= min(xs) and max(xs) <= cap:
            return xs, None
        ln_m = math.log(m)
        ys, shift = [], []
        for v in xs:
            terms = [self._series_diff(v, top)] if v > top else []
            v = min(v, top)
            k_n = max(math.ceil((v - cap) / n), 0)
            y = v - k_n * n
            k_m = math.ceil(max(floor - y, 0.0) / m)
            for z in (n * (v - j * n) for j in range(1, k_n + 1)):
                terms.append(-(math.lgamma(z) + ln_m * (z - 0.5) - _LOG_SQRT_2PI))
            for u in (y + j * m for j in range(k_m)):
                terms.append(math.lgamma(1.0 + m * u) - math.log(u) - ln_m * (m * u + 0.5)
                             - _LOG_SQRT_2PI)
            ys.append(y + k_m * m)
            shift.append(math.fsum(terms))
        return ys, shift

    def log_value(self, num, *, den=None):
        """ln of the double gamma function at x > 0, or sums of such logs over
        numerator arguments less those over denominator ones.

        Without den, num is a float or an array of arguments, and the result
        has its shape.  Each value x is a row of one numerator term and no
        denominator ones, at most _BATCH_ROWS rows per `integrate_panels`
        call.  A row does not depend on its batch, so a value equals
        `log_value([x], den=[])` bit for bit.

        With den, num and den are both 1-D, one row of terms, or both 2-D
        with as many rows, at most _BATCH_ROWS terms in all.  The result is
        the sum of ln G over each row of num less that over the row of den:
        a float for one row, else an array (`_sum_rows`).  A row differs from
        the sum of its lone values by up to about 1e-13 / gamma^2 times
        max(1, |sum|), not bit for bit.

        A value or sum that comes out non-finite raises DomainError.
        """
        xs = np.asarray(num, dtype=float)
        if den is None:
            terms = xs.reshape(-1, 1)
            out = np.empty(len(terms))
            for i in range(0, len(terms), _BATCH_ROWS):
                batch = terms[i : i + _BATCH_ROWS]
                out[i : i + len(batch)] = self._sum_rows(batch, batch[:, :0])
            return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)
        ds = np.asarray(den, dtype=float)
        if not (xs.ndim == ds.ndim in (1, 2) and xs.shape[:-1] == ds.shape[:-1]
                and 0 < xs.size + ds.size <= _BATCH_ROWS):
            raise DomainError(
                f"num and den must be one row of terms each, or rows of them with as many "
                f"rows, at most {_BATCH_ROWS} terms in all; got shapes {xs.shape} and {ds.shape}"
            )
        values = self._sum_rows(*((xs, ds) if xs.ndim == 2 else (xs[None], ds[None])))
        return float(values[0]) if xs.ndim == 1 else values

    def _sum_rows(self, num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Per row of num and den (2-D, as many rows), the sum of ln G over num less that
        over den.

        Each row is one head-and-tail sum and one integrand row
        (`_ln_signed`), so a whole closed form is one `integrate_panels`
        call.  The terms are paired here: the shorter side of a row is padded
        with q/2, each side is sorted, and the k-th numerator argument is
        paired with the k-th denominator one.  On a line, that matching of
        the two sets has the least total gap, and a pair cancels before it
        is rounded, so the sum does not depend on the order of num or of
        den.  The rows are reduced (`_reduce_pairs`) only if an argument lies
        outside [_X_FLOOR, cap], and a sum that is not finite raises
        DomainError naming the row.
        """
        flat = num.ravel().tolist() + den.ravel().tolist()
        for v in flat:
            if not v > 0.0:
                raise DomainError(f"double gamma needs x > 0, got {v!r}")
            if not math.isfinite(v):
                raise DomainError(f"non-finite argument {v!r}")
        n_num, n_den = num.shape[1], den.shape[1]
        # per row, the k-th pair is (k-th numerator term, k-th denominator one), each side sorted
        pairs = np.empty((len(num), max(n_num, n_den), 2))
        pairs.fill(0.5 * self.q)  # the shorter side's pads; np.full costs twice as much
        pairs[:, :n_num, 0] = num
        pairs[:, :n_den, 1] = den
        pairs.sort(axis=1)
        x = pairs.reshape(len(num), -1)
        if _X_FLOOR <= min(flat) and max(flat) <= self._x_cap:
            values = self._ln_signed(x, None)
        else:
            values = self._ln_signed(*self._reduce_pairs(x))
        for row, v in enumerate(values.tolist()):
            if not math.isfinite(v):
                raise DomainError(f"double gamma sum is not finite at gamma={self.gamma!r}, "
                                  f"x={x[row].tolist()!r}")
        return values


@functools.lru_cache(maxsize=_EVALUATORS_KEPT)
def double_gamma_evaluator(gamma: float) -> DoubleGamma:
    """Shared per-gamma evaluator; the most recently used ones are kept."""
    return DoubleGamma(gamma)


def log_double_gamma(gamma: float, x):
    return double_gamma_evaluator(gamma).log_value(x)


def barnes_g(x):
    """Barnes G function for x > 0, through the gamma=2 double gamma.

    x is a float or an array, and the result has its shape; the double gamma
    values of an array come from one batched `log_value` call.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel().tolist()
    for v in flat:
        if not v > 0.0:
            raise DomainError(f"Barnes G needs x > 0, got {v!r}")
    # G(x) = (2 pi)^(x/2 - 1/2) / Gamma_1(x)
    lv = np.ravel(log_double_gamma(2.0, xs)).tolist()
    out = [checked_exp((0.5 * v - 0.5) * math.log(2.0 * math.pi) - g1, "Barnes G")
           for v, g1 in zip(flat, lv)]
    return out[0] if xs.ndim == 0 else np.array(out).reshape(xs.shape)


@dataclass(frozen=True)
class Beta22Params:
    """Shape parameters of the generalized beta law on [0, 1].

    The first two base parameters are fixed to (1, 4/gamma^2).  b1 and b2
    may be any reals for which the moment formula's double gamma arguments
    stay positive (that is checked per requested moment, not here).
    """

    gamma: float
    b0: float
    b1: float
    b2: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 2.0:
            raise DomainError(f"gamma must be in (0, 2), got {self.gamma!r}")
        if not self.b0 > 0.0:
            raise DomainError(f"b0 must be positive, got {self.b0!r}")


def beta22_args(params: Beta22Params, p: float) -> tuple[tuple, tuple]:
    """The double gamma arguments (num, den) of ln E[beta_{2,2}^p], four each.

    The moment is the product of the double gamma values at num over those
    at den.  b1 + b2 is grouped so that the arguments are bit-exact under
    b1 <-> b2.  Raises DomainError unless p > -b0 and every argument is
    positive.
    """
    if not p > -params.b0:
        raise DomainError(f"need p > -b0, got p={p!r}, b0={params.b0!r}")
    m = params.gamma / 2.0
    b0, b1, b2 = params.b0, params.b1, params.b2
    b12 = b1 + b2
    num = (m * (p + b0), m * (p + (b0 + b12)), m * (b0 + b1), m * (b0 + b2))
    den = (m * b0, m * (b0 + b12), m * (p + (b0 + b1)), m * (p + (b0 + b2)))
    for arg in (*num, *den):
        if not arg > 0.0:
            raise DomainError(f"double gamma argument {arg!r} not positive")
    return num, den


def connection_coeffs(params: HypTriple, d1: float) -> tuple[float, float]:
    """Map expansion-at-infinity constants (d1, 0) to expansion-at-zero ones.

    The first column of the change of basis between the two solution
    families of the hypergeometric equation, valid when c, a-b and the
    matrix Gamma arguments avoid nonpositive integers.
    """
    a, b, c = params.a_param, params.b_param, params.c_param
    m11 = gamma_ratio((1.0 - c, a - b + 1.0), (a - c + 1.0, 1.0 - b))
    m21 = gamma_ratio((c - 1.0, a - b + 1.0), (a, c - b))
    return m11 * d1, m21 * d1
