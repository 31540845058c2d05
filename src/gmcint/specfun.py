"""Special functions.

Euler Gamma (with reflection to negative arguments), the Gauss
hypergeometric function restricted to nonpositive argument, the double
gamma function (over an array of arguments at once, for gamma in
[0.01, 2]: a Taylor series head on the first ladder panels, up to 2.7e-2,
then its defining integral over the rest of the panel ladder, up to its top
edge, taken by `quadrature.integrate_panels` in one round, then the
algebraic tail in closed form),
Barnes G, moments of the generalized beta law, and the first column of
the connection matrix between hypergeometric solution bases.  A signed sum
of double gamma logs, the form of every closed form in `exactlaw`, is one
integral of the summed integrand (`DoubleGamma.log_value` with signs).

Everything here is a pure function of its arguments; evaluator objects are
immutable after construction apart from an internal, bounded memo cache,
so all operations are safe to call concurrently.
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
_MEMO_SIZE = 4096  # double gamma values memoized per evaluator
_EVALUATORS_KEPT = 128  # per-gamma evaluators kept by double_gamma_evaluator
_BATCH_ROWS = 128  # arguments per batched window quadrature, which bounds its memory
# lgamma terms per call and per summed piece of the shift reduction; larger
# blocks run slower, as their temporaries are mapped afresh on every call
_SHIFT_BLOCK = 1 << 12
_MAX_SHIFT_STEPS = 10**8  # about 5 s of shift reduction; larger arguments are refused
# The window integral's Taylor head covers [0, LADDER[k]] and the quadrature
# LADDER the rest.  The head's series converges for t < pi gamma, and k is the
# largest k <= _HEAD_PANELS with LADDER[k] <= _HEAD_REACH * pi gamma: k = 3,
# [0, 2.7e-2], for gamma >= 0.048 (the panels above pass their test at every
# gamma), and k = 1 at _GAMMA_FLOOR.  Below the floor the rounding on the
# first panel after the head, which grows like 1/gamma^2, nears the panel
# test's tolerance.  Every window row runs on to the top ladder edge, 1594,
# and adds the tail (x - q/2)/1594 beyond it.  That tail is exact: past
# T = max(45, (45 - ln mu) / mu), mu = min(x, q/2, 1), the integrand is
# (x - q/2)/t^2 in doubles, and T = 960 < 1594 at x = _X_FLOOR.
_HEAD_PANELS = 3
_HEAD_REACH = 0.18
_GAMMA_FLOOR = 0.01
_X_FLOOR = 0.05  # window arguments below this are lifted by m-shifts
# A signed sum of values takes x up to _HEAD_XS / LADDER[k] into its one
# integral, k the head's panels, and reduces only larger x by n-steps.
# The head's reach keeps q LADDER[k] <= 1.13, so that cap is above q and
# above n, and an n-step from above it lands above 13.
_HEAD_XS = 1.5
# e^{-t}/t, t^2, -t and 1/t^2 on the ladder nodes: the integrands' factors of t alone
_EXP_OVER_T = np.exp(-LADDER_T) / LADDER_T
_T_SQUARED = LADDER_T**2
_NEG_T = -LADDER_T
_INV_T_SQUARED = 1.0 / _T_SQUARED
_LADDER_EDGES = LADDER.tolist()  # as floats, for bisect and scalar arithmetic

# ln Gamma by Lanczos's approximation (SIAM J. Numer. Anal. B 1, 1964) with
# g = 7 and nine coefficients: Gamma(z) = sqrt(2 pi) t^(z - 1/2) e^(-t) A(z),
# t = z + g - 1/2 and A(z) = p_0 + sum_{k=1}^{8} p_k / (z + k - 1).
_LANCZOS_G = 7.0
_LANCZOS_P = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
              771.32342877765313, -176.61502916214059, 12.507343278686905,
              -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)
_LANCZOS_TAIL = np.array(_LANCZOS_P[2:])[:, None]  # p_k for k >= 2, one row each
_LANCZOS_POLES = np.arange(1.0, len(_LANCZOS_P) - 1)[:, None]  # k - 1 for k >= 2
_LANCZOS_CONST = 0.5 * math.log(2.0 * math.pi) - (_LANCZOS_G - 0.5)
# Stirling's series lgamma(z) ~ (z - 1/2) ln z - z + ln sqrt(2 pi) + sum_r c_r z^(1-2r),
# c_r = B_2r / (2r (2r - 1)), r = 1 .. 7: from z = _STIRLING_MIN on, the next
# term is below 3e-17
_STIRLING = [float(_BERNOULLI[k] / (k * (k - 1))) for k in range(2, 15, 2)]
_STIRLING_MIN = 10.0


def _lgamma(z: np.ndarray) -> np.ndarray:
    """ln Gamma(z) for an array of z > 0, element by element.

    z A(z) = p_1 + z (p_0 + sum_{k>=2} p_k / (z + k - 1)) stays finite as
    z -> 0, so ln(z A(z)) - ln z is finite down to the least subnormal.  The
    k terms are added one after another, an order that does not depend on
    the size of z.  Against 40-digit mpmath the error is below
    4e-15 * max(1, |ln Gamma(z)|) on [5e-324, 1e9].
    """
    terms = np.add(z, _LANCZOS_POLES)
    np.divide(_LANCZOS_TAIL, terms, out=terms)
    np.add.accumulate(terms, axis=0, out=terms)
    za = _LANCZOS_P[1] + z * (_LANCZOS_P[0] + terms[-1])
    return ((z - 0.5) * np.log(z + (_LANCZOS_G - 0.5)) - z
            + (np.log(za) - np.log(z)) + _LANCZOS_CONST)


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


def _lgamma_sums(pieces: list) -> list:
    """Per (z0, dz, size) of pieces, the sum of lgamma(z0 + j*dz) over j = 0 .. size-1.

    All terms go to one `_lgamma` call, and each piece is summed on its own
    (numpy's pairwise order), so its sum does not depend on the other pieces.
    """
    z = [z0 + dz * np.arange(size) for z0, dz, size in pieces]
    starts = list(itertools.accumulate((size for _, _, size in pieces[:-1]), initial=0))
    return np.add.reduceat(_lgamma(np.concatenate(z) if len(z) > 1 else z[0]), starts).tolist()


def _lgamma_diff(z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """lgamma(z + dz) - lgamma(z) for z > 0 and z + dz > 0, element by element.

    From _STIRLING_MIN on both are Stirling's series, whose difference is
        (z - 1/2) log1p(dz/z) + dz (ln(z + dz) - 1) + sum_r c_r ((z + dz)^(1-2r) - z^(1-2r)),
    so its error is a few ulp of the difference, not of lgamma(z); below it
    the two `_lgamma` values are subtracted.
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
    return np.where(big, out, _lgamma(z + dz) - _lgamma(z)) if not big.all() else out


@dataclass
class DoubleGamma:
    """Evaluator for the double gamma function at fixed gamma in [0.01, 2].

    gamma = 2 is admitted solely as the bridge to the Barnes G function.
    Below _GAMMA_FLOOR the first ladder panel the series head leaves to the
    quadrature comes too near its rounding limit, so such gamma are refused.
    The quasi-periods are m = gamma/2 and n = 2/gamma with m*n = 1, and
    q = m + n.  Evaluation strategy: arguments above q are reduced into the
    base window with the two shift equations and arguments below a small
    floor are lifted by the m-shift (the function has a simple pole at 0);
    the shift factors are lgamma sums, vectorized over index blocks.  On the
    window the defining integral is computed with a Taylor-series head on
    the first ladder panels, Gauss-Legendre panels of the shared quadrature
    LADDER up to its top edge T, and the algebraic (x - q/2)/T tail added
    in closed form; every argument shares the same panels.
    `log_value` takes an array of arguments and integrates each batch of
    them in one call of `quadrature.integrate_panels`, the package's one
    ladder kernel, which evaluates every row on the shared ladder nodes in
    a single round.  Each row has its own sum, so a value does not depend
    on the batch it was computed in.  Values are memoized per
    argument, up to _MEMO_SIZE of them.  `log_value(x, signs)` integrates
    a signed sum of values as one row instead: the integrand is linear in
    the values' numerators, so each closed form, a sum of that kind, is one
    integral, and its arguments up to _HEAD_XS / LADDER[k] stay unreduced.
    """

    gamma: float
    q: float = field(init=False)
    _cache: dict = field(init=False, repr=False)

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
        # (-q/2)^j, j >= 1, by a running product
        self._q_powers = np.array(list(itertools.accumulate([-0.5 * self.q] * len(i), operator.mul)))
        self._x_cap = _HEAD_XS / _LADDER_EDGES[self._head_panels]
        # the integrand's denominator on the ladder nodes past the head
        t = LADDER_T[self._head_panels:]
        self._den = np.expm1(-self._m * t) * np.expm1(-self._n * t)
        self._cache = {}

    def _head(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The series head of ln G(x) over [0, LADDER[k]] at each x, d = q/2 - x and d^2/2.

        The head's powers (-x)^j come by a running product, which at x = q/2
        repeats the evaluator's (-q/2)^j exactly, so the head is 0 there.
        """
        d = 0.5 * self.q - x
        dd = 0.5 * d * d
        powers = (-x)[..., None].repeat(len(self._q_powers), axis=-1).cumprod(axis=-1)
        return ((powers - self._q_powers) * self._head_w).sum(axis=-1) - dd * self._head_v, d, dd

    def _integrand(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The window log-integrand at x (rows, 1, 1) and t, the nodes of the ladder panels
        from the head's end to the top, as `integrate_panels` passes them.

        Near t = 0 the first and last terms are about d/t^2 and cancel to
        O(1), so each is rounded as few times as it can be: (num / den) / t
        and d / t^2, with den = (1 - e^{-mt})(1 - e^{-nt}), which the
        evaluator keeps.
        """
        d = 0.5 * self.q - x
        # e^{-xt} - e^{-qt/2} in one form, with no overflow and no cancellation
        num = np.exp(-np.minimum(x, 0.5 * self.q) * t) * np.expm1(-np.abs(d) * t)
        k = self._head_panels
        return (np.copysign(num, d) / self._den / t - (0.5 * d * d) * _EXP_OVER_T[k:]
                - d / _T_SQUARED[k:])

    def _ln_window(self, x: np.ndarray) -> np.ndarray:
        """ln G(x) for x in the window: series head, ladder panels and the tail.

        Every row integrates the ladder panels from the head's end up to the
        top edge T and adds the algebraic tail (x - q/2)/T.
        """
        head, d, _ = self._head(x)
        body = integrate_panels(
            lambda t: self._integrand(x[:, None, None], t), self._head_panels, len(LADDER) - 1
        )
        return head + body - d / LADDER[-1]

    def _ln_signed(self, y: np.ndarray, shift: np.ndarray | None, w: np.ndarray) -> np.ndarray:
        """Per row of y, shift and w (2-D, neighbour pairs of opposite weights, y in
        [_X_FLOOR, cap]), the sum of w (ln G(y) + shift); shift None is 0.

        Each ln G(y) is its head, its integral over the ladder and its tail,
        and the integrand is linear in e^{-yt} - e^{-qt/2}, d and d^2/2
        (`_integrand`), so a row is one head-and-tail sum and one integral:
        of the weighted sum of the numerators over den t, less
        C2 e^{-t}/t + C1/t^2, with C1 and C2 the weighted sums of d and
        d^2/2.  A pair of weights w_a = -w_b, u the smaller argument, g the
        gap to the larger and w_far its weight, has the numerator
        w_far e^{-ut} expm1(-g t), so nearly equal arguments cancel before
        they are rounded.  The pairs are summed node by node in a fixed
        pairwise tree (`_pairwise_sum`), and the short sums per row with
        math.fsum, so a row does not depend on the other rows, and two
        neighbouring pairs may swap without changing a bit.
        """
        head, d, dd = self._head(y)
        tail = head - d / _LADDER_EDGES[-1]
        parts = (w * (tail if shift is None else tail + shift), w * d, w * dd)
        sums = np.array([[math.fsum(r) for r in p.tolist()] for p in parts])
        c1, c2 = sums[1:, :, None, None]
        y4, w4 = y[..., None, None], w[..., None, None]
        ya, yb = y4[:, 0::2], y4[:, 1::2]
        near = np.minimum(ya, yb)
        gap = np.maximum(ya, yb) - near
        w_far = np.where(ya > yb, w4[:, 0::2], w4[:, 1::2])
        k = self._head_panels
        neg_t = _NEG_T[k:]

        def integrand(t):
            num = _pairwise_sum(np.exp(near * neg_t) * np.expm1(gap * neg_t) * w_far)
            return num / self._den / t - (c2 * _EXP_OVER_T[k:] + c1 * _INV_T_SQUARED[k:])

        return sums[0] + integrate_panels(integrand, k, len(LADDER) - 1)

    def _reduce_pairs(self, x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Arguments y in [_X_FLOOR, cap] and shifts for the rows x, w of `_ln_signed`, with
        the same sum of w (ln G(y) + shift) over each pair of neighbours as of w ln G(x).

        A pair of opposite weights above the cap steps down together, by the
        n-steps of its larger argument, if its smaller one stays positive.
        Its n-steps then add w_a (shift_a - shift_b) to the first term, one
        lgamma difference of arguments n (y_a - y_b) apart per step
        (`_lgamma_diff`), which keeps its digits where each lgamma is large.
        Every other argument is reduced on its own, and every m-lift is
        (`_reduce`).
        """
        n, cap = self._n, self._x_cap
        xa, xb, wa = x[:, 0::2], x[:, 1::2], w[:, 0::2]
        k = np.maximum(np.ceil((np.maximum(xa, xb) - cap) / n), 0.0)
        together = ((k > 0) & (k <= _SHIFT_BLOCK) & (wa == -w[:, 1::2])
                    & (np.minimum(xa, xb) - k * n > 0.0))
        x = x - np.repeat(np.where(together, k, 0.0), 2, axis=1) * n
        y, shift = self._reduce(x.ravel().tolist(), cap)
        y = np.reshape(y, x.shape)
        shift = np.zeros(x.shape) if shift is None else np.reshape(shift, x.shape)
        if together.any():
            ya, yb, steps = x[:, 0::2][together], x[:, 1::2][together], k[together].astype(int)
            dz = n * (ya - yb)
            z = n * (np.repeat(yb, steps) + n * np.concatenate([np.arange(j) for j in steps]))
            diff = np.add.reduceat(_lgamma_diff(z, np.repeat(dz, steps)), np.cumsum(steps) - steps)
            shift[:, 0::2][together] -= diff + steps * dz * math.log(self._m)
        return y, shift

    def _reduce(self, xs: list, top: float | None = None) -> tuple[list, list | None]:
        """Window arguments y and shifts with ln G(x) = ln G(y) + shift, or shift None if
        every x is in the window [_X_FLOOR, top], top = q by default.

        Above top, x is taken down by n-steps into (top - n, top]; then, below
        the floor, it is lifted by m-steps, which after n-steps are only
        needed when top - n is below the floor (for top = q, when m is below
        it: gamma < 0.1).  A step at y adds
        or takes away ln G(y) - ln G(y + s), which by the shift equation of
        s = m or n is lgamma(s y) -/+ (s y - 1/2) ln m - ln sqrt(2 pi).  Along
        each kind of step s y is an arithmetic progression, so all but the
        lgamma terms are summed in closed form.  The lgamma terms are cut into
        pieces of at most _SHIFT_BLOCK at fixed places, each summed on its own
        and added in order, so a shift does not depend on its batch; whole
        pieces share one `_lgamma_sums` call of at most _SHIFT_BLOCK terms,
        which is one call for a batch of short reductions.
        """
        m, n, floor = self._m, self._n, _X_FLOOR
        top = self.q if top is None else top
        if floor <= min(xs) and max(xs) <= top:
            return xs, None
        ln_m = math.log(m)
        ys, shift = [], []
        # per lgamma call: its pieces (first z, z step, size) and the (row, sign) of each
        groups, terms = [([], [])], 0
        for row, v in enumerate(xs):
            k_n = max(math.ceil((v - top) / n), 0)
            y_n = v - k_n * n
            k_m = math.ceil(max(floor - y_n, 0.0) / m)
            if k_n + k_m > _MAX_SHIFT_STEPS:
                raise DomainError(
                    f"double gamma argument {v!r} needs more than {_MAX_SHIFT_STEPS} shift steps"
                )
            ys.append(y_n + k_m * m)
            total = 0.0
            # n-steps down from x - n, then m-steps up from y_n
            for sign, z0, dz, k, s in ((-1.0, n * (v - n), -n * n, k_n, ln_m),
                                       (1.0, m * y_n, m * m, k_m, -ln_m)):
                if not k:
                    continue
                z_sum = k * z0 + dz * (0.5 * k * (k - 1))
                total += sign * (s * (z_sum - 0.5 * k) - _LOG_SQRT_2PI * k)
                for j in range(0, k, _SHIFT_BLOCK):
                    size = min(k - j, _SHIFT_BLOCK)
                    if terms + size > _SHIFT_BLOCK:
                        groups.append(([], []))
                        terms = 0
                    groups[-1][0].append((z0 + j * dz, dz, size))
                    groups[-1][1].append((row, sign))
                    terms += size
            shift.append(total)
        for pieces, owners in groups:
            if pieces:
                for (row, sign), value in zip(owners, _lgamma_sums(pieces)):
                    shift[row] += sign * value
        return ys, shift

    def log_value(self, x, signs=None):
        """ln of the double gamma function at x > 0, or signed sums of such logs.

        Without signs, x is a float or an array, and the result has its
        shape.  Memoized values are looked up per element; the others are
        reduced into the window and evaluated together, _BATCH_ROWS per
        quadrature call.  A value that comes out non-finite raises
        DomainError and is not kept.

        With signs, x and signs broadcast to one row of terms, or to a
        matrix of rows, at most _BATCH_ROWS terms in all, and the result is
        the sum of signs * ln G(x) over each row: a float for one row, else
        an array.  Each row is one head-and-tail sum and one integrand row
        (`_ln_signed`), so a whole closed form is one `integrate_panels`
        call.  Its terms go by neighbour pairs of opposite weights: put each
        numerator argument next to the denominator one nearest it, so that
        the pair cancels before it is rounded.  A term without such a
        partner, the last of an odd row or every term of a batch whose
        neighbours are not all opposite, gets q/2, where ln G is 0.  x is
        reduced only below _X_FLOOR and above the head's reach
        (`_reduce_pairs`), and nothing is memoized.  A row equals its lone
        call bit for bit, and swapping two neighbouring pairs leaves it
        unchanged.
        It differs from the sum of the lone values by up to about
        1e-13 / gamma^2 times max(1, |sum|), not bit for bit.
        """
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel().tolist()
        for v in flat:
            if not v > 0.0:
                raise DomainError(f"double gamma needs x > 0, got {v!r}")
            if not math.isfinite(v):
                raise DomainError(f"non-finite argument {v!r}")
        if signs is not None:
            return self._signed_log(xs, flat, signs)
        cache = self._cache
        out = [cache.get(v) for v in flat]
        misses = list(dict.fromkeys(v for v, o in zip(flat, out) if o is None))
        if misses:
            fresh = {}
            for i in range(0, len(misses), _BATCH_ROWS):
                batch = misses[i : i + _BATCH_ROWS]
                y, shift = self._reduce(batch)
                values = self._ln_window(np.array(y)).tolist()
                if shift is not None:
                    values = [v + s for v, s in zip(values, shift)]
                for v, value in zip(batch, values):
                    if not math.isfinite(value):
                        raise DomainError(
                            f"double gamma is not finite at gamma={self.gamma!r}, x={v!r}"
                        )
                fresh.update(zip(batch, values))
            out = [fresh[v] if o is None else o for v, o in zip(flat, out)]
            cache.update(fresh)
            while len(cache) > _MEMO_SIZE:
                cache.pop(next(iter(cache)), None)
        return out[0] if xs.ndim == 0 else np.array(out).reshape(xs.shape)

    def _signed_log(self, xs: np.ndarray, flat: list, signs) -> float | np.ndarray:
        """The signed sums of `log_value` at the checked arguments xs, flat their list."""
        w = np.asarray(signs, dtype=float)
        if xs.shape == w.shape or (w.ndim == 1 and xs.shape[-1:] == w.shape):
            shape = xs.shape
        else:
            try:
                shape = np.broadcast_shapes(xs.shape, w.shape)
            except ValueError:
                shape = ()
        if len(shape) not in (1, 2) or not 0 < math.prod(shape) <= _BATCH_ROWS:
            raise DomainError(
                f"x and signs must broadcast to one row of terms or to rows of them, at most "
                f"{_BATCH_ROWS} in all; got shapes {xs.shape} and {w.shape}"
            )
        # a row of weights serves every row of x as it stands
        x = np.broadcast_to(xs, shape) if xs.shape != shape else xs
        if w.shape[-1:] != shape[-1:]:
            w = np.broadcast_to(w, shape if w.ndim == 2 else shape[-1:])
        x, w = x.reshape(-1, shape[-1]), w.reshape(-1, shape[-1])
        # ln G(q/2) = 0, so q/2 at the opposite weight partners a term that has none:
        # every term if some neighbours are not opposite, else the last of an odd row
        n = shape[-1]
        half_q = np.full_like(x[:, -1:], 0.5 * self.q)
        if any(map(operator.add, w[:, 0:n - 1:2].ravel().tolist(), w[:, 1::2].ravel().tolist())):
            x = np.stack((x, np.broadcast_to(half_q, x.shape)), axis=-1).reshape(len(x), -1)
            w = np.stack((w, -w), axis=-1).reshape(len(w), -1)
        elif n % 2:
            x = np.concatenate((x, half_q), axis=1)
            w = np.concatenate((w, -w[:, -1:]), axis=1)
        if _X_FLOOR <= min(flat) and max(flat) <= self._x_cap:
            values = self._ln_signed(x, None, w)
        else:
            values = self._ln_signed(*self._reduce_pairs(x, w), w)
        for v in values.tolist():
            if not math.isfinite(v):
                raise DomainError(f"double gamma sum is not finite at gamma={self.gamma!r}")
        return float(values[0]) if len(shape) == 1 else values


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


# the weights of beta22_args in ln E[beta_{2,2}^p]: + for a numerator value, - for a
# denominator one
BETA22_SIGNS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def beta22_args(params: Beta22Params, p: float) -> np.ndarray:
    """The eight double gamma arguments of ln E[beta_{2,2}^p], weighted by BETA22_SIGNS.

    Each numerator argument sits next to the denominator one that differs
    from it by m p, and the pairs that b1 <-> b2 swaps side by side, so the
    signed sum of `DoubleGamma.log_value` is bit-exact under the swap.  Raises DomainError
    unless p > -b0 and every argument is positive.
    """
    if not p > -params.b0:
        raise DomainError(f"need p > -b0, got p={p!r}, b0={params.b0!r}")
    m = params.gamma / 2.0
    b0, b1, b2 = params.b0, params.b1, params.b2
    b12 = b1 + b2  # grouped so the formula is bit-exact under b1 <-> b2
    args = (
        m * (p + b0), m * b0, m * (p + (b0 + b12)), m * (b0 + b12),
        m * (b0 + b1), m * (p + (b0 + b1)), m * (b0 + b2), m * (p + (b0 + b2)),
    )
    for arg in args:
        if not arg > 0.0:
            raise DomainError(f"double gamma argument {arg!r} not positive")
    return np.array(args)


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
