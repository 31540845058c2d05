"""Special functions.

Euler Gamma (with reflection to negative arguments), the Gauss
hypergeometric function restricted to nonpositive argument, the double
gamma function (over an array of arguments at once, for gamma in
[0.01, 2]: a Taylor series head on the first ladder panels, up to 2.7e-2,
then its defining integral over the rest of the panel ladder, up to its top
edge, taken by `quadrature.integrate_panels` in one round, then the
algebraic tail in closed form),
Barnes G, moments of the generalized beta law, and the first column of
the connection matrix between hypergeometric solution bases.

Everything here is a pure function of its arguments; evaluator objects are
immutable after construction apart from an internal, bounded memo cache,
so all operations are safe to call concurrently.
"""
from __future__ import annotations

import functools
import itertools
import math
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
_INV_H = np.array([float((-1) ** k * b / math.factorial(k))
                   for k, b in enumerate(_bernoulli(_HEAD_TERMS + 1))])
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
# e^{-t}/t and t^2 on the ladder nodes: the integrand's factors of t alone
_EXP_OVER_T = np.exp(-LADDER_T) / LADDER_T
_T_SQUARED = LADDER_T**2

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


def _lgamma_sums(pieces: list) -> list:
    """Per (z0, dz, size) of pieces, the sum of lgamma(z0 + j*dz) over j = 0 .. size-1.

    All terms go to one `_lgamma` call, and each piece is summed on its own
    (numpy's pairwise order), so its sum does not depend on the other pieces.
    """
    z = [z0 + dz * np.arange(size) for z0, dz, size in pieces]
    starts = list(itertools.accumulate((size for _, _, size in pieces[:-1]), initial=0))
    return np.add.reduceat(_lgamma(np.concatenate(z) if len(z) > 1 else z[0]), starts).tolist()


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
    argument, up to _MEMO_SIZE of them.
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
        reach = np.searchsorted(LADDER, _HEAD_REACH * math.pi * self.gamma, side="right")
        self._head_panels = int(min(reach - 1, _HEAD_PANELS))
        c, self._head_v = _HEAD[self._head_panels]
        i = np.arange(len(_INV_H))
        # t^2 / denominator = 1 / (h(mt) h(nt)), h(u) = (1 - e^{-u}) / u
        recip = np.convolve(_INV_H * self._m**i, _INV_H * self._n**i)[: len(i)]
        self._head_w = c @ recip
        self._q_powers = np.cumprod(np.full(len(i), -0.5 * self.q))  # (-q/2)^j, j >= 1
        self._cache = {}

    def _integrand(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The window log-integrand at x (rows, 1, 1) and t, the nodes of the ladder panels
        from the head's end to the top, as `integrate_panels` passes them.

        Near t = 0 the first and last terms are about d/t^2 and cancel to
        O(1), so each is rounded as few times as it can be: (num / den) / t
        and d / t^2, with den = (1 - e^{-mt})(1 - e^{-nt}).
        """
        den = np.expm1(-self._m * t) * np.expm1(-self._n * t)
        d = 0.5 * self.q - x
        # e^{-xt} - e^{-qt/2} in one form, with no overflow and no cancellation
        num = np.exp(-np.minimum(x, 0.5 * self.q) * t) * np.expm1(-np.abs(d) * t)
        return (np.copysign(num, d) / den / t - (0.5 * d * d) * _EXP_OVER_T[self._head_panels:]
                - d / _T_SQUARED[self._head_panels:])

    def _ln_window(self, x: np.ndarray) -> np.ndarray:
        """ln G(x) for x in the window: series head, ladder panels and the tail.

        The head's powers (-x)^j come by a running product, which at x = q/2
        repeats the evaluator's (-q/2)^j exactly, so the head is 0 there.
        Every row integrates the ladder panels from the head's end up to the
        top edge T and adds the algebraic tail (x - q/2)/T.
        """
        d = 0.5 * self.q - x
        powers = np.repeat(-x[:, None], len(self._q_powers), axis=1)
        np.cumprod(powers, axis=1, out=powers)
        head = (((powers - self._q_powers) * self._head_w).sum(axis=1)
                - (0.5 * d * d) * self._head_v)
        body = integrate_panels(
            lambda t: self._integrand(x[:, None, None], t), self._head_panels, len(LADDER) - 1
        )
        return head + body - d / LADDER[-1]

    def _reduce(self, xs: list) -> tuple[list, list | None]:
        """Window arguments y and shifts with ln G(x) = ln G(y) + shift, or shift None if
        every x is in the window.

        Above q, x is taken down by n-steps into (m, q]; then, below the
        floor, it is lifted by m-steps, which after n-steps are only needed
        when m is below the floor (gamma < 0.1).  A step at y adds
        or takes away ln G(y) - ln G(y + s), which by the shift equation of
        s = m or n is lgamma(s y) -/+ (s y - 1/2) ln m - ln sqrt(2 pi).  Along
        each kind of step s y is an arithmetic progression, so all but the
        lgamma terms are summed in closed form.  The lgamma terms are cut into
        pieces of at most _SHIFT_BLOCK at fixed places, each summed on its own
        and added in order, so a shift does not depend on its batch; whole
        pieces share one `_lgamma_sums` call of at most _SHIFT_BLOCK terms,
        which is one call for a batch of short reductions.
        """
        m, n, q, floor = self._m, self._n, self.q, _X_FLOOR
        if floor <= min(xs) and max(xs) <= q:
            return xs, None
        ln_m = math.log(m)
        ys, shift = [], []
        # per lgamma call: its pieces (first z, z step, size) and the (row, sign) of each
        groups, terms = [([], [])], 0
        for row, v in enumerate(xs):
            k_n = max(math.ceil((v - q) / n), 0)
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

    def log_value(self, x):
        """ln of the double gamma function at x > 0.

        x is a float or an array, and the result has its shape.  Memoized
        values are looked up per element; the others are reduced into the
        window and evaluated together, _BATCH_ROWS per quadrature call.  A
        value that comes out non-finite raises DomainError and is not kept.
        """
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel().tolist()
        for v in flat:
            if not v > 0.0:
                raise DomainError(f"double gamma needs x > 0, got {v!r}")
            if not math.isfinite(v):
                raise DomainError(f"non-finite argument {v!r}")
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


def beta22_args(params: Beta22Params, p: float) -> np.ndarray:
    """The eight double gamma arguments of ln E[beta_{2,2}^p], numerator ones first.

    Raises DomainError unless p > -b0 and every argument is positive.
    """
    if not p > -params.b0:
        raise DomainError(f"need p > -b0, got p={p!r}, b0={params.b0!r}")
    m = params.gamma / 2.0
    b0, b1, b2 = params.b0, params.b1, params.b2
    b12 = b1 + b2  # grouped so the formula is bit-exact under b1 <-> b2
    args = (
        m * (p + b0), m * (b0 + b1), m * (b0 + b2), m * (p + (b0 + b12)),
        m * b0, m * (p + (b0 + b1)), m * (p + (b0 + b2)), m * (b0 + b12),
    )
    for arg in args:
        if not arg > 0.0:
            raise DomainError(f"double gamma argument {arg!r} not positive")
    return np.array(args)


def beta22_log_from_values(lv) -> float:
    """ln E[beta_{2,2}^p] from the double gamma values at its `beta22_args`."""
    return lv[0] + (lv[1] + lv[2]) + lv[3] - lv[4] - (lv[5] + lv[6]) - lv[7]


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
