"""Reference code that the tests check the package against.

The high-precision oracles are computed with mpmath from the defining
integrals and series, never through the package code paths they are used to
check; gamma_fn is the plain Euler Gamma the closed-form tests compare
against.  beta22_log_moment is no oracle: it composes the package's own
double gamma and beta-argument code for one generalized beta law, and the
tests use it to check the batched five-law product against three
single-law calls and that law's own moment properties.
log_exact_moment_by_values and beta22_log_from_values are the other route
to the same closed forms: each double gamma value on its own, then summed,
against which the tests check the package's one signed integral;
window_log_values is that per-value route, reduced into (m, q] and
integrated one value per integrand row.  Its reduction,
reduce_into_window, is kept as it was written, with its own Lanczos
lgamma (lanczos_lgamma), so that the route's values do not move when the
package's reduction does.  dgamma_series_diff is the double gamma's
asymptotic series differenced at 40 digits, the reference at arguments
too large for the integral oracle.  The pointwise
field code evaluates one field sample and its variance by the three-term
Chebyshev recurrence, against which the tests check the DCT route of
gmcint.field, and beta_cell gives a cell's mass to 40 digits.  The
full-chunk batch integral is the array pipeline that gmcint.field streams
in blocks: it shares the package's grid and cell masses but forms every
density row at once, by SciPy's DCT-III in natural cell order, and
reduces them with a BLAS matrix-vector product.  sample_y_gamma draws
from the exact circle-mass law.  dgamma_head_weights is the double gamma series head's weights as a
Toeplitz sum per gamma, the form that gmcint.specfun folds into one
constant matrix per head length.
"""
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import fft

from gmcint.errors import BoundsError, DomainError
from gmcint.exactlaw import GmcParams, bounds_check, exact_moment_factors
from gmcint.field import (
    QuadGrid,
    _cell_masses,
    _grid_workspace,
    cell_weights,
    gmc_integral_batch,
)
from gmcint.quadrature import LADDER, LADDER_T, integrate_panels
from gmcint.specfun import (
    _EXP_OVER_T,
    _FACTORIAL,
    _HEAD_TERMS,
    _INV_H,
    _LOG_SQRT_2PI,
    _X_FLOOR,
    Beta22Params,
    DoubleGamma,
    beta22_args,
    double_gamma_evaluator,
    gammaln_signed,
)

mp.mp.dps = 40

_T_SQUARED = LADDER_T**2  # t^2 on the ladder nodes, for window_log_values

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
_SHIFT_PIECE = 1 << 12  # lgamma terms per summed piece of reduce_into_window

TWO_SQRT_LN2 = 2.0 * math.sqrt(math.log(2.0))
FOUR_LN2 = 4.0 * math.log(2.0)


def gamma_fn(x: float) -> float:
    """Euler Gamma for real non-pole arguments."""
    logval, sign = gammaln_signed(x)
    return sign * math.exp(logval)


def beta22_log_moment(params: Beta22Params, p: float) -> float:
    """ln E[beta_{2,2}(1, 4/gamma^2; b0, b1, b2)^p], for p > -b0.

    One sum of four double gamma logs less four; every argument must be positive.
    """
    num, den = beta22_args(params, p)
    return double_gamma_evaluator(params.gamma).log_value(num, den=den)


def beta22_log_from_values(num, den) -> float:
    """ln E[beta_{2,2}^p] from the double gamma logs at its `beta22_args` (num, den)."""
    return (num[0] - den[0]) + (num[1] - den[1]) - ((den[2] - num[2]) + (den[3] - num[3]))


def lanczos_lgamma(z: np.ndarray) -> np.ndarray:
    """ln Gamma(z) for an array of z > 0, element by element, by Lanczos's approximation.

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


def reduce_into_window(ev: DoubleGamma, xs: list) -> tuple[list, list | None]:
    """Arguments y and shifts with ln G(x) = ln G(y) + shift, y in the window, or shift
    None if every x is in [_X_FLOOR, q] already: the window route's reduction.

    x above q is taken down by n-steps into (q - n, q] = (m, q]; then, below
    the floor, it is lifted by m-steps, which after n-steps are needed when m
    is below the floor (gamma < 0.1).  A step at y adds or takes away
    ln G(y) - ln G(y + s), which by the shift equation of s = m or n is
    lgamma(s y) -/+ (s y - 1/2) ln m - ln sqrt(2 pi).  Along each kind of step
    s y is an arithmetic progression, so all but the lgamma terms are summed
    in closed form; the lgamma terms are Lanczos's, in pieces of at most
    _SHIFT_PIECE summed apart and added in order.
    """
    m, n, floor, top = ev._m, ev._n, _X_FLOOR, ev.q
    if floor <= min(xs) and max(xs) <= top:
        return xs, None
    ln_m = math.log(m)
    ys, shifts = [], []
    for v in xs:
        k_n = max(math.ceil((v - top) / n), 0)
        y_n = v - k_n * n
        k_m = math.ceil(max(floor - y_n, 0.0) / m)
        ys.append(y_n + k_m * m)
        total, pieces = 0.0, []
        # n-steps down from x - n, then m-steps up from y_n
        for sign, z0, dz, k, s in ((-1.0, n * (v - n), -n * n, k_n, ln_m),
                                   (1.0, m * y_n, m * m, k_m, -ln_m)):
            if not k:
                continue
            z_sum = k * z0 + dz * (0.5 * k * (k - 1))
            total += sign * (s * (z_sum - 0.5 * k) - _LOG_SQRT_2PI * k)
            for j in range(0, k, _SHIFT_PIECE):
                z = (z0 + j * dz) + dz * np.arange(min(k - j, _SHIFT_PIECE))
                pieces.append(sign * float(np.add.reduceat(lanczos_lgamma(z), [0])[0]))
        for piece in pieces:
            total += piece
        shifts.append(total)
    return ys, shifts


def window_log_values(ev: DoubleGamma, xs: list) -> list:
    """ln G at each of xs, each value on its own: the per-value window route.

    Each x is reduced into the window (m, q] by the shift equations
    (`reduce_into_window`), then integrated alone: its series head, its
    own integrand row on the ladder panels past the head, and the tail
    (x - q/2)/T.  The signed route takes x up to the head's reach unreduced
    and integrates a row of terms as one sum, so the two differ by rounding.
    """
    y, shift = reduce_into_window(ev, xs)
    y = np.array(y)
    head, d, _ = ev._head(y)
    k = ev._head_panels
    x = y[:, None, None]
    den = np.expm1(-ev._m * LADDER_T[k:]) * np.expm1(-ev._n * LADDER_T[k:])

    def integrand(t):
        dx = 0.5 * ev.q - x
        # e^{-xt} - e^{-qt/2} in one form, with no overflow and no cancellation
        num = np.exp(-np.minimum(x, 0.5 * ev.q) * t) * np.expm1(-np.abs(dx) * t)
        return (np.copysign(num, dx) / den / t - (0.5 * dx * dx) * _EXP_OVER_T[k:]
                - dx / _T_SQUARED[k:])

    values = (head + integrate_panels(integrand, k, len(LADDER) - 1) - d / LADDER[-1]).tolist()
    return values if shift is None else [v + s for v, s in zip(values, shift)]


def log_exact_moment_by_values(params: GmcParams) -> float:
    """ln of the exact moment from its eight double gamma values, each on its own.

    Each value comes from `window_log_values`: reduced into the window
    (m, q] by the shift equations before its own integral.
    """
    if not bounds_check(params):
        raise BoundsError(f"moment does not exist for {params}")
    ln_num, ln_den, args = exact_moment_factors(params)
    ev = double_gamma_evaluator(params.gamma)
    na, nb, nab, npp, dbase, da, db, dab = window_log_values(ev, args.tolist())
    return (ln_num + (na + nb) + nab + npp) - (ln_den + dbase + (da + db) + dab)


def ln_dgamma(gamma, x):
    """Log of the double gamma function straight from its integral."""
    gamma = mp.mpf(gamma)
    x = mp.mpf(x)
    m = gamma / 2
    n = 2 / gamma
    q = m + n

    def f(t):
        t = mp.mpf(t)
        num = mp.e ** (-q * t / 2) * mp.expm1((q / 2 - x) * t)
        den = mp.expm1(-m * t) * mp.expm1(-n * t)
        return (num / den) / t - ((q / 2 - x) ** 2 / 2) * mp.e ** (-t) / t + (x - q / 2) / t**2

    mu = min(x, q / 2, mp.mpf(1))
    t_cut = mp.mpf(130) / mu
    with mp.workdps(100):
        val = mp.quad(f, [mp.mpf("1e-20"), mp.mpf("0.1"), 1, 10, t_cut])
        val += (x - q / 2) / t_cut
    return +val


def dgamma_series_diff(gamma, a, b, terms=40):
    """P(a) - P(b) at 40 digits, P the asymptotic series of ln G (see
    gmcint.specfun.DoubleGamma._series_diff) to `terms` terms.

    Its coefficients r_k, those of t^2 / ((1 - e^{-mt})(1 - e^{-nt})), are
    the convolution of (-1)^k B_k s^k / k! at s = m and s = n, from exact
    Bernoulli numbers.  A difference of two series satisfies both shift
    equations, so P(x) - P(x0) with ln G(x0) from `ln_dgamma` at a moderate
    x0 is ln G(x) to 40 digits at large x, where `ln_dgamma` loses digits:
    its quadrature starts at t = 1e-20 and drops about x^3/6 * 1e-20.
    """
    with mp.workdps(80):
        gamma = mp.mpf(gamma)
        m, n = gamma / 2, 2 / gamma
        h_m, h_n = ([(-1) ** k * mp.bernoulli(k) * s**k / mp.factorial(k) for k in range(terms)]
                    for s in (m, n))
        r = [mp.fsum(h_m[i] * h_n[k - i] for i in range(k + 1)) for k in range(terms)]

        def series(x):
            x = mp.mpf(x)
            head = (-r[0] * (x**2 / 2 * mp.log(x) - 3 * x**2 / 4) + r[1] * (x * mp.log(x) - x)
                    - r[2] * mp.log(x))
            tail = mp.fsum(r[k] * mp.factorial(k - 3) * x ** (2 - k) for k in range(3, terms))
            return head + tail

        value = series(a) - series(b)
    return +value


def dgamma_head_weights(q: float, s: float) -> tuple[np.ndarray, float]:
    """Weights (w, v) of the double gamma series head over [0, s], at Q = q.

    The head is sum_j ((-x)^j - (-Q/2)^j) w_j - (Q/2-x)^2/2 * v (see
    gmcint.specfun._head_matrix).  Here recip, the series of t^2 over the
    denominator, is formed from the quasi-periods m, n = Q/2 +- sqrt(Q^2/4 - 1),
    and w_j = sum_k recip[k+3-j] s^(k+1) / ((k+1) j!) is summed as a
    Toeplitz matrix times the powers of s.
    """
    m = q / 2.0 + math.sqrt(max(q * q / 4.0 - 1.0, 0.0))
    n = q - m
    i = np.arange(len(_INV_H))
    recip = np.convolve(_INV_H * m**i, _INV_H * n**i)[: len(i)]
    k = np.arange(_HEAD_TERMS)
    power = s ** (k + 1) / (k + 1)
    lag = k + 2 - i[:, None]  # k + 3 - j for a_j, j = i + 1
    toeplitz = np.where(lag >= 0, recip[np.maximum(lag, 0)], 0.0)
    w = (toeplitz * power).sum(axis=1) / _FACTORIAL[i + 1]
    v = float(np.dot((-1.0) ** (k + 1) / _FACTORIAL[k + 1], power))
    return w, v


def exact_moment(g, p, a, b):
    """Closed-form moment assembled from the oracle double gamma."""
    g = mp.mpf(g)
    p = mp.mpf(p)
    a = mp.mpf(a)
    b = mp.mpf(b)
    m = g / 2
    n = 2 / g
    num = (
        p * mp.log(2 * mp.pi)
        + ln_dgamma(g, n * (a + 1) - (p - 1) * m)
        + ln_dgamma(g, n * (b + 1) - (p - 1) * m)
        + ln_dgamma(g, n * (a + b + 2) - (p - 2) * m)
        + ln_dgamma(g, n - p * m)
    )
    den = (
        p * (g**2 / 4) * mp.log(m)
        + p * mp.log(mp.gamma(1 - g**2 / 4))
        + ln_dgamma(g, n)
        + ln_dgamma(g, n * (a + 1) + m)
        + ln_dgamma(g, n * (b + 1) + m)
        + ln_dgamma(g, n * (a + b + 2) - (2 * p - 2) * m)
    )
    return mp.e ** (num - den)


def _hyp2f1_series(a, b, c, z):
    """The defining series of 2F1(a, b; c; z) at |z| <= 0.8, and its largest term in size.

    Summed at the working precision, always past the largest parameter in
    size: before that a factor a + k, b + k or c + k near 0 can make the
    terms small for a while and large again (mpmath's own sum stops there).
    """
    term = total = big = mp.mpf(1)
    past = max(abs(a), abs(b), abs(c)) + 2
    k = 0
    while k <= past or abs(term) > mp.eps * abs(total):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        big = max(big, abs(term))
        k += 1
    return total, big


def observable_tail(a, b, c, d1, t, digits=40):
    """d1 |t|^-a 2F1(a, 1+a-c; 1+a-b; 1/t) at t < 0, to about `digits` digits.

    Defining series only, summed by hand: mpmath's hyp2f1 returns wrong
    values at some of the large parameters that small gamma gives.  For
    t <= -1/4 the Pfaff transform d1 (1-t)^-a 2F1(a, c-b; 1+a-b; 1/(1-t));
    above it the connection of the constants (1, 0) at infinity to the
    basis at 0 (DLMF 15.8.2), two series in t.  The digits lost to
    cancellation are those of the largest term over the result, and the
    working precision is raised until it exceeds them by `digits` + 5.
    """
    dps = digits + 10
    while True:
        with mp.workdps(dps):
            a_, b_, c_, t_ = (mp.mpf(v) for v in (a, b, c, t))
            if t <= -0.25:
                f, big = _hyp2f1_series(a_, c_ - b_, 1 + a_ - b_, 1 / (1 - t_))
                scale = (1 - t_) ** -a_
                value, big = scale * f, scale * big
            else:
                f1, big1 = _hyp2f1_series(a_, b_, c_, t_)
                f2, big2 = _hyp2f1_series(1 + a_ - c_, 1 + b_ - c_, 2 - c_, t_)
                m1 = mp.gammaprod([1 - c_, a_ - b_ + 1], [a_ - c_ + 1, 1 - b_])
                m2 = mp.gammaprod([c_ - 1, a_ - b_ + 1], [a_, c_ - b_]) * (-t_) ** (1 - c_)
                value = m1 * f1 + m2 * f2
                big = max(abs(m1) * big1, abs(m2) * big2)
            # a sum that cancels to exactly 0 has lost every digit
            lost = int(mp.log10(big / abs(value))) + 1 if value else dps
            if lost + digits + 5 <= dps:
                return mp.mpf(d1) * value
        if dps > 4000:
            raise ArithmeticError(f"observable oracle lost {lost} digits at t={t!r}")
        dps = digits + lost + 15


def beta_cell(p: float, q: float, x1: float, x2: float, digits: int = 40):
    """The integral of t^(p-1) (1-t)^(q-1) over [x1, x2], at the exact double edges.

    Integrals from 0 up to x <= 1/2, and to 1 from x >= 1/2, each as
    x^p (1-x)^q / p 2F1(p+q, 1; p+1; x): a series of positive terms, summed
    by hand.  mpmath's betainc sums 2F1(p, 1-q; p+1; x), whose terms
    alternate; it returned 0 for a cell of mass 1.6e-46 at p = 164.7,
    q = 0.132.  The integrals can exceed the cell by many digits (by 78 for a
    cell near 0.8 at p = 827, q = 1.6e-6), so the working precision is
    raised until `digits` survive their difference.
    """
    def from_zero(p, q, x):
        if not x:
            return mp.mpf(0)
        return x**p * (1 - x) ** q / p * _hyp2f1_series(p + q, 1, p + 1, x)[0]

    if x1 == x2:
        return mp.mpf(0)
    dps = digits + 20
    while True:
        with mp.workdps(dps):
            p_, q_, lo, hi = mp.mpf(p), mp.mpf(q), mp.mpf(x1), mp.mpf(x2)
            half = mp.mpf(0.5)
            if hi <= half:
                parts = [from_zero(p_, q_, hi), -from_zero(p_, q_, lo)]
            elif lo >= half:
                parts = [from_zero(q_, p_, 1 - lo), -from_zero(q_, p_, 1 - hi)]
            else:
                parts = [from_zero(p_, q_, half), -from_zero(p_, q_, lo),
                         from_zero(q_, p_, half), -from_zero(q_, p_, 1 - hi)]
            value = mp.fsum(parts)
            # all digits lost if the difference comes out 0; the mass of a cell is positive
            lost = int(mp.log10(max(abs(x) for x in parts) / abs(value))) + 1 if value else dps
        if lost + digits + 5 <= dps:
            return +value
        if dps > 4000:
            raise ArithmeticError(f"beta_cell lost {lost} digits on [{x1!r}, {x2!r}]")
        dps = digits + lost + 20


# ---------------------------------------------------------------------------
# pointwise field

def default_grid(n_modes: int) -> QuadGrid:
    return QuadGrid(8 * n_modes)


@dataclass(frozen=True)
class ChebFieldSample:
    """One realization of the truncated field: N+1 normal coefficients."""

    alpha: np.ndarray
    n_modes: int
    seed_tag: int

    def __post_init__(self):
        if self.alpha.shape != (self.n_modes + 1,):
            raise DomainError(
                f"expected {self.n_modes + 1} coefficients, got shape {self.alpha.shape}"
            )
        if not np.all(np.isfinite(self.alpha)):
            raise DomainError("non-finite field coefficients")


def sample_field(n_modes: int, rng: np.random.Generator, seed_tag: int = 0) -> ChebFieldSample:
    if n_modes < 1:
        raise DomainError(f"n_modes must be >= 1, got {n_modes!r}")
    return ChebFieldSample(rng.standard_normal(n_modes + 1), n_modes, seed_tag)


def eval_field(sample: ChebFieldSample, x, drop_mean: bool = False):
    """Field value at x in [0, 1], by the three-term Chebyshev recurrence."""
    x = np.asarray(x, dtype=float)
    if np.any((x < 0.0) | (x > 1.0)):
        raise DomainError("x must lie in [0, 1]")
    s = 2.0 * x - 1.0
    total = np.zeros_like(s)
    if not drop_mean:
        total += TWO_SQRT_LN2 * sample.alpha[0]
    t_prev = np.ones_like(s)  # T_0
    t_cur = s.copy()  # T_1
    for n in range(1, sample.n_modes + 1):
        total += (2.0 * sample.alpha[n] / math.sqrt(n)) * t_cur
        t_prev, t_cur = t_cur, 2.0 * s * t_cur - t_prev
    return total if total.ndim else float(total)


def field_variance(n_modes: int, x) -> float:
    """Pointwise variance of the truncated field."""
    x = np.asarray(x, dtype=float)
    if np.any((x < 0.0) | (x > 1.0)):
        raise DomainError("x must lie in [0, 1]")
    s = 2.0 * x - 1.0
    total = np.full_like(s, FOUR_LN2)
    t_prev = np.ones_like(s)
    t_cur = s.copy()
    for n in range(1, n_modes + 1):
        total += (4.0 / n) * t_cur * t_cur
        t_prev, t_cur = t_cur, 2.0 * s * t_cur - t_prev
    return total if total.ndim else float(total)


def gmc_integral(
    sample: ChebFieldSample,
    gamma: float,
    a: float,
    b: float,
    t: float,
    chi: float,
    grid: QuadGrid,
    drop_mean: bool = False,
    eta: float = 1.0,
) -> float:
    """Composite weighted quadrature of the regularized GMC density.

    Integrates (x-t)^chi x^a (1-x)^b exp(gamma/2 X_N - gamma^2/8 Var_N)
    over [0, eta].  With drop_mean the constant mode is removed and the
    variance is that of the remaining field.
    """
    weights = cell_weights(grid, sample.n_modes, a, b, t, chi, eta)
    vals = gmc_integral_batch(sample.alpha[None, :], gamma, weights[None], grid, drop_mean)
    return float(vals[0, 0])


def gmc_integral_batch_full_chunk(
    alphas: np.ndarray,
    gamma: float,
    a: float,
    b: float,
    t: float,
    chi: float,
    grid: QuadGrid,
    drop_mean: bool = False,
    eta: float = 1.0,
) -> np.ndarray:
    """Batch integrals with all density rows formed at once and a gemv reduction."""
    n_modes = alphas.shape[1] - 1
    x_mid, var_mid = _grid_workspace(n_modes, grid.m_cells)
    weights = _cell_masses(grid.m_cells, a, b, eta)
    if chi != 0.0:
        weights = weights * (x_mid - t) ** chi
    var = var_mid - FOUR_LN2 if drop_mean else var_mid
    coef = np.zeros((len(alphas), grid.m_cells))
    coef[:, 1 : n_modes + 1] = alphas[:, 1:] * (2.0 / np.sqrt(np.arange(1, n_modes + 1)))
    if not drop_mean:
        coef[:, 0] = TWO_SQRT_LN2 * alphas[:, 0]
    coef[:, 1:] *= 0.5
    fields = fft.dct(coef, type=3, axis=1)
    dens = np.exp((0.5 * gamma) * fields - (gamma * gamma / 8.0) * var[None, :])
    return dens @ weights


def sample_y_gamma(gamma: float, rng: np.random.Generator) -> float:
    """One draw of the circle-mass law: E(1)^(-gamma^2/4) / Gamma(1-gamma^2/4)."""
    if not 0.0 < gamma < 2.0:
        raise DomainError(f"gamma must be in (0, 2), got {gamma!r}")
    e = rng.standard_exponential()
    return e ** (-gamma * gamma / 4.0) / math.gamma(1.0 - gamma * gamma / 4.0)
