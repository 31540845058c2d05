"""Sampling the log-correlated field on [0, 1] and its regularized GMC mass.

The field is synthesized from its Chebyshev expansion
    X(x) = 2 sqrt(ln 2) alpha_0 + sum_{n=1}^{N} (2 alpha_n / sqrt(n)) T_n(2x - 1)
with i.i.d. standard normal coefficients; truncation at N modes is the
cut-off.  The weighted integral uses a composite rule whose cells are
uniform in the Chebyshev angle theta (x = (1 - cos theta)/2): T_n(2x-1) =
cos(n theta), so m_cells >= 4 N resolves every mode at two-plus cells per
half-wave, and evaluating the field on all cell midpoints is a single
DCT-III.  4 N is the minimum, and the grid of every Monte Carlo plan
(gmcint.montecarlo.McConfig.grid).  A weight is data: cell_weights gives one
observable's row of cell weights, x^a (1-x)^b integrated exactly per cell
(incomplete Beta masses) times (x-t)^chi at the cell midpoint, and
gmc_integral_batch reduces every field against a matrix of such rows.

A batch of coefficient rows streams through one workspace of at most
_BLOCK_BYTES, sized to stay in cache: per block of rows the scaled modes are
packed into a half-length complex spectrum, transformed in place by one
complex inverse FFT, whose float view is the density block, and
exponentiated in place, then weighted and summed row by row in numpy's
fixed pairwise order.  A value therefore depends on its own row and weight
alone, never on the chunk or block it was computed in or on the other
weights, and a batch call's memory does not grow with its rows.

The DCT-III (_dct3) is Makhoul's (IEEE Trans. ASSP 28 (1980) 27-34), whose
real inverse FFT of length m is taken as one complex inverse FFT of length
m/2 by the standard packing (Sorensen et al., IEEE Trans. ASSP 35 (1987)
849-863); per row it takes about a fifth less time than numpy.fft.irfft
at m = 4096 and 16384 (BENCH_22.json).  Its packing tables are kept per
layout at unit gamma, with the grid's midpoints and variance, by
_grid_workspace.  It leaves the transform in Makhoul's cell order, cell 2j
at j and cell 2j+1 at m-1-j (_fft_order), so the grid needs an even m.  The
weight rows are put in that order once per call; the density never is.  The
truncated variance is the same transform of other modes.  The cell masses
come from an incomplete Beta function evaluated here (_cell_masses), so no
part of the package imports SciPy.

Replicate r of a run draws its coefficients from an own counter-based
stream keyed by seed XOR r, so results do not depend on worker count or
scheduling; a chunk of replicates re-keys one Philox for each of them.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError

_TWO_SQRT_LN2 = 2.0 * math.sqrt(math.log(2.0))
_FOUR_LN2 = 4.0 * math.log(2.0)
_LAYOUTS_KEPT = 8  # grid workspaces and cell-mass vectors kept by the caches
# bytes of workspace and spare rows in flight per batch call: with the weight
# rows they stay in one core's L2 cache
_BLOCK_BYTES = 1 << 20
# continued-fraction steps before an incomplete Beta is refused; at the
# switch point x_s a fraction takes about 60 steps at p = q = 1000
_BETA_TERMS = 10_000
_PHILOX_ZEROS = np.zeros(4, np.uint64)  # a fresh Philox's counter and buffer
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadGrid:
    """Composite-rule layout: the number of angle-uniform cells, an even count."""

    m_cells: int

    def __post_init__(self):
        if self.m_cells % 2:  # _dct3 transforms pairs of cells
            raise GridError(f"m_cells={self.m_cells} is odd; the grid needs an even cell count")


def replicate_rng(seed: int, replicate: int,
                  bit_generator: np.random.Philox) -> np.random.Generator:
    """Counter-based stream for one replicate: key = seed XOR replicate.

    The key is reduced modulo 2^64, so any Python integer seed is usable.
    The caller's bit_generator is re-keyed in place (zero counter, empty
    buffer), so the stream is a function of the key alone, whatever the
    Philox held before; the caller must not share it between threads.
    """
    key = (seed ^ replicate) & 0xFFFFFFFFFFFFFFFF
    state = {"counter": _PHILOX_ZEROS, "key": np.array([key, 0], np.uint64)}
    bit_generator.state = {"bit_generator": "Philox", "state": state, "buffer": _PHILOX_ZEROS,
                           "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


# ---------------------------------------------------------------------------
# grid workspaces (deterministic, cached per layout)

def _fft_order(cells: np.ndarray) -> np.ndarray:
    """Cells (last axis) in the order _dct3 leaves them: 2j at j, 2j+1 at m-1-j."""
    return np.concatenate((cells[..., 0::2], cells[..., 1::2][..., ::-1]), axis=-1)


def _dct3_tables(scale: np.ndarray, m_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Packing tables of v_j = sum_{n<=K} scale_n c_n cos(n theta_j), K = len(scale)-1 <= m/2.

    Makhoul's spectrum of this DCT-III is X_n = e^{i pi n/(2m)} scale_n / 2 for
    0 < n < m/2, with X_0 = scale_0 and X_{m/2} = scale_{m/2} / sqrt 2 (times
    c_n); v is irfft(m X, m) in _fft_order's cell order.  Its pairs z_k = v_{2k}
    + i v_{2k+1} are the unnormalized inverse FFT of length M = m/2 of Z_k = X_k
    (1 + i w^k) + conj(X_{M-k}) (1 - i w^k), w = e^{2 pi i/m} (Sorensen et al.,
    IEEE Trans. ASSP 35 (1987) 849-863).  low is the factor of c_k in Z_k for
    k <= min(K, M-1), high the factor of c_{M-k} in the last min(K, M) Z_k.
    """
    half = m_cells // 2
    n_coef = len(scale)
    x = 0.5 * scale * np.exp((0.5j * math.pi / m_cells) * np.arange(n_coef))
    x[0] = scale[0]
    if n_coef > half:
        x[half] = scale[half] / math.sqrt(2.0)
    n_low, n_high = min(n_coef, half), min(n_coef - 1, half)
    k = np.arange(half - n_high, half)
    low = x[:n_low] * (1.0 + 1j * np.exp((2j * math.pi / m_cells) * np.arange(n_low)))
    high = np.conj(x[half - k]) * (1.0 - 1j * np.exp((2j * math.pi / m_cells) * k))
    return low, high


def _dct3(coefs: np.ndarray, low: np.ndarray, high: np.ndarray, out: np.ndarray) -> None:
    """DCT-III of each real row of coefs into out, complex m/2 per row, by one inverse FFT.

    out.view(float) holds the transform in _fft_order's cell order.  Z is
    written whole, the zeros between the two tables' ranges included, so out
    need not be cleared between calls.
    """
    half = out.shape[1]
    n_low, start = len(low), half - len(high)
    top = max(n_low, start)  # from here on Z_k holds c_{M-k} alone
    np.multiply(coefs[:, :n_low], low, out=out[:, :n_low])
    out[:, n_low:start] = 0.0
    np.multiply(coefs[:, half - top : 0 : -1], high[top - start :], out=out[:, top:])
    if start < n_low:  # both halves meet: one Z_k at m = 4N, every Z_k in the variance
        out[:, start:n_low] += coefs[:, len(high) : half - n_low : -1] * high[: n_low - start]
    np.fft.ifft(out, axis=1, norm="forward", out=out)


@functools.lru_cache(maxsize=_LAYOUTS_KEPT)
def _grid_workspace(n_modes: int, m_cells: int):
    """Midpoints and truncated variance on the angle-uniform grid, in cell order, and the
    field's _dct3_tables at unit gamma: the field times 1/2 has modes sqrt(ln 2) alpha_0
    and alpha_n / sqrt(n).  gamma scales both tables; only low[0] holds the mean mode."""
    if m_cells < 4 * n_modes:
        raise GridError(f"m_cells={m_cells} < 4*n_modes={4 * n_modes}")
    theta_edges = np.linspace(0.0, math.pi, m_cells + 1)
    theta_mid = 0.5 * (theta_edges[:-1] + theta_edges[1:])
    x_mid = 0.5 * (1.0 - np.cos(theta_mid))
    # Var_N on the midpoints: 4 ln2 + 2 H_N + sum (2/n) cos(2n theta), a DCT-III whose
    # top mode, 2N, reaches m/2 at m = 4N
    d = np.zeros(2 * n_modes + 1)
    d[2::2] = 2.0 / np.arange(1, n_modes + 1)
    d[0] = _FOUR_LN2 + 2.0 * float(np.sum(1.0 / np.arange(1, n_modes + 1)))
    var = np.empty((1, m_cells // 2), complex)
    _dct3(np.ones((1, len(d))), *_dct3_tables(d, m_cells), var)
    var_mid = np.empty(m_cells)
    var_mid[_fft_order(np.arange(m_cells))] = var.view(float)[0]
    scale = np.empty(n_modes + 1)
    scale[0] = 0.5 * _TWO_SQRT_LN2
    scale[1:] = 1.0 / np.sqrt(np.arange(1, n_modes + 1))
    return x_mid, var_mid, *_dct3_tables(scale, m_cells)


def _beta_fraction(p: float, q: float, x: np.ndarray) -> np.ndarray:
    """h with int_0^x t^(p-1) (1-t)^(q-1) dt = x^p (1-x)^q h / p, for ascending x <= x_s.

    The incomplete Beta's continued fraction by Lentz's method (Numerical
    Recipes, 3rd ed., 6.4), all x at once.  Below x_s = (p+1)/(p+q+2) it
    converges fastest at the smallest x, so the settled head of the array
    is dropped after each step.  Where it is not finite, or has not settled
    after _BETA_TERMS steps, h is NaN.
    """
    out = np.full_like(x, np.nan)
    c = np.ones_like(x)
    d = 1.0 / (1.0 - ((p + q) / (p + 1.0)) * x)
    h = d.copy()
    done = 0
    for k in range(1, _BETA_TERMS + 1):
        for coef in (k * (q - k) / ((p + 2 * k - 1.0) * (p + 2 * k)),
                     -(p + k) * (p + q + k) / ((p + 2 * k) * (p + 2 * k + 1.0))):
            step = coef * x
            d *= step
            d += 1.0
            np.reciprocal(d, out=d)
            np.divide(step, c, out=c)
            c += 1.0
            h *= d
            h *= c
        delta = d * c
        settled = np.abs(delta - 1.0) <= _EPS
        if settled.all():
            n = len(x)
        elif not np.isfinite(delta).all():
            return out
        else:
            n = int(settled.argmin())
        if n:
            out[done : done + n] = h[:n]
            done += n
            x, c, d, h = x[n:], c[n:], d[n:], h[n:]
            if not len(x):
                break
    return out


@functools.lru_cache(maxsize=_LAYOUTS_KEPT)
def _cell_masses(m_cells: int, a: float, b: float, eta: float = 1.0) -> np.ndarray:
    """Exact integrals of x^a (1-x)^b over each cell, truncated at eta.

    With p = a+1, q = b+1 and x_s = (p+1)/(p+q+2), a cell below x_s is a
    difference of integrals from 0 and a cell above it one of integrals to
    1, so a small mass at either end is never the difference of two numbers
    near the total; the cell across x_s is one piece of each.
    """
    p, q = a + 1.0, b + 1.0
    x_s = (p + 1.0) / (p + q + 2.0)
    xe = np.minimum(0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, m_cells + 1))), eta)
    k = int(np.searchsorted(xe, x_s))  # edges below x_s
    below, above = np.append(xe[:k], x_s), np.append(x_s, xe[k:])
    with np.errstate(all="ignore"):
        def prefactor(x):  # x^p (1-x)^q, with 1-x exact from x = 1/2 on
            return np.power(x, p) * np.where(x < 0.5, np.exp(q * np.log1p(-x)),
                                             np.power(1.0 - x, q))

        lower = prefactor(below) * _beta_fraction(p, q, below) / p  # from 0 to x
        upper = prefactor(above) * _beta_fraction(q, p, 1.0 - above[::-1])[::-1] / q  # x to 1
    masses = np.diff(lower)
    if k > m_cells:  # every edge lies below x_s
        masses = masses[:-1]
    else:
        masses[-1] += upper[0] - upper[1]
        masses = np.concatenate((masses, -np.diff(upper[1:])))
    if not np.all(np.isfinite(masses)):
        raise DomainError(f"cell masses are not finite at a={a!r}, b={b!r}: the incomplete "
                          f"Beta's continued fraction fails or needs over {_BETA_TERMS} terms")
    return masses


def cell_weights(grid: QuadGrid, n_modes: int, a: float, b: float, t: float = 0.0,
                 chi: float = 0.0, eta: float = 1.0) -> np.ndarray:
    """Weight of every cell for the mass of (x-t)^chi x^a (1-x)^b on [0, eta], 0 < eta <= 1."""
    m_cells = grid.m_cells
    x_mid = _grid_workspace(n_modes, m_cells)[0]  # first, so a bad grid is reported first
    if not (-1.0 < a < math.inf and -1.0 < b < math.inf):
        raise DomainError(f"quadrature needs finite a, b > -1, got a={a!r}, b={b!r}")
    if not (-math.inf < t <= 0.0 and math.isfinite(chi)):
        raise DomainError(f"insertion needs finite chi and t <= 0, got t={t!r}, chi={chi!r}")
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta must lie in (0, 1], got {eta!r}")
    # a new array, never the cached masses; at chi = 0 the factor is exactly 1
    with np.errstate(over="ignore", invalid="ignore"):
        weights = _cell_masses(m_cells, a, b, eta) * (x_mid - t) ** chi
    if not np.isfinite(weights).all():  # (x-t)^chi overflowed, or met a mass that underflowed
        raise DomainError(f"cell weights are not finite at t={t!r}, chi={chi!r}")
    return weights


def _block_rows(m_cells: int) -> int:
    """Rows per block, at least one: a row is m/2 complexes of transform workspace and,
    for a second weight, m doubles of spare, at most 16 m bytes."""
    return max(1, _BLOCK_BYTES // (16 * m_cells))


def gmc_integral_batch(alphas: np.ndarray, gamma: float, weights: np.ndarray, grid: QuadGrid,
                       drop_mean: bool = False) -> np.ndarray:
    """Regularized GMC integrals of coefficient rows: shape (rows, k) for k weight rows.

    The rows stream through one workspace of _block_rows rows, each block
    transformed into it and exponentiated in place.  Each weight but the
    last is multiplied into a spare block, the last in place, and every
    product is summed over its row alone in fixed (pairwise) order.
    """
    n_rows, n_coef = alphas.shape
    m_cells = grid.m_cells
    _, var, low, high = _grid_workspace(n_coef - 1, m_cells)
    low, high = gamma * low, gamma * high
    if drop_mean:  # the mean mode alpha_0 leaves the field, and its 4 ln 2 the variance
        var = var - _FOUR_LN2
        low[0] = 0.0
    # exp(gamma/2 X - gamma^2/8 Var) w = exp(gamma/2 X) (w exp(-gamma^2/8 Var)): the
    # variance factor goes into the weights once per call, in the transform's cell order
    weights = _fft_order(weights * np.exp((-gamma * gamma / 8.0) * var))
    block = min(n_rows, _block_rows(m_cells))
    work = np.empty((block, m_cells // 2), complex)
    spare = np.empty((block, m_cells)) if len(weights) > 1 else None
    out = np.empty((n_rows, len(weights)))
    for start in range(0, n_rows, block):
        rows = alphas[start : start + block]
        _dct3(rows, low, high, work[: len(rows)])
        dens = work[: len(rows)].view(float)
        np.exp(dens, out=dens)
        sums = out[start : start + len(rows)]
        # not a BLAS product: its summation order follows the BLAS thread count
        for j, w in enumerate(weights[:-1]):
            np.add.reduce(np.multiply(dens, w, out=spare[: len(rows)]), axis=1, out=sums[:, j])
        dens *= weights[-1]
        np.add.reduce(dens, axis=1, out=sums[:, -1])
    return out
