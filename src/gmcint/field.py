"""Sampling the log-correlated field on [0, 1] and its regularized GMC mass.

The field is synthesized from its Chebyshev expansion
    X(x) = 2 sqrt(ln 2) alpha_0 + sum_{n=1}^{N} (2 alpha_n / sqrt(n)) T_n(2x - 1)
with i.i.d. standard normal coefficients; truncation at N modes is the
cut-off.  The weighted integral uses a composite rule whose cells are
uniform in the Chebyshev angle theta (x = (1 - cos theta)/2): T_n(2x-1) =
cos(n theta), so m_cells >= 4 N resolves every mode at two-plus cells per
half-wave, and evaluating the field on all cell midpoints is a single
DCT-III.  4 N is both the minimum and the default plan
(gmcint.montecarlo.config_for).  A weight is data: cell_weights gives one
observable's row of cell weights, x^a (1-x)^b integrated exactly per cell
(incomplete Beta masses) times (x-t)^chi at the cell midpoint, and
gmc_integral_batch reduces every field against a matrix of such rows.

A batch of coefficient rows streams through one workspace of at most
_BLOCK_BYTES, sized to stay in cache: per block of rows the scaled modes are
written in, transformed by an in-place DCT-III and exponentiated in place,
then weighted and summed row by row in numpy's fixed pairwise order.  A
value therefore depends on its own row and weight alone, never on the chunk
or block it was computed in or on the other weights, and a batch call's
memory does not grow with its rows.

SciPy (the DCT and the incomplete Beta function) is imported inside the
functions that call it, so that importing gmcint, and every closed form,
does without it.

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
_LAYOUTS_KEPT = 8  # grid workspaces, and cell-mass vectors, kept by the caches
# bytes of density rows in flight per batch call: with the weight rows they stay
# in one core's L2 cache
_BLOCK_BYTES = 1 << 20
_PHILOX_ZEROS = np.zeros(4, np.uint64)  # a fresh Philox's counter and buffer


@dataclass(frozen=True)
class QuadGrid:
    """Composite-rule layout: the number of angle-uniform cells."""

    m_cells: int


def replicate_rng(seed: int, replicate: int,
                  bit_generator: np.random.Philox | None = None) -> np.random.Generator:
    """Counter-based stream for one replicate: key = seed XOR replicate.

    The key is reduced modulo 2^64, so any Python integer seed is usable.
    Without bit_generator the stream gets a new Philox.  With one, that
    Philox is re-keyed in place (zero counter, empty buffer), which draws
    the same stream without seeding a new bit generator from OS entropy;
    the caller must not share it between threads.
    """
    key = (seed ^ replicate) & 0xFFFFFFFFFFFFFFFF
    if bit_generator is None:
        return np.random.Generator(np.random.Philox(key=key))
    state = {"counter": _PHILOX_ZEROS, "key": np.array([key, 0], np.uint64)}
    bit_generator.state = {"bit_generator": "Philox", "state": state, "buffer": _PHILOX_ZEROS,
                           "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


# ---------------------------------------------------------------------------
# grid workspaces (deterministic, cached per layout)

@functools.lru_cache(maxsize=_LAYOUTS_KEPT)
def _grid_workspace(n_modes: int, m_cells: int):
    """Midpoints and truncated variance on the angle-uniform grid."""
    from scipy import fft
    theta_edges = np.linspace(0.0, math.pi, m_cells + 1)
    theta_mid = 0.5 * (theta_edges[:-1] + theta_edges[1:])
    x_mid = 0.5 * (1.0 - np.cos(theta_mid))
    # Var_N on the midpoints: 4 ln2 + 2 H_N + sum (2/n) cos(2n theta)
    coef = np.zeros(m_cells)
    coef[2 : 2 * n_modes + 1 : 2] = 2.0 / np.arange(1, n_modes + 1)
    coef[0] = _FOUR_LN2 + 2.0 * float(np.sum(1.0 / np.arange(1, n_modes + 1)))
    d = coef.copy()
    d[1:] *= 0.5
    var_mid = fft.dct(d, type=3)
    return x_mid, var_mid


@functools.lru_cache(maxsize=_LAYOUTS_KEPT)
def _cell_masses(m_cells: int, a: float, b: float, eta: float = 1.0) -> np.ndarray:
    """Exact integrals of x^a (1-x)^b over each cell, truncated at eta."""
    from scipy.special import betainc, betaln
    x_edges = 0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, m_cells + 1)))
    xe = np.minimum(x_edges, eta)
    scale = math.exp(betaln(a + 1.0, b + 1.0))
    return scale * np.diff(betainc(a + 1.0, b + 1.0, xe))


def cell_weights(grid: QuadGrid, n_modes: int, a: float, b: float, t: float = 0.0,
                 chi: float = 0.0, eta: float = 1.0) -> np.ndarray:
    """Weight of every cell for the mass of (x-t)^chi x^a (1-x)^b on [0, eta], 0 < eta <= 1."""
    m_cells = grid.m_cells
    if m_cells < 4 * n_modes:
        raise GridError(f"m_cells={m_cells} < 4*n_modes={4 * n_modes}")
    if not (a > -1.0 and b > -1.0):
        raise DomainError("quadrature needs a, b > -1")
    if not (-math.inf < t <= 0.0 and math.isfinite(chi)):
        raise DomainError(f"insertion needs finite chi and t <= 0, got t={t!r}, chi={chi!r}")
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta must lie in (0, 1], got {eta!r}")
    x_mid = _grid_workspace(n_modes, m_cells)[0]
    # a new array, never the cached masses; at chi = 0 the factor is exactly 1
    return _cell_masses(m_cells, a, b, eta) * (x_mid - t) ** chi


def gmc_integral_batch(alphas: np.ndarray, gamma: float, weights: np.ndarray, grid: QuadGrid,
                       drop_mean: bool = False) -> np.ndarray:
    """Regularized GMC integrals of coefficient rows: shape (rows, k) for k weight rows.

    The rows stream through one workspace of at most _BLOCK_BYTES (at least
    one row), each block transformed and exponentiated in place.  Each weight
    but the last is multiplied into a spare block, the last in place, and
    every product is summed over its row alone in fixed (pairwise) order.
    """
    from scipy import fft
    n_rows, n_coef = alphas.shape
    n_modes = n_coef - 1
    m_cells = grid.m_cells
    _, var_mid = _grid_workspace(n_modes, m_cells)
    var = var_mid - _FOUR_LN2 if drop_mean else var_mid
    # exp(gamma/2 X - gamma^2/8 Var) w = exp(gamma/2 X) (w exp(-gamma^2/8 Var)): the
    # variance factor goes into the weights once per call, gamma/2 into the DCT input
    weights = weights * np.exp((-gamma * gamma / 8.0) * var)
    # DCT-III input of mode n: (gamma/2) (2 / sqrt(n)) alpha_n, halved
    mode_scale = (0.5 * gamma) / np.sqrt(np.arange(1, n_coef))
    mean_scale = 0.5 * gamma * _TWO_SQRT_LN2
    block = max(1, min(n_rows, _BLOCK_BYTES // (8 * m_cells)))
    work = np.empty((block, m_cells))
    spare = np.empty((block, m_cells)) if len(weights) > 1 else None
    out = np.empty((n_rows, len(weights)))
    for start in range(0, n_rows, block):
        rows = alphas[start : start + block]
        coef = work[: len(rows)]
        coef[:, 0] = 0.0 if drop_mean else mean_scale * rows[:, 0]
        np.multiply(rows[:, 1:], mode_scale, out=coef[:, 1:n_coef])
        coef[:, n_coef:] = 0.0
        dens = fft.dct(coef, type=3, axis=1, overwrite_x=True)
        np.exp(dens, out=dens)
        sums = out[start : start + len(rows)]
        # not a BLAS product: its summation order follows the BLAS thread count
        for j, w in enumerate(weights[:-1]):
            np.add.reduce(np.multiply(dens, w, out=spare[: len(rows)]), axis=1, out=sums[:, j])
        dens *= weights[-1]
        np.add.reduce(dens, axis=1, out=sums[:, -1])
    return out
