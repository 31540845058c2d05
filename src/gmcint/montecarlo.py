"""Replicated estimation of GMC moments, tail exponents, and small deviations.

One sampler, _simulate_integrals, synthesizes each replicate's field once
and reduces it against a matrix of weight rows (gmcint.field.cell_weights),
one per observable; every estimator is a reduction of its value columns.
Replicates are the unit of parallelism: replicate r draws from the
counter-based stream keyed by seed XOR r straight into its coefficient row,
worker threads take chunks of replicates and fill a preallocated value array
by replicate index, and every reduction is an ordered operation over that
array.  A replicate's integral depends on its own row and weight alone (see
gmcint.field), so a run is bit-identical for any worker count, chunk size
and set of other weights.  Standard errors come from batch means.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ResolutionError
from .exactlaw import GmcParams, _check_gamma, _require_bounds, bounds_check
from .field import QuadGrid, cell_weights, gmc_integral_batch, replicate_rng

_CHUNK = 128  # replicates per task: the scheduling grain; results do not depend on it
_MAX_WORKERS = 32  # ThreadPoolExecutor's own default ceiling on worker threads
# the largest plan: 10^8 replicates fill 0.8 GB per value column, and 2^20 modes
# (2^22 cells) a 1 GiB coefficient chunk and 32 MiB per grid workspace array
_MAX_REPLICATES = 10**8
_MAX_MODES = 1 << 20


@dataclass(frozen=True)
class McConfig:
    """Replication plan for one experiment; mc_moments checks its batch count."""

    replicates: int
    n_modes: int
    seed: int
    batches: int = 50

    def __post_init__(self):
        if self.replicates < 100:
            raise DomainError(f"need at least 100 replicates, got {self.replicates!r}")
        if self.n_modes < 1:
            raise DomainError(f"need at least one field mode, got {self.n_modes!r}")
        if self.replicates > _MAX_REPLICATES or self.n_modes > _MAX_MODES:
            raise DomainError(f"plan too large: at most {_MAX_REPLICATES} replicates and "
                              f"{_MAX_MODES} modes, got {self.replicates} and {self.n_modes}")

    @property
    def grid(self) -> QuadGrid:
        """Four cells per mode, the least that cell_weights accepts, and enough: on the
        same coefficients 4 and 8 cells give integrals that differ by a few 1e-7 per
        replicate (sd) and moments by under 1e-7 relative, far below their Monte Carlo
        standard errors, while the DCT-III and exp cost half as much."""
        return QuadGrid(4 * self.n_modes)


def config_for(replicates: int, n_modes: int, seed: int, a: float = 0.0, b: float = 0.0,
               batches: int = 50) -> McConfig:
    """The plan McConfig(replicates, n_modes, seed, batches); a and b are not used."""
    return McConfig(replicates, n_modes, seed, batches)


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with batch-mean standard error and its replicate count."""

    mean: float
    stderr: float
    replicates: int
    degraded_ci: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.mean) and self.stderr >= 0.0):
            raise DomainError("estimate must be finite with nonnegative stderr")


@dataclass(frozen=True)
class TailFit:
    """Least-squares line through the empirical log-survival curve."""

    slope: float
    intercept: float
    u_grid: np.ndarray
    log_survival: np.ndarray
    r_squared: float
    counts: np.ndarray
    wilson_low: np.ndarray
    wilson_high: np.ndarray


@dataclass(frozen=True)
class SmallDeviationPoint:
    eps: float
    log_prob: float
    count: int


@dataclass(frozen=True)
class SmallDeviationResult:
    points: tuple
    envelope_c: float | None


def _simulate_integrals(cfg: McConfig, gamma: float, weights: np.ndarray, drop_mean: bool,
                        threads: int = 1) -> np.ndarray:
    """GMC integral of every replicate against every weight row, shape (replicates, k).

    Chunks of _CHUNK replicates run on min(threads, chunks, _MAX_WORKERS)
    worker threads, at least one.  Each chunk draws through one Philox of its
    own, re-keyed by replicate_rng for every replicate, so the fixed seed it
    is built with never reaches a draw.
    """
    out = np.empty((cfg.replicates, len(weights)))
    n_coef = cfg.n_modes + 1

    def work(start: int) -> None:
        stop = min(start + _CHUNK, cfg.replicates)
        alphas = np.empty((stop - start, n_coef))
        bit_generator = np.random.Philox(0)
        for i, row in enumerate(alphas, start):
            replicate_rng(cfg.seed, i, bit_generator).standard_normal(out=row)
        out[start:stop] = gmc_integral_batch(alphas, gamma, weights, cfg.grid, drop_mean)

    starts = range(0, cfg.replicates, _CHUNK)
    n_workers = min(max(threads, 1), len(starts), _MAX_WORKERS)
    if n_workers == 1:
        for s in starts:
            work(s)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(work, starts))
    return out


def mc_moments(params: GmcParams, tchis, cfg: McConfig,
               threads: int = 1) -> list[McEstimate]:
    """Monte Carlo estimates of the moment of the mass weighted by (x-t)^chi, per (t, chi).

    Every (t, chi) is a weight row on the same simulated fields, and each
    estimate equals a lone mc_moment call's.  The standard error is a
    batch-mean estimate: the spread of the means of cfg.batches whole batches
    of replicates // batches, scaled to all the replicates; the last
    replicates % batches count in the mean and in no batch.  When the doubled
    moment order 2p falls outside the existence bounds the population
    variance is infinite, so the batch spread is only indicative and the
    estimates are flagged degraded_ci.
    """
    if not 10 <= cfg.batches <= cfg.replicates:
        raise DomainError(f"need 10 to {cfg.replicates} batches, got {cfg.batches!r}")
    rows = [cell_weights(cfg.grid, cfg.n_modes, params.a, params.b, t, chi) for t, chi in tchis]
    if not rows:
        raise DomainError("need at least one (t, chi) to estimate")
    weights = np.stack(rows)
    _require_bounds(params)
    vals = _simulate_integrals(cfg, params.gamma, weights, False, threads)
    degraded = not bounds_check(replace(params, p=2.0 * params.p))
    size = cfg.replicates // cfg.batches
    ests = []
    for column in vals.T:
        powered = column**params.p
        batch_means = powered[:cfg.batches * size].reshape(cfg.batches, size).mean(axis=1)
        stderr = float(batch_means.std(ddof=1) / math.sqrt(cfg.replicates / size))
        ests.append(McEstimate(float(powered.mean()), stderr, cfg.replicates, degraded))
    return ests


def mc_moment(params: GmcParams, t: float, chi: float, cfg: McConfig,
              threads: int = 1) -> McEstimate:
    """Monte Carlo estimate of the moment of the mass weighted by (x-t)^chi."""
    return mc_moments(params, [(t, chi)], cfg, threads)[0]


def _wilson(successes: np.ndarray, n: int, z: float = 1.96):
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return center - half, center + half


def mc_tail_fit(
    gamma: float,
    alpha: float,
    eta: float,
    u_grid: np.ndarray,
    cfg: McConfig,
    threads: int = 1,
) -> TailFit:
    """Fit the empirical survival exponent of the insertion-weighted mass.

    Simulates the mass with weight x^(-gamma*alpha/2) on [0, eta] and
    regresses ln P(I > u) on ln u; the slope estimates
    -2(Q - alpha)/gamma.  Requires alpha in (gamma/2, 2/gamma) so the
    insertion exponent stays quadrature-admissible.
    """
    _check_gamma(gamma)
    if not gamma / 2.0 < alpha < 2.0 / gamma:
        raise DomainError(f"alpha must lie in (gamma/2, 2/gamma), got {alpha!r}")
    u_grid = np.asarray(u_grid, dtype=float)
    if (u_grid.ndim != 1 or len(u_grid) < 2 or not np.all(np.isfinite(u_grid))
            or u_grid[0] <= 0.0 or np.any(np.diff(u_grid) <= 0.0)):
        raise DomainError("u_grid must be finite, positive and strictly increasing, >= 2 points")
    weights = cell_weights(cfg.grid, cfg.n_modes, -gamma * alpha / 2.0, 0.0, eta=eta)
    vals = _simulate_integrals(cfg, gamma, weights[None], False, threads)[:, 0]
    counts = len(vals) - np.searchsorted(np.sort(vals), u_grid, side="right")
    if counts[-1] < 50:
        raise ResolutionError(
            f"only {counts[-1]} exceedances at u={u_grid[-1]}; need >= 50"
        )
    survival = counts / cfg.replicates
    log_survival = np.log(survival)
    slope, intercept = np.polyfit(np.log(u_grid), log_survival, 1)
    fitted = intercept + slope * np.log(u_grid)
    ss_res = float(np.sum((log_survival - fitted) ** 2))
    ss_tot = float(np.sum((log_survival - log_survival.mean()) ** 2))
    low, high = _wilson(counts, cfg.replicates)
    return TailFit(
        slope=float(slope),
        intercept=float(intercept),
        u_grid=u_grid,
        log_survival=log_survival,
        r_squared=1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
        counts=counts,
        wilson_low=np.log(np.maximum(low, 1e-300)),
        wilson_high=np.log(np.maximum(high, 1e-300)),
    )


def mc_small_deviation(
    gamma: float,
    eps_grid: np.ndarray,
    cfg: McConfig,
    threads: int = 1,
) -> SmallDeviationResult:
    """Empirical lower-tail probabilities of the mean-free GMC mass.

    Every eps must be finite and positive.  Unresolved grid points (no
    events) are reported with log_prob = -inf and count 0.  The envelope
    constant c in P <= exp(-c eps^(-4/gamma^2)) is fitted from the two
    smallest resolvable eps, or None where eps^(-4/gamma^2) leaves the double range.
    """
    _check_gamma(gamma)
    eps_grid = np.asarray(eps_grid, dtype=float)
    bad = eps_grid[~((eps_grid > 0.0) & (eps_grid < math.inf))]
    if bad.size:
        raise DomainError(f"eps must be finite and positive, got {float(bad[0])!r}")
    weights = cell_weights(cfg.grid, cfg.n_modes, 0.0, 0.0)
    vals = _simulate_integrals(cfg, gamma, weights[None], True, threads)[:, 0]
    counts = np.searchsorted(np.sort(vals), eps_grid, side="right")
    points = []
    for eps, count in zip(eps_grid.tolist(), counts.tolist()):
        logp = math.log(count / cfg.replicates) if count else -math.inf
        points.append(SmallDeviationPoint(eps, logp, count))
    resolved = sorted((pt for pt in points if pt.count > 0), key=lambda pt: pt.eps)
    envelope_c = None
    if len(resolved) >= 2:
        s = 4.0 / (gamma * gamma)
        e1, e2 = resolved[0], resolved[1]
        try:
            envelope_c = (e2.log_prob - e1.log_prob) / (e1.eps**-s - e2.eps**-s)
        except (OverflowError, ZeroDivisionError):  # equal eps, or eps^-s out of range
            envelope_c = None
    return SmallDeviationResult(tuple(points), envelope_c)
