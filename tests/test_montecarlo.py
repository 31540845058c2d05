import math

import numpy as np
import pytest

from _oracles import replicate_stream
from gmcint import montecarlo
from gmcint.errors import BoundsError, DomainError, ResolutionError
from gmcint.exactlaw import GmcParams, exact_moment, selberg_product
from gmcint.field import QuadGrid, cell_weights, gmc_integral_batch
from gmcint.montecarlo import (
    McConfig,
    _simulate_integrals,
    config_for,
    mc_moment,
    mc_moments,
    mc_small_deviation,
    mc_tail_fit,
)

P0 = GmcParams(1.0, 0.0, 0.0, 0.0)


def small_cfg(seed, replicates=2000, n_modes=256, **kw):
    return config_for(replicates, n_modes, seed, **kw)


class TestMcMoment:
    def test_zeroth_moment_exact(self):
        est = mc_moment(P0, 0.0, 0.0, small_cfg(1, replicates=200))
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_first_moment_normalization(self):
        est = mc_moment(GmcParams(1.0, 1.0, 0.0, 0.0), 0.0, 0.0, small_cfg(2))
        assert abs(est.mean - 1.0) <= 3.0 * est.stderr

    def test_negative_moment_vs_exact(self):
        params = GmcParams(1.0, -1.0, 0.0, 0.0)
        est = mc_moment(params, 0.0, 0.0, small_cfg(3, replicates=4000, n_modes=1024))
        target = exact_moment(params)
        assert abs(est.mean - target) <= 3.0 * est.stderr + 0.02 * target

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_integer_moments_vs_selberg(self, p):
        params = GmcParams(1.0, p, 0.3, 0.3)
        est = mc_moment(params, 0.0, 0.0,
                        small_cfg(4, replicates=4000, n_modes=1024, a=0.3, b=0.3))
        target = selberg_product(1.0, int(p), 0.3, 0.3)
        assert abs(est.mean - target) <= 3.0 * est.stderr + 0.02 * target

    def test_determinism_across_threads(self):
        params = GmcParams(1.0, -0.5, 0.0, 0.0)
        cfg = small_cfg(5)
        a = mc_moment(params, 0.0, 0.0, cfg, threads=1)
        b = mc_moment(params, 0.0, 0.0, cfg, threads=4)
        c = mc_moment(params, 0.0, 0.0, cfg, threads=1)
        d = mc_moment(params, 0.0, 0.0, cfg, threads=2)
        assert ((a.mean, a.stderr) == (b.mean, b.stderr) == (c.mean, c.stderr)
                == (d.mean, d.stderr))

    def test_stderr_scaling(self):
        params = GmcParams(1.0, -1.0, 0.0, 0.0)
        e1 = mc_moment(params, 0.0, 0.0, small_cfg(6, replicates=2000))
        e2 = mc_moment(params, 0.0, 0.0, small_cfg(6, replicates=4000))
        ratio = e1.stderr / e2.stderr
        assert math.sqrt(2.0) * 0.75 <= ratio <= math.sqrt(2.0) * 1.25

    def test_truncation_ladder_stable(self):
        # negative-moment estimates across mode counts agree within noise;
        # a trend diagnostic, not a convergence assertion
        params = GmcParams(1.0, -1.0, 0.0, 0.0)
        ests = [
            mc_moment(params, 0.0, 0.0, small_cfg(60, replicates=4000, n_modes=n))
            for n in (2**8, 2**10, 2**12)
        ]
        joint = max(e.stderr for e in ests)
        for e1, e2 in zip(ests, ests[1:]):
            assert abs(e1.mean - e2.mean) <= 5.0 * joint

    def test_degraded_ci_flag(self):
        flagged = mc_moment(GmcParams(1.0, 2.0, 0.3, 0.3), 0.0, 0.0,
                            small_cfg(7, a=0.3, b=0.3))
        assert flagged.degraded_ci
        clean = mc_moment(GmcParams(1.0, -1.0, 0.0, 0.0), 0.0, 0.0, small_cfg(8))
        assert not clean.degraded_ci

    def test_preconditions(self):
        with pytest.raises(BoundsError):
            mc_moment(GmcParams(1.0, 4.0, 0.0, 0.0), 0.0, 0.0, small_cfg(9))
        with pytest.raises(DomainError):
            mc_moment(GmcParams(1.0, -4.0, -1.1, 0.0), 0.0, 0.0, small_cfg(10))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McConfig(50, 256, 1)
        with pytest.raises(DomainError):
            McConfig(1000, 256, 1, batches=7)
        with pytest.raises(DomainError):
            McConfig(1001, 256, 1, batches=10)
        with pytest.raises(DomainError):
            McConfig(1000, 0, 1)
        # refused before anything is allocated
        for replicates, n_modes in ((10**12, 16), (1000, 10**11)):
            with pytest.raises(DomainError, match="plan too large"):
                McConfig(replicates, n_modes, 1, batches=10)

    def test_negative_and_huge_seeds_accepted(self):
        params = GmcParams(1.0, -1.0, 0.0, 0.0)
        for seed in (-42, 2**63, 2**70 + 5):
            est = mc_moment(params, 0.0, 0.0, small_cfg(seed, replicates=200, n_modes=64))
            assert math.isfinite(est.mean)


class TestDefaultGrid:
    def test_default_is_four_cells_per_mode(self):
        assert config_for(200, 64, 1).grid == QuadGrid(4 * 64)

    @pytest.mark.parametrize("gamma,a,b", [(1.0, 0.0, 0.0), (1.4, -0.5, 0.3)])
    def test_four_cells_match_eight_on_paired_draws(self, gamma, a, b):
        # the same coefficients on both grids, so the ratio is the discretisation alone
        n_modes = 1024
        alphas = np.random.default_rng(1601).standard_normal((2000, n_modes + 1))
        integrals = []
        for cells in (4, 8):
            grid = QuadGrid(cells * n_modes)
            weights = cell_weights(grid, n_modes, a, b)[None]
            integrals.append(gmc_integral_batch(alphas, gamma, weights, grid)[:, 0])
        i4, i8 = integrals
        rel = i4 / i8 - 1.0
        assert float(np.std(rel)) <= 1e-5
        assert float(np.max(np.abs(rel))) <= 1e-3
        for p in (-1.0, 0.5, 1.0, 1.5):
            assert abs(np.mean(i4**p) / np.mean(i8**p) - 1.0) <= 1e-6, p


# The sampler against the exact moments of its own discretization, with no margin:
# on the cells E[I] = sum(w) and E[I^2] = w' exp(gamma^2/4 C_N) w, C_N the truncated
# covariance 4 ln 2 + sum_{n<=N} (4/n) cos(n theta_i) cos(n theta_j) at the cell
# midpoints.  Seed, replicate counts and the |z| bound were fixed before the first run.
@pytest.mark.parametrize("gamma", [0.5, 0.8])
@pytest.mark.parametrize("n_modes,replicates", [(64, 40_000), (256, 20_000)])
def test_sampler_meets_its_discrete_moments(gamma, n_modes, replicates):
    a, b = 0.2, 0.1
    cfg = config_for(replicates, n_modes, 20261019)
    w = cell_weights(cfg.grid, n_modes, a, b)
    m = cfg.grid.m_cells
    theta = (np.arange(m) + 0.5) * (math.pi / m)
    n = np.arange(1, n_modes + 1)
    modes = np.cos(np.outer(n, theta)) * np.sqrt(4.0 / n)[:, None]
    cov = 4.0 * math.log(2.0) + modes.T @ modes
    vals = _simulate_integrals(cfg, gamma, w[None], False, 1)[:, 0]
    for k, exact in ((1, math.fsum(w)), (2, float(w @ np.exp(gamma * gamma / 4.0 * cov) @ w))):
        powered = vals**k
        z = (powered.mean() - exact) / (powered.std(ddof=1) / math.sqrt(replicates))
        assert abs(z) <= 4.0, (k, z)


class TestTailFit:
    def test_survival_monotone_and_slope(self):
        cfg = small_cfg(20, replicates=20_000, n_modes=256)
        fit = mc_tail_fit(1.0, 1.2, 1.0, np.geomspace(5.0, 25.0, 6), cfg)
        assert np.all(np.diff(fit.log_survival) <= 0.0)
        assert fit.slope < -1.5  # power-law decay clearly visible
        assert fit.r_squared > 0.95

    def test_resolution_error(self):
        cfg = small_cfg(21, replicates=1000, n_modes=256, batches=10)
        with pytest.raises(ResolutionError):
            mc_tail_fit(1.0, 1.2, 1.0, np.geomspace(5.0, 500.0, 5), cfg)

    def test_alpha_domain(self):
        cfg = small_cfg(22, replicates=200)
        with pytest.raises(DomainError):
            mc_tail_fit(1.0, 0.3, 1.0, np.array([1.0, 2.0]), cfg)
        with pytest.raises(DomainError):
            mc_tail_fit(1.0, 2.2, 1.0, np.array([1.0, 2.0]), cfg)
        with pytest.raises(DomainError):
            mc_tail_fit(1.0, 1.2, 0.0, np.array([1.0, 2.0]), cfg)
        with pytest.raises(DomainError):
            mc_tail_fit(1.0, 1.2, 1.0, np.array([2.0, 1.0]), cfg)

    @pytest.mark.parametrize("u_grid", [
        [-2.0, -1.0], [0.0, 1.0], [-1.0, 2.0], [1.0, math.inf], [1.0, math.nan, 3.0],
        [math.nan, 1.0], [-math.inf, 1.0],
    ])
    def test_u_grid_domain(self, u_grid, capfd):
        # refused before simulating: no LinAlgError, nothing from LAPACK on stderr
        with pytest.raises(DomainError):
            mc_tail_fit(1.0, 1.2, 1.0, np.array(u_grid), small_cfg(22, replicates=200))
        assert capfd.readouterr().err == ""


class TestSmallDeviation:
    def test_monotone_and_envelope(self):
        cfg = small_cfg(30, replicates=20_000, n_modes=256)
        res = mc_small_deviation(1.0, np.array([0.25, 0.45, 0.5, 1.0, 2.0]), cfg)
        logs = [pt.log_prob for pt in res.points]
        assert logs == sorted(logs)
        assert logs[-1] >= -0.1  # eps = 2 is nearly certain
        assert res.points[0].count == 0  # eps = 0.25 unresolvable at this scale
        assert res.envelope_c is not None and res.envelope_c > 0.0

    def test_no_resolvable_points(self):
        cfg = small_cfg(31, replicates=200, n_modes=64, batches=10)
        res = mc_small_deviation(1.0, np.array([0.01, 0.02]), cfg)
        assert all(pt.count == 0 for pt in res.points)
        assert all(pt.log_prob == -math.inf for pt in res.points)
        assert res.envelope_c is None

    @pytest.mark.parametrize("eps", [[-1.0], [math.nan], [math.inf], [0.5, 0.0], [0.5, -math.inf]])
    def test_eps_domain(self, eps, capfd, monkeypatch):
        # refused before simulating, with nothing on stderr
        monkeypatch.setattr(montecarlo, "_simulate_integrals", None)
        with pytest.raises(DomainError):
            mc_small_deviation(1.0, np.array(eps), small_cfg(32, replicates=200, n_modes=64))
        assert capfd.readouterr().err == ""


class TestOneSampler:
    """Many weights on one set of simulated fields give the lone-weight values."""

    TCHIS = [(0.0, 0.0), (-1e-6, 0.25), (-0.5, 1.0), (-2.0, 0.25), (-0.1, 1.0), (-0.5, 0.25),
             (0.0, 1.0)]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_moments_equal_lone_calls(self, k, threads):
        params = GmcParams(1.0, -0.5, 0.2, 0.1)
        cfg = small_cfg(41, replicates=300, n_modes=64, batches=10)  # a partial last chunk
        ests = mc_moments(params, self.TCHIS[:k], cfg, threads)
        assert ests == [mc_moment(params, t, chi, cfg, threads=threads)
                        for t, chi in self.TCHIS[:k]]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("seed", [0, 999, 2**63 + 5])
    def test_chunk_draws_equal_fresh_streams(self, seed, threads, monkeypatch):
        # each chunk re-keys one Philox per replicate; the draws must be those
        # of a new Philox keyed by seed XOR replicate, for every replicate
        cfg = small_cfg(seed, replicates=300, n_modes=16, batches=10)  # a partial last chunk
        # the integral of a replicate against weight row j: its coefficient j
        monkeypatch.setattr(montecarlo, "gmc_integral_batch",
                            lambda alphas, gamma, weights, *args: alphas[:, : len(weights)].copy())
        drawn = _simulate_integrals(cfg, 1.0, np.zeros((17, cfg.grid.m_cells)), False, threads)
        for r, row in enumerate(drawn):
            assert np.array_equal(row, replicate_stream(seed, r).standard_normal(17))

    @pytest.mark.parametrize("threads,replicates,want", [
        (100_000, 100 * 128, 32), (8, 300, 3), (8, 2560, 8), (2, 100, None), (0, 2560, None),
        (-3, 2560, None)])
    def test_workers_are_capped(self, threads, replicates, want, monkeypatch):
        # at most one worker per chunk of replicates and at most 32, and no pool
        # below two; a stub pool records the count and runs the chunks inline,
        # so no thread is started
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(montecarlo, "gmc_integral_batch",
                            lambda alphas, gamma, weights, *args: alphas[:, : len(weights)].copy())
        cfg = config_for(replicates, 1, 11, batches=10)
        got = _simulate_integrals(cfg, 1.0, np.zeros((2, cfg.grid.m_cells)), False, threads)
        assert started == ([] if want is None else [want])
        assert np.array_equal(got, _simulate_integrals(cfg, 1.0, np.zeros((2, cfg.grid.m_cells)),
                                                       False, 1))

    def test_no_weights_are_refused(self):
        with pytest.raises(DomainError):
            mc_moments(GmcParams(1.0, -0.5, 0.2, 0.1), [], small_cfg(7, replicates=200))

    @pytest.mark.parametrize("eta", [math.nan, 0.0, 1.5])
    def test_tail_eta_domain(self, eta, monkeypatch):
        # the check lives in cell_weights, before any field is simulated
        monkeypatch.setattr(montecarlo, "_simulate_integrals", None)
        with pytest.raises(DomainError):
            mc_tail_fit(1.0, 1.2, eta, np.array([1.0, 2.0]), small_cfg(7, replicates=200))

    def test_weights_that_are_not_finite_are_refused_before_simulating(self, monkeypatch):
        # (x-t)^chi overflows
        monkeypatch.setattr(montecarlo, "_simulate_integrals", None)
        with pytest.raises(DomainError, match="not finite"):
            mc_moment(GmcParams(1.0, 0.5, 0.0, 0.0), -1.0, 1e300, small_cfg(7, replicates=200))

    def test_degraded_flag_applies_to_every_estimate(self):
        ests = mc_moments(GmcParams(1.0, 2.0, 0.3, 0.3), self.TCHIS[:3],
                          small_cfg(7, replicates=200, n_modes=64, batches=10))
        assert [e.degraded_ci for e in ests] == [True] * 3

    def test_tail_and_small_dev_are_reductions_of_the_sampler(self):
        cfg = small_cfg(43, replicates=2000, n_modes=64)
        gamma, alpha, eta = 1.0, 1.2, 0.6
        other = cell_weights(cfg.grid, 64, 0.2, 0.1, -0.5, 0.25)
        tail_row = cell_weights(cfg.grid, 64, -gamma * alpha / 2.0, 0.0, eta=eta)
        vals = _simulate_integrals(cfg, gamma, np.stack([other, tail_row]), False, 2)[:, 1]
        # some thresholds are simulated values: a tie is no exceedance but is a small deviation
        u_grid = np.union1d(np.geomspace(1.0, 4.0, 5), np.sort(vals)[[200, 1000, 1900]])
        fit = mc_tail_fit(gamma, alpha, eta, u_grid, cfg, threads=1)
        assert fit.counts.tolist() == [int((vals > u).sum()) for u in u_grid]
        mean_free = np.stack([cell_weights(cfg.grid, 64, 0.0, 0.0), other])
        vals = _simulate_integrals(cfg, gamma, mean_free, True, 2)[:, 0]
        eps_grid = [0.45, 0.5, 0.65, 0.9, *np.sort(vals)[[10, 100]].tolist()]
        res = mc_small_deviation(gamma, np.array(eps_grid), cfg, threads=1)
        assert [pt.count for pt in res.points] == [int((vals <= e).sum()) for e in eps_grid]
