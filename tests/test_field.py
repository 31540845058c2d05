import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import betainc, betaincc, betaln
from scipy.stats import ks_2samp

from _oracles import (
    ChebFieldSample,
    beta_cell,
    default_grid,
    eval_field,
    field_variance,
    gmc_integral,
    gmc_integral_batch_full_chunk,
    replicate_stream,
    sample_field,
    sample_y_gamma,
)
from gmcint.errors import DomainError, GridError
from gmcint.field import (
    QuadGrid,
    cell_weights,
    gmc_integral_batch,
    replicate_rng,
)

TWO_SQRT_LN2 = 2.0 * math.sqrt(math.log(2.0))


def make_sample(alpha, seed_tag=0):
    alpha = np.asarray(alpha, dtype=float)
    return ChebFieldSample(alpha, len(alpha) - 1, seed_tag)


def one_weight(alphas, gamma, a, b, t, chi, grid, drop_mean=False, eta=1.0):
    """Batch integrals against the single weight row of (a, b, t, chi, eta)."""
    weights = cell_weights(grid, alphas.shape[1] - 1, a, b, t, chi, eta)
    return gmc_integral_batch(alphas, gamma, weights[None], grid, drop_mean)[:, 0]


def draw_alphas(seed, replicates, n_modes):
    out = np.empty((replicates, n_modes + 1))
    for r in range(replicates):
        out[r] = replicate_stream(seed, r).standard_normal(n_modes + 1)
    return out


class TestSampling:
    def test_deterministic_per_replicate(self):
        bit_generator = np.random.Philox(0)
        a = sample_field(16, replicate_rng(123, 0, bit_generator)).alpha
        b = sample_field(16, replicate_rng(123, 0, bit_generator)).alpha
        assert np.array_equal(a, b)
        c = sample_field(16, replicate_rng(123, 1, bit_generator)).alpha
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [-1, 0, 2**64 + 5])
    def test_stream_is_keyed_alike_with_and_without_bit_generator(self, seed):
        # the key is seed XOR replicate reduced mod 2^64, whatever the caller's
        # Philox was seeded with or has drawn before
        reused = np.random.Philox(12345)
        for r in (0, 1, 130):
            want = replicate_stream(seed, r).standard_normal(9)
            fresh = np.random.Philox(0)
            assert np.array_equal(replicate_rng(seed, r, fresh).standard_normal(9), want)
            assert np.array_equal(replicate_rng(seed, r, reused).standard_normal(9), want)

    def test_standard_normal_marginals(self):
        draws = draw_alphas(2024, 100_000, 4)
        a1 = draws[:, 1]
        assert abs(a1.mean()) <= 0.01
        assert abs(a1.var() - 1.0) <= 0.02

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            ChebFieldSample(np.zeros(5), 16, 0)
        with pytest.raises(DomainError):
            sample_field(0, replicate_stream(1, 0))


class TestEvalField:
    def test_zero_coefficients(self):
        s = make_sample(np.zeros(9))
        for x in (0.0, 0.3, 1.0):
            assert eval_field(s, x) == 0.0

    def test_constant_mode(self):
        alpha = np.zeros(9)
        alpha[0] = 1.0
        s = make_sample(alpha)
        for x in (0.0, 0.25, 0.8):
            assert eval_field(s, x) == pytest.approx(TWO_SQRT_LN2, rel=1e-14)
            assert eval_field(s, x, drop_mean=True) == 0.0

    def test_second_mode_at_half(self):
        alpha = np.zeros(9)
        alpha[2] = 1.0
        s = make_sample(alpha)
        # T_2(0) = -1, coefficient 2/sqrt(2)
        assert eval_field(s, 0.5) == pytest.approx(-math.sqrt(2.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_field(make_sample(np.zeros(3)), 1.5)


class TestFieldVariance:
    def test_one_mode_endpoint(self):
        assert field_variance(1, 1.0) == pytest.approx(4.0 * math.log(2.0) + 4.0, rel=1e-14)

    def test_four_modes_midpoint(self):
        # T_n(0)^2 alternates 0, 1 with n odd, even
        want = 4.0 * math.log(2.0) + 4.0 / 2.0 + 4.0 / 4.0
        assert field_variance(4, 0.5) == pytest.approx(want, rel=1e-14)

    def test_log_growth_in_modes(self):
        ns = [2**8, 2**10, 2**12]
        vals = [field_variance(n, 0.37) for n in ns]
        slope = np.polyfit(np.log(ns), vals, 1)[0]
        assert abs(slope - 2.0) <= 0.2  # grows like 2 ln N

    def test_matches_quadrature_workspace(self):
        # recurrence route vs the DCT route used by the integrator
        from gmcint.field import _grid_workspace

        n_modes, m_cells = 32, 256
        x_mid, var_mid, _, _ = _grid_workspace(n_modes, m_cells)
        direct = field_variance(n_modes, x_mid)
        np.testing.assert_allclose(var_mid, direct, rtol=1e-12)


def _cosine_sum(coefs: np.ndarray, m_cells: int) -> np.ndarray:
    """sum_n coefs_n cos(n theta_j) at the m cell midpoints, in long double.

    The angle n theta_j = pi n (2j+1) / (2m) is reduced exactly, as the
    integer n (2j+1) mod 4m, and its cosine looked up in a table of 4m.
    """
    pi = 4.0 * np.arctan(np.longdouble(1.0))
    table = np.cos(pi * np.arange(4 * m_cells, dtype=np.longdouble) / (2 * m_cells))
    k = (np.arange(coefs.shape[1])[:, None] * np.arange(1, 2 * m_cells, 2)) % (4 * m_cells)
    return coefs.astype(np.longdouble) @ table[k]


class TestTransform:
    """The DCT-III by one half-length complex FFT, against a direct cosine sum."""

    @pytest.mark.parametrize("n_modes,m_cells", [(1, 4), (2, 8), (3, 12), (64, 512),
                                                 (300, 1500), (512, 4096)])
    @pytest.mark.parametrize("top", ["field", "variance"])
    def test_rows_against_direct_sum(self, n_modes, m_cells, top):
        # the field's modes stop at N <= m/4; the variance's reach 2N, up to m/2
        from gmcint.field import _block_rows, _dct3, _dct3_tables, _fft_order

        n_coef = n_modes + 1 if top == "field" else 2 * n_modes + 1
        rng = np.random.default_rng(2210 + m_cells)
        scale = rng.uniform(0.5, 2.0, n_coef) / np.sqrt(np.arange(1, n_coef + 1))
        low, high = _dct3_tables(scale, m_cells)
        block = _block_rows(m_cells)
        # the field's rows end in a partial last block; one variance row is used per layout
        n_rows = block + block // 2 + 1 if top == "field" else 3
        coefs = rng.standard_normal((n_rows, n_coef))
        # the stale values of the earlier block, and the NaN it starts with, must not leak
        work = np.full((block, m_cells // 2), np.nan, complex)
        cells = _fft_order(np.arange(m_cells))
        got = np.empty((len(coefs), m_cells))
        for start in range(0, len(coefs), block):
            rows = coefs[start : start + block]
            _dct3(rows, low, high, work[: len(rows)])
            got[start : start + len(rows), cells] = work[: len(rows)].view(float)
        want = _cosine_sum(coefs * scale, m_cells)
        err = np.max(np.abs(got - want), axis=1)
        bound = 4e-15 * np.max(np.abs(want), axis=1)
        assert np.all(err <= bound), float(np.max(err / bound))


class TestBoundedCaches:
    def test_caches_stay_at_their_size(self):
        from gmcint import field

        size = field._LAYOUTS_KEPT
        grid = field._grid_workspace(4, 16)
        masses = field._cell_masses(16, 0.25, 0.5)
        for k in range(size + 2):
            field._grid_workspace(4, 32 + 2 * k)
            field._cell_masses(16, 0.1 * k, 0.0)
        assert field._grid_workspace.cache_info().currsize == size
        assert field._cell_masses.cache_info().currsize == size
        # the first keys were dropped; asking again recomputes equal arrays
        for got, want in zip(field._grid_workspace(4, 16), grid):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(field._cell_masses(16, 0.25, 0.5), masses)


def _cell_mass_cases():
    """Seeded (a, b, eta, m_cells) over the domain cell_weights accepts.

    a and b cycle through near -1 (-1 + 10^U(-6, -2)), moderate (U(-0.9, 3))
    and large (10^U(1.5, 3)); every other case truncates at eta in
    U(0.05, 1); m_cells is 4, 5 or 8 cells per mode for N = 2^k, k in [2, 16].
    """
    rng = np.random.default_rng(1980)

    def exponent(kind):
        if kind == 0:
            return -1.0 + 10.0 ** rng.uniform(-6.0, -2.0)
        if kind == 1:
            return rng.uniform(-0.9, 3.0)
        return 10.0 ** rng.uniform(1.5, 3.0)

    cases = []
    for i in range(18):
        a, b = exponent(i % 3), exponent((i // 3) % 3)
        eta = 1.0 if i % 2 else rng.uniform(0.05, 1.0)
        m_cells = int(rng.choice((4, 5, 8))) << int(rng.integers(2, 17))
        cases.append((a, b, eta, m_cells))
    return cases


class TestCellMasses:
    def test_cell_masses_against_mpmath(self):
        """Each mass is a difference of two integrals of x^a (1-x)^b: from 0 when
        the cell lies below x_s = (p+1)/(p+q+2), from 1 when it lies above, and
        one of each across x_s.  Its error is bounded by 2e-13 times the sum of
        those integrals (S), plus 1e-300 where they underflow.  The bound was
        fixed before the first run: each integral is good to about 100
        roundings of its prefactor and continued fraction.  S comes from
        SciPy's regularized incomplete Beta, the masses from 40-digit mpmath."""
        from gmcint.field import _cell_masses

        sides = set()
        for a, b, eta, m_cells in _cell_mass_cases():
            p, q = a + 1.0, b + 1.0
            x_s = (p + 1.0) / (p + q + 2.0)
            total = math.exp(betaln(p, q))
            edges = 0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, m_cells + 1)))
            got = _cell_masses(m_cells, a, b, eta)
            assert got.shape == (m_cells,)
            k_s = int(np.searchsorted(edges, x_s)) - 1  # the cell across x_s
            k_eta = int(np.searchsorted(edges, eta)) - 1
            picks = {0, 1, 2, m_cells - 3, m_cells - 2, m_cells - 1, k_s - 1, k_s, k_s + 1,
                     k_eta - 1, k_eta, k_eta + 1}
            picks |= set(np.random.default_rng(m_cells).integers(0, m_cells, 6).tolist())
            for i in sorted(k for k in picks if 0 <= k < m_cells):
                x1, x2 = edges[i], min(edges[i + 1], eta)
                if x1 >= eta:
                    assert got[i] == 0.0, (a, b, eta, m_cells, i)
                    continue
                want = float(beta_cell(p, q, x1, x2))
                scale = 0.0
                if x1 < x_s:
                    scale += total * betainc(p, q, min(x2, x_s))
                    sides.add("below")
                if x2 > x_s:
                    scale += total * betaincc(p, q, max(x1, x_s))
                    sides.add("above")
                err = abs(got[i] - want)
                assert err <= 2e-13 * scale + 1e-300, (a, b, eta, m_cells, i, got[i], want, scale)
        assert sides == {"below", "above"}


class TestGmcIntegral:
    def test_zero_field_value_against_direct_sum(self):
        # independent oracle: Riemann-style sum with recurrence-based variance
        n_modes, gamma = 16, 1.3
        grid = default_grid(n_modes)
        s = make_sample(np.zeros(n_modes + 1))
        val = gmc_integral(s, gamma, 0.0, 0.0, 0.0, 0.0, grid)
        theta_edges = np.linspace(0.0, math.pi, grid.m_cells + 1)
        x_edges = 0.5 * (1.0 - np.cos(theta_edges))
        theta_mid = 0.5 * (theta_edges[:-1] + theta_edges[1:])
        x_mid = 0.5 * (1.0 - np.cos(theta_mid))
        want = float(np.sum(np.diff(x_edges) * np.exp(
            -(gamma**2 / 8.0) * field_variance(n_modes, x_mid))))
        assert val == pytest.approx(want, rel=1e-12)

    def test_unit_mean_flat_weights(self):
        n_modes, reps = 256, 2000
        grid = default_grid(n_modes)
        vals = one_weight(draw_alphas(7, reps, n_modes), 1.0, 0.0, 0.0, 0.0, 0.0, grid)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - 1.0) <= 3.0 * se
        # normalization holds for the mean-free field as well
        dropped = one_weight(
            draw_alphas(7, reps, n_modes), 1.0, 0.0, 0.0, 0.0, 0.0, grid, drop_mean=True
        )
        se_d = dropped.std(ddof=1) / math.sqrt(reps)
        assert abs(dropped.mean() - 1.0) <= 3.0 * se_d

    def test_beta_mean_with_weights(self):
        n_modes, reps = 256, 2000
        grid = default_grid(n_modes)
        vals = one_weight(
            draw_alphas(8, reps, n_modes), 1.0, 0.5, 0.5, 0.0, 0.0, grid
        )
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - math.pi / 8.0) <= 3.0 * se

    def test_grid_too_coarse(self):
        s = make_sample(np.zeros(17))
        with pytest.raises(GridError):
            gmc_integral(s, 1.0, 0.0, 0.0, 0.0, 0.0, QuadGrid(32))
        # the grid is checked before the weight's own parameters
        with pytest.raises(GridError, match=re.escape("m_cells=32 < 4*n_modes=64")):
            cell_weights(QuadGrid(32), 16, -2.0, 0.0, t=1.0)
        with pytest.raises(GridError, match=re.escape("m_cells=32 < 4*n_modes=64")):
            gmc_integral_batch(np.zeros((1, 17)), 1.0, np.ones((1, 32)), QuadGrid(32))

    def test_odd_cell_count_is_refused(self):
        # the transform runs on pairs of cells; 1505 >= 4 * 301 but is odd
        with pytest.raises(GridError, match="m_cells=1505 is odd"):
            QuadGrid(1505)
        assert QuadGrid(1506).m_cells == 1506

    def test_weight_domain(self):
        s = make_sample(np.zeros(5))
        with pytest.raises(DomainError):
            gmc_integral(s, 1.0, -1.5, 0.0, 0.0, 0.0, default_grid(4))
        for t, chi in ((0.5, 0.0), (math.nan, 0.0), (-math.inf, 0.0), (0.0, math.inf),
                       (-0.5, math.nan), (-1.0, 1e300)):
            with pytest.raises(DomainError):
                cell_weights(default_grid(4), 4, 0.0, 0.0, t, chi)
        # (x-t)^chi overflows near 0, where the x^1000 masses underflow: a weight is 0 * inf
        with pytest.raises(DomainError, match=re.escape("t=0.0, chi=-400.0")):
            cell_weights(default_grid(4), 4, 1000.0, 0.0, 0.0, -400.0)
        for eta in (math.nan, 0.0, -0.5, 1.5, math.inf):
            with pytest.raises(DomainError):
                cell_weights(default_grid(4), 4, 0.0, 0.0, eta=eta)
        # from about 1e16 on the incomplete Beta's continued fraction is not finite
        for a, b in ((math.inf, 0.0), (0.0, math.nan), (1e300, 0.0), (0.0, 1e300)):
            with pytest.raises(DomainError):
                cell_weights(default_grid(4), 4, a, b)

    def test_eta_truncation_zero_field(self):
        n_modes = 16
        grid = default_grid(n_modes)
        s = make_sample(np.zeros(n_modes + 1))
        full = gmc_integral(s, 1.0, 0.0, 0.0, 0.0, 0.0, grid, eta=1.0)
        half = gmc_integral(s, 1.0, 0.0, 0.0, 0.0, 0.0, grid, eta=0.5)
        assert half < full
        # with gamma -> 0 normalization the mass of [0, eta] is just eta
        tiny = gmc_integral(s, 1e-8, 0.0, 0.0, 0.0, 0.0, grid, eta=0.5)
        assert tiny == pytest.approx(0.5, rel=1e-9)

    def test_insertion_weight_mass(self):
        # zero coupling: integral reduces to int (x-t)^chi x^a (1-x)^b dx
        n_modes = 16
        grid = default_grid(n_modes)
        s = make_sample(np.zeros(n_modes + 1))
        got = gmc_integral(s, 1e-9, 0.3, -0.2, -0.7, 1.0, grid)
        xs = np.linspace(0.0, 1.0, 200_001)[1:-1]
        f = (xs + 0.7) * xs**0.3 * (1.0 - xs) ** (-0.2)
        want = float(np.trapezoid(f, xs))
        assert got == pytest.approx(want, rel=1e-4)


class TestStreamedBatch:
    @pytest.mark.parametrize("n_modes,m_cells", [(512, 4096), (300, 1500)])
    def test_matches_full_chunk_reference(self, n_modes, m_cells):
        from gmcint.field import _block_rows

        grid = QuadGrid(m_cells)
        block = _block_rows(m_cells)
        alphas = draw_alphas(41, block + block // 2 + 1, n_modes)  # a partial last block
        settings = itertools.product(
            (0.3, 1.0, 1.9),  # gamma
            ((0.0, 0.0), (0.5, -0.3)),  # a, b
            ((0.0, 0.0), (-0.5, 0.25), (-1e-6, -0.5)),  # t, chi
            (False, True),  # drop_mean
            (1.0, 0.6),  # eta
        )
        for gamma, (a, b), (t, chi), drop_mean, eta in settings:
            args = (alphas, gamma, a, b, t, chi, grid, drop_mean, eta)
            got = one_weight(*args)
            want = gmc_integral_batch_full_chunk(*args)
            rel = float(np.max(np.abs(got - want) / want))
            assert rel <= 4e-15, (gamma, a, b, t, chi, drop_mean, eta, rel)

    def test_rows_do_not_depend_on_the_split(self):
        n_modes = 1024
        grid = default_grid(n_modes)
        alphas = draw_alphas(17, 128, n_modes)
        args = (1.3, 0.2, 0.1, -0.5, 0.25, grid)
        whole = one_weight(alphas, *args)
        for size in (1, 7, 120):
            parts = [one_weight(alphas[i : i + size], *args)
                     for i in range(0, len(alphas), size)]
            np.testing.assert_array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("drop_mean", [False, True])
    def test_weight_columns_equal_lone_weights(self, drop_mean):
        from gmcint.field import _block_rows

        n_modes = 300
        grid = QuadGrid(2048)
        block = _block_rows(grid.m_cells)
        alphas = draw_alphas(43, block + 5, n_modes)  # a partial last block
        settings = [(0.0, 0.0, 0.0, 0.0, 1.0), (0.5, -0.3, -0.5, 0.25, 1.0),
                    (0.2, 0.1, -1e-6, 1.0, 0.6), (-0.6, 0.0, 0.0, 0.0, 0.6)]
        weights = np.stack([cell_weights(grid, n_modes, *w) for w in settings])
        together = gmc_integral_batch(alphas, 1.3, weights, grid, drop_mean)
        assert together.shape == (len(alphas), len(settings))
        for j, w in enumerate(settings):
            np.testing.assert_array_equal(together[:, j],
                                          one_weight(alphas, 1.3, *w[:4], grid, drop_mean, w[4]))

    def test_weights_do_not_alias_the_cache(self):
        grid = default_grid(4)
        weights = cell_weights(grid, 4, 0.25, 0.5)
        want = weights.copy()
        weights *= 2.0
        np.testing.assert_array_equal(cell_weights(grid, 4, 0.25, 0.5), want)

    def test_peak_memory_of_a_chunk_is_bounded(self):
        n_modes = 4096
        grid = default_grid(n_modes)
        alphas = draw_alphas(3, 128, n_modes)
        weights = cell_weights(grid, n_modes, 0.0, 0.0)[None]
        gmc_integral_batch(alphas[:1], 1.0, weights, grid)  # fill the layout caches
        tracemalloc.start()
        try:
            gmc_integral_batch(alphas, 1.0, weights, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6  # the full-chunk pipeline peaks at about 100 MB


class TestCovariance:
    def test_truncated_covariance_and_log_kernel(self):
        n_modes, reps = 2**10, 100_000
        x, y = 0.3, 0.55
        sx = 2.0 * x - 1.0
        sy = 2.0 * y - 1.0
        # closed truncated covariance via the recurrence
        tx, ty = np.ones(n_modes + 1), np.ones(n_modes + 1)
        tx[1], ty[1] = sx, sy
        for n in range(2, n_modes + 1):
            tx[n] = 2.0 * sx * tx[n - 1] - tx[n - 2]
            ty[n] = 2.0 * sy * ty[n - 1] - ty[n - 2]
        ns = np.arange(1, n_modes + 1)
        closed = 4.0 * math.log(2.0) + float(np.sum(4.0 / ns * tx[1:] * ty[1:]))
        # weights of X(x), X(y) in the coefficient vector
        wx = np.concatenate(([TWO_SQRT_LN2], 2.0 / np.sqrt(ns) * tx[1:]))
        wy = np.concatenate(([TWO_SQRT_LN2], 2.0 / np.sqrt(ns) * ty[1:]))
        acc = 0.0
        acc_sq = 0.0
        chunk = 10_000
        for start in range(0, reps, chunk):
            alphas = np.empty((chunk, n_modes + 1))
            bit_generator = np.random.Philox(0)  # re-keyed per replicate: the same streams
            for r, row in enumerate(alphas, start):
                replicate_rng(99, r, bit_generator).standard_normal(out=row)
            prods = (alphas @ wx) * (alphas @ wy)
            acc += prods.sum()
            acc_sq += (prods**2).sum()
        mean = acc / reps
        se = math.sqrt((acc_sq / reps - mean**2) / reps)
        assert abs(mean - closed) <= 4.0 * se
        # and the truncated kernel is already close to the log kernel
        assert abs(closed - 2.0 * math.log(1.0 / abs(x - y))) <= 0.05


class TestGlobalModeFactorization:
    def test_drop_mean_times_lognormal_matches_full(self):
        gamma, n_modes, reps = 1.0, 2**9, 10_000
        grid = default_grid(n_modes)
        dropped = one_weight(
            draw_alphas(1111, reps, n_modes), gamma, 0.0, 0.0, 0.0, 0.0, grid,
            drop_mean=True,
        )
        z = np.random.Generator(np.random.Philox(key=98765)).standard_normal(reps)
        factor = np.exp(gamma * math.sqrt(math.log(2.0)) * z - gamma**2 * math.log(2.0) / 2.0)
        full = one_weight(
            draw_alphas(2222, reps, n_modes), gamma, 0.0, 0.0, 0.0, 0.0, grid,
            drop_mean=False,
        )
        res = ks_2samp(dropped * factor, full)
        assert res.pvalue > 0.01


class TestYGamma:
    def test_plugin_value(self):
        class UnitExp:
            def standard_exponential(self):
                return 1.0

        val = sample_y_gamma(1.0, UnitExp())
        assert val == pytest.approx(1.0 / math.gamma(0.75), rel=1e-14)

    def test_negative_moment(self):
        rng = replicate_stream(31337, 0)
        draws = rng.standard_exponential(200_000)
        ys = draws ** (-0.25) / math.gamma(0.75)
        inv = 1.0 / ys
        se = inv.std(ddof=1) / math.sqrt(len(inv))
        want = math.gamma(1.25) * math.gamma(0.75)
        assert abs(inv.mean() - want) <= 3.0 * se

    def test_lower_tail_envelope(self):
        # P(Y <= eps) = exp(-(eps Gamma(3/4))^-4) exactly; fit c from two
        # resolvable eps and check the deep point sits under the envelope
        rng = replicate_stream(424242, 0)
        draws = rng.standard_exponential(100_000)
        ys = draws ** (-0.25) / math.gamma(0.75)
        eps_pair = (0.55, 0.65)
        logp = [math.log(np.mean(ys <= e)) for e in eps_pair]
        c = (logp[1] - logp[0]) / (eps_pair[0] ** -4 - eps_pair[1] ** -4)
        assert c > 0.0
        frac = np.mean(ys <= 0.3)
        bound = math.exp(-c * 0.3**-4)
        assert (math.log(frac) if frac > 0 else -math.inf) <= math.log(bound)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_y_gamma(2.0, replicate_stream(1, 0))
