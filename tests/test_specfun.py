import math
import pickle
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import (
    beta22_log_from_values,
    beta22_log_moment,
    gamma_fn,
    lanczos_lgamma,
    reduce_into_window,
)
from gmcint import exactlaw, quadrature, specfun
from gmcint.errors import (
    ConvergenceError,
    DegenerateCError,
    DomainError,
    PoleError,
)
from gmcint.specfun import (
    Beta22Params,
    DoubleGamma,
    HypTriple,
    _hyp2f1_series,
    barnes_g,
    beta22_args,
    connection_coeffs,
    double_gamma_evaluator,
    gammaln_signed,
    hyp2f1_negative,
    log_double_gamma,
)

SQRT_PI = math.sqrt(math.pi)
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# ln of the double gamma function from the 40-digit integral oracle
# (_oracles.ln_dgamma), frozen.  Per gamma: x = np.linspace(0.05, q, 5)
# across the base window, then x = 0.02 (lifted), 7.3 and 40 (reduced).
ORACLE_GRID = {
    0.3: (
        5.1489579547072198945, -3.0142733017143037426, 0.057798324215180641855,
        3.5472563706070647098, 4.7432468603386789671,
        6.4989913584242657385, 4.4389551030590116667, -1398.3747784843071284,
    ),
    0.5: (
        3.6899748623406724687, -0.83195856783411585621, 0.03491384158237120128,
        1.6157649387584235954, 2.8455997125690913204,
        4.7876251601864816303, -0.2098397852335538678, -1527.7993006322166305,
    ),
    1.0: (
        2.4236861559831577286, -0.10178636333124134335, 0.01832873491027400475,
        0.62547738920011449019, 1.3270785762812487115,
        3.3748530116820676558, -4.8927161276795569423, -1618.6063002980567412,
    ),
    1.5: (
        2.1332076598035082677, -0.0038718306973647621102, 0.013919301444782139069,
        0.43948729181163732195, 0.98508628251473372261,
        3.0542683428584383223, -6.1752693894433421261, -1640.5214740063803848,
    ),
    1.9: (
        2.0786150136378710146, 0.012300338581867464582, 0.01301430965339761253,
        0.40592824334084996501, 0.92101425508219028371,
        2.9941259435241141028, -6.4309265378353600633, -1644.7790079483666728,
    ),
    2.0: (
        2.0768454616689470002, 0.012813606917891148481, 0.012984427846131525468,
        0.4048476024426259349, 0.91893853320467274178,
        2.9921770869363055492, -6.4393028337105482122, -1644.9179111950543323,
    ),
}

# The same oracle at the window quadrature's edge cases, frozen.  Per gamma:
# x = 0.05 (the window floor, where the integrand decays slowest), x = 0.999
# and 1.001 (either side of 1, where its slowest exponential changes from
# e^{-xt} to e^{-t}) and x = q/2 (where the numerator changes sign).
LADDER_EDGE_GRID = {
    0.1: (-14.793260319678553927, -44.518697811330099512, -44.547655732966383368,
          6.3006972798584299418e-15),
    1.0: (2.4236861559831575086, -0.1345548656770864937, -0.13390465018833744293, 0.0),
    1.99: (2.0768623536362524895, -0.00050548413170719544343,
           0.00049449850878910384631, 4.318226735186358067e-18),
}

# The same oracle at small gamma, frozen at x = 0.05, 0.3, 0.999, 1.001, 7.3,
# q/2, 32.9 and q.  The series head covers one ladder panel at gamma = 0.01,
# the least gamma the evaluator accepts, two at 0.02 and three at 0.05.
SMALL_GAMMA_GRID = {
    0.01: (-12776.457053802647327, -12956.355561687825716, -13268.740778620073463,
           -13269.443294342094465, -13931.750503684486997, -1.3316786957088931107e-14,
           -10301.046151200159545, -12722.428635030789915),
    0.02: (-2338.6515350449421825, -2420.464226659360379, -2553.4825447934506744,
           -2553.7683076419379654, -2711.3875100493253393, 1.2472087898932802635e-13,
           -930.55500049183151415, -2314.6487700647614103),
    0.05: (-194.81761959255905272, -223.58569138787853196, -265.01322182435817621,
           -265.09445126114967882, -254.41105400662958325, 5.5311272394005635885e-15,
           0.26794091283140249509, -187.43791557328454949),
}

# The same oracle near the top of the window at small gamma, where the
# series head's powers (-x)^j are largest, frozen as (gamma, x, ln G).
TOP_OF_WINDOW = (
    (0.013122045467431637, 107.74247411453926, -2.099596658141237448746),
    (0.022594597786155107, 65.80065453251133, -1.344807396462590727818),
)


# ln G(a) - ln G(b) by the same oracle, frozen as (gamma, a, b, value): pairs that
# step jointly to below Stirling's reach, where `_lgamma_diff` subtracts two
# math.lgamma values (at gamma 1, (57, 6) steps to (55, 4), where z = 8)
LGAMMA_DIFF_BELOW_STIRLING = (
    (1.0, 57.0, 6.0, -3916.431130831410046927),
    (0.5, 57.0, 5.5, -3771.469537203054178508),
    (1.5, 57.0, 3.0, -3953.957871253814826762),
    (1.0, 6.0, 57.0, 3916.431130831410046927),
)

# ln G past the reach x_asym of the asymptotic series, frozen as gamma: (x0,
# ln G(x0), ln G(1e4), ln G(1e8)), x0 = 1.01 x_asym.  ln G(x0) is the 40-digit
# integral oracle (_oracles.ln_dgamma); the others add to it the 40-digit
# difference of 40-term series from x0 (_oracles.dgamma_series_diff), which
# meets both shift equations at x = 1e4 to 1e-32.  The integral oracle alone
# is off at the larger x: its quadrature starts at t = 1e-20 and so drops
# about x^3/6 * 1e-20 (1667 at x = 1e8), and at gamma 0.05 it also reads
# 1.7e-5 high at x = 1e4.
LONE_PAST_SERIES_REACH = {
    0.01: (1446.7184327053285, -5166804.258117054606684, -377342187.1115967775248,
           -84603229508665635.21014),
    0.05: (289.3436865410657, -148278.3768851382537138, -383875247.7117561990962,
           -84603368856627042.35452),
    0.3: (56.11111111111111, -3414.832225429634275858, -385237218.5321805742608,
          -84603397782213212.59693),
    1.0: (56.11111111111111, -3768.418816329224059671, -385414394.629335759892,
          -84603401542176745.21644),
    2.0: (56.11111111111111, -3810.244795558591731957, -385434918.8673017195575,
          -84603401977693760.47535),
}

# The same oracle at a seeded sample of the CLI's domain, frozen: gamma
# log-uniform in [0.01, 2], then x log-uniform in [0.01, 300], drawn from
# default_rng(2017).  Its arguments are lifted by m-steps, lie in the window,
# lie in (q, cap], where they enter the integral unreduced, or lie above the
# cap, where they take n-steps.
CLI_DOMAIN_GRID = (
    -345.8039999232312631217, -15694.22282005585066171, 0.5652345190723334959898,
    -14.01454858831845886674, -2158.265538446326522768, -2623.676446238852120345,
    -18.51854075136383271446, -128.1537156400585794045, -769.6156330398984750636,
    -41524.61794633081185486, -61035.14509531322730048, 1.559217060548451089635,
    -0.1076659310377631747796, 0.2598261110876211849069, -179957.1191416213012825,
    -0.1623680947822456075368, -6.072640525270053990595, -114.1441341786539336351,
    -45.71677464094403945866, -0.2915674734940566917193, 3.163548099292064212504,
    6.792711367213557817095, -2.684499116810121786227, -617.661208197440285652,
    5.756693494383869626299, -450.5552159675297894586, 2.253989762624487644235,
    -15.88734694760749970265, -6919.717002635712650414, 2.194992640128754468662,
    -196.4655736789441532755, 3.759704689065073106829, 0.06259723614327144107877,
    -37.50051502320288150606, 5.879288933771457161378, 5.809555649581541078209,
    -6973.741113099223461814, -6.309900958104715913049, -0.07210602500958074889924,
    -5422.135490708898743269, -9.182453604004073176539, -21.27795878529529503383,
    -22081.8322378026632673, -186.4109612537902360856, -182.0731746939611971914,
    -106507.106653973922077, 4.057691415543895615899, -1145.561456949809082773,
    -169.7251497875259951935, 3.143053004244516104505, -47.2377983526257153291,
    2.34988218945415682824, -897.4993445949053762908, -0.8981411716077750076824,
    -62.56372368336150319551, -3451.770788525085204226, -12547.20934730164189373,
    -15.60597914488811295793, -59582.5472792031454121, -4109.759248394200902052,
    -16493.1991850224266288, -655.9762119011964206629, -1589.861443540609831919,
    3.706629366069961631038, -14214.14278965267183658, -5451.767417115623819913,
    -3773.442506749608192492, 6.103300122990551336997, -3739.131513836802676199,
    1.471692803265951729498, -3.815709265853739486409, 69.140250662153806888,
    -33.06931215382673411701, 3.476429265733933412145, -24562.61502598756916753,
    -34.77111917097721800576, -3740.618488429123641975, -0.09614156558419878459174,
    -9578.777265674360278879, 0.4606184154157483366535,
)


class TestGammaFn:
    def test_classical_values(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(0.5) == pytest.approx(SQRT_PI, rel=1e-14)
        assert gamma_fn(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0, -3.0 + 1e-13])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            gamma_fn(x)

    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
    @settings(max_examples=60, deadline=None)
    def test_reflection_self_consistency(self, x):
        lhs = gamma_fn(x) * gamma_fn(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_signed_log_matches_negative_branch(self):
        logv, sign = gammaln_signed(-1.5)
        assert sign * math.exp(logv) == pytest.approx(gamma_fn(-1.5), rel=1e-14)
        assert sign == 1.0  # Gamma is positive on (-2, -1)


class TestHyp2f1:
    def test_at_zero(self):
        assert hyp2f1_negative(HypTriple(0.3, 0.7, 1.1), 0.0) == 1.0

    def test_log_case(self):
        # F(1, 1, 2, t) = -ln(1-t)/t
        val = hyp2f1_negative(HypTriple(1.0, 1.0, 2.0), -1.0)
        assert val == pytest.approx(math.log(2.0), rel=1e-14)

    def test_pfaff_value(self):
        # independently computed with mpmath at 40 digits
        val = hyp2f1_negative(HypTriple(0.3, 0.7, 1.1), -0.5)
        assert val == pytest.approx(0.92351779345376209751, rel=1e-14)

    @pytest.mark.parametrize("t", [-0.5, -0.49, -0.3, -0.1, -0.02])
    def test_pfaff_agrees_with_raw_series(self, t):
        # the defining series still converges on [-0.5, 0)
        a, b, c = 0.3, 0.7, 1.1
        raw = _hyp2f1_series(a, b, c, t)
        via_pfaff = (1.0 - t) ** (-a) * _hyp2f1_series(a, c - b, c, t / (t - 1.0))
        assert via_pfaff == pytest.approx(raw, rel=1e-12)

    def test_degenerate_c(self):
        with pytest.raises(DegenerateCError):
            HypTriple(0.3, 0.7, 0.0)
        with pytest.raises(DegenerateCError):
            HypTriple(0.3, 0.7, -2.0)

    def test_positive_argument_rejected(self):
        # a nan t would otherwise run the whole term cap before failing to converge
        for t in (0.5, -math.inf, math.nan):
            with pytest.raises(DomainError):
                hyp2f1_negative(HypTriple(0.3, 0.7, 1.1), t)

    def test_term_cap(self):
        # mapped argument 1 - 1e-12 needs ~1e12 terms
        with pytest.raises(ConvergenceError):
            hyp2f1_negative(HypTriple(0.5, 0.3, 1.1), -1e12)


class TestDoubleGamma:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 2.0])
    def test_normalization_at_half_q(self, gamma):
        ev = double_gamma_evaluator(gamma)
        assert abs(ev.log_value(ev.q / 2.0)) <= 1e-11

    @pytest.mark.parametrize(
        "gamma,x,expected",
        [
            # frozen from the defining integral evaluated with mpmath (40 digits)
            (1.0, 0.7, -0.12264332021699195182),
            (1.0, 1.9, 0.63972783296004048572),
            (0.5, 3.1, 1.4687650916574278569),
            (1.5, 0.3, 0.40593334245962007297),
            (1.0, 7.3, -4.892716127679557797),  # above q: shift-reduced
            (1.7, 0.02, 3.0118162461361911902),  # below the window floor
        ],
    )
    def test_frozen_values(self, gamma, x, expected):
        assert log_double_gamma(gamma, x) == pytest.approx(expected, rel=1e-11, abs=1e-12)

    def test_shift_relation_instance(self):
        # ratio at x=0.7 equals Gamma(gamma x/2) (gamma/2)^(-gamma x/2 + 1/2)/sqrt(2 pi)
        g, x = 1.0, 0.7
        lhs = math.exp(log_double_gamma(g, x) - log_double_gamma(g, x + g / 2.0))
        rhs = gamma_fn(g * x / 2.0) * (g / 2.0) ** (-g * x / 2.0 + 0.5) / math.sqrt(2 * math.pi)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
    def test_both_shift_equations_on_grid(self, gamma):
        ev = double_gamma_evaluator(gamma)
        for x in np.linspace(0.1, 5.0, 12):
            lhs = math.exp(ev.log_value(x) - ev.log_value(x + gamma / 2.0))
            rhs = gamma_fn(gamma * x / 2.0) * (gamma / 2.0) ** (
                -gamma * x / 2.0 + 0.5
            ) / math.sqrt(2 * math.pi)
            assert lhs == pytest.approx(rhs, rel=1e-9)
            lhs2 = math.exp(ev.log_value(x) - ev.log_value(x + 2.0 / gamma))
            rhs2 = gamma_fn(2.0 * x / gamma) * (gamma / 2.0) ** (
                2.0 * x / gamma - 0.5
            ) / math.sqrt(2 * math.pi)
            assert lhs2 == pytest.approx(rhs2, rel=1e-9)

    def test_against_integral_oracle(self):
        oracles = pytest.importorskip("_oracles", reason="mpmath oracle")
        for g, x in [(1.3, 0.9), (0.8, 2.2)]:
            ref = float(oracles.ln_dgamma(g, x))
            assert log_double_gamma(g, x) == pytest.approx(ref, rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("gamma", sorted(ORACLE_GRID))
    def test_oracle_grid(self, gamma):
        ev = DoubleGamma(gamma)
        xs = np.concatenate((np.linspace(0.05, ev.q, 5), [0.02, 7.3, 40.0]))
        refs = np.array(ORACLE_GRID[gamma])
        assert np.all(np.abs(ev.log_value(xs) - refs) <= 2e-13 * np.maximum(1.0, np.abs(refs)))

    @pytest.mark.parametrize("gamma", sorted(LADDER_EDGE_GRID))
    def test_ladder_edge_cases_against_oracle(self, gamma):
        ev = DoubleGamma(gamma)
        xs = np.array([0.05, 0.999, 1.001, ev.q / 2.0])
        refs = np.array(LADDER_EDGE_GRID[gamma])
        assert np.all(np.abs(ev.log_value(xs) - refs) <= 2e-13 * np.maximum(1.0, np.abs(refs)))

    @pytest.mark.parametrize("gamma", sorted(SMALL_GAMMA_GRID))
    def test_small_gamma_against_oracle(self, gamma):
        ev = DoubleGamma(gamma)
        assert ev._head_panels == {0.01: 1, 0.02: 2, 0.05: 3}[gamma]
        xs = np.array([0.05, 0.3, 0.999, 1.001, 7.3, ev.q / 2.0, 32.9, ev.q])
        refs = np.array(SMALL_GAMMA_GRID[gamma])
        assert np.all(np.abs(ev.log_value(xs) - refs) <= 2e-13 * np.maximum(1.0, np.abs(refs)))

    @pytest.mark.parametrize("gamma,x,expected", TOP_OF_WINDOW)
    def test_top_of_window_against_oracle(self, gamma, x, expected):
        assert abs(DoubleGamma(gamma).log_value(x) - expected) <= 3e-13 * max(1.0, abs(expected))

    @pytest.mark.parametrize("gamma", sorted(LONE_PAST_SERIES_REACH))
    def test_lone_values_past_the_series_reach_against_oracle(self, gamma):
        x0, *refs = LONE_PAST_SERIES_REACH[gamma]
        ev = DoubleGamma(gamma)
        assert x0 == 1.01 * ev._x_asym
        refs = np.array(refs)
        values = ev.log_value(np.array([x0, 1e4, 1e8]))
        assert np.all(np.abs(values - refs) <= 2e-13 * np.maximum(1.0, np.abs(refs)))

    def test_lone_values_against_oracle_over_the_cli_domain(self):
        rng = np.random.default_rng(2017)
        gammas = np.exp(rng.uniform(np.log(0.01), np.log(2.0), len(CLI_DOMAIN_GRID)))
        xs = np.exp(rng.uniform(np.log(0.01), np.log(300.0), len(CLI_DOMAIN_GRID)))
        bands = set()
        for gamma, x, ref in zip(gammas.tolist(), xs.tolist(), CLI_DOMAIN_GRID):
            ev = DoubleGamma(gamma)
            bands.add(sum(x > edge for edge in (specfun._X_FLOOR, ev.q, ev._x_cap)))
            assert abs(ev.log_value(x) - ref) <= 2e-13 * max(1.0, abs(ref)), (gamma, x)
        assert bands == {0, 1, 2, 3}  # below the floor, in the window, in (q, cap], above it

    @pytest.mark.parametrize("gamma", [0.01, 0.02, 0.05, 1.0, 2.0])
    def test_head_matrix_matches_toeplitz_sum(self, gamma):
        # one, two and three head panels, then three at the ends of the range
        oracles = pytest.importorskip("_oracles", reason="mpmath oracle")
        ev = DoubleGamma(gamma)
        assert ev._head_panels == {0.01: 1, 0.02: 2}.get(gamma, 3)
        w, v = oracles.dgamma_head_weights(ev.q, float(quadrature.LADDER[ev._head_panels]))
        assert_allclose(ev._head_w, w, rtol=1e-15, atol=0.0)
        assert ev._head_v == v

    @pytest.mark.parametrize("gamma", [0.01, 0.0137, 0.3, 1.0, 2.0])
    def test_half_q_is_exactly_zero(self, gamma):
        # the running product of the head's powers repeats (-q/2)^j exactly there
        ev = DoubleGamma(gamma)
        assert ev.log_value(ev.q / 2.0) == 0.0
        assert DoubleGamma(gamma).log_value(np.array([0.3, ev.q / 2.0, 7.3]))[1] == 0.0

    @pytest.mark.parametrize("gamma", [0.01, 0.3, 1.0, 2.0])
    def test_row_alone_equals_row_in_batches(self, gamma):
        rng = np.random.default_rng(13)
        q = DoubleGamma(gamma).q
        xs = np.concatenate(([0.05, 0.999, 1.001, q / 2.0, q, 0.02, 7.3, 1e3],
                             rng.uniform(0.05, q, 100), np.exp(rng.uniform(-7.0, 7.0, 20))))
        alone = DoubleGamma(gamma)
        for size in (8, 24, 128):
            batch = DoubleGamma(gamma).log_value(xs[:size])
            assert np.array_equal(batch, [alone.log_value(float(x)) for x in xs[:size]])

    @pytest.mark.parametrize("gamma", [0.01, 0.3, 1.0, 2.0])
    def test_lone_value_is_a_one_term_signed_row(self, gamma):
        # one route: below the floor, in the window, in (q, cap], above the cap and at q/2
        ev = DoubleGamma(gamma)
        q, cap = ev.q, ev._x_cap
        assert specfun._X_FLOOR < q < cap
        for x in (0.02, 0.6 * q, 0.5 * (q + cap), 3.0 * cap, 0.5 * q):
            assert ev.log_value(x) == ev.log_value([x], den=[])
        assert ev.log_value(np.array([])).shape == (0,)

    @pytest.mark.parametrize("gamma", [0.01, 0.3, 1.0, 2.0])
    def test_sum_does_not_depend_on_term_order(self, gamma):
        # the evaluator pairs the terms itself, so any order of num or of den gives
        # the same rows; arguments below the floor, near q/2 and above the cap
        ev = DoubleGamma(gamma)
        rng = np.random.default_rng(18)
        q, cap = ev.q, ev._x_cap
        num = np.concatenate(([0.02, 0.5 * q, 3.0 * cap], rng.uniform(0.05, cap, 3)))
        den = np.concatenate(([0.03, 2.0 * cap], rng.uniform(0.05, cap, 2)))
        want = ev.log_value(num, den=den)
        for _ in range(5):
            assert ev.log_value(rng.permutation(num), den=den) == want
            assert ev.log_value(num, den=rng.permutation(den)) == want
        rows = ev.log_value(np.stack((num, num[::-1])), den=np.stack((den[::-1], den)))
        assert rows.tolist() == [want, want]

    def test_num_and_den_shapes(self):
        ev = DoubleGamma(1.0)
        assert ev.log_value([0.7], den=[0.7]) == 0.0
        for num, den in (([0.5], [[0.7]]), ([[0.5], [0.6]], [[0.7]]), (0.5, 0.7), ([], []),
                         (np.ones((2, 0)), np.ones((2, 0)))):
            with pytest.raises(DomainError, match="num and den"):
                ev.log_value(num, den=den)
        with pytest.raises(TypeError):
            ev.log_value([0.5], [1.0])  # den is keyword-only
        assert ev.log_value(np.ones((0, 4)), den=np.ones((0, 4))).shape == (0,)
        # a row of any length: 65 + 64 terms, within the documented bound of its lone values
        rng = np.random.default_rng(21)
        num, den = rng.uniform(0.05, 2.0 * ev.q, 65), rng.uniform(0.05, 2.0 * ev.q, 64)
        v = ev.log_value(num, den=den)
        lone = math.fsum(ev.log_value(num)) - math.fsum(ev.log_value(den))
        assert abs(v - lone) <= 1e-13 / ev.gamma**2 * max(1.0, abs(v))

    @pytest.mark.parametrize("gamma", [0.3, 1.0])
    def test_rows_run_in_slices_of_bounded_terms(self, gamma, monkeypatch):
        # rows of up to 40 terms a side take _BATCH_ROWS // 40 = 3 rows per slice
        rng = np.random.default_rng(22)
        num, den = rng.uniform(0.02, 9.0, (10, 40)), rng.uniform(0.02, 9.0, (10, 31))
        alone = [DoubleGamma(gamma).log_value(n, den=d) for n, d in zip(num, den)]
        sum_rows, slices = specfun.DoubleGamma._sum_rows, []
        monkeypatch.setattr(specfun.DoubleGamma, "_sum_rows",
                            lambda self, n, d: slices.append(len(n)) or sum_rows(self, n, d))
        assert DoubleGamma(gamma).log_value(num, den=den).tolist() == alone
        assert slices == [3, 3, 3, 1]

    def test_window_sweep_passes_every_panel_with_margin(self, monkeypatch):
        # one round, no refinement: every ladder panel of every window x must
        # pass its 32/16-node test, or log_value raises ConvergenceError; a
        # tolerance ten times tighter than the kernel's asserts the margin
        monkeypatch.setattr(quadrature, "_REL_TOL", quadrature._REL_TOL / 10.0)
        # the gamma where the series head gains its second and third panel
        heads = (quadrature.LADDER[2:4] / (specfun._HEAD_REACH * math.pi)).tolist()
        for gamma in np.concatenate((np.geomspace(0.01, 2.0, 97), heads, [0.0100001, 1.999])):
            ev = DoubleGamma(float(gamma))
            xs = np.concatenate((np.linspace(0.05, ev.q, 60), [0.999, 1.001, ev.q / 2.0]))
            assert np.all(np.isfinite(ev.log_value(xs)))

    def test_gamma_below_the_floor_is_refused(self):
        with pytest.raises(DomainError, match=r"gamma in \[0\.01, 2\]"):
            DoubleGamma(0.0099)
        params = exactlaw.GmcParams(0.005, 0.5, 0.0, 0.0)  # the Monte Carlo side still takes it
        for closed_form in (lambda: log_double_gamma(0.005, 1.0),
                            lambda: exactlaw.exact_moment(params),
                            lambda: exactlaw.law_decomposition_log_moment(params),
                            lambda: exactlaw.reflection_boundary_1d(0.005, 1.0)):
            with pytest.raises(DomainError, match="got 0.005"):
                closed_form()

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 1.99])
    def test_window_rows_share_one_ladder_call(self, gamma, monkeypatch):
        # every row runs from the head's end to the top edge, in one integrand call
        xs = np.array([0.05, 0.2, 0.5, 0.999, 1.001, 1.7])
        scalar = [DoubleGamma(gamma).log_value(float(x)) for x in xs]
        shapes = []

        def counted(f, first, stop):
            def g(t):
                shapes.append(t.shape)
                return f(t)

            return quadrature.integrate_panels(g, first, stop)

        monkeypatch.setattr(specfun, "integrate_panels", counted)
        ev = DoubleGamma(gamma)
        assert np.array_equal(ev.log_value(xs), scalar)
        assert np.array_equal(DoubleGamma(gamma).log_value(xs[:2:-1]), scalar[:2:-1])
        assert shapes == 2 * [(1, len(quadrature.LADDER) - 1 - ev._head_panels, 48)]

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 1.9, 2.0])
    def test_batch_matches_scalar_bit_for_bit(self, gamma):
        rng = np.random.default_rng(5)
        xs = np.concatenate((rng.uniform(0.01, 12.0, 30),
                             [0.001, 0.02, 7.3, 40.0, 1e3, 1e5, 1e6, 1e7, 1e8, 5e8]))
        scalar = np.array([DoubleGamma(gamma).log_value(float(x)) for x in xs])
        perm = rng.permutation(len(xs))
        others = rng.uniform(0.01, 50.0, 9)
        batch = DoubleGamma(gamma).log_value(np.concatenate((others, xs[perm])))
        assert np.array_equal(batch[len(others):], scalar[perm])
        table = DoubleGamma(gamma).log_value(xs[perm][::-1].reshape(5, 8))
        assert table.shape == (5, 8)
        assert np.array_equal(table.ravel(), scalar[perm][::-1])

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("x", [1e3, 1e5])
    def test_shift_equations_at_large_x(self, gamma, x):
        ev = DoubleGamma(gamma)
        m, n = gamma / 2.0, 2.0 / gamma
        lv = ev.log_value(x)
        ln_m = math.lgamma(m * x) + (0.5 - m * x) * math.log(m) - LOG_SQRT_2PI
        ln_n = math.lgamma(n * x) + (n * x - 0.5) * math.log(m) - LOG_SQRT_2PI
        assert abs(lv - ev.log_value(x + m) - ln_m) <= 1e-13 * abs(lv)
        assert abs(lv - ev.log_value(x + n) - ln_n) <= 1e-13 * abs(lv)

    @pytest.mark.parametrize("gamma,a,b,expected", LGAMMA_DIFF_BELOW_STIRLING)
    def test_joint_steps_below_stirling_reach_against_oracle(self, gamma, a, b, expected,
                                                             monkeypatch):
        lgamma_diff, below = specfun._lgamma_diff, []

        def spy(z, dz):
            below.append(bool(np.minimum(z, z + dz).min() < specfun._STIRLING_MIN))
            return lgamma_diff(z, dz)

        monkeypatch.setattr(specfun, "_lgamma_diff", spy)
        value = DoubleGamma(gamma).log_value([a], den=[b])
        assert below == [True]  # its math.lgamma branch ran
        assert abs(value - expected) <= 2e-13 * max(1.0, abs(expected))

    def test_joint_steps_below_the_floor_then_lift(self, monkeypatch):
        # seven joint n-steps take 208.77 to 0.0034, below _X_FLOOR, so m-lifts take
        # it on, and their terms add to the pair's joint shift
        gamma, a, b = 0.06705919508335192, 208.77412977930766, 235.55249817894392
        ev = DoubleGamma(gamma)
        lone = ev.log_value(a) - ev.log_value(b)
        lgamma_diff, stepped = specfun._lgamma_diff, []

        def spy(z, dz):
            stepped.append((len(z), (z[0] + dz[0]) / ev._n))
            return lgamma_diff(z, dz)

        monkeypatch.setattr(specfun, "_lgamma_diff", spy)
        value = ev.log_value([a], den=[b])
        [(steps, y)] = stepped  # the joint branch ran once, for this pair
        assert steps == 7 and 0.0 < y < specfun._X_FLOOR
        assert abs(value - lone) <= 1e-13 * max(1.0, abs(lone))

    @pytest.mark.parametrize("gamma", [0.125, 0.25, 0.5, 1.0, 2.0])
    def test_far_pairs_against_shift_equations(self, gamma):
        # pairs (x, x + s), s = m or n, as one signed row: past x_asym both terms are
        # their series difference, below it the pair steps jointly.  gamma, m, n, x and
        # s x are exact doubles, so the reference carries a few ulp of lgamma(s x) and
        # of (s x - 1/2) ln m, which cancel at most twofold
        ev = DoubleGamma(gamma)
        m, n = gamma / 2.0, 2.0 / gamma
        for x in (2.0**k for k in range(6, 21)):
            for s, ref in ((m, math.lgamma(m * x) + (0.5 - m * x) * math.log(m)),
                           (n, math.lgamma(n * x) + (n * x - 0.5) * math.log(m))):
                ref -= LOG_SQRT_2PI
                assert abs(ev.log_value([x], den=[x + s]) - ref) <= 1e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize("gamma", [0.01, 0.05, 0.09])
    def test_n_steps_down_then_m_steps_up(self, gamma):
        # below gamma 0.1, the window route's n-steps take these x into (m, _X_FLOOR) and
        # its m-steps lift them; the package's n-steps end above 13, so it never lifts them
        m, n = gamma / 2.0, 2.0 / gamma
        xs = np.array([y + k * n for y in (1.01 * m, 0.5 * (m + 0.05), 0.0499) for k in (1, 2, 7)])
        ev = DoubleGamma(gamma)
        ys, _ = reduce_into_window(ev, xs.tolist())
        assert specfun._X_FLOOR <= min(ys) and max(ys) < specfun._X_FLOOR + m
        lv = ev.log_value(xs)
        for x, v in zip(xs.tolist(), lv.tolist()):
            for s, ln_s in ((m, math.lgamma(m * x) + (0.5 - m * x) * math.log(m)),
                            (n, math.lgamma(n * x) + (n * x - 0.5) * math.log(m))):
                w = ev.log_value(x + s)
                assert abs(v - w - (ln_s - LOG_SQRT_2PI)) <= 1e-13 * max(abs(v), abs(w))
        alone = DoubleGamma(gamma)
        assert np.array_equal(DoubleGamma(gamma).log_value(xs), [alone.log_value(x) for x in xs])

    def test_huge_argument_is_fast(self):
        # past x_asym a value costs the same at any x, until ln G overflows
        for gamma, x in ((1.0, 1e7), (2.0, 5e8)):
            start = time.perf_counter()
            value = DoubleGamma(gamma).log_value(x)
            assert time.perf_counter() - start < 1.0
            assert math.isfinite(value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                DoubleGamma(1.0).log_value(1e300)  # ln G(x) ~ -x^2/2 ln x overflows

    def test_subnormal_argument(self):
        # lifted by the m-shift, whose lgamma(m x) is -log(m x) down there
        ev = DoubleGamma(1.0)
        assert ev.log_value(1e-320) == pytest.approx(
            -math.log(0.5 * 1e-320) + ev.log_value(0.5) + 0.5 * math.log(0.5) - LOG_SQRT_2PI,
            rel=1e-15,
        )

    def test_reduction_warns_about_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DoubleGamma(1.0).log_value(np.array([1e-320, 0.01, 0.7, 7.3, 1e3]))
            DoubleGamma(0.05).log_value(np.array([1e-3, 45.0, 1e4]))
            # e^{-xt} underflows on the far ladder panels
            DoubleGamma(0.01).log_value(DoubleGamma(0.01).q)

    def test_lgamma_against_oracle(self):
        # the window route's Lanczos lgamma (_oracles.lanczos_lgamma) against 40-digit
        # mpmath over [5e-324, 1e9], with points near the zeros at 1 and 2
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(8)
        z = np.concatenate((np.exp(rng.uniform(math.log(5e-324), math.log(1e9), 300)),
                            1.0 + rng.uniform(-0.05, 0.05, 60), 2.0 + rng.uniform(-0.05, 0.05, 60),
                            rng.uniform(0.0, 20.0, 60), [5e-324, 1e-320, 1.0, 2.0, 1e9]))
        with mp.workdps(40):
            ref = np.array([float(mp.loggamma(mp.mpf(v))) for v in z.tolist()])
        assert np.all(np.abs(lanczos_lgamma(z) - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))

    def test_series_head_uses_exact_bernoulli_numbers(self):
        b = specfun._bernoulli(11)
        assert b[:5] == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
        assert b[6:] == [Fraction(1, 42), 0, Fraction(-1, 30), 0, Fraction(5, 66), 0]
        # u / (1 - e^-u) = sum_k (-1)^k B_k u^k / k!, each coefficient correctly rounded
        assert specfun._INV_H[:7].tolist() == [1.0, 0.5, 1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240]

    def test_caches_are_bounded(self):
        # the per-gamma evaluators are the one cache: an evaluator keeps no values
        ev = DoubleGamma(1.0)
        state = pickle.dumps(vars(ev))
        first = ev.log_value(np.linspace(0.1, 3.0, 20))
        assert pickle.dumps(vars(ev)) == state
        assert np.array_equal(ev.log_value(np.linspace(0.1, 3.0, 20)), first)
        assert double_gamma_evaluator.cache_info().maxsize == specfun._EVALUATORS_KEPT

    def test_domain_errors(self):
        ev = double_gamma_evaluator(1.0)
        with pytest.raises(DomainError):
            ev.log_value(0.0)
        with pytest.raises(DomainError):
            ev.log_value(-1.0)
        with pytest.raises(DomainError):
            DoubleGamma(2.5)
        with pytest.raises(DomainError):
            DoubleGamma(0.0)

    def test_non_finite_value_is_refused_and_not_kept(self, monkeypatch):
        # lone values and signed sums share one route: a row that comes out NaN is
        # refused, naming gamma and the row's arguments, as the CLI's one-line error does
        ev = DoubleGamma(1.0)
        signed = ev._ln_signed
        monkeypatch.setattr(ev, "_ln_signed",
                            lambda y, shift: np.where(y[:, 0] == 0.5, np.nan, signed(y, shift)))
        with pytest.raises(DomainError, match=r"gamma=1\.0, x=\[0\.5, 1\.25\]"):
            ev.log_value(np.array([0.7, 0.5]))
        with pytest.raises(DomainError, match=r"gamma=1\.0, x=\[0\.5, 0\.7\]"):
            ev.log_value([0.5], den=[0.7])
        monkeypatch.undo()
        assert ev.log_value(0.5) == DoubleGamma(1.0).log_value(0.5)

    def test_q_stored_exactly(self):
        ev = DoubleGamma(1.5)
        assert ev.q == 1.5 / 2.0 + 2.0 / 1.5


class TestBarnesG:
    def test_small_integers(self):
        for x, want in [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]:
            assert barnes_g(x) == pytest.approx(want, rel=1e-10)

    def test_recurrence(self):
        # G(x+1) = Gamma(x) G(x)
        for x in np.linspace(0.5, 4.0, 15):
            assert barnes_g(x + 1.0) == pytest.approx(
                gamma_fn(x) * barnes_g(x), rel=1e-10
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            barnes_g(0.0)


class TestBeta22:
    def test_zeroth_moment(self):
        params = Beta22Params(1.0, 2.0, 0.5, 0.5)
        assert beta22_log_moment(params, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_first_moment(self):
        params = Beta22Params(1.0, 2.0, 0.5, 0.5)
        assert beta22_log_moment(params, 1.0) == pytest.approx(
            -0.053986903378115096183, rel=1e-12
        )

    @pytest.mark.parametrize("g,b0,b1,b2,p", [
        (1.0, 2.0, 0.5, 0.5, 1.0), (0.6, 12.0, 3.0, 0.4, -2.5), (1.7, 1.1, -0.3, 0.9, 0.6),
    ])
    def test_signed_sum_matches_eight_values(self, g, b0, b1, b2, p):
        # the one signed integral against each double gamma value on its own
        params = Beta22Params(g, b0, b1, b2)
        num, den = (double_gamma_evaluator(g).log_value(side).tolist()
                    for side in beta22_args(params, p))
        assert beta22_log_moment(params, p) == pytest.approx(beta22_log_from_values(num, den),
                                                             abs=1e-12)

    @given(
        b1=st.floats(min_value=0.05, max_value=1.5),
        b2=st.floats(min_value=0.05, max_value=1.5),
        p=st.floats(min_value=-1.5, max_value=2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_symmetric_in_b1_b2(self, b1, b2, p):
        lhs = beta22_log_moment(Beta22Params(1.0, 2.0, b1, b2), p)
        rhs = beta22_log_moment(Beta22Params(1.0, 2.0, b2, b1), p)
        assert lhs == rhs  # exact: same arguments, commuted sums

    def test_moment_below_minus_b0_rejected(self):
        with pytest.raises(DomainError):
            beta22_log_moment(Beta22Params(1.0, 0.5, 0.1, 0.1), -0.6)

    def test_nonpositive_argument_rejected(self):
        # negative shape is allowed until a double gamma argument crosses zero
        with pytest.raises(DomainError):
            beta22_log_moment(Beta22Params(1.0, 1.0, -1.5, 0.1), 0.3)

    def test_bad_construction(self):
        with pytest.raises(DomainError):
            Beta22Params(2.0, 1.0, 0.1, 0.1)
        with pytest.raises(DomainError):
            Beta22Params(1.0, -1.0, 0.1, 0.1)


class TestConnectionCoeffs:
    def test_linear_in_zero(self):
        assert connection_coeffs(HypTriple(0.3, 0.7, 1.1), 0.0) == (0.0, 0.0)

    def test_first_column(self):
        # matrix entries against direct Gamma-ratio evaluation
        a, b, c = 0.125, -1.925, -0.45
        c1, c2 = connection_coeffs(HypTriple(a, b, c), 1.0)
        m11 = gamma_fn(1 - c) * gamma_fn(a - b + 1) / (gamma_fn(a - c + 1) * gamma_fn(1 - b))
        m21 = gamma_fn(c - 1) * gamma_fn(a - b + 1) / (gamma_fn(a) * gamma_fn(c - b))
        assert c1 == pytest.approx(m11, rel=1e-13)
        assert c2 == pytest.approx(m21, rel=1e-13)

    def test_pole_propagates(self):
        with pytest.raises(PoleError):
            connection_coeffs(HypTriple(0.0, 0.7, 1.1), 1.0)  # Gamma(a=0)
