import math
import re
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import beta22_log_moment, gamma_fn
from gmcint import exactlaw, quadrature, specfun
from gmcint.errors import BoundsError, DegenerateParamsError, DomainError, GmcError
from gmcint.exactlaw import (
    GmcParams,
    ObservableKind,
    ShiftKind,
    bounds_check,
    c_of_p,
    c_of_ps,
    derivative_martingale_moment,
    exact_moment,
    exact_moment_factors,
    hyp_triple,
    law_and_exact_log_moments,
    law_decomposition_log_moment,
    log_exact_moment,
    log_exact_moments,
    log_reflection_boundary_1d,
    log_reflection_bulk_2d,
    predict_observable,
    reflection_boundary_1d,
    reflection_bulk_2d,
    selberg_product,
    shift_ratio,
)
from gmcint.specfun import Beta22Params, barnes_g


def ulp_distance(x: float, y: float) -> int:
    ix = struct.unpack("<q", struct.pack("<d", x))[0]
    iy = struct.unpack("<q", struct.pack("<d", y))[0]
    return abs(ix - iy)


class TestBounds:
    def test_interior_point(self):
        assert bounds_check(GmcParams(1.0, 0.0, 0.0, 0.0))

    def test_p_at_cap_fails(self):
        assert not bounds_check(GmcParams(1.0, 4.0, 0.0, 0.0))

    def test_negative_weight_inside(self):
        assert bounds_check(GmcParams(1.0, -1.0, -1.2, 0.0))

    def test_weight_cap(self):
        assert not bounds_check(GmcParams(1.0, 0.0, -1.25, 0.0))
        assert not bounds_check(GmcParams(1.0, 0.0, 0.0, -1.3))

    def test_insertion_bound_on_p(self):
        # p < 1 + (4/gamma^2)(1+a) = 0.6 binds before p < 4/gamma^2 here
        assert not bounds_check(GmcParams(1.0, 0.7, -1.1, 0.0))
        assert bounds_check(GmcParams(1.0, 0.5, -1.1, 0.0))

    def test_gamma_validated_at_construction(self):
        with pytest.raises(DomainError):
            GmcParams(2.0, 0.0, 0.0, 0.0)


class TestExactMoment:
    def test_zeroth_moment(self):
        assert exact_moment(GmcParams(1.0, 0.0, 0.3, -0.2)) == pytest.approx(1.0, abs=1e-12)

    def test_first_moment_is_beta(self):
        val = exact_moment(GmcParams(1.0, 1.0, 0.5, 0.5))
        assert val == pytest.approx(math.pi / 8.0, rel=1e-12)

    @pytest.mark.parametrize(
        "g,p,a,b",
        [(1.0, 2, 0.0, 0.0), (1.0, 3, 0.2, 0.1), (0.8, 2, 0.3, 0.7), (1.3, 1, 0.7, 0.0)],
    )
    def test_matches_selberg(self, g, p, a, b):
        lhs = exact_moment(GmcParams(g, float(p), a, b))
        rhs = selberg_product(g, p, a, b)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_symmetry_bit_exact(self):
        for (g, p, a, b) in [(1.0, -0.5, 0.2, 0.7), (1.3, 0.8, -0.3, 0.55), (0.7, -1.7, 0.9, 0.1)]:
            lhs = exact_moment(GmcParams(g, p, a, b))
            rhs = exact_moment(GmcParams(g, p, b, a))
            assert ulp_distance(lhs, rhs) <= 1

    def test_bounds_enforced(self):
        with pytest.raises(BoundsError):
            exact_moment(GmcParams(1.0, 4.0, 0.0, 0.0))

    def test_oracle_spot_value(self):
        # frozen from the 40-digit oracle
        val = exact_moment(GmcParams(1.0, -1.0, 0.0, 0.0))
        assert val == pytest.approx(2.3989695504834340331, rel=1e-12)


class TestSelberg:
    def test_empty_product(self):
        assert selberg_product(1.0, 0, 0.3, 0.1) == 1.0

    def test_single_factor_is_beta(self):
        for g in (0.6, 1.0, 1.5):
            val = selberg_product(g, 1, 0.25, 0.4)
            want = gamma_fn(1.25) * gamma_fn(1.4) / gamma_fn(2.65)
            assert val == pytest.approx(want, rel=1e-13)

    def test_frozen_three_factor_value(self):
        assert selberg_product(1.0, 3, 0.2, 0.1) == pytest.approx(
            11.159697790483799146, rel=1e-12
        )

    def test_rejects_fractional_or_negative_p(self):
        with pytest.raises(DomainError):
            selberg_product(1.0, 1.5, 0.0, 0.0)
        with pytest.raises(DomainError):
            selberg_product(1.0, -1, 0.0, 0.0)
        with pytest.raises(DomainError):  # inside the bounds, but one loop step per order
            selberg_product(1e-150, 10**6 + 1, 0.0, 0.0)
        for p in (math.nan, math.inf):
            with pytest.raises(DomainError):
                selberg_product(1.0, p, 0.0, 0.0)


class TestCOfP:
    def test_value_at_zero(self):
        assert c_of_p(1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_recursion(self):
        g, p = 1.0, 0.7
        u = g * g / 4.0
        lhs = c_of_p(g, p) / c_of_p(g, p - 1.0)
        rhs = (
            math.sqrt(2.0 * math.pi)
            * (g / 2.0) ** ((p - 1.0) * u - 0.5)
            * gamma_fn(1.0 - p * u)
            / gamma_fn(1.0 - u)
        )
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_frozen_value(self):
        assert c_of_p(1.2, -0.7) == pytest.approx(0.48967217561834080201, rel=1e-11)

    def test_zero_weight_moment_factorizes(self):
        # moment at a=b=0 equals c_of_p times the weight-free double gamma block
        from gmcint.specfun import double_gamma_evaluator

        g, p = 1.2, -0.7
        m, n = g / 2.0, 2.0 / g
        dg = double_gamma_evaluator(g).log_value
        block = math.exp(
            2.0 * dg(n - (p - 1.0) * m) + dg(2.0 * n - (p - 2.0) * m)
            - 2.0 * dg(n + m) - dg(2.0 * n - (2.0 * p - 2.0) * m)
        )
        lhs = exact_moment(GmcParams(g, p, 0.0, 0.0))
        assert lhs == pytest.approx(c_of_p(g, p) * block, rel=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            c_of_p(1.0, 4.0)


class TestShiftRatio:
    def test_quarter_shift_instance(self):
        val = shift_ratio(GmcParams(1.0, 1.0, 0.2, 0.1), ShiftKind.A_PLUS_GAMMA_SQ_OVER_4)
        want = gamma_fn(1.45) * gamma_fn(2.3) / (gamma_fn(1.2) * gamma_fn(2.55))
        assert val == pytest.approx(want, rel=1e-13)
        assert want == pytest.approx(0.81684507232280013073, rel=1e-13)

    def test_p_shift_at_one_is_beta(self):
        a, b = 0.2, 0.1
        val = shift_ratio(GmcParams(1.0, 1.0, a, b), ShiftKind.P_MINUS_ONE_TO_P)
        want = gamma_fn(a + 1.0) * gamma_fn(b + 1.0) / gamma_fn(a + b + 2.0)
        assert val == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kind", list(ShiftKind))
    def test_closure_against_exact_moment(self, kind):
        params = GmcParams(1.4, -0.5, 0.0, 0.0)
        if kind is ShiftKind.A_PLUS_GAMMA_SQ_OVER_4:
            shifted = GmcParams(1.4, -0.5, 1.4**2 / 4.0, 0.0)
            ratio = exact_moment(shifted) / exact_moment(params)
        elif kind is ShiftKind.A_PLUS_ONE:
            shifted = GmcParams(1.4, -0.5, 1.0, 0.0)
            ratio = exact_moment(shifted) / exact_moment(params)
        else:
            shifted = GmcParams(1.4, -1.5, 0.0, 0.0)
            ratio = exact_moment(params) / exact_moment(shifted)
        assert shift_ratio(params, kind) == pytest.approx(ratio, rel=1e-10)

    def test_bounds_at_shifted_point(self):
        # base point fine, a+1 pushes nothing out of range; p at cap does
        with pytest.raises(BoundsError):
            shift_ratio(GmcParams(1.0, 3.99, -0.9, 0.0), ShiftKind.A_PLUS_ONE)


class TestReflections:
    def test_boundary_positive_and_frozen(self):
        val = reflection_boundary_1d(1.0, 1.5)
        assert val > 0.0
        assert val == pytest.approx(10.488230217168479242, rel=1e-10)

    def test_boundary_domain(self):
        with pytest.raises(DomainError):
            reflection_boundary_1d(1.0, 0.5)
        with pytest.raises(DomainError):
            reflection_boundary_1d(1.0, 2.5)

    def test_bulk_values(self):
        assert reflection_bulk_2d(1.0, 1.8) == pytest.approx(
            28.366072637299113784, rel=1e-10
        )
        assert reflection_bulk_2d(0.8, 1.0) == pytest.approx(
            29596.478920367047675, rel=1e-10
        )
        assert reflection_bulk_2d(1.0, 1.8) > 0.0

    def test_bulk_log_past_overflow(self):
        # the value is exp of the log, whose finite log stands where the value overflows
        assert reflection_bulk_2d(0.8, 1.0) == math.exp(log_reflection_bulk_2d(0.8, 1.0))
        # 40-digit value of the same formula
        assert log_reflection_bulk_2d(0.001, 1.0) == pytest.approx(8576628.6566524866598,
                                                                   rel=1e-13)
        with pytest.raises(DomainError, match="overflows"):
            reflection_bulk_2d(0.001, 1.0)
        # s lgamma(gamma^2/4) overflows, lgamma(s) does not
        with pytest.raises(DomainError, match="no finite log"):
            log_reflection_bulk_2d(2.664757102872435e-153, 4.101431564532179e152)

    def test_moment_blowup_limit(self):
        # eps * moment(p - eps) -> p * tail constant, Richardson-extrapolated
        g, alpha = 1.0, 1.5
        q = g / 2.0 + 2.0 / g
        p = 2.0 * (q - alpha) / g
        a = -g * alpha / 2.0

        def f(eps):
            return eps * exact_moment(GmcParams(g, p - eps, a, 0.0))

        eps = 1e-6
        limit = 2.0 * f(eps) - f(2.0 * eps)
        assert limit == pytest.approx(p * reflection_boundary_1d(g, alpha), rel=1e-7)


class TestLawDecomposition:
    def test_zero_moment(self):
        assert law_decomposition_log_moment(GmcParams(1.0, 0.0, 0.2, 0.1)) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize(
        "g,p,a,b",
        [(1.0, -0.5, 0.2, 0.1), (1.2, -0.8, 0.1, 0.4), (0.7, 0.6, -0.3, 0.5)],
    )
    def test_matches_exact_moment(self, g, p, a, b):
        params = GmcParams(g, p, a, b)
        assert law_decomposition_log_moment(params) == pytest.approx(
            log_exact_moment(params), abs=1e-10
        )

    @pytest.mark.parametrize(
        "g,p,a,b",
        [(1.0, -0.5, 0.2, 0.1), (1.2, -0.8, 0.1, 0.4), (0.7, 0.6, -0.3, 0.5), (1.9, 0.2, 0.0, 0.0)],
    )
    def test_one_batch_equals_three_beta_moments(self, g, p, a, b):
        # the five-law product with one beta22_log_moment call per beta law
        v = 4.0 / (g * g)
        ln_const = (math.log(2.0 * math.pi)
                    - (3.0 * (1.0 + g * g / 4.0) + 2.0 * (a + b)) * math.log(2.0))
        ln_l = p * p * g * g * math.log(2.0) / 2.0
        ln_y = math.lgamma(1.0 - p * g * g / 4.0) - p * math.lgamma(1.0 - g * g / 4.0)
        x1 = Beta22Params(g, 1.0 + v * (1.0 + a), (b - a) * v / 2.0, (b - a) * v / 2.0)
        x2 = Beta22Params(g, 1.0 + v * (2.0 + a + b) / 2.0, 0.5, v / 2.0)
        x3 = Beta22Params(g, 1.0 + v, 0.5 + v * (1.0 + a + b) / 2.0, 0.5 + v * (1.0 + a + b) / 2.0)
        want = (
            p * ln_const
            + ln_l
            + ln_y
            + beta22_log_moment(x1, -p)
            + beta22_log_moment(x2, -p)
            + beta22_log_moment(x3, -p)
        )
        assert law_decomposition_log_moment(GmcParams(g, p, a, b)) == want

    def test_lognormal_factor(self):
        # the constant-mode factor contributes p^2 gamma^2 ln2 / 2 in log
        g, p = 1.3, -0.7
        base = law_decomposition_log_moment(GmcParams(g, p, 0.0, 0.0))
        assert math.isfinite(base)
        assert p * p * g * g * math.log(2.0) / 2.0 == pytest.approx(
            0.7**2 * 1.3**2 * math.log(2.0) / 2.0
        )


class TestDerivativeMartingale:
    def test_zeroth(self):
        assert derivative_martingale_moment(0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [-1.5, -1.0, -0.5, 0.0, 0.5])
    def test_two_forms_agree(self, p):
        val = derivative_martingale_moment(p)
        barnes = barnes_g(4.0 - 2.0 * p) / (
            barnes_g(1.0 - p) * barnes_g(2.0 - p) ** 2 * barnes_g(4.0 - p)
        )
        assert val == pytest.approx(barnes, rel=1e-9)

    def test_frozen_value(self):
        assert derivative_martingale_moment(-0.5) == pytest.approx(
            2.9858048325103754115, rel=1e-10
        )
        assert derivative_martingale_moment(-1.0) == pytest.approx(24.0, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            derivative_martingale_moment(1.0)


BASE = GmcParams(1.0, -0.5, 0.2, 0.1)


class TestPredictObservable:
    def test_limit_at_zero(self):
        for kind, shift in [(ObservableKind.POWER_GAMMA_SQ_OVER_4, 0.25),
                            (ObservableKind.POWER_ONE, 1.0)]:
            val = predict_observable(BASE, kind, -1e-12)
            want = exact_moment(GmcParams(1.0, -0.5, 0.2 + shift, 0.1))
            assert val == pytest.approx(want, rel=1e-9)

    def test_limit_at_minus_infinity(self):
        for kind in ObservableKind:
            chi = kind.chi(1.0)
            t = -1e6
            val = predict_observable(BASE, kind, t)
            ratio = val / abs(t) ** (BASE.p * chi)
            assert ratio == pytest.approx(exact_moment(BASE), rel=1e-3)

    @pytest.mark.parametrize(
        "kind,t,expected",
        [
            (ObservableKind.POWER_GAMMA_SQ_OVER_4, -0.1, 1.7472003413817458314),
            (ObservableKind.POWER_GAMMA_SQ_OVER_4, -0.5, 1.6247213682678735074),
            (ObservableKind.POWER_GAMMA_SQ_OVER_4, -2.0, 1.4450777364712640826),
            (ObservableKind.POWER_ONE, -0.1, 2.1075126091180173493),
            (ObservableKind.POWER_ONE, -0.5, 1.6190138657648513541),
            (ObservableKind.POWER_ONE, -2.0, 1.0227923127553285567),
        ],
    )
    def test_frozen_values(self, kind, t, expected):
        assert predict_observable(BASE, kind, t) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "params,t,expected",
        [
            # _oracles.exact_moment times _oracles.observable_tail, kind one
            (GmcParams(0.8, 1.2, -0.4, 0.0), -30.0, 118.82412623535389689),
            (GmcParams(0.8, -1.5, -0.4, 0.3), -2.0, 0.49009413488923021034),
            (GmcParams(0.3, -0.5, 0.0, -0.4), -0.5, 0.75219652374215164318),
        ],
    )
    def test_points_where_the_basis_at_zero_cancels(self, params, t, expected):
        assert predict_observable(params, ObservableKind.POWER_ONE, t) == pytest.approx(
            expected, rel=1e-12
        )

    def test_against_oracle_over_the_domain(self):
        """Seeded points inside the bounds: each value within 1e-10 of the oracle, or refused."""
        rng = np.random.default_rng(1804)
        points = []
        while len(points) < 100:
            g, p = rng.uniform(0.1, 1.95), rng.uniform(-3.0, 3.0)
            a, b = rng.uniform(-1.4, 3.0, 2).tolist()
            kind = list(ObservableKind)[rng.integers(2)]
            params = GmcParams(g, p, a, b)
            if bounds_check(params) and bounds_check(GmcParams(g, p, a + kind.chi(g), b)):
                points.append((params, kind))
        off = []
        for params, kind in points:
            tri = hyp_triple(params, kind)
            for t in (-np.geomspace(1e-4, 1e3, 16)).tolist():
                try:
                    val = predict_observable(params, kind, t)
                except GmcError:
                    continue
                ref = _oracles.observable_tail(
                    tri.a_param, tri.b_param, tri.c_param, exact_moment(params), t
                )
                if not abs(val - ref) <= 1e-10 * abs(ref):
                    off.append((params, kind.value, t, val, float(ref)))
        assert not off

    @pytest.mark.parametrize("kind", list(ObservableKind))
    def test_finite_and_continuous(self, kind):
        ts = -np.geomspace(1e-4, 100.0, 200)[::-1]
        vals = np.array([predict_observable(BASE, kind, float(t)) for t in ts])
        assert np.all(np.isfinite(vals))
        jumps = np.abs(np.diff(vals)) / np.maximum(np.abs(vals[:-1]), 1e-12)
        assert np.max(jumps) < 0.05

    @pytest.mark.parametrize("t", [-math.inf, math.nan, 0.5])
    def test_t_domain(self, t):
        for kind in ObservableKind:
            with pytest.raises(DomainError):
                predict_observable(BASE, kind, t)

    @pytest.mark.parametrize("params,t", [
        (GmcParams(1.0, 1.2, 0.2, 0.1), -1e300),  # |t|^-a overflows: a = -1.2
        (GmcParams(1.0, 1.2, -0.9, -0.9), -5e256),  # the product overflows to inf
    ])
    def test_overflow_is_a_domain_error(self, params, t):
        with pytest.raises(DomainError, match="not a finite double"):
            predict_observable(params, ObservableKind.POWER_ONE, t)

    def test_generic_guard(self):
        from gmcint.errors import DegenerateCError

        # a - b parameter difference is the integer 2 here
        with pytest.raises(DegenerateParamsError):
            predict_observable(
                GmcParams(1.0, -0.5, 0.2, 0.05), ObservableKind.POWER_GAMMA_SQ_OVER_4, -0.5
            )
        # c hits the exact nonpositive integer -1 when a = 1 - gamma^2/4
        with pytest.raises(DegenerateCError):
            predict_observable(
                GmcParams(1.0, -0.5, 0.75, 0.1), ObservableKind.POWER_GAMMA_SQ_OVER_4, -0.5
            )

    def test_triples(self):
        tri = hyp_triple(BASE, ObservableKind.POWER_GAMMA_SQ_OVER_4)
        assert (tri.a_param, tri.b_param, tri.c_param) == (0.125, -1.925, -0.45)
        tri = hyp_triple(BASE, ObservableKind.POWER_ONE)
        assert tri.a_param == 0.5
        assert tri.b_param == pytest.approx(-10.7)
        assert tri.c_param == pytest.approx(-4.8)


class TestC2Identity:
    @pytest.mark.parametrize("g,p,a", [(1.0, -0.5, 0.3), (1.2, 0.4, 0.2), (0.8, -1.1, 0.25)])
    def test_two_expressions_agree(self, g, p, a):
        from gmcint.verify import _c2_check

        fusion, connection = _c2_check(g, p, a)
        assert fusion == pytest.approx(connection, rel=1e-9)


@st.composite
def valid_params(draw):
    g = draw(st.floats(min_value=0.5, max_value=1.8))
    p = draw(st.floats(min_value=-2.0, max_value=1.0))
    a = draw(st.floats(min_value=-0.5, max_value=1.0))
    b = draw(st.floats(min_value=-0.5, max_value=1.0))
    params = GmcParams(g, p, a, b)
    padded = GmcParams(g, p + 0.05, a - 0.05, b - 0.05)
    if not (bounds_check(params) and bounds_check(padded)):
        # fall back to a known-good interior point rather than rejecting
        return GmcParams(g, min(p, 0.5), abs(a), abs(b))
    return params


@given(valid_params())
@settings(max_examples=15, deadline=None)
def test_shift_closure_property(params):
    shifted = GmcParams(params.gamma, params.p - 1.0, params.a, params.b)
    lhs = math.exp(log_exact_moment(params) - log_exact_moment(shifted))
    assert shift_ratio(params, ShiftKind.P_MINUS_ONE_TO_P) == pytest.approx(lhs, rel=1e-8)


# each closed form that sums double gamma values, called at gamma, and the rows of terms it sums
# (the martingale moment is at gamma 2 whatever gamma is)
_SIGNED_SUMS = [
    ("exact_moment", lambda g: log_exact_moment(GmcParams(g, -1.2, 0.7, 0.05)), 1),
    ("law_decomposition", lambda g: law_decomposition_log_moment(GmcParams(g, 0.6, 0.3, 0.8)), 3),
    ("law_and_exact", lambda g: law_and_exact_log_moments(GmcParams(g, 0.6, 0.3, 0.8))[0], 4),
    ("c_of_p", lambda g: c_of_p(g, -1.4), 1),
    ("c_of_ps", lambda g: c_of_ps(g, [-1.4, -2.4])[0], 2),
    ("reflection_1d", lambda g: reflection_boundary_1d(g, g / 2.0 + 0.3 * 2.0 / g), 1),
    ("martingale", lambda g: derivative_martingale_moment(0.9 - g), 1),  # at gamma 2
]


@pytest.mark.parametrize("gamma", [0.5, 0.83, 1.5])
@pytest.mark.parametrize("fn,rows", [case[1:] for case in _SIGNED_SUMS],
                         ids=[case[0] for case in _SIGNED_SUMS])
def test_one_integral_per_closed_form(monkeypatch, gamma, fn, rows):
    # one integrate_panels call, whose integrand gives one row per row of terms,
    # and no shift reduction: every argument is inside the integral's reach
    panels, shapes, reductions = [], [], []

    def counted_panels(f, first, stop):
        def g(t):
            out = f(t)
            shapes.append(out.shape)
            return out

        panels.append((first, stop))
        return quadrature.integrate_panels(g, first, stop)

    reduce_pairs = specfun.DoubleGamma._reduce_pairs
    monkeypatch.setattr(specfun, "integrate_panels", counted_panels)
    monkeypatch.setattr(specfun.DoubleGamma, "_reduce_pairs",
                        lambda self, x: reductions.append(x) or reduce_pairs(self, x))
    # every closed form enters through log_value, whose spans the benchmark's tracer counts,
    # and reaches it as one form batch of _log_forms
    log_value = specfun.DoubleGamma.log_value
    entries = []
    monkeypatch.setattr(specfun.DoubleGamma, "log_value",
                        lambda self, *args, **kw: entries.append(args) or log_value(self, *args, **kw))
    log_forms, form_batches = exactlaw._log_forms, []
    monkeypatch.setattr(exactlaw, "_log_forms",
                        lambda g, forms: form_batches.append(forms) or log_forms(g, forms))
    specfun.double_gamma_evaluator.cache_clear()
    assert math.isfinite(fn(gamma))
    assert len(entries) == 1
    assert len(form_batches) == 1
    assert panels == [(3, len(quadrature.LADDER) - 1)]
    assert shapes == [(rows, len(quadrature.LADDER) - 4, 48)]
    assert reductions == []


def test_batch_of_moments_equals_lone_moments():
    # 70 seeded points at each of four gammas, three slices of rows each, with p up
    # to its cap and a, b up to 60: arguments below the m-lift floor, between the
    # cap and x_asym (n-steps, gamma < 0.26 only) and past x_asym (the series)
    rng = np.random.default_rng(2101)
    bands = set()
    for g in (0.02, 0.15, 0.7, 1.6):
        u = g * g / 4.0
        ev = specfun.DoubleGamma(g)
        points = []
        while len(points) < 70:
            a, b = (-1.0 - u + np.exp(rng.uniform(math.log(0.01), math.log(60.0), 2))).tolist()
            cap = min(1.0 / u, 1.0 + (1.0 + a) / u, 1.0 + (1.0 + b) / u)
            params = GmcParams(g, cap - math.exp(rng.uniform(math.log(1e-3), math.log(cap + 3.0))),
                               a, b)
            if bounds_check(params):
                points.append(params)
        batch = log_exact_moments(points)
        assert batch.shape == (70,)
        for params, value in zip(points, batch.tolist()):
            # the moment's own formula, as one call of its eight terms
            ln_num, ln_den, args = exact_moment_factors(params)
            direct = (ln_num - ln_den) + ev.log_value(args[:4], den=args[4:])
            assert value == log_exact_moment(params) == direct, params
            bands.update({"lift"} if args.min() < specfun._X_FLOOR else set())
            bands.update({"series"} if args.max() > ev._x_asym else set())
            if np.any((args > ev._x_cap) & (args <= ev._x_asym)):
                bands.add("n-step")
    assert bands == {"lift", "n-step", "series"}


def test_batch_of_moments_refusals():
    assert log_exact_moments([]).shape == (0,)
    with pytest.raises(DomainError, match="one gamma"):
        log_exact_moments([GmcParams(1.0, 0.5, 0.0, 0.0), GmcParams(1.1, 0.5, 0.0, 0.0)])
    outside = GmcParams(1.0, 4.5, 0.0, 0.0)
    with pytest.raises(BoundsError, match=re.escape(str(outside))):
        log_exact_moments([GmcParams(1.0, 0.5, 0.0, 0.0), outside])


def test_batches_of_closed_forms_equal_lone_values():
    # c at 12 seeded p and the law decomposition at 8 seeded points, at each of
    # four gammas; every batch value equals its lone value bit for bit
    rng = np.random.default_rng(2301)
    for g in (0.05, 0.3, 1.0, 1.8):
        u = g * g / 4.0
        ev = specfun.DoubleGamma(g)
        ps = rng.uniform(-30.0, min(1.0 / u, 30.0), 12).tolist()
        for p, c in zip(ps, c_of_ps(g, ps)):
            # the constant's own formula, as one call of its two a,b-free terms
            ln_num, ln_den, args = exact_moment_factors(GmcParams(g, p, 0.0, 0.0))
            direct = math.exp(ln_num - ln_den + ev.log_value(args[3:4], den=args[4:5]))
            assert c == c_of_p(g, p) == direct, (g, p)
        checked = 0
        while checked < 8:
            a, b = rng.uniform(-1.0 - u, 20.0, 2).tolist()
            params = GmcParams(g, rng.uniform(-30.0, 1.0 / u), a, b)
            if not bounds_check(params):
                continue
            assert law_and_exact_log_moments(params) == (
                law_decomposition_log_moment(params), log_exact_moment(params)), params
            checked += 1


def test_batched_closed_form_refusals():
    assert c_of_ps(1.0, []) == []
    with pytest.raises(DomainError, match="p=4.0"):
        c_of_ps(1.0, [0.5, 4.0])
    # t is checked before the parameters
    outside, kind = GmcParams(1.0, 9.0, 0.2, 0.1), ObservableKind.POWER_ONE
    with pytest.raises(BoundsError):
        predict_observable(outside, kind, -1.0)
    with pytest.raises(DomainError, match="got 0.5"):
        predict_observable(outside, kind, 0.5)


# ln M from the 40-digit oracle (_oracles.exact_moment), frozen as (gamma, p, a, b, ln M).
# They cover the benchmark's domain, gamma 1.95, p near 4/gamma^2 and near
# 1 + (4/gamma^2)(1 + a), a or b near -1 - gamma^2/4, where a denominator
# argument falls below specfun._X_FLOOR and is lifted by m-steps, and
# arguments above the cap of the signed sum (55.6 from gamma 0.048 on),
# which step down by n-steps in pairs.  At (1, 3.99, 0, 0), (0.8, 1.62,
# -0.9, 0.3) and (0.6, 0.4, -1.04, 0.5) the sorted pairing of
# `DoubleGamma.log_value` does not pair each numerator argument with the
# denominator one p gamma/2 away.  The last four points have dyadic
# gamma, p, a and b, so that the double gamma arguments are exact doubles;
# elsewhere at small gamma the rounding of the arguments alone moves ln M by
# about psi(x) ulp(x), 1.7e-12 at (0.1, 0.5, 1, 1) (see the next test).
_LN_MOMENT_ORACLE = [
    (0.7, -1.2, 0.3, 0.6, 1.548827912404253793755),
    (1.2, 0.5, 0.75, 0.05, -0.5073362881253983445668),
    (1.45, 0.85, 0.1, 0.4, -0.5579474210640665451848),
    (1.95, 1.05, 0.2, 0.5, 2.58496854637164241082),
    (1.0, 3.99, 0.0, 0.0, 10.65376384191561384632),
    (0.8, 1.62, -0.9, 0.3, 8.415567582047706744534),
    (0.8, -0.5, -1.155, 0.3, -3.815207280368081931756),
    (0.3, -3.0, 0.2, -1.02, -12.64970306499734049579),
    (0.6, 0.4, -1.04, 0.5, 2.276831438172824942072),
    (0.5, -0.5, -1.0546875, 0.25, -3.034817018467565618232),
    (0.0625, -1.5, 0.5, 0.25, 1.047310919306491971949),
    (0.125, 0.5, 1.0, 1.0, -0.8975924061743639315864),
    (0.25, -2.0, 2.5, 3.0, 9.274034057061266928437),
]


@pytest.mark.parametrize("g,p,a,b,ln_m", _LN_MOMENT_ORACLE)
def test_log_moment_against_oracle(g, p, a, b, ln_m):
    assert abs(log_exact_moment(GmcParams(g, p, a, b)) - ln_m) <= 3e-13 * max(1.0, abs(ln_m))


# ln M at n-step points whose double gamma arguments are not exact doubles:
# the 40-digit oracle taken at the package's own double arguments
# (`exact_moment_factors`), frozen as (gamma, p, a, b, ln M).  Against the
# oracle at the exact parameters these points read 1.7e-12 and
# 4.5e-12 * |ln M|, and the eight-value route 9e-14 and 8.3e-12: the
# rounding of the arguments, not the integral.
_LN_MOMENT_AT_DOUBLE_ARGS = [
    (0.1, 0.5, 1.0, 1.0, -0.8969749936493473183862),
    (0.051, -2.0, 3.0, 2.5, 9.091179825941652276747),
]


@pytest.mark.parametrize("g,p,a,b,ln_m", _LN_MOMENT_AT_DOUBLE_ARGS)
def test_log_moment_against_oracle_at_double_arguments(g, p, a, b, ln_m):
    assert abs(log_exact_moment(GmcParams(g, p, a, b)) - ln_m) <= 3e-13 * max(1.0, abs(ln_m))


# Below gamma 0.05 the signed sum is held to the larger of the eight-value
# route's error at the same point and a figure on record (8.1e-11 at gamma
# 0.01, 6e-12 at 0.02).  The signed sum reads 2.39e-11 off at gamma 0.01,
# inside its figure, and 1.72e-11 at 0.02, above its figure: there it passes
# through the eight-value route, which is 3.63e-11 off (1.63e-11 at 0.01).
@pytest.mark.parametrize("g,p,a,b,ln_m,recorded", [
    (0.01, 1.5, 0.3, 0.2, -0.717318170836707455728, 8.1e-11),
    (0.02, -2.0, 0.5, 0.1, 1.057098416706031517861, 6e-12),
])
def test_log_moment_against_oracle_small_gamma(g, p, a, b, ln_m, recorded):
    params = GmcParams(g, p, a, b)
    by_values = abs(_oracles.log_exact_moment_by_values(params) - ln_m)
    assert abs(log_exact_moment(params) - ln_m) <= max(recorded, by_values)


def test_small_gamma_limit():
    # As gamma -> 0, r = (ln M - p ln B(a+1, b+1)) / (gamma^2 (p^2 - p) / 2) tends to
    # K = -[psi(a+1) + psi(b+1) + psi(1) - 3 psi(a+b+2)] / 4, half of -E ln|x - y| under
    # the Beta(a+1, b+1) weights, with corrections in powers of gamma^2.  Two Richardson
    # steps in gamma^2 over gamma = 0.16, 0.08 and 0.04 give R2; R1 and R1' are the first
    # step's two values, and their gap bounds R2's error.  Bounds fixed before the run;
    # on this grid error/gap read at most 0.10, gap/K at most 8.4e-4, and the worst
    # relative error 5.4e-6.
    grid = [(a, b, p) for a in (-0.8, -0.5, 0.0, 0.5, 1.0, 3.0) for b in (-0.8, 0.0, 0.3, 2.0)
            for p in (-4.0, -1.5, 0.5, 2.5, 5.0)]
    ln_b = np.array([math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2)
                     for a, b, _ in grid])
    ps = np.array([p for _, _, p in grid])
    rs = [(log_exact_moments([GmcParams(g, p, a, b) for a, b, p in grid]) - ps * ln_b)
          / (g * g * (ps * ps - ps) / 2) for g in (0.16, 0.08, 0.04)]
    r1 = (4 * rs[1] - rs[0]) / 3
    r1_next = (4 * rs[2] - rs[1]) / 3
    r2 = (16 * r1_next - r1) / 15
    psi = mpmath.digamma
    k = np.array([-float(psi(a + 1) + psi(b + 1) + psi(1) - 3 * psi(a + b + 2)) / 4
                  for a, b, _ in grid])
    assert k[grid.index((0.0, 0.0, -4.0))] == pytest.approx(0.75, rel=1e-15)
    gap = np.abs(r1_next - r1)
    assert np.all(np.abs(r2 - k) <= 0.25 * gap + 1e-12)
    assert np.all(gap <= 5e-3 * k)


def test_pole_limit():
    # With a = -gamma alpha / 2 the moment's first pole is s = (2/gamma)(Q - alpha), and
    # (s - p) M(p) -> s Rbar_1(alpha) as p rises to s, for any b whose own pole lies beyond
    # s.  r(h) = h M(s - h) / (s Rbar_1(alpha)), taken in logs, is 1 + O(h); one Richardson
    # step over h = 1e-4 and 2e-4 gives R, and the gap |r(1e-4) - r(2e-4)| bounds its
    # error.  The domain: gamma log-uniform in [0.05, 1.95], alpha in (gamma/2, Q), b in
    # [-0.9, 3], with the next pole, min(4/gamma^2, 1 + (4/gamma^2)(1 + b)), at least 0.05
    # beyond s.  Bounds fixed before the run; on these 450 points error/gap read at most
    # 0.026, the gap at most 2.2e-3, and the worst error 7.9e-6.
    rng = np.random.default_rng(1514)
    hs = np.array([1e-4, 2e-4])
    checked = 0
    for _ in range(500):
        g = math.exp(rng.uniform(math.log(0.05), math.log(1.95)))
        q = g / 2.0 + 2.0 / g
        alpha, b = rng.uniform(g / 2.0, q), rng.uniform(-0.9, 3.0)
        s = (2.0 / g) * (q - alpha)
        if min(4.0 / (g * g), 1.0 + 4.0 / (g * g) * (1.0 + b)) - s < 0.05:
            continue
        ln_m = log_exact_moments([GmcParams(g, s - h, -g * alpha / 2.0, b) for h in hs])
        r = np.exp(np.log(hs) + ln_m - math.log(s) - log_reflection_boundary_1d(g, alpha))
        gap = abs(r[0] - r[1])
        assert abs(2.0 * r[0] - r[1] - 1.0) <= 0.25 * gap + 1e-10, (g, alpha, b)
        assert gap <= 0.05, (g, alpha, b)
        checked += 1
    assert checked == 450


def test_critical_limit():
    # As gamma -> 2, ln M(gamma, p, 0, 0) - p ln(2 - gamma) tends to the log of the
    # derivative martingale's moment, with an O(2 - gamma) gap.  r(d) at d = 2 - gamma =
    # 4e-3, 2e-3 and 1e-3; two Richardson steps give R2, and the gap between the first
    # step's two values, R1 and R1', bounds its error.  Bounds fixed before the run; on
    # these 59 p error/gap read at most 0.0083, the gap at most 2.5e-4, and the worst
    # error 2.0e-6, at p = 0.9, where the moment's own bound 4/gamma^2 tends to 1.
    ps = np.linspace(-5.0, 0.9, 59)
    rs = [log_exact_moments([GmcParams(2.0 - d, p, 0.0, 0.0) for p in ps]) - ps * math.log(d)
          for d in (4e-3, 2e-3, 1e-3)]
    r1 = 2.0 * rs[1] - rs[0]
    r1_next = 2.0 * rs[2] - rs[1]
    r2 = (4.0 * r1_next - r1) / 3.0
    target = np.array([math.log(derivative_martingale_moment(p)) for p in ps.tolist()])
    gap = np.abs(r1_next - r1)
    assert np.all(np.abs(r2 - target) <= 0.25 * gap + 1e-10)
    assert np.all(gap <= 1e-3)


def test_signed_sum_agrees_with_eight_values():
    # 200 seeded points inside bounds_check, gamma log-uniform in [0.05, 1.95]:
    # the one signed integral against each double gamma value on its own.
    # The values of the eight-value route grow like 1/gamma^2 and carry their
    # rounding, so the bound does too: 5e-13 / gamma^2 * max(1, |ln M|).  On
    # 8,000 points at eight seeds the worst was 1.4e-13.
    rng = np.random.default_rng(1507)
    worst = 0.0
    for _ in range(200):
        g = math.exp(rng.uniform(math.log(0.05), math.log(1.95)))
        u = g * g / 4.0
        a, b = rng.uniform(-1.0 - u, 3.0, 2)
        p = rng.uniform(-3.0, min(1.0 / u, 1.0 + (1.0 + a) / u, 1.0 + (1.0 + b) / u))
        params = GmcParams(g, p, a, b)
        if not bounds_check(params):
            continue
        one, eight = log_exact_moment(params), _oracles.log_exact_moment_by_values(params)
        worst = max(worst, abs(one - eight) * g * g / max(1.0, abs(eight)))
    assert worst <= 5e-13
