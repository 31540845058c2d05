import hashlib
import json
import math

import pytest

from gmcint.exactlaw import GmcParams, ObservableKind
from gmcint.montecarlo import config_for
from gmcint.verify import (
    CheckReport,
    IdentityGridSpec,
    failure_count,
    quadrature_identity_check,
    reports_to_csv,
    reports_to_json,
    run_identity_suite,
    sample_valid_params,
    verify_observable_prediction,
)


@pytest.fixture(scope="module")
def suite():
    return run_identity_suite()


class TestIdentitySuite:
    def test_all_pass(self, suite):
        failing = [r for r in suite if r.status != "pass"]
        assert failing == []

    def test_size_and_span(self, suite):
        assert len(suite) >= 60
        gammas = {float(r.metadata["gamma"]) for r in suite}
        assert min(gammas) < 0.9 and max(gammas) > 1.5
        ps = {float(r.metadata["p"]) for r in suite}
        assert any(p < 0 for p in ps) and any(p > 0 for p in ps)

    def test_contains_every_family(self, suite):
        ids = {r.check_id.split("/")[0] for r in suite}
        assert ids == {"selberg", "fubini", "shift", "c-ratio", "c2-identity", "law-decomp"}

    def test_selberg_spot_point(self, suite):
        row = next(r for r in suite if r.check_id == "selberg/g=1/p=2/a=0/b=0")
        assert row.status == "pass"
        assert row.rel_err <= 1e-9
        assert row.rhs == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_trivial_p0_rows_pass(self, suite):
        rows = [r for r in suite if "/p=0/" in r.check_id]
        assert rows and all(r.status == "pass" for r in rows)

    def test_deterministic(self, suite):
        again = run_identity_suite()
        assert reports_to_json(again) == reports_to_json(suite)

    def test_custom_seed_changes_random_points(self, suite):
        other = run_identity_suite(IdentityGridSpec(seed=7))
        assert reports_to_json(other) != reports_to_json(suite)
        assert failure_count(other) == 0


class TestGuardedChecks:
    def test_raised_domain_error_becomes_fail_report(self):
        from gmcint.errors import PoleError
        from gmcint.verify import _guarded

        def boom():
            raise PoleError("synthetic pole")

        reports = []
        _guarded(reports, "synthetic/raise", 1e-9, {"gamma": "1"}, boom)
        assert len(reports) == 1
        assert reports[0].status == "fail"
        assert "PoleError" in reports[0].metadata["error"]

    def test_a_batch_that_raises_fails_its_checks(self, monkeypatch):
        # each Selberg gamma's grid, per sampled point its three shift checks, its
        # c-ratio check and its law check, and each c2 check's two moments, is one
        # batch; a batch that raises fails its checks, the suite runs on
        from gmcint import verify
        from gmcint.errors import PoleError

        def boom(*args):
            raise PoleError("synthetic pole")

        for name in ("log_exact_moments", "c_of_ps", "law_and_exact_log_moments"):
            monkeypatch.setattr(verify, name, boom)
        reports = run_identity_suite()
        batched = {"selberg", "shift", "c-ratio", "law-decomp", "c2-identity"}
        assert sum(r.check_id.split("/")[0] in batched for r in reports) == 135 + 60 + 20 + 20 + 10
        for r in reports:
            if r.check_id.split("/")[0] in batched:
                assert r.status == "fail" and math.isnan(r.lhs)
                assert r.metadata["error"] == "PoleError: synthetic pole"
            else:
                assert r.status == "pass"

    def test_a_sample_whose_batch_raises_fails_only_its_checks(self, suite, monkeypatch):
        # the sixth shift sample, the third c-ratio sample and the eighth law sample
        # raise; every other report is the suite's own
        from gmcint import verify
        from gmcint.errors import PoleError

        def raising_on(name, call, counts=lambda args: True):
            real, calls = getattr(verify, name), [0]

            def fn(*args):
                if counts(args):
                    calls[0] += 1
                    if calls[0] == call:
                        raise PoleError(f"synthetic pole in {name}")
                return real(*args)

            monkeypatch.setattr(verify, name, fn)

        # a shift sample is a batch of four moments; a Selberg grid has more
        raising_on("log_exact_moments", 6, lambda args: len(args[0]) == 4)
        raising_on("c_of_ps", 3)
        raising_on("law_and_exact_log_moments", 8)
        reports = run_identity_suite()
        errors = {"shift/a+gamma^2/4/005": "log_exact_moments", "shift/a+1/005": "log_exact_moments",
                  "shift/p-1->p/005": "log_exact_moments", "c-ratio/002": "c_of_ps",
                  "law-decomp/007": "law_and_exact_log_moments"}
        assert [r.check_id for r in reports] == [r.check_id for r in suite]
        for r, own in zip(reports, suite):
            if r.check_id in errors:
                assert r.status == "fail" and math.isnan(r.lhs) and math.isnan(r.rhs)
                assert r.metadata == {**own.metadata,
                                      "error": f"PoleError: synthetic pole in {errors[r.check_id]}"}
            else:
                assert r == own

    def test_one_integral_per_sample_and_check_family(self, monkeypatch):
        # 5 Selberg grids, then 20 samples of each family: fubini 1, shift 1 (the
        # point and its three shifted points), c-ratio 1 (c(p) and c(p-1)), law 1
        # (three beta rows and the moment's row); 10 c2 points of 1 each (M(p-1) of
        # the fusion route and M(p) of the connection route).  185 when each shift
        # check, c value, law side and c2 route was its own call.
        from gmcint import specfun

        log_value, entries = specfun.DoubleGamma.log_value, []
        monkeypatch.setattr(specfun.DoubleGamma, "log_value",
                            lambda self, *args, **kw: entries.append(args) or log_value(self, *args, **kw))
        run_identity_suite()
        assert len(entries) == 5 + 4 * 20 + 10 == 95

    @pytest.mark.parametrize("seed,digest", [
        (20240601, "7648c98c3523491a7439bd38e14e475de1d7796738708758c79b188fec790fdc"),
        (7, "041296d600b17c7fee92ed9e62ea04bdf652806cc1111416c454a9eeaea186c9"),
    ])
    def test_json_is_frozen(self, seed, digest):
        # sha256 of the suite's JSON, frozen when every exact moment, c value and law
        # side was its own double gamma call: a batch changes no byte
        text = reports_to_json(run_identity_suite(IdentityGridSpec(seed=seed)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_other_grid_seeds_never_raise(self, seed):
        reports = run_identity_suite(IdentityGridSpec(seed=seed))
        assert failure_count(reports) == 0


class TestSampler:
    def test_points_valid_with_margin(self):
        import numpy as np

        from gmcint.exactlaw import bounds_check

        rng = np.random.default_rng(5)
        for _ in range(50):
            p = sample_valid_params(rng)
            assert bounds_check(p)
            assert bounds_check(GmcParams(p.gamma, p.p + 0.05, p.a - 0.05, p.b - 0.05))


class TestQuadratureIdentity:
    @pytest.mark.parametrize(
        "a,p,closed",
        [
            (0.5, -1.0, math.pi),
            (0.3, -0.5, 7.7484813887367651478),
            (0.7, -2.0, 1.1649666232352799464),
        ],
    )
    def test_acceptance_points(self, a, p, closed):
        rep = quadrature_identity_check(a, p)
        assert rep.status == "pass"
        assert rep.rhs == pytest.approx(closed, rel=1e-12)
        assert rep.rel_err <= 1e-8

    def test_literal_convergent_regime(self):
        # for a < 0 the integral converges classically; value is negative
        rep = quadrature_identity_check(-0.5, -1.0)
        assert rep.status == "pass"
        assert rep.rhs == pytest.approx(-math.pi, rel=1e-10)

    @pytest.mark.parametrize("a,p", [(0.5, 0.5), (1.5, -1.0), (0.8, -0.5), (0.0, -1.0)])
    def test_boundary_cases_skipped(self, a, p):
        rep = quadrature_identity_check(a, p)
        assert rep.status == "skipped"


class TestObservablePrediction:
    def test_single_point_passes(self):
        params = GmcParams(1.0, -0.5, 0.2, 0.1)
        cfg = config_for(2000, 1024, 12345, 0.2, 0.1)
        reports = verify_observable_prediction(
            params, [(ObservableKind.POWER_GAMMA_SQ_OVER_4, -0.5)], cfg
        )
        assert len(reports) == 1
        assert reports[0].status == "pass"
        assert reports[0].metadata["retried"] in ("true", "false")

    def test_near_zero_reduces_to_shifted_moment(self):
        from gmcint.exactlaw import exact_moment, predict_observable

        params = GmcParams(1.0, -0.5, 0.2, 0.1)
        cfg = config_for(2000, 1024, 222, 0.2, 0.1)
        reports = verify_observable_prediction(
            params, [(ObservableKind.POWER_ONE, -1e-6)], cfg
        )
        assert reports[0].status == "pass"
        # the prediction at t -> 0- is the unit-shifted exact moment
        assert predict_observable(params, ObservableKind.POWER_ONE, -1e-6) == pytest.approx(
            exact_moment(GmcParams(1.0, -0.5, 1.2, 0.1)), rel=1e-5
        )


    def test_failing_t_are_rerun_together(self, monkeypatch):
        from dataclasses import replace

        from gmcint import verify
        from gmcint.montecarlo import mc_moment, mc_moments

        params = GmcParams(1.0, -0.5, 0.2, 0.1)
        cfg = config_for(400, 256, 5, batches=40)
        ts = [-1e-6, -0.5, -2.0]
        checks = [(kind, t) for kind in ObservableKind for t in ts]
        # far outside the allowance at both replicate counts, for checks of both kinds
        shift = {(ObservableKind.POWER_ONE, -0.5): 1.15, (ObservableKind.POWER_ONE, -2.0): 0.9,
                 (ObservableKind.POWER_GAMMA_SQ_OVER_4, -2.0): 1.2}
        real_predict = verify.predict_observable
        monkeypatch.setattr(verify, "predict_observable",
                            lambda p, k, t: real_predict(p, k, t) * shift.get((k, t), 1.0))
        calls = []

        def recorded(params_, tchis, cfg_, threads=1):
            calls.append((list(tchis), cfg_.replicates))
            return mc_moments(params_, tchis, cfg_, threads)

        monkeypatch.setattr(verify, "mc_moments", recorded)
        reports = verify.verify_observable_prediction(params, checks, cfg)
        tchis = [(t, kind.chi(params.gamma)) for kind, t in checks]
        assert calls == [(tchis, 400), ([tchis[2], tchis[4], tchis[5]], 1600)]
        assert [r.status for r in reports] == ["pass", "pass", "fail", "pass", "fail", "fail"]
        assert [r.check_id for r in reports] == [
            f"observable/{kind.value}/t={t:.6g}" for kind, t in checks]
        # the same reports as one check per (kind, t), each rerun on its own
        for (kind, t), rep in zip(checks, reports):
            chi = kind.chi(params.gamma)
            pred = verify.predict_observable(params, kind, t)
            est = mc_moment(params, t, chi, cfg)
            retried = abs(est.mean - pred) > 3.0 * est.stderr + verify.MC_REL_MARGIN * abs(pred)
            if retried:
                est = mc_moment(params, t, chi, replace(cfg, replicates=4 * cfg.replicates))
            assert (rep.lhs, rep.rhs, rep.metadata["retried"], rep.metadata["replicates"],
                    rep.metadata["stderr"]) == (est.mean, pred, str(retried).lower(),
                                                str(est.replicates), verify.fmt(est.stderr))


class TestSerialization:
    def test_json_shape(self, suite):
        rows = json.loads(reports_to_json(suite[:3]))
        assert len(rows) == 3
        assert set(rows[0]) == {
            "check_id", "status", "lhs", "rhs", "rel_err", "tolerance", "metadata",
        }
        # numbers carried as strings for round-trip safety
        assert isinstance(rows[0]["lhs"], str)
        float(rows[0]["lhs"])

    def test_csv_shape(self, suite):
        lines = reports_to_csv(suite[:2]).strip().splitlines()
        assert lines[0] == "check_id,status,rel_err,tolerance"
        assert len(lines) == 3

    def test_failure_count(self):
        good = CheckReport("x", "pass", 1.0, 1.0, 0.0, 1e-9, {})
        bad = CheckReport("y", "fail", 1.0, 2.0, 0.5, 1e-9, {})
        assert failure_count([good, bad, good]) == 1
