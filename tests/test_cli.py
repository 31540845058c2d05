import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmcint.cli import main
from gmcint.exactlaw import GmcParams, ObservableKind, predict_observable
from gmcint.specfun import barnes_g


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestExactAndSelberg:
    def test_zeroth_moment_prints_one(self, capsys):
        doc = run_json(capsys, "exact", "--gamma", "1", "--p", "0", "--a", "0", "--b", "0")
        assert float(doc["results"][0]["value"]) == pytest.approx(1.0, abs=1e-12)

    def test_cross_subcommand_oracle(self, capsys):
        exact = run_json(capsys, "exact", "--gamma", "1", "--p", "2", "--a", "0", "--b", "0")
        selberg = run_json(capsys, "selberg", "--gamma", "1", "--p", "2", "--a", "0", "--b", "0")
        lhs = float(exact["results"][0]["value"])
        rhs = float(selberg["results"][0]["value"])
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_factor_breakdown_present(self, capsys):
        doc = run_json(capsys, "exact", "--gamma", "1.2", "--p", "-0.5", "--a", "0.2",
                       "--b", "0.1")
        row = doc["results"][0]
        assert "log_dg_num_p" in row and "log_prefactor" in row
        # breakdown reassembles the log value
        total = (float(row["log_prefactor"])
                 + float(row["log_dg_num_a"]) + float(row["log_dg_num_b"])
                 + float(row["log_dg_num_ab"]) + float(row["log_dg_num_p"])
                 - float(row["log_dg_den_base"]) - float(row["log_dg_den_a"])
                 - float(row["log_dg_den_b"]) - float(row["log_dg_den_ab"]))
        assert total == pytest.approx(float(row["log_value"]), abs=1e-10)

    def test_parameter_echo_in_rows(self, capsys):
        doc = run_json(capsys, "exact", "--gamma", "1", "--p", "1", "--a", "0.5", "--b", "0.5")
        row = doc["results"][0]
        assert row["gamma"] == "1" and row["p"] == "1" and row["a"] == "0.5"


class TestErrorPaths:
    def test_bounds_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--gamma", "1", "--p", "4", "--a", "0",
                               "--b", "0")
        assert code == 1
        assert "error" in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--gamma", "1", "--p"])
        assert exc.value.code == 64
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 64

    def test_missing_seed_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["mc-moment", "--gamma", "1", "--p", "-1"])
        assert exc.value.code == 64


class TestTables:
    def test_shift_lists_three_kinds(self, capsys):
        doc = run_json(capsys, "shift", "--gamma", "1", "--p", "1", "--a", "0.2",
                       "--b", "0.1")
        kinds = [row["kind"] for row in doc["results"]]
        assert len(kinds) == 3
        row = next(r for r in doc["results"] if r["kind"] == "a+gamma^2/4")
        assert float(row["ratio"]) == pytest.approx(0.81684507232280013073, rel=1e-12)

    def test_reflection_both_dims(self, capsys):
        one = run_json(capsys, "reflection", "--dim", "1", "--gamma", "1", "--alpha", "1.5")
        two = run_json(capsys, "reflection", "--dim", "2", "--gamma", "1", "--alpha", "1.8")
        assert float(one["results"][0]["value"]) == pytest.approx(10.488230217168479, rel=1e-9)
        assert float(two["results"][0]["value"]) == pytest.approx(28.366072637299114, rel=1e-9)

    def test_reflection_overflow_prints_its_log(self, capsys):
        # R = e^966 here: the value overflows and the log carries it, as in dgamma
        doc = run_json(capsys, "reflection", "--dim", "1", "--gamma", "0.05", "--alpha", "30")
        row = doc["results"][0]
        assert row["value"] == "inf"
        # 40-digit oracle: the formula over _oracles.ln_dgamma
        assert float(row["log_value"]) == pytest.approx(965.98018395963301548, rel=1e-14)

    def test_tail_keeps_the_reflection_log_past_overflow(self, capsys):
        doc = run_json(capsys, "tail", "--gamma", "0.05", "--alpha", "30", "--u-min", "0.5",
                       "--u-max", "1", "--u-count", "2", *_SMALL_MC)
        for row in doc["results"]:
            assert float(row["ln_reflection_1d"]) == pytest.approx(965.98018395963301548,
                                                                   rel=1e-14)

    def test_dgamma_table_csv(self, capsys):
        code, out, _ = run_cli(capsys, "dgamma", "--gamma", "1", "--x-min", "1.25",
                               "--x-max", "2", "--count", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:2] == ["gamma", "x"]
        assert len(lines) == 3
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(first["log_value"]) == pytest.approx(0.0, abs=1e-11)  # x = Q/2

    def test_exact_moment_overflow_prints_inf(self, capsys):
        # M = e^1328.7 here: the value overflows and the log carries it, as in dgamma
        from gmcint.exactlaw import log_exact_moment

        doc = run_json(capsys, "exact", "--gamma", "1", "--p", "-60")
        row = doc["results"][0]
        assert row["value"] == "inf"
        assert float(row["log_value"]) == log_exact_moment(GmcParams(1.0, -60.0, 0.0, 0.0))
        # 40-digit oracle: _oracles.exact_moment
        assert float(row["log_value"]) == pytest.approx(1328.749442289073001098, rel=1e-14)

    def test_dgamma_value_overflow_prints_inf(self, capsys):
        doc = run_json(capsys, "dgamma", "--gamma", "1", "--x-min", "1e-320", "--x-max", "1",
                       "--count", "2")
        first = doc["results"][0]
        assert first["value"] == "inf"
        assert float(first["log_value"]) == pytest.approx(736.31644240084574, rel=1e-14)

    def test_exact_breakdown_matches_moment_factors(self, capsys):
        from gmcint.exactlaw import exact_moment_factors
        from gmcint.specfun import log_double_gamma

        params = GmcParams(1.2, -0.5, 0.2, 0.1)
        doc = run_json(capsys, "exact", "--gamma", "1.2", "--p", "-0.5", "--a", "0.2",
                       "--b", "0.1")
        row = doc["results"][0]
        _, _, args = exact_moment_factors(params)
        # (a+1)+(b+1) grouping, as in log_exact_moment
        assert float(row["log_dg_num_ab"]) == log_double_gamma(1.2, float(args[2]))
        assert float(row["log_dg_den_ab"]) == log_double_gamma(1.2, float(args[7]))

    def test_barnes_and_martingale(self, capsys):
        doc = run_json(capsys, "barnes", "--x-min", "3", "--x-max", "3", "--count", "1")
        assert float(doc["results"][0]["value"]) == pytest.approx(1.0, rel=1e-10)
        doc = run_json(capsys, "martingale-moment", "--p", "-1")
        row = doc["results"][0]
        assert float(row["value"]) == pytest.approx(24.0, rel=1e-9)
        assert float(row["barnes_form"]) == pytest.approx(24.0, rel=1e-9)

    def test_barnes_table_rows_equal_scalar_calls(self, capsys):
        doc = run_json(capsys, "barnes", "--x-min", "0.05", "--x-max", "7.5", "--count", "40")
        assert len(doc["results"]) == 40
        for row in doc["results"]:
            assert float(row["value"]) == barnes_g(float(row["x"]))

    def test_law_decomp(self, capsys):
        doc = run_json(capsys, "law-decomp", "--gamma", "1", "--p", "-0.5", "--a", "0.2",
                       "--b", "0.1")
        assert float(doc["results"][0]["abs_diff"]) <= 1e-8

    def test_predict_u(self, capsys):
        doc = run_json(capsys, "predict-u", "--gamma", "1", "--p", "-0.5", "--a", "0.2",
                       "--b", "0.1", "--kind", "gamma-sq-over-4", "--t", "-0.5")
        assert float(doc["results"][0]["predicted"]) == pytest.approx(
            1.6247213682678735, rel=1e-10
        )

    def test_predict_u_where_the_basis_at_zero_cancels(self, capsys):
        doc = run_json(capsys, "predict-u", "--gamma", "0.8", "--p", "1.2", "--a", "-0.4",
                       "--b", "0", "--kind", "one", "--t=-30")
        # the 40-digit value of test_exactlaw; summed in the basis at 0 it came out 131.5
        assert float(doc["results"][0]["predicted"]) == pytest.approx(
            118.82412623535389689, rel=1e-12
        )

    def test_predict_u_at_many_t_prints_each_lone_value(self, capsys):
        # t on both sides of the basis switch at -0.005, and 0
        ts = [0.0, -1e-6, -0.0049, -0.005, -0.5, -2.0, -1e3]
        for params in (GmcParams(1.0, -0.5, 0.2, 0.1), GmcParams(0.6, 0.9, -0.3, 1.4)):
            for kind in ObservableKind:
                doc = run_json(capsys, "predict-u", "--gamma", str(params.gamma),
                               "--p", str(params.p), "--a", str(params.a), "--b", str(params.b),
                               "--kind", kind.value, *(f"--t={t!r}" for t in ts))
                assert [(float(row["t"]), float(row["predicted"])) for row in doc["results"]] == [
                    (t, predict_observable(params, kind, t)) for t in ts]


class TestStochasticCommands:
    def test_mc_moment_deterministic_across_threads(self, capsys):
        argv = ["mc-moment", "--gamma", "1", "--p", "-1", "--a", "0", "--b", "0",
                "--seed", "42", "--replicates", "1000", "--n-modes", "256",
                "--batches", "10"]
        _, out1, _ = run_cli(capsys, *argv, "--threads", "1")
        _, out2, _ = run_cli(capsys, *argv, "--threads", "4")
        assert out1 == out2
        doc = json.loads(out1)
        row = doc["results"][0]
        assert float(row["stderr"]) > 0.0
        assert float(row["closed_form"]) == pytest.approx(2.398969550483434, rel=1e-10)

    def test_mc_moment_predicted_closed_form_for_chi(self, capsys):
        doc = run_json(capsys, "mc-moment", "--gamma", "1", "--p", "-0.5", "--a", "0.2",
                       "--b", "0.1", "--t", "-0.5", "--chi", "0.25", "--seed", "7",
                       "--replicates", "1000", "--n-modes", "256", "--batches", "10")
        assert float(doc["results"][0]["closed_form"]) == pytest.approx(
            1.6247213682678735, rel=1e-9
        )

    def test_small_dev_runs(self, capsys):
        doc = run_json(capsys, "small-dev", "--gamma", "1", "--seed", "11",
                       "--replicates", "2000", "--n-modes", "256", "--batches", "10",
                       "--eps", "0.5", "--eps", "1.0", "--eps", "2.0")
        rows = doc["results"]
        assert [r["eps"] for r in rows] == ["0.5", "1", "2"]

    def test_tail_runs_with_modest_grid(self, capsys):
        doc = run_json(capsys, "tail", "--gamma", "1", "--alpha", "1.2", "--seed", "13",
                       "--replicates", "5000", "--n-modes", "256", "--batches", "10",
                       "--u-min", "3", "--u-max", "8", "--u-count", "4")
        rows = doc["results"]
        assert len(rows) == 4
        assert float(rows[0]["slope_closed_form"]) == pytest.approx(-2.6, rel=1e-12)

    @pytest.mark.parametrize("argv,estimate,closed", [
        (["mc-moment", "--gamma", "0.005", "--p", "0.5"], "mean", "closed_form"),
        (["mc-moment", "--gamma", "0.005", "--p", "-0.5", "--a", "0.2", "--b", "0.1",
          "--t=-0.5", "--chi", "1"], "mean", "closed_form"),
        (["tail", "--gamma", "0.005", "--alpha", "300", "--u-min", "0.5", "--u-max", "1",
          "--u-count", "2"], "log_survival", "ln_reflection_1d"),
    ], ids=["mc-moment", "observable", "tail"])
    def test_estimate_stands_without_its_closed_form(self, capsys, argv, estimate, closed):
        # below the double gamma's gamma floor the closed form is refused, not the estimate
        doc = run_json(capsys, *argv, *_SMALL_MC)
        for row in doc["results"]:
            assert math.isfinite(float(row[estimate]))
            assert row[closed] == "n/a"

    @pytest.mark.parametrize("argv", [
        ["mc-moment", "--gamma", "1", "--p", "-1"],
        ["tail", "--gamma", "1", "--alpha", "1.2", "--u-min", "0.5", "--u-max", "1",
         "--u-count", "2"],
        ["small-dev", "--gamma", "1", "--eps", "1"],
    ])
    def test_plan_flags_are_echoed(self, capsys, argv):
        # --batches changes the standard errors, so two runs that differ in it must say so
        for batches in (10, 20):
            doc = run_json(capsys, *argv, "--seed", "3", "--replicates", "200", "--n-modes",
                           "64", "--batches", str(batches))
            keys = list(doc["parameters"])
            assert keys[keys.index("n_modes") + 1] == "batches"
            for echo in (doc["parameters"], *doc["results"]):
                assert echo["batches"] == batches

    def test_fewer_than_four_cells_per_mode_is_refused(self, capsys):
        # the grid is always four cells per mode; the flag that once coarsened it is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["mc-moment", "--gamma", "1", "--p", "-1", *_SMALL_MC, "--cells-per-mode", "3"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (64, "")
        assert captured.err == "gmcint: error: unrecognized arguments: --cells-per-mode 3\n"

    def test_odd_cell_count_is_refused(self, capsys):
        # an odd cell count cannot be asked for: the flag is gone, and 4 * n_modes is even
        argv = ["mc-moment", "--gamma", "1", "--p", "-1", "--seed", "1", "--replicates", "100",
                "--n-modes", "99", "--batches", "10"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cells-per-mode", "5"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (64, "")
        assert captured.err == "gmcint: error: unrecognized arguments: --cells-per-mode 5\n"
        # the same plan without the flag runs on an even grid of 396 cells
        doc = run_json(capsys, *argv)
        assert math.isfinite(float(doc["results"][0]["mean"]))

    def test_verify_identities_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "identities", "--format", "json")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "identities", "--format", "json")
        assert out1 == out2
        rows = json.loads(out1)
        assert all(r["status"] == "pass" for r in rows)

    def test_verify_quadrature_exit_zero(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "quadrature")
        assert code == 0
        assert all(r["status"] == "pass" for r in json.loads(out))

    def test_verify_observable_simulates_its_fields_once(self, capsys, monkeypatch):
        from gmcint import cli as cli_mod

        real, calls = cli_mod.verify_mod.mc_moments, []

        def recorded(params, tchis, cfg, threads=1):
            calls.append((len(tchis), cfg.replicates, cfg.n_modes))
            return real(params, tchis, cfg, threads)

        monkeypatch.setattr(cli_mod.verify_mod, "mc_moments", recorded)
        rows = run_json(capsys, "verify", "--suite", "observable", "--seed", "5",
                        "--replicates", "400", "--n-modes", "256")
        # both kinds' three t are weight rows on one simulation; none needed a rerun
        assert calls == [(6, 400, 256)]
        assert [r["metadata"]["retried"] for r in rows] == ["false"] * 6

    @pytest.mark.parametrize("suite", ["observable", "all"])
    def test_verify_checks_the_seed_before_any_suite(self, capsys, monkeypatch, suite):
        from gmcint import cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod.verify_mod, "run_identity_suite",
                            lambda *args: calls.append(args) or [])
        code, out, err = run_cli(capsys, "verify", "--suite", suite)
        assert (code, out, calls) == (1, "", [])
        assert err == "error: the observable suite is stochastic: --seed is required\n"

    @pytest.mark.parametrize("replicates,batches", [(4001, 50), (333, 33)])
    def test_verify_checks_the_replicate_count_before_any_suite(self, capsys, monkeypatch,
                                                                replicates, batches):
        # the observable suite splits --replicates into max(10, min(50, replicates // 10))
        # batches, which it must divide into
        from gmcint import cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod.verify_mod, "run_identity_suite",
                            lambda *args: calls.append(args) or [])
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--seed", "1",
                                 "--replicates", str(replicates))
        assert (code, out, calls) == (1, "", [])
        assert err == (f"error: --replicates must be divisible by its batch count, {batches}, "
                       f"got {replicates}\n")

    def test_verify_observable_refuses_a_rerun_plan_before_simulating(self, capsys, monkeypatch):
        # the rerun takes four times the replicates; a plan cap below that ends the
        # run with one line before the first simulation
        from gmcint import cli as cli_mod
        from gmcint import montecarlo

        calls = []
        monkeypatch.setattr(montecarlo, "_MAX_REPLICATES", 2000)
        monkeypatch.setattr(cli_mod.verify_mod, "mc_moments", lambda *args: calls.append(args))
        code, out, err = run_cli(capsys, "verify", "--suite", "observable", "--seed", "3",
                                 "--replicates", "2000", "--n-modes", "1")
        assert (code, out, calls) == (1, "", [])
        assert err.strip().splitlines() == [
            "error: plan too large: at most 2000 replicates and 1048576 modes, got 8000 and 1"]


class TestVerifyFailurePath:
    def test_exit_two_with_count_on_stderr(self, capsys, monkeypatch):
        from gmcint import cli as cli_mod
        from gmcint.verify import CheckReport

        def fake_suite(grid):
            return [
                CheckReport("synthetic/ok", "pass", 1.0, 1.0, 0.0, 1e-9, {}),
                CheckReport("synthetic/bad", "fail", 1.0, 2.0, 0.5, 1e-9, {}),
            ]

        monkeypatch.setattr(cli_mod.verify_mod, "run_identity_suite", fake_suite)
        code, out, err = run_cli(capsys, "verify", "--suite", "identities")
        assert code == 2
        assert "1 check(s) failed" in err
        assert json.loads(out)[1]["status"] == "fail"


_GMC_ECHO = "gamma,p,a,b"
_PLAN_ECHO = "seed,replicates,n_modes,batches"
_ECHO_MC = ["--seed", "3", "--replicates", "200", "--n-modes", "64", "--batches", "10",
            "--threads", "2"]


# The echo of each table subcommand: every flag but --format, --output,
# --threads and the flags whose values each row carries (dgamma's and
# barnes' x grid, tail's u grid, predict-u's t and small-dev's eps).
_ECHO_CASES = [
    (["exact", "--gamma", "1", "--p", "-0.5"], _GMC_ECHO,
     f"{_GMC_ECHO},value,log_value,log_prefactor,log_dg_num_a,log_dg_num_b,log_dg_num_ab,"
     "log_dg_num_p,log_dg_den_base,log_dg_den_a,log_dg_den_b,log_dg_den_ab"),
    (["selberg", "--gamma", "1", "--p", "2"], _GMC_ECHO, f"{_GMC_ECHO},value"),
    (["shift", "--gamma", "1", "--p", "1"], _GMC_ECHO, f"{_GMC_ECHO},kind,ratio"),
    (["reflection", "--dim", "1", "--gamma", "1", "--alpha", "1.5"], "dim,gamma,alpha",
     "dim,gamma,alpha,value,log_value"),
    (["law-decomp", "--gamma", "1", "--p", "-0.5"], _GMC_ECHO,
     f"{_GMC_ECHO},log_moment_decomposition,log_moment_exact,abs_diff"),
    (["dgamma", "--gamma", "1", "--count", "2"], "gamma", "gamma,x,log_value,value"),
    (["barnes", "--count", "2"], "", "x,value"),
    (["martingale-moment", "--p", "0.5"], "p", "p,value,barnes_form"),
    (["mc-moment", "--gamma", "1", "--p", "-1", "--t=-0.5", *_ECHO_MC],
     f"{_GMC_ECHO},t,chi,{_PLAN_ECHO}",
     f"{_GMC_ECHO},t,chi,{_PLAN_ECHO},mean,stderr,degraded_ci,closed_form"),
    (["tail", "--gamma", "1", "--alpha", "1.2", "--u-min", "0.5", "--u-max", "1",
      "--u-count", "2", *_ECHO_MC], f"gamma,alpha,eta,{_PLAN_ECHO}",
     f"gamma,alpha,eta,{_PLAN_ECHO},u,log_survival,count,wilson_low,wilson_high,slope,"
     "intercept,r_squared,slope_closed_form,ln_reflection_1d"),
    (["small-dev", "--gamma", "1", "--eps", "1", *_ECHO_MC], f"gamma,{_PLAN_ECHO}",
     f"gamma,{_PLAN_ECHO},eps,log_prob,count,envelope_c,envelope_exponent"),
    (["predict-u", "--gamma", "1", "--p", "-0.5", "--a", "0.2", "--b", "0.1", "--kind", "one",
      "--t=-0.5", "--t=-2"], f"{_GMC_ECHO},kind", f"{_GMC_ECHO},kind,t,predicted"),
]


@pytest.mark.parametrize("argv,echo,header", _ECHO_CASES, ids=[c[0][0] for c in _ECHO_CASES])
def test_parameter_echo_is_frozen(capsys, argv, echo, header):
    doc = run_json(capsys, *argv)
    assert doc["command"] == argv[0]
    assert ",".join(doc["parameters"]) == echo
    for row in doc["results"]:
        assert ",".join(row) == header
        assert all(row[k] == v for k, v in doc["parameters"].items())
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0, err
    assert out.splitlines()[0] == header


_OUTPUT_CASES = [case[0] for case in _ECHO_CASES] + [["verify", "--suite", "quadrature"]]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", _OUTPUT_CASES, ids=[argv[0] for argv in _OUTPUT_CASES])
def test_output_file_equals_stdout(capsys, tmp_path, argv, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0, err
    path = tmp_path / f"out.{fmt}"
    assert run_cli(capsys, *argv, "--format", fmt, "--output", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("argv,want", [
    (["barnes"], ["x,value", "0.5,0.60324428120944606"]),
    (["dgamma", "--gamma", "1"],
     ["gamma,x,log_value,value", "1,0.10000000000000001,1.6837966175222867,5.385965654303198"]),
], ids=["barnes", "dgamma"])
@pytest.mark.parametrize("count", [0, 1])
def test_csv_header_at_any_row_count(capsys, argv, want, count):
    # the header comes from the echo and the declared columns, not from a row
    code, out, err = run_cli(capsys, *argv, "--count", str(count), "--format", "csv")
    assert code == 0, err
    assert out == "\n".join(want[: 1 + count]) + "\n"


# A negative value in exponent form, or -inf, may follow its flag as the next
# argument; it gives the exit code and bytes of its --flag=value form.
@pytest.mark.parametrize("argv,code", [
    (["predict-u", "--gamma", "1", "--p", "0.5", "--a", "0.2", "--b", "0.1", "--kind", "one",
      "--t", "-1e-6"], 0),
    (["exact", "--gamma", "1", "--p", "-2e0"], 0),
    (["predict-u", "--gamma", "1", "--p", "0.5", "--a", "0.2", "--b", "0.1", "--kind", "one",
      "--t", "-inf"], 1),
])
def test_float_literal_after_its_flag(capsys, argv, code):
    def run(args):
        try:
            status = main(args)
        except SystemExit as exc:  # a usage error
            status = exc.code
        return status, *capsys.readouterr()

    joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    assert run(argv) == run(joined)
    assert run(argv)[0] == code


_SMALL_MC = ["--seed", "1", "--replicates", "100", "--n-modes", "16", "--batches", "10"]


_EXTREME_ARGV = [
    (["predict-u", "--gamma", "1", "--p", "-0.5", "--a", "0.2", "--b", "0.1", "--kind", "one",
      "--t=-1e300"], {}, 0),
    (["dgamma", "--gamma", "1", "--x-min", "1e-320"], {}, 0),
    (["dgamma", "--gamma", "1", "--x-min", "1e300", "--x-max", "1e300", "--count", "1"], {}, 1),
    (["mc-moment", "--gamma", "1", "--p", "-1", "--seed", "1", "--replicates", "100",
      "--n-modes", "16", "--batches", "10"], {"GMC_THREADS": "abc"}, 0),
    (["exact", "--gamma", "1e-320", "--p", "0.5"], {}, 1),
    (["reflection", "--dim", "2", "--gamma", "0", "--alpha", "1"], {}, 1),
    (["shift", "--gamma", "1", "--p=-1e300"], {}, 1),
    (["predict-u", "--gamma", "1", "--p=-inf", "--kind", "gamma-sq-over-4", "--t=-1"], {}, 1),
    (["dgamma", "--gamma", "1", "--count", "-1"], {}, 64),
    (["barnes", "--count", "100000000000000000000"], {}, 64),
    (["exact", "--gamma", "1e-160", "--p", "0.5"], {}, 1),
    (["exact", "--gamma", "1", "--p", "1", "--output", "{tmp}/missing-dir/out.json"], {}, 1),
    (["tail", "--gamma", "0", "--alpha", "1.2", *_SMALL_MC], {}, 1),
    (["small-dev", "--gamma", "0", *_SMALL_MC], {}, 1),
    (["small-dev", "--gamma", "1e-200", *_SMALL_MC], {}, 1),
    (["small-dev", "--gamma", "3", *_SMALL_MC], {}, 1),
    (["small-dev", "--gamma=-1", *_SMALL_MC], {}, 1),
    (["small-dev", "--gamma", "nan", *_SMALL_MC], {}, 1),
    (["mc-moment", "--gamma", "1", "--p", "0.5", "--chi", "inf", *_SMALL_MC], {}, 1),
    (["tail", "--gamma", "1", "--alpha", "1.2", "--u-count", "-1", *_SMALL_MC], {}, 1),
    (["tail", "--gamma", "1", "--alpha", "1.2", "--u-min", "0", *_SMALL_MC], {}, 1),
    (["tail", "--gamma", "1", "--alpha", "1.2", "--u-count", "1000001", *_SMALL_MC], {}, 1),
    (["verify", "--grid-seed", "-1"], {}, 1),
    (["selberg", "--gamma", "1e-150", "--p", "100000000000000000000"], {}, 1),
    (["exact", "--gamma", "1e-30", "--p", "0.5"], {}, 1),
    (["law-decomp", "--gamma", "1e-30", "--p", "0.5"], {}, 1),
    # below the double gamma's gamma floor of 0.01
    (["dgamma", "--gamma", "0.005"], {}, 1),
    (["exact", "--gamma", "0.005", "--p", "0.5"], {}, 1),
    (["law-decomp", "--gamma", "0.0099", "--p", "0.5"], {}, 1),
    (["predict-u", "--gamma", "0.005", "--p", "-0.5", "--a", "0.2", "--b", "0.1", "--kind", "one",
      "--t=-0.5"], {}, 1),
    (["reflection", "--dim", "1", "--gamma", "0.005", "--alpha", "1"], {}, 1),
    (["predict-u", "--gamma", "1.1", "--p", "0.45", "--a", "0.3", "--b", "0.2", "--kind", "one",
      "--t=-inf"], {}, 1),
    (["predict-u", "--gamma", "1.1", "--p", "0.45", "--a", "0.3", "--b", "0.2", "--kind", "one",
      "--t=nan"], {}, 1),
    (["small-dev", "--gamma", "1", "--eps=-1", "--eps=nan", "--eps=inf", "--seed", "1",
      "--replicates", "100", "--n-modes", "8", "--batches", "10"], {}, 1),
    (["predict-u", "--gamma", "1", "--p", "1.2", "--a", "0.2", "--b", "0.1", "--kind", "one",
      "--t=-1e300"], {}, 1),
    (["predict-u", "--gamma", "1", "--p", "1.2", "--a", "-0.9", "--b", "-0.9", "--kind", "one",
      "--t=-5e256"], {}, 1),
    # plans whose value array (7.28 TiB) or grid (2.91 TiB) could never be allocated
    (["mc-moment", "--gamma", "1", "--p", "-1", "--seed", "1", "--replicates", "1000000000000",
      "--batches", "10", "--n-modes", "16"], {}, 1),
    (["mc-moment", "--gamma", "1", "--p", "-1", "--seed", "1", "--replicates", "1000",
      "--n-modes", "100000000000"], {}, 1),
    (["dgamma", "--gamma", "1", "--x-min", "1", "--x-max", "inf"], {}, 1),
    (["barnes", "--x-min", "nan"], {}, 1),
    # cell masses: large exponents run; from about 1e16 on x_s rounds to 1 and they are refused
    (["mc-moment", "--gamma", "1", "--p", "0.5", "--a", "1e6", "--b", "1e3", *_SMALL_MC], {}, 0),
    (["mc-moment", "--gamma", "1", "--p", "0.5", "--a", "1e300", *_SMALL_MC], {}, 1),
    (["mc-moment", "--gamma", "1", "--p", "0.5", "--b", "1e300", *_SMALL_MC], {}, 1),
    (["mc-moment", "--gamma", "1", "--p", "0.5", "--a", "inf", *_SMALL_MC], {}, 1),
    # eps^(-4/gamma^2) overflows (eps < 1) or underflows to 0 for both eps (eps > 1)
    (["small-dev", "--gamma", "0.001", "--seed", "7", "--eps", "0.9997", "--eps", "0.9999",
      "--n-modes", "64", "--replicates", "1000", "--batches", "10"], {}, 0),
    (["small-dev", "--gamma", "0.001", "--seed", "7", "--eps", "1.5", "--eps", "2",
      "--n-modes", "64", "--replicates", "1000", "--batches", "10"], {}, 0),
    # past the asymptotic series' reach a value costs the same at any x
    (["dgamma", "--gamma", "2", "--x-min", "1e8", "--x-max", "5e8", "--count", "2"], {}, 0),
    # the moment overflows the double range, its log does not
    (["exact", "--gamma", "1", "--p", "-60"], {}, 0),
    # new cases go here, below the positional ids: see _extreme_id
    # the 2d reflection coefficient overflows the double range, its log does not
    (["reflection", "--dim", "2", "--gamma", "0.001", "--alpha", "1"], {}, 0),
    # s ln Gamma(gamma^2/4) overflows where ln Gamma(s) does not: the log is not finite
    (["reflection", "--dim", "2", "--gamma", "2.664757102872435e-153",
      "--alpha", "4.101431564532179e152"], {}, 1),
    # (x-t)^chi overflows: refused before the 4096-mode fields are simulated
    (["mc-moment", "--gamma", "1", "--p", "0.5", "--t=-1", "--chi", "1e300", "--seed", "1",
      "--replicates", "100", "--n-modes", "4096"], {}, 1),
    (["predict-u", "--gamma", "1", "--p", "-0.5", "--a", "0.2", "--b", "0.1", "--kind", "one",
      "--t=-0.5", "--t", "0.5"], {}, 1),
    # ln Gamma of an argument near the double range's end overflows
    (["selberg", "--gamma", "1", "--p", "1", "--a", "1e306"], {}, 1),
    (["law-decomp", "--gamma", "1", "--p=-1e307"], {}, 1),
]
_POSITIONAL_IDS = 48


def _extreme_id(i: int, case) -> str:
    """The first _POSITIONAL_IDS cases keep the positional ids they were first run under;
    a later case's id is its argv, env and exit code, so that no insertion renames it."""
    argv, env, code = case
    if i < _POSITIONAL_IDS:
        return f"argv{i}-env{i}-{code}"
    return "_".join([*argv, *(f"{k}={v}" for k, v in env.items()), f"exit{code}"])


_EXTREME_IDS = [_extreme_id(i, case) for i, case in enumerate(_EXTREME_ARGV)]


def test_extreme_argv_ids_are_unique():
    assert len(set(_EXTREME_IDS)) == len(_EXTREME_IDS)


@pytest.mark.parametrize("argv,env,code", _EXTREME_ARGV, ids=_EXTREME_IDS)
def test_extreme_argv_ends_in_exit_code(argv, env, code, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]

    def run(env):
        # a timeout, so that an argv that never ends fails the test instead of hanging it
        return subprocess.run([sys.executable, "-m", "gmcint.cli", *argv], capture_output=True,
                              text=True, env=env, timeout=60)

    bare = {k: v for k, v in os.environ.items() if k not in env}
    proc = run({**bare, **env})
    assert proc.returncode == code, proc.stderr
    if env:  # the variable leaves the output as it is
        assert proc.stdout == run(bare).stdout
    assert "Traceback" not in proc.stderr
    if code:
        assert len(proc.stderr.strip().splitlines()) == 1
    for flag, value in zip(argv, argv[1:]):
        if flag.startswith("--x-") and not math.isfinite(float(value)):
            assert flag in proc.stderr  # named by its flag, not by a value linspace made


_EXTREME = [math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e307,
            -1e307, 1.7976931348623157e308, 0.0]
_FLOATS = st.one_of(st.sampled_from(_EXTREME), st.floats(-10.0, 10.0)).map(repr)
_INTS = st.one_of(st.integers(-2, 4).map(str), _FLOATS)
_GMC = {"--gamma": _FLOATS, "--p": _FLOATS, "--a": _FLOATS, "--b": _FLOATS}
_CLOSED_FORM_FLAGS = {
    "exact": _GMC,
    "selberg": {**_GMC, "--p": _INTS},
    "shift": _GMC,
    "reflection": {"--dim": st.sampled_from(["1", "2"]), "--gamma": _FLOATS, "--alpha": _FLOATS},
    "law-decomp": _GMC,
    "dgamma": {"--gamma": _FLOATS, "--x-min": _FLOATS, "--x-max": _FLOATS, "--count": _INTS},
    "barnes": {"--x-min": _FLOATS, "--x-max": _FLOATS, "--count": _INTS},
    "martingale-moment": {"--p": _FLOATS},
    "predict-u": {**_GMC, "--kind": st.sampled_from(["one", "gamma-sq-over-4"]), "--t": _FLOATS},
}


@pytest.mark.parametrize("command", sorted(_CLOSED_FORM_FLAGS))
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_closed_form_argv_ends_in_exit_code(command, data):
    argv = [command] + [f"{flag}={data.draw(values, label=flag)}"
                        for flag, values in _CLOSED_FORM_FLAGS[command].items()]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 64, argv
        else:
            assert code in (0, 1, 2), argv


# Each example starts from a valid argv and redraws up to three of its flags,
# so that it gets past the first check.  Counts come from small sets, the
# invalid -1, 0 and 99 among them, so that no example asks for unbounded
# work; threads are only ever 1 or 2.
_COUNT = st.sampled_from(["-1", "0", "99", "100", "200"])
_MC_VALID = {"--seed": "7", "--replicates": "100", "--n-modes": "8", "--batches": "10",
             "--threads": "1"}
_MC_DRAWS = {"--seed": st.sampled_from(["-1", "0", "7", str(2**70)]), "--replicates": _COUNT,
             "--n-modes": st.sampled_from(["-1", "0", "99", "8", "32"]),
             "--batches": st.sampled_from(["-1", "0", "99", "10", "20"]),
             "--threads": st.sampled_from(["1", "2"])}
_GMC_VALID = {"--gamma": "1", "--p": "-0.5", "--a": "0.2", "--b": "0.1"}
_STOCHASTIC_FLAGS = {  # command: (valid argv, values a redrawn flag takes)
    "mc-moment": ({**_GMC_VALID, "--t": "-0.5", "--chi": "0.25", **_MC_VALID},
                  {**_GMC, "--t": _FLOATS, "--chi": _FLOATS, **_MC_DRAWS}),
    "tail": ({"--gamma": "1", "--alpha": "1.2", "--eta": "1", "--u-min": "0.5", "--u-max": "1",
              "--u-count": "4", **_MC_VALID},
             {"--gamma": _FLOATS, "--alpha": _FLOATS, "--eta": _FLOATS, "--u-min": _FLOATS,
              "--u-max": _FLOATS, "--u-count": st.sampled_from(["-1", "0", "99", "2", "4"]),
              **_MC_DRAWS}),
    "small-dev": ({"--gamma": "1", "--eps": "0.5", **_MC_VALID},
                  {"--gamma": _FLOATS, "--eps": _FLOATS, **_MC_DRAWS}),
    "verify": ({"--suite": "observable", "--seed": "7", "--replicates": "100", "--n-modes": "8",
                "--threads": "1"},
               {flag: _MC_DRAWS[flag] for flag in ("--seed", "--replicates", "--n-modes",
                                                   "--threads")}),
}


@pytest.mark.parametrize("command", sorted(_STOCHASTIC_FLAGS))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_stochastic_argv_ends_in_exit_code(command, data):
    valid, draws = _STOCHASTIC_FLAGS[command]
    redrawn = data.draw(st.sets(st.sampled_from(sorted(draws)), max_size=3), label="redrawn")
    argv = [command] + [f"{flag}={data.draw(draws[flag], label=flag) if flag in redrawn else value}"
                        for flag, value in valid.items()]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 64, argv
        else:
            assert code in (0, 1, 2), argv


def test_no_command_loads_scipy():
    # SciPy was half of a cold start; the package does without it, so no command may load it
    script = """
import contextlib, io, sys
import gmcint.cli
mc = ["--seed", "1", "--replicates", "100", "--n-modes", "16", "--batches", "10"]
for argv in (["exact", "--gamma", "1.2", "--p", "0.5"], ["selberg", "--gamma", "1", "--p", "2"],
             ["shift", "--gamma", "1.2", "--p", "0.5"], ["law-decomp", "--gamma", "1.2", "--p", "0.5"],
             ["reflection", "--dim", "1", "--gamma", "1.2", "--alpha", "1"],
             ["reflection", "--dim", "2", "--gamma", "1.2", "--alpha", "1"],
             ["dgamma", "--gamma", "1.2"], ["barnes"], ["martingale-moment", "--p", "0.5"],
             ["predict-u", "--gamma", "1", "--p", "-0.5", "--a", "0.2", "--b", "0.1", "--kind",
              "one", "--t=-0.5"],
             ["mc-moment", "--gamma", "1", "--p", "0.5", "--a", "0.2", "--b", "0.1", *mc],
             ["mc-moment", "--gamma", "1", "--p", "-0.5", "--t=-0.5", "--chi", "1", *mc],
             ["tail", "--gamma", "1", "--alpha", "1.2", "--u-min", "0.5", "--u-max", "1",
              "--u-count", "2", "--eta", "0.7", *mc],
             ["small-dev", "--gamma", "1", "--eps", "1", *mc],
             ["verify", "--suite", "all", "--seed", "7", "--replicates", "100", "--n-modes", "8"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert gmcint.cli.main(argv) in (0, 2), argv  # 2: a check of the small sample failed
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        out1 = subprocess.run(
            [sys.executable, "-m", "gmcint.cli", "exact", "--gamma", "1", "--p", "1",
             "--a", "0.5", "--b", "0.5"],
            capture_output=True, text=True,
        )
        assert out1.returncode == 0
        doc = json.loads(out1.stdout)
        assert float(doc["results"][0]["value"]) == pytest.approx(math.pi / 8.0, rel=1e-10)
