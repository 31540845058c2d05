"""The benchmark's layer tracer still finds and wraps every name it traces.

``perfbench/tracer.py`` patches the package's entry points by name.  If a
refactor renames or re-binds one of them, its per-layer metrics read zero
without any error, so these tests fail instead.
"""
import importlib.util
from pathlib import Path

import pytest

from gmcint import exactlaw, quadrature, specfun, verify

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_traces_the_quadrature_and_specfun_layers(tracer):
    specfun.double_gamma_evaluator.cache_clear()  # so the moment needs fresh double gamma values
    tr = tracer.install()
    patches = list(tr._patches)
    try:
        assert tr.missing == []
        exactlaw.exact_moment(exactlaw.GmcParams(0.3, 0.5, 0.0, 0.0))
        verify.quadrature_identity_check(0.5, -1.0)
    finally:
        tr.uninstall()
    layers = {span[3] for span in tr.spans}
    assert {"quadrature", "specfun", "exactlaw", "verify"} <= layers
    totals = tracer.summarize(tr.spans)
    assert totals["specfun.dgamma_fresh"] > 0  # a log_value span with a quadrature child
    assert totals["quadrature.calls"] > 0 and totals["quadrature.integrand_evals"] > 0
    # uninstall puts every original back
    assert patches
    for owner, attr, original in patches:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original
    assert specfun.integrate_panels is quadrature.integrate_panels
    assert verify.integrate_panels is quadrature.integrate_panels


def test_a_lone_value_is_one_log_value_span(tracer):
    # a lone value takes the signed sums' route without re-entering log_value,
    # so specfun.dgamma_calls counts calls, each with its one quadrature child
    tr = tracer.install()
    try:
        specfun.DoubleGamma(1.0).log_value(0.7)
    finally:
        tr.uninstall()
    assert [span[4] for span in tr.spans if span[3] == "specfun"] == ["log_value"]
    totals = tracer.summarize(tr.spans)
    assert totals["specfun.dgamma_calls"] == totals["specfun.dgamma_fresh"] == 1
    assert totals["quadrature.calls"] == 1


@pytest.mark.parametrize("name,args", [
    ("reflection_boundary_1d", (1.0, 1.5)),
    ("derivative_martingale_moment", (-1.0,)),
])
def test_a_closed_form_is_one_exactlaw_span_over_one_log_value_span(tracer, name, args):
    # both reach the double gamma integral through the one form route, under a name
    # the tracer wraps
    tr = tracer.install()
    try:
        assert tr.missing == []
        getattr(exactlaw, name)(*args)
    finally:
        tr.uninstall()
    spans = {(span[3], span[4]): span for span in tr.spans}
    assert [span[3:5] for span in tr.spans if span[3] != "quadrature"] == [
        ("specfun", "log_value"), ("exactlaw", name)]
    assert spans["specfun", "log_value"][10] == 1  # its one quadrature child
    totals = tracer.summarize(tr.spans)
    assert totals["exactlaw.calls"] == totals["specfun.dgamma_fresh"] == 1
    assert totals["quadrature.calls"] == 1


def test_install_traces_the_field_and_montecarlo_layers(tracer):
    # the benchmark's Monte Carlo workloads read rows and cells off the
    # gmc_integral_batch arguments by name and time each replicate's draw
    from gmcint import field, montecarlo

    tr = tracer.install()
    try:
        assert tr.missing == []
        montecarlo.mc_moment(exactlaw.GmcParams(1.0, -0.5, 0.0, 0.0), 0.0, 0.0,
                             montecarlo.config_for(100, 16, 7, batches=10))
    finally:
        tr.uninstall()
    names = [(span[3], span[4]) for span in tr.spans]
    assert names.count(("field", "draw")) == 100
    assert names.count(("montecarlo", "mc_moment")) == 1
    batches = [span for span in tr.spans if span[3:5] == ("field", "gmc_integral_batch")]
    assert [span[11] for span in batches] == [[100, 64]]
    totals = tracer.summarize(tr.spans)
    assert [totals[k] for k in ("field.batch_calls", "field.rows", "field.draws")] == [1, 100, 100]
    assert montecarlo.gmc_integral_batch is field.gmc_integral_batch
    assert montecarlo.replicate_rng is field.replicate_rng


def test_a_traced_mc_moment_reports_every_chunk_on_four_cells_per_mode(tracer):
    # two chunks of replicates, each one gmc_integral_batch span over the plan's grid
    from gmcint import montecarlo

    tr = tracer.install()
    try:
        assert tr.missing == []
        montecarlo.mc_moment(exactlaw.GmcParams(1.0, -0.5, 0.0, 0.0), 0.0, 0.0,
                             montecarlo.config_for(200, 16, 7, batches=10))
    finally:
        tr.uninstall()
    batches = [span[11] for span in tr.spans if span[3:5] == ("field", "gmc_integral_batch")]
    assert batches == [[128, 64], [72, 64]]
    totals = tracer.summarize(tr.spans)
    assert totals["field.rows"] == totals["field.draws"] == 200
