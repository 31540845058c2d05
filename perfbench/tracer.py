"""Span tracer that times gmcint's layers from outside.

The tracer replaces public functions under the names their consumers bind
(a module attribute such as ``gmcint.specfun.integrate_panels``, or a class
attribute such as ``DoubleGamma.log_value``) with wrappers that record one
span per call, and puts the originals back on ``uninstall``.  Nothing in
the package itself changes.

Spans are kept in memory as tuples and written out once, after the pass.
Each thread has its own span stack, so worker-thread spans (field batches
and draws) nest correctly.  A span is *outermost* when no span of the same
layer encloses it on its thread; only outermost spans count towards a
layer's calls and busy time.  A span's *covered* time is the part of its
interval taken by the topmost enclosed spans of other layers, so its self
time is its duration minus covered.
"""
from __future__ import annotations

import inspect
import itertools
import json
import threading
import time

# (span id, parent id or -1, request id, layer, name, thread, start, end,
#  covered seconds, 1 if outermost in its layer, number of child spans of
#  other layers, extra: integrand points or [rows, cells])
FIELDS = ("span", "parent", "request", "layer", "name", "thread", "start_s",
          "end_s", "covered_s", "outermost", "other_children", "extra")


class _Entry:
    __slots__ = ("span", "layer", "start", "covered", "kids", "extra")

    def __init__(self, span, layer, start):
        self.span = span
        self.layer = layer
        self.start = start
        self.covered = 0.0
        self.kids = 0
        self.extra = None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.request = 0
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.depth = {}
        return stack

    def _open(self, layer):
        stack = self._stack()
        depth = self._local.depth
        entry = _Entry(next(self._ids), layer, time.perf_counter())
        depth[layer] = depth.get(layer, 0) + 1
        stack.append(entry)
        return entry

    def _close(self, entry, name):
        end = time.perf_counter()
        stack = self._local.stack
        depth = self._local.depth
        stack.pop()
        depth[entry.layer] -= 1
        parent = stack[-1] if stack else None
        if parent is not None:
            if parent.layer != entry.layer:
                parent.covered += end - entry.start
                parent.kids += 1
            else:
                # a same-layer child is transparent: its other-layer
                # children are also topmost other-layer children of the parent
                parent.covered += entry.covered
                parent.kids += entry.kids
        self.spans.append((
            entry.span, parent.span if parent is not None else -1, self.request,
            entry.layer, name, threading.get_ident(), entry.start, end,
            entry.covered, int(depth[entry.layer] == 0), entry.kids, entry.extra,
        ))

    def record(self, layer, name, start, extra=None):
        """Add a leaf span that began at ``start`` and ends now."""
        entry = _Entry(next(self._ids), layer, start)
        entry.extra = extra
        self._stack().append(entry)
        self._local.depth[layer] = self._local.depth.get(layer, 0) + 1
        self._close(entry, name)

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, make):
        # a class attribute is taken from the class itself, not a base class
        original = (owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None))
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr, layer, name=None, extra=None):
        """Record a span around every call of ``owner.attr``.

        ``extra(bound_arguments)`` may return a value stored with the span.
        """
        name = name or attr
        tracer = self

        def make(original):
            sig = inspect.signature(original) if extra else None

            def wrapper(*args, **kwargs):
                entry = tracer._open(layer)
                if sig is not None:
                    entry.extra = extra(sig.bind(*args, **kwargs).arguments)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._close(entry, name)

            wrapper.__wrapped__ = original
            return wrapper

        self._patch(owner, attr, make)

    def wrap_panels(self, owner, layer="quadrature"):
        """Span around ``owner.integrate_panels`` that counts integrand points."""
        tracer = self

        def make(original):
            def wrapper(f, *args, **kwargs):
                points = [0]

                def counted(t):
                    points[0] += len(t)
                    return f(t)

                entry = tracer._open(layer)
                try:
                    return original(counted, *args, **kwargs)
                finally:
                    entry.extra = points[0]
                    tracer._close(entry, "integrate_panels")

            wrapper.__wrapped__ = original
            return wrapper

        self._patch(owner, "integrate_panels", make)

    def wrap_rng(self, owner, layer="field"):
        """Time ``owner.replicate_rng`` plus the normal draw made from it."""
        tracer = self

        class TimedGenerator:
            __slots__ = ("_rng", "_start")

            def __init__(self, rng, start):
                self._rng = rng
                self._start = start

            def __getattr__(self, attr):
                return getattr(self._rng, attr)

            def standard_normal(self, *args, **kwargs):
                try:
                    return self._rng.standard_normal(*args, **kwargs)
                finally:
                    tracer.record(layer, "draw", self._start)

        def make(original):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                return TimedGenerator(original(*args, **kwargs), start)

            wrapper.__wrapped__ = original
            return wrapper

        self._patch(owner, "replicate_rng", make)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path, header):
        with open(path, "w") as fh:
            json.dump({**header, "fields": FIELDS, "spans": self.spans}, fh)


def install() -> Tracer:
    """Wrap every traced entry point of the gmcint layers."""
    from gmcint import exactlaw, montecarlo, specfun, verify

    tr = Tracer()
    for module in (specfun, verify):
        tr.wrap_panels(module)
    tr.wrap(specfun.DoubleGamma, "log_value", "specfun")
    tr.wrap(exactlaw, "hyp2f1_negative", "specfun")
    for module in (exactlaw, verify):
        for fn in EXACTLAW_ENTRY_POINTS:
            if module is exactlaw or fn in vars(module):
                tr.wrap(module, fn, "exactlaw")
    tr.wrap(montecarlo, "gmc_integral_batch", "field",
            extra=lambda a: [len(a["alphas"]), a["grid"].m_cells])
    tr.wrap_rng(montecarlo)
    tr.wrap(montecarlo, "mc_moment", "montecarlo")
    tr.wrap(verify, "run_identity_suite", "verify")
    tr.wrap(verify, "quadrature_identity_check", "verify")
    return tr


EXACTLAW_ENTRY_POINTS = (
    "exact_moment", "log_exact_moment", "selberg_product", "c_of_p",
    "shift_ratio", "reflection_boundary_1d", "reflection_bulk_2d",
    "law_decomposition_log_moment", "derivative_martingale_moment",
    "predict_observable",
)


def summarize(spans) -> dict:
    """Per-layer totals of one pass: counts, busy and self seconds."""
    out = dict.fromkeys((
        "quadrature.calls", "quadrature.integrand_evals", "quadrature.busy_s",
        "specfun.dgamma_calls", "specfun.dgamma_fresh", "specfun.dgamma_fresh_s",
        "specfun.hyp2f1_calls", "specfun.hyp2f1_busy_s",
        "exactlaw.calls", "exactlaw.busy_s", "exactlaw.self_s",
        "verify.busy_s", "verify.self_s",
        "field.batch_calls", "field.rows", "field.bytes_computed", "field.busy_s",
        "field.draws", "field.draw_s", "montecarlo.busy_s",
    ), 0)
    for _, _, _, layer, name, _, start, end, covered, outermost, kids, extra in spans:
        dur = end - start
        if layer == "specfun" and name == "log_value":
            out["specfun.dgamma_calls"] += 1
            if kids:  # a fresh value runs one window quadrature
                out["specfun.dgamma_fresh"] += 1
                out["specfun.dgamma_fresh_s"] += dur
        elif name == "hyp2f1_negative":
            out["specfun.hyp2f1_calls"] += 1
            out["specfun.hyp2f1_busy_s"] += dur
        elif layer == "field" and name == "draw":
            out["field.draws"] += 1
            out["field.draw_s"] += dur
        elif layer == "field":
            rows, cells = extra
            out["field.batch_calls"] += 1
            out["field.rows"] += rows
            # coefficient, field and density rows: the float64 arrays a batch fills
            out["field.bytes_computed"] += 3 * 8 * rows * cells
            out["field.busy_s"] += dur
        if not outermost:
            continue
        if layer == "quadrature":
            out["quadrature.calls"] += 1
            out["quadrature.integrand_evals"] += extra
            out["quadrature.busy_s"] += dur
        elif layer == "exactlaw":
            out["exactlaw.calls"] += 1
            out["exactlaw.busy_s"] += dur
            out["exactlaw.self_s"] += dur - covered
        elif layer == "verify":
            out["verify.busy_s"] += dur
            out["verify.self_s"] += dur - covered
        elif layer == "montecarlo":
            out["montecarlo.busy_s"] += dur
    return out
