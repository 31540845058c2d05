"""Level-synchronous adaptive Gauss-Legendre integration on the panel ladder.

One kernel, `integrate_panels`, is the only code that integrates on the
one geometric ``LADDER``; the double gamma evaluator and the integral
identity check both call it.  It integrates a batch of rows at once: row i
covers the first ``n_panels[i]`` ladder panels.  Each round evaluates every
pending panel of every row, at the 32 nodes and at the 16 nodes of the
error estimate, in a single call of the integrand.  Round 0 runs on the
ladder nodes, which all rows share; a panel whose two rules agree is
accepted and the others are bisected for the next round, so the panels of
one round all share a depth.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

_GL32_X, _GL32_W = np.polynomial.legendre.leggauss(32)
_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_GL_X = np.concatenate((_GL32_X, _GL16_X))  # both rules in one integrand call

_MAX_DEPTH = 40
_REL_TOL = 1e-13  # a panel passes when its two rules agree to _REL_TOL * (_ABS_FLOOR + |value|)
_ABS_FLOOR = 1.0  # makes the test an absolute one for near-zero panels


def _panel_nodes(lo, hi):
    """Nodes of both rules on every panel [lo, hi], on a new last axis, and the half widths."""
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[..., None] + half[..., None] * _GL_X, half


# The panel layout of every caller: edges 1e-3 * 3^k, k = 0 .. 13 (top edge
# 1594), and both rules' nodes and half widths on each ladder panel.
LADDER = np.cumprod(np.concatenate(([1e-3], np.full(13, 3.0))))
_LADDER_T, _LADDER_HALF = _panel_nodes(LADDER[:-1], LADDER[1:])


def _panel_rules(vals, half):
    """(32-node value, |32-node - 16-node| error, accepted error) of every panel.

    vals holds the integrand at the `_panel_nodes` of each panel.  A panel
    passes when its error is at most the accepted one,
    _REL_TOL * (_ABS_FLOOR + |value|).  The rule sums run along the node
    axis only, so a panel's numbers do not depend on the other panels.
    """
    v32 = half * (vals[..., :32] * _GL32_W).sum(axis=-1)
    v16 = half * (vals[..., 32:] * _GL16_W).sum(axis=-1)
    return v32, np.abs(v32 - v16), _REL_TOL * (_ABS_FLOOR + np.abs(v32))


def _first_panel(lo, hi, mask):
    """The first panel [lo, hi] where mask holds, as text; lo and hi broadcast to mask."""
    i = np.argmax(mask)
    return f"[{np.broadcast_to(lo, mask.shape).flat[i]}, {np.broadcast_to(hi, mask.shape).flat[i]}]"


def integrate_panels(f, n_panels):
    """Integrate a smooth vectorized integrand from LADDER[0] to LADDER[n_panels[i]] per row i.

    f takes t and returns values of the shape of t broadcast against the
    rows.  Round 0 calls f once on the shared ladder nodes of the first
    max(n_panels) panels, with t shaped (1, panels, nodes); a row's panels
    past its own count are masked out.  Later rounds pass t shaped (rows,
    panels, nodes), where slot [i, j] holds points of row i only, so f may
    depend on the row, as the double gamma integrand depends on its x.
    Copies of a row's own panels pad it to the common length and are masked
    out too.  Returns the integral of every row.

    A panel is accepted when its 32- and 16-node Gauss-Legendre results
    pass `_panel_rules`; otherwise it is bisected.  A row's accepted panels
    are added with math.fsum, so its integral does not depend on the other
    rows of the batch.
    """
    n_panels = np.asarray(n_panels)
    live = np.arange(n_panels.max()) < n_panels[:, None]
    width = live.shape[1]
    lo, hi = LADDER[None, :width], LADDER[None, 1 : width + 1]
    t, half = _LADDER_T[None, :width], _LADDER_HALF[:width]
    accepted = []
    for depth in range(_MAX_DEPTH + 1):
        v32, err, scale = _panel_rules(f(t), half)
        v32 = np.where(live, v32, 0.0)
        finite = np.isfinite(v32)
        if not finite.all():
            raise ConvergenceError(f"non-finite panel integral on {_first_panel(lo, hi, ~finite)}")
        fail = live & ~(err <= scale)
        if depth == _MAX_DEPTH:
            stalled = fail & (err > 1e6 * scale)
            if stalled.any():
                raise ConvergenceError(f"panel refinement stalled on {_first_panel(lo, hi, stalled)}")
        if depth == _MAX_DEPTH or not fail.any():
            accepted.append(v32)  # at the depth cap, failing panels within 1e6 of their test pass
            break
        accepted.append(np.where(fail, 0.0, v32))
        # bisect the failing panels, moved to the front of their rows
        order = np.argsort(~fail, axis=1, kind="stable")[:, : fail.sum(axis=1).max()]
        live = np.repeat(np.take_along_axis(fail, order, axis=1), 2, axis=1)
        a, b = np.take_along_axis(lo, order, axis=1), np.take_along_axis(hi, order, axis=1)
        c = 0.5 * (a + b)
        lo = np.stack((a, c), axis=-1).reshape(len(a), -1)
        hi = np.stack((c, b), axis=-1).reshape(len(a), -1)
        t, half = _panel_nodes(lo, hi)
    return np.array([math.fsum(row) for row in np.concatenate(accepted, axis=1).tolist()])
