"""Level-synchronous adaptive Gauss-Legendre panel integration.

One kernel, shared by the double gamma evaluator and the integral identity
checks, integrates a batch of rows at once.  Row i is the integral of the
integrand over the panels between consecutive entries of ``edges[i]``,
which every caller takes from the one geometric ``LADDER``.  Each round
evaluates every pending panel of every row, at the 32 nodes and at the 16
nodes of the error estimate, in a single call of the integrand.  A panel
whose two rules agree is accepted and the others are bisected for the next
round, so the panels of one round all share a depth.  ``panel_nodes`` and
``panel_rules`` are that round's nodes and acceptance test, for a caller
that runs its own first round on the ladder and passes only the failing
ones on.
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


def panel_nodes(lo, hi):
    """Nodes of both rules on every panel [lo, hi], on a new last axis, and the half widths."""
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[..., None] + half[..., None] * _GL_X, half


# The panel layout of every caller: edges 1e-3 * 3^k, k = 0 .. 13 (top edge
# 1594), and both rules' nodes and half widths on each ladder panel.
LADDER = np.cumprod(np.concatenate(([1e-3], np.full(13, 3.0))))
LADDER_T, LADDER_HALF = panel_nodes(LADDER[:-1], LADDER[1:])


def panel_rules(vals, half):
    """(32-node value, |32-node - 16-node| error, accepted error) of every panel.

    vals holds the integrand at the ``panel_nodes`` of each panel.  A panel
    passes when its error is at most the accepted one,
    _REL_TOL * (_ABS_FLOOR + |value|).  The rule sums run along the node
    axis only, so a panel's numbers do not depend on the other panels.
    """
    v32 = half * (vals[..., :32] * _GL32_W).sum(axis=-1)
    v16 = half * (vals[..., 32:] * _GL16_W).sum(axis=-1)
    return v32, np.abs(v32 - v16), _REL_TOL * (_ABS_FLOOR + np.abs(v32))


def integrate_panels(f, edges):
    """Integrate a smooth vectorized integrand over each row of panels.

    ``edges`` has shape (rows, n_edges).  f takes t shaped (rows, panels,
    nodes) and returns values of that shape.  Slot [i, j] of t holds points
    of row i only, so f may depend on the row, as the double gamma integrand
    depends on its x.  Zero-width panels pad the rows to a common length:
    they sit at the row's last edge, where f must be finite, and count 0.
    Returns the integral of every row.

    A panel is accepted when its 32- and 16-node Gauss-Legendre results
    pass `panel_rules`; otherwise it is bisected.  A row's accepted panels
    are added with math.fsum, so its integral does not depend on the other
    rows of the batch.
    """
    edges = np.asarray(edges, dtype=float)
    idle = edges[:, -1:]
    lo, hi = edges[:, :-1], edges[:, 1:]
    accepted = []
    for depth in range(_MAX_DEPTH + 1):
        t, half = panel_nodes(lo, hi)
        v32, err, scale = panel_rules(f(t), half)
        bad = ~np.isfinite(v32)
        if bad.any():
            i = np.argmax(bad)
            raise ConvergenceError(f"non-finite panel integral on [{lo.flat[i]}, {hi.flat[i]}]")
        if depth == _MAX_DEPTH:
            stalled = err > 1e6 * scale
            if stalled.any():
                i = np.argmax(stalled)
                raise ConvergenceError(f"panel refinement stalled on [{lo.flat[i]}, {hi.flat[i]}]")
            accepted.append(v32)
            break
        ok = err <= scale
        accepted.append(np.where(ok, v32, 0.0))
        if ok.all():
            break
        # bisect the failing panels, moved to the front of their rows
        order = np.argsort(ok, axis=1, kind="stable")[:, : (~ok).sum(axis=1).max()]
        split = ~np.take_along_axis(ok, order, axis=1)
        a = np.where(split, np.take_along_axis(lo, order, axis=1), idle)
        b = np.where(split, np.take_along_axis(hi, order, axis=1), idle)
        c = 0.5 * (a + b)
        lo = np.stack((a, c), axis=-1).reshape(len(a), -1)
        hi = np.stack((c, b), axis=-1).reshape(len(a), -1)
    return np.array([math.fsum(row) for row in np.hstack(accepted).tolist()])
