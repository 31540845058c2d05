"""Gauss-Legendre integration on the panel ladder, in one round.

One kernel, `integrate_panels`, is the only code that integrates on the
one geometric ``LADDER``; the double gamma evaluator and the integral
identity check both call it.  It integrates a batch of rows at once, every
row over the same ladder panels ``first`` to ``stop - 1``.  It calls the
integrand once, on the ladder nodes that all rows share, at the 32 nodes
and at the 16 nodes of the error estimate of every panel.  There is no
refinement: a panel whose two rules disagree is an error, since both
callers place their panels where the integrand is smooth.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

_GL32_X, _GL32_W = np.polynomial.legendre.leggauss(32)
_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_GL_X = np.concatenate((_GL32_X, _GL16_X))  # both rules in one integrand call

# A panel passes when its two rules agree to _REL_TOL * (_ABS_FLOOR + |value|).
# The test guards smoothness; it is not the error of the 32-node value, which
# is what is summed.  Rounding alone moves the difference of the two rules by
# up to 2e-12 on the double gamma's panels at gamma >= 0.01, while a kink or
# an integrable singularity inside a panel moves it by 1e-5 or more.
_REL_TOL = 1e-10
_ABS_FLOOR = 1.0  # makes the test an absolute one for near-zero panels

# The panel layout of every caller: edges 1e-3 * 3^k, k = 0 .. 13 (top edge
# 1594), and both rules' nodes (on a last axis) and weights, each weight
# times its panel's half width, on each panel.
LADDER = np.cumprod(np.concatenate(([1e-3], np.full(13, 3.0))))
_LADDER_HALF = 0.5 * (LADDER[1:] - LADDER[:-1])
LADDER_T = (0.5 * (LADDER[:-1] + LADDER[1:]))[:, None] + _LADDER_HALF[:, None] * _GL_X
_LADDER_W = _LADDER_HALF[:, None] * np.concatenate((_GL32_W, _GL16_W))
_RULE_STARTS = [0, len(_GL32_X)]  # where each rule's nodes begin on the node axis


def integrate_panels(f, first, stop):
    """Integrate a smooth vectorized integrand from LADDER[first] to LADDER[stop], per row.

    f takes t shaped (1, panels, nodes), the shared nodes of ladder panels
    first .. stop - 1, and returns values of the shape of t broadcast
    against its rows; it is called once.  A row's panels are added with
    math.fsum, so its integral does not depend on the other rows of the
    batch.  Returns the integral of every row of f's output.

    A panel passes when its 32- and 16-node Gauss-Legendre values are
    finite and differ by at most _REL_TOL * (_ABS_FLOOR + |value|).  Both
    rules are one product with the half-width-scaled weights, summed by
    `np.add.reduceat` along the node axis only, so a panel's values do not
    depend on the other panels or rows.  Any other panel raises
    ConvergenceError naming it.
    """
    vals = f(LADDER_T[None, first:stop])
    sums = np.add.reduceat(vals * _LADDER_W[first:stop], _RULE_STARTS, axis=-1)
    v32 = sums[..., 0]
    # the test with |v32| on the left, where a non-finite v32 or v16 fails it
    ok = np.abs(v32 - sums[..., 1]) - _REL_TOL * np.abs(v32) <= _REL_TOL * _ABS_FLOOR
    if np.count_nonzero(ok) < ok.size:
        row, j = np.argwhere(~ok)[0]
        what = ("fails its 32/16-node test" if np.isfinite(v32[row, j])
                else "has a non-finite integral")
        k = first + j
        raise ConvergenceError(f"ladder panel {k}, [{LADDER[k]:.4g}, {LADDER[k + 1]:.4g}], {what}")
    return np.array([math.fsum(row) for row in v32.tolist()])
