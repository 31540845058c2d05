import math
import time

import numpy as np
import pytest

from gmcint.errors import ConvergenceError
from gmcint.quadrature import integrate_panels


def counted(f):
    """f, and a list that records the t shape of every call of it."""
    shapes = []

    def wrapped(t):
        shapes.append(t.shape)
        return f(t)

    return wrapped, shapes


def test_rows_of_unequal_length():
    # the shorter rows are padded with zero-width panels at their last edge
    edges = [[0.0, 1.0, 2.0, 3.0, 5.0], [0.0, 0.5, 4.0, 4.0, 4.0], [0.0, 0.25, 0.25, 0.25, 0.25]]
    got = integrate_panels(lambda t: np.exp(-t), edges)
    want = [-math.expm1(-5.0), -math.expm1(-4.0), -math.expm1(-0.25)]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_kink_forces_refinement():
    # the kink at 0.5 lies inside the panel [0.3, 1.2], so it is bisected
    f, shapes = counted(lambda t: np.abs(t - 0.5))
    got = integrate_panels(f, [[0.0, 0.3, 1.2]])[0]
    assert len(shapes) > 1
    assert got == pytest.approx(0.5**2 / 2.0 + 0.7**2 / 2.0, rel=1e-14)


def test_row_alone_equals_row_in_batch():
    # kinks at different places give the rows different refinement depths
    kinks = np.array([0.5, 1.0 / 3.0, 0.9, 2.0])

    def integrand(c):
        return lambda t: np.abs(t - c[:, None, None]) + np.sin(3.0 * t)

    edges = np.tile([0.0, 0.6, 1.0, 1.5], (len(kinks), 1))
    batch = integrate_panels(integrand(kinks), edges)
    for i in range(len(kinks)):
        alone = integrate_panels(integrand(kinks[i : i + 1]), edges[i : i + 1])
        assert alone[0] == batch[i]


def test_non_finite_integrand():
    with pytest.raises(ConvergenceError, match="non-finite"), np.errstate(invalid="ignore"):
        integrate_panels(lambda t: np.where(t > 0.7, np.inf, 1.0), [[0.0, 0.5, 1.0]])


def test_singularity_stalls():
    # an integrable 1/sqrt singularity never passes the panel test, so the
    # bisection runs to its depth cap and gives up there, quickly
    t0 = time.monotonic()
    with pytest.raises(ConvergenceError, match="stalled"):
        integrate_panels(lambda t: 1.0 / np.sqrt(np.abs(t - 1.0 / 3.0)), [[0.0, 1.0]])
    assert time.monotonic() - t0 < 5.0
