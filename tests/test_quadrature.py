import math
import time

import numpy as np
import pytest

from gmcint.errors import ConvergenceError
from gmcint.quadrature import LADDER, integrate_panels


def exp_integral(n):
    """The integral of e^{-t} over the first n ladder panels, without cancellation."""
    return -math.exp(-LADDER[0]) * math.expm1(LADDER[0] - LADDER[n])


def counted(f):
    """f, and a list that records the t shape of every call of it."""
    shapes = []

    def wrapped(t):
        shapes.append(t.shape)
        return f(t)

    return wrapped, shapes


def test_rows_of_unequal_length():
    # the shorter rows have their panels past their own count masked out
    n_panels = [13, 5, 1, 9]
    got = integrate_panels(lambda t: np.exp(-t), n_panels)
    want = [exp_integral(n) for n in n_panels]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_round_zero_runs_once_on_the_shared_nodes():
    # a smooth integrand passes on the ladder, so round 0 is the only call
    f, shapes = counted(lambda t: np.exp(-t) * np.array([[[1.0]], [[2.0]]]))
    got = integrate_panels(f, [3, 5])
    assert shapes == [(1, 5, 48)]
    want = [exp_integral(3), 2.0 * exp_integral(5)]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_kink_forces_refinement():
    # the kink at 0.5 lies inside the ladder panel [0.243, 0.729], so it is bisected
    assert LADDER[5] < 0.5 < LADDER[6]
    f, shapes = counted(lambda t: np.abs(t - 0.5))
    got = integrate_panels(f, [7])[0]
    assert len(shapes) > 1
    assert shapes[1][0] == 1 and shapes[1][2] == 48
    assert got == pytest.approx((0.5 - LADDER[0]) ** 2 / 2.0 + (LADDER[7] - 0.5) ** 2 / 2.0,
                                rel=1e-14)


def test_row_alone_equals_row_in_batch():
    # kinks at different places give the rows different refinement depths
    kinks = np.array([0.5, 1.0 / 3.0, 0.9, 2.0])
    n_panels = np.array([7, 6, 8, 7])

    def integrand(c):
        return lambda t: np.abs(t - c[:, None, None]) + np.sin(3.0 * t)

    f, shapes = counted(integrand(kinks))
    batch = integrate_panels(f, n_panels)
    assert len(shapes) > 2
    for i in range(len(kinks)):
        alone = integrate_panels(integrand(kinks[i : i + 1]), n_panels[i : i + 1])
        assert alone[0] == batch[i]


def test_non_finite_integrand():
    with pytest.raises(ConvergenceError, match="non-finite"), np.errstate(invalid="ignore"):
        integrate_panels(lambda t: np.where(t > 0.7, np.inf, 1.0), [7])


def test_singularity_stalls():
    # an integrable 1/sqrt singularity never passes the panel test, so the
    # bisection runs to its depth cap and gives up there, quickly
    t0 = time.monotonic()
    with pytest.raises(ConvergenceError, match="stalled"):
        integrate_panels(lambda t: 1.0 / np.sqrt(np.abs(t - 1.0 / 3.0)), [6])
    assert time.monotonic() - t0 < 5.0
