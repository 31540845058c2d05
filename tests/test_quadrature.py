import math

import numpy as np
import pytest

from gmcint.errors import ConvergenceError
from gmcint.quadrature import LADDER, integrate_panels


def exp_integral(first, stop):
    """The integral of e^{-t} over ladder panels first .. stop - 1, without cancellation."""
    return -math.exp(-LADDER[first]) * math.expm1(LADDER[first] - LADDER[stop])


def counted(f):
    """f, and a list that records the t shape of every call of it."""
    shapes = []

    def wrapped(t):
        shapes.append(t.shape)
        return f(t)

    return wrapped, shapes


def test_one_call_on_the_shared_nodes():
    for first in (0, 3):
        f, shapes = counted(lambda t: np.exp(-t) * np.array([[[1.0]], [[2.0]]]))
        got = integrate_panels(f, first, first + 5)
        assert shapes == [(1, 5, 48)]
        want = [exp_integral(first, first + 5), 2.0 * exp_integral(first, first + 5)]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_kink_fails_its_panel():
    # the kink at 0.5 lies inside ladder panel 5, [0.243, 0.729]; nothing bisects it
    assert LADDER[5] < 0.5 < LADDER[6]
    f, shapes = counted(lambda t: np.abs(t - 0.5))
    with pytest.raises(ConvergenceError, match=r"ladder panel 5, \[0\.243.*32/16-node test"):
        integrate_panels(f, 0, 7)
    assert len(shapes) == 1


def test_singularity_fails_its_panel():
    # an integrable 1/sqrt singularity at 1/3, inside ladder panel 5
    with pytest.raises(ConvergenceError, match=r"ladder panel 5, .*32/16-node test"):
        integrate_panels(lambda t: 1.0 / np.sqrt(np.abs(t - 1.0 / 3.0)), 3, 6)


def test_non_finite_integrand():
    # the first panel with a node above 0.7 is panel 5
    with pytest.raises(ConvergenceError, match=r"ladder panel 5, .*non-finite"), \
            np.errstate(invalid="ignore"):
        integrate_panels(lambda t: np.where(t > 0.7, np.inf, 1.0), 0, 7)


def test_row_alone_equals_row_in_batch():
    c = np.array([0.5, 1.0 / 3.0, 0.9, 2.0])

    def integrand(c):
        return lambda t: np.exp(-c[:, None, None] * t) + 1.0 / (1.0 + t)

    batch = integrate_panels(integrand(c), 3, 13)
    for i in range(len(c)):
        alone = integrate_panels(integrand(c[i : i + 1]), 3, 13)
        assert alone[0] == batch[i]
