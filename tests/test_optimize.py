import math

import numpy as np
import numpy.testing as npt
import pytest

from weakforce.optimize import lbfgs


def test_lbfgs_quadratic_exact():
    a = np.array([1.0, 4.0, 9.0, 16.0])

    def fg(x):
        return 0.5 * float(x @ (a * x)), a * x

    out = lbfgs(fg, np.ones(4))
    assert out.converged
    assert out.status == "converged"
    npt.assert_allclose(out.x, 0.0, atol=1e-7)


def test_lbfgs_preconditioner_speeds_quadratic():
    # with the exact inverse Hessian as H0 the first step lands at the minimum
    a = np.geomspace(1.0, 1e4, 20)

    def fg(x):
        return 0.5 * float(x @ (a * x)), a * x

    plain = lbfgs(fg, np.ones(20), max_iterations=200)
    precond = lbfgs(fg, np.ones(20), apply_h0=lambda q: q / a)
    assert precond.converged
    assert precond.iterations <= 3
    assert precond.iterations < plain.iterations


def test_lbfgs_rosenbrock_valley():
    def fg(x):
        v = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        g = np.array(
            [
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ]
        )
        return float(v), g

    # the backtracking line search needs a few hundred iterations from the
    # classic hard start; what matters is that it gets there
    out = lbfgs(fg, np.array([-1.2, 1.0]), max_iterations=1000)
    assert out.converged
    npt.assert_allclose(out.x, [1.0, 1.0], atol=1e-5)


def test_lbfgs_infinite_region_is_avoided():
    """+inf values act as a feasibility wall: iterates never cross it."""

    def fg(x):
        if x[0] <= 0.1:
            return math.inf, None
        v = (x[0] - 0.2) ** 2 * 0.5 + x[0] ** -1 * 1e-4
        g = np.array([x[0] - 0.2 - 1e-4 * x[0] ** -2])
        return float(v), g

    out = lbfgs(fg, np.array([3.0]))
    assert out.converged
    assert out.x[0] > 0.1


def test_lbfgs_rejects_infinite_start():
    def fg(x):
        return math.inf, None

    with pytest.raises(ValueError):
        lbfgs(fg, np.zeros(2))


def test_lbfgs_iteration_cap_reported():
    # a slow narrow valley with a tiny budget must flag non-convergence
    def fg(x):
        v = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        g = np.array(
            [
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ]
        )
        return float(v), g

    out = lbfgs(fg, np.array([-1.2, 1.0]), max_iterations=3)
    assert not out.converged
    assert out.status == "max-iterations"
