"""Minimization primitive: preconditioned L-BFGS.

The quasi-Newton routine here differs from off-the-shelf variants in two
ways that the path optimizer depends on:

* the objective may return +inf to veto an iterate (the line search treats
  that as "step too far" and backtracks), which keeps discrete paths on the
  open collision-free cone without penalty terms;
* the initial inverse-Hessian guess is a caller-supplied linear operator
  (the exact inverse of the kinetic block of the action Hessian), without
  which the conditioning degrades quadratically in the node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["OptimizeOutcome", "lbfgs"]

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60
_CURVATURE_FLOOR = 1e-12


@dataclass(frozen=True)
class OptimizeOutcome:
    """Result of :func:`lbfgs`.

    status is one of "converged", "max-iterations", "line-search-failure".
    converged means the gradient test ||g|| <= grad_tol * (1 + |f|) passed.
    """

    x: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    n_evals: int
    converged: bool
    status: str


def lbfgs(
    fun_grad: Callable[[np.ndarray], tuple[float, np.ndarray | None]],
    x0: np.ndarray,
    grad_tol: float = 1e-8,
    max_iterations: int = 500,
    memory: int = 12,
    apply_h0: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OptimizeOutcome:
    """Minimize a smooth function with limited-memory BFGS.

    Args:
        fun_grad: Maps a flat vector to (value, gradient). A value of +inf
            rejects the point; the gradient is ignored there and may be None.
        x0: Starting point. Must have finite objective.
        grad_tol: Relative gradient tolerance; convergence is declared when
            ||g||_2 <= grad_tol * (1 + |value|).
        max_iterations: Outer iteration cap.
        memory: Number of (s, y) correction pairs kept.
        apply_h0: Optional positive-definite preconditioner; applied where
            the identity initial inverse Hessian would be.

    Returns:
        An :class:`OptimizeOutcome`; the best iterate seen is returned even
        on failure statuses.
    """
    x = np.asarray(x0, dtype=float).copy()
    n_evals = 0

    def evaluate(z):
        nonlocal n_evals
        n_evals += 1
        f, g = fun_grad(z)
        return float(f), g

    f, g = evaluate(x)
    if not np.isfinite(f):
        raise ValueError("starting point has non-finite objective")
    g = np.asarray(g, dtype=float)

    precond = apply_h0 if apply_h0 is not None else (lambda q: q)
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    rho_list: list[float] = []
    status = "max-iterations"
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= grad_tol * (1.0 + abs(f)):
            status = "converged"
            iterations -= 1
            break

        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        z = precond(q)
        if y_list:
            y_last = y_list[-1]
            denom = float(y_last @ precond(y_last))
            if denom > 0.0:
                z = z * (float(s_list[-1] @ y_last) / denom)
        for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
            b = rho * float(y @ z)
            z += (a - b) * s
        d = -z
        slope = float(g @ d)
        if slope >= 0.0:
            # corrections went bad; restart from the preconditioned gradient
            s_list.clear()
            y_list.clear()
            rho_list.clear()
            d = -precond(g)
            slope = float(g @ d)

        t = 1.0
        f_new = math.inf
        g_new = None
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + t * d
            f_new, g_new = evaluate(x_new)
            if np.isfinite(f_new) and f_new <= f + _ARMIJO_C1 * t * slope:
                break
            t *= 0.5
        else:
            status = "line-search-failure"
            break

        g_new = np.asarray(g_new, dtype=float)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > _CURVATURE_FLOOR * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > memory:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        x, f, g = x_new, f_new, g_new

    gnorm = float(np.linalg.norm(g))
    if status != "converged" and gnorm <= grad_tol * (1.0 + abs(f)):
        status = "converged"
    return OptimizeOutcome(
        x=x,
        value=f,
        grad_norm=gnorm,
        iterations=iterations,
        n_evals=n_evals,
        converged=status == "converged",
        status=status,
    )
