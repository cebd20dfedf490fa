"""Discrete action functional and free-time minimization.

A path from x to y is discretized as M+1 nodes on a uniform time grid over
[0, T]. The fixed-energy action of a piecewise-linear path is

    A_E = sum_k ||d_k||^2 / dt  +  dt * trapezoid(U)  +  E * T,

with d_k the node differences and the weighted norm throughout. The kinetic
term is exact for piecewise-linear paths. Every discrete value respects the
continuum lower bounds

    A_E >= E * T   and   A_E >= 2 sqrt(E) ||x - y||.

The first holds because U > 0 makes the potential term positive. The second
follows from Cauchy-Schwarz, sum ||d_k||^2 / dt >= (sum ||d_k||)^2 / T >=
||x - y||^2 / T, and then AM-GM, ||x - y||^2 / T + E * T >= 2 sqrt(E) ||x - y||.
The trapezoid rule can undershoot the exact potential integral (along a
straight segment a pair's r^(-alpha) is concave near its closest approach),
so the discrete value is not yet a certified upper bound on the exact action
of the piecewise-linear path.

Minimization eliminates the duration. For fixed nodes A(T) = S/T + T (P + E),
S and P being the kinetic and potential parts at T = 1, so the minimum over T
is the T-reduced action F = 2 sqrt(S (P + E)) at T* = sqrt(S / (P + E)), and
F's node gradient is A's at T*. L-BFGS on F minimizes A over the nodes and T
together (Maupertuis' principle with the time eliminated). A cold start first
walks a bracket over T on fixed-T minima, which picks the basin, and starts F
from its best nodes; the walk starts at the start path's own T*, since the
potential keeps T* well below the free-particle ||x - y|| / sqrt(E). A warm
start starts F from its own nodes. A cold result whose interior-node energy
misses E is solved again on the grid refined to 2M, and to 4M if it still
misses. On request, a converged result ends with exact-Hessian Newton-CG
rounds on the nodes at its duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import optimize
from .configspace import min_separation, weighted_distance, weighted_norm
from .dynamics import (
    CollisionError,
    PotentialParams,
    acceleration,
    pair_terms,
    potential,
    potential_hessian_vec,
)

__all__ = [
    "DiscretePath",
    "ActionValue",
    "SolverSettings",
    "MinimizeResult",
    "straight_path",
    "path_action",
    "path_action_gradient",
    "energy_profile",
    "el_residual",
    "discretization_scale",
    "minimize_fixed_time",
    "minimize_free_time",
    "maupertuis_lower_bound",
]


@dataclass(frozen=True)
class DiscretePath:
    """Piecewise-linear path: M+1 nodes of shape (N, n) on [0, total_time]."""

    total_time: float
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 3 or nodes.shape[0] < 2:
            raise ValueError(f"nodes must be (M+1, N, n) with M >= 1, got shape {nodes.shape}")
        if not self.total_time > 0.0:
            raise ValueError(f"total_time must be positive, got {self.total_time}")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("path nodes must be finite")
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_segments(self) -> int:
        return self.nodes.shape[0] - 1

    @property
    def dt(self) -> float:
        return self.total_time / self.n_segments

    @property
    def start(self) -> np.ndarray:
        return self.nodes[0]

    @property
    def end(self) -> np.ndarray:
        return self.nodes[-1]

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.total_time, self.n_segments + 1)

    def reversed(self) -> "DiscretePath":
        """The same geometric path traversed backwards."""
        return DiscretePath(self.total_time, self.nodes[::-1].copy())

    def refined(self) -> "DiscretePath":
        """Double the segment count by inserting linear midpoints."""
        mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        out = np.empty((2 * self.n_segments + 1,) + self.nodes.shape[1:])
        out[0::2] = self.nodes
        out[1::2] = mids
        return DiscretePath(self.total_time, out)

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Linear interpolation at given times (clipped to [0, T])."""
        t = np.clip(np.asarray(times, dtype=float), 0.0, self.total_time)
        pos = t / self.dt
        idx = np.minimum(pos.astype(int), self.n_segments - 1)
        frac = (pos - idx)[:, None, None]
        return self.nodes[idx] + frac * (self.nodes[idx + 1] - self.nodes[idx])


def straight_path(x: np.ndarray, y: np.ndarray, total_time: float, n_segments: int) -> DiscretePath:
    """Uniform straight-line path from x to y."""
    s = np.linspace(0.0, 1.0, n_segments + 1)[:, None, None]
    return DiscretePath(total_time, (1.0 - s) * x + s * y)


@dataclass(frozen=True)
class ActionValue:
    """Action of one path at one energy, with its breakdown.

    value = kinetic + potential + energy_term, where energy_term = E * T.
    """

    value: float
    kinetic: float
    potential: float
    energy_term: float


def maupertuis_lower_bound(x: np.ndarray, y: np.ndarray, masses: np.ndarray, energy: float) -> float:
    """2 sqrt(E) ||x - y||: a lower bound for the action of any path x -> y."""
    return 2.0 * math.sqrt(energy) * weighted_distance(x, y, masses)


def _value_grad_parts(
    nodes: np.ndarray, total_time: float | None, energy: float, params: PotentialParams,
    floor: float = 0.0,
):
    """The action evaluator: one pair-kernel pass over all nodes.

    With total_time None, T is the nodes' own T* = sqrt(S / (P + E)), so
    the value is the T-reduced action F and the gradient is F's.

    Returns (ActionValue, interior-node gradient, dA/dT, smallest squared
    node-pair separation, T), or None when a node pair is closer than floor.
    """
    min_sq, u, du = pair_terms(nodes, params, floor)
    if u is None:
        return None
    m_seg = nodes.shape[0] - 1
    masses = params.masses
    d = np.diff(nodes, axis=0)
    squares = 0.5 * float(np.einsum("i,sic,sic->", masses, d, d))
    trapezoid = float(u[0] / 2.0 + u[1:-1].sum() + u[-1] / 2.0)
    if total_time is None:
        total_time = math.sqrt(squares * m_seg / (trapezoid / m_seg + energy))
    dt = total_time / m_seg
    kinetic = squares / dt
    pot = dt * trapezoid
    e_term = energy * total_time
    act = ActionValue(
        value=kinetic + pot + e_term, kinetic=kinetic, potential=pot, energy_term=e_term
    )

    # (m / dt) * (2 x_k - x_(k-1) - x_(k+1)) + dt * dU_k, built in place
    grad = 2.0 * nodes[1:-1]
    grad -= nodes[:-2]
    grad -= nodes[2:]
    grad *= masses[None, :, None] / dt
    du_interior = du[1:-1]
    du_interior *= dt
    grad += du_interior
    da_dt = (pot - kinetic) / total_time + energy
    return act, grad, da_dt, min_sq, total_time


def path_action(path: DiscretePath, energy: float, params: PotentialParams) -> ActionValue:
    """Evaluate the discrete fixed-energy action of a path.

    Raises:
        CollisionError: If any node has two bodies at the same point.
        ValueError: If energy is not positive.
    """
    if energy <= 0.0:
        raise ValueError(f"energy must be positive, got {energy}")
    return _value_grad_parts(path.nodes, path.total_time, energy, params)[0]


def path_action_gradient(
    path: DiscretePath, energy: float, params: PotentialParams
) -> tuple[np.ndarray, float]:
    """Gradient of the action: (interior-node gradient of shape (M-1, N, n), dA/dT)."""
    _, grad, da_dt, _, _ = _value_grad_parts(path.nodes, path.total_time, energy, params)
    return grad, da_dt


def energy_profile(path: DiscretePath, params: PotentialParams) -> np.ndarray:
    """h = K - U at interior nodes, with central-difference velocities. Shape (M-1,)."""
    dt = path.dt
    v = (path.nodes[2:] - path.nodes[:-2]) / (2.0 * dt)
    kin = 0.5 * np.einsum("i,sic,sic->s", params.masses, v, v)
    return kin - potential(path.nodes[1:-1], params)


def el_residual(path: DiscretePath, params: PotentialParams) -> float:
    """Worst interior-node defect of the equations of motion.

    Returns max_k || (gamma_{k+1} - 2 gamma_k + gamma_{k-1}) / dt^2 - a(gamma_k) ||
    in the weighted norm; near zero exactly when the nodes sample a solution.
    """
    dt = path.dt
    second = (path.nodes[2:] - 2.0 * path.nodes[1:-1] + path.nodes[:-2]) / dt**2
    return _worst_norm(second - acceleration(path.nodes[1:-1], params), params.masses)


def _worst_norm(vectors: np.ndarray, masses: np.ndarray) -> float:
    """Largest weighted norm among a stack of (N, n) vectors."""
    return float(np.sqrt(0.5 * np.einsum("i,sic,sic->s", masses, vectors, vectors)).max())


def discretization_scale(path: DiscretePath, params: PotentialParams) -> float:
    """Expected size of el_residual for nodes sampling a smooth solution.

    The three-point second difference of a smooth curve carries an error
    ~ ||gamma''''|| dt^2 / 12; the fourth derivative is estimated from
    fourth differences of the nodes themselves.
    """
    if path.n_segments < 4:
        raise ValueError("need at least 4 segments to estimate the discretization scale")
    nodes = path.nodes
    fourth = nodes[4:] - 4.0 * nodes[3:-1] + 6.0 * nodes[2:-2] - 4.0 * nodes[1:-3] + nodes[:-4]
    return _worst_norm(fourth, params.masses) / (12.0 * path.dt**2)


_MAX_ITERATIONS = 1500  # L-BFGS cap of one inner solve
_MEMORY = 12
_COLLISION_FLOOR_SCALE = 1e-3  # veto floor over the endpoints' min separation
# the bracket over T only compares the values of fixed-T minima, which this
# looser gradient test already resolves; much looser ones change the basin
# it picks
_BRACKET_GRAD_TOL = 1e-6
_MAX_REFINEMENTS = 2  # grid doublings of a cold miss: M -> 2M -> 4M
_NEWTON_CG_TOL = 1e-3
_NEWTON_MAX_CG = 250


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances of the path minimizers that a caller may set.

    grad_tol: relative; the inner L-BFGS solve at fixed T stops when the
        interior-node gradient norm is at most grad_tol * (1 + |A|).
    energy_tol: relative; the free-time result is accepted when the
        interior-node energy satisfies |h - E| <= energy_tol * E.
    time_floor: the smallest duration T the free-time search will try;
        degenerate endpoints are solved at it.
    """

    grad_tol: float = 1e-8
    energy_tol: float = 1e-3
    time_floor: float = 1e-4


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of a path minimization.

    The action value is the trapezoid value of the best path found. It is
    not yet a certified upper bound for the infimum over all paths: the
    trapezoid rule can undershoot the exact potential integral (see the
    module docstring). status values: "converged", "inner-not-converged",
    "line-search-failure", "noise-floor", "transversality-miss",
    "degenerate-endpoints", "boundary-time-floor", "bracket-failure".
    coarse_value is the value on the requested grid of a result refined
    after a miss, else None.
    """

    path: DiscretePath
    action: ActionValue
    converged: bool
    status: str
    grad_norm: float
    iterations: int
    energy_profile: np.ndarray
    el_residual: float
    dA_dT: float
    min_sep: float
    degenerate: bool = False
    coarse_value: float | None = None

    @property
    def value(self) -> float:
        return self.action.value


def _kinetic_preconditioner(n_interior: int, n_bodies: int, dim: int, dt: float, masses):
    """Exact inverse of the kinetic Hessian block as an operator on flats.

    The kinetic part of the action has Hessian (m_i/dt) * T in each body
    coordinate, with T = tridiag(-1, 2, -1) of size n. Its inverse is the
    discrete Green's function of the second difference, applied in O(n) by
    two prefix sums over all N*n coordinate columns at once. With
    x_0 = x_(n+1) = 0 and d_k = x_k - x_(k-1), T x = q reads
    d_(k+1) = d_k - q_k, so d_(k+1) = d_1 - P_k with P the prefix sum of q.
    The d_k sum to x_(n+1) - x_0 = 0, which fixes
    d_1 = sum_(k<=n) P_k / (n+1), and x is the prefix sum of d.
    """
    def apply(q: np.ndarray) -> np.ndarray:
        cols = q.reshape(n_interior, n_bodies * dim)
        if not np.isfinite(cols).all():
            raise ValueError("array must not contain infs or NaNs")
        prefix = np.cumsum(cols, axis=0)
        d = np.empty_like(prefix)
        d[0] = prefix.sum(axis=0) / (n_interior + 1)
        np.subtract(d[0], prefix[:-1], out=d[1:])
        x = np.cumsum(d, axis=0, out=d)
        z = x.reshape(n_interior, n_bodies, dim)
        z *= dt / masses[None, :, None]
        return z.ravel()

    return apply


def _check_segments(n_segments: int) -> None:
    # the inner solve moves the interior nodes and the transversality test
    # reads their energy, so a path needs at least one interior node
    if n_segments < 2:
        raise ValueError(f"a path needs at least 2 segments, got {n_segments}")


def _check_endpoints(x: np.ndarray, y: np.ndarray, params: PotentialParams) -> float:
    rx = min_separation(x)
    ry = min_separation(y)
    if rx <= 0.0 or ry <= 0.0:
        raise CollisionError("endpoint configuration has two bodies at the same point")
    return min(rx, ry)


def _bumped_nodes(nodes: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Perturb interior nodes with a sine envelope, keeping endpoints fixed."""
    m_plus_1 = nodes.shape[0]
    envelope = np.sin(np.pi * np.linspace(0.0, 1.0, m_plus_1))
    envelope[-1] = 0.0  # sin(pi) is 1.2e-16
    noise = rng.standard_normal(nodes.shape)
    return nodes + scale * envelope[:, None, None] * noise


def _nodes_min_sep(nodes: np.ndarray) -> float:
    return float(min_separation(nodes).min())


def _feasible_nodes(
    nodes: np.ndarray, floor: float, scale: float, rng: np.random.Generator
) -> np.ndarray:
    """Bump an initial path until every node clears the collision floor.

    Straight initial paths can pass through (or too near) a collision, e.g.
    when the endpoints swap two bodies. Random sine-enveloped bumps of
    growing amplitude almost surely fix that.
    """
    if _nodes_min_sep(nodes) > 1.5 * floor:
        return nodes
    for amplitude in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6):
        candidate = _bumped_nodes(nodes, amplitude * scale, rng)
        if _nodes_min_sep(candidate) > 1.5 * floor:
            return candidate
    raise CollisionError(
        "could not find a collision-free initial path between these endpoints"
    )


def _hessian_operator(nodes: np.ndarray, total_time: float, params: PotentialParams):
    """Exact action Hessian at fixed T as an operator on interior-node flats."""
    m_plus_1, n_bodies, dim = nodes.shape
    n_interior = m_plus_1 - 2
    dt = total_time / (m_plus_1 - 1)
    masses = params.masses
    interior = nodes[1:-1]

    def apply(q: np.ndarray) -> np.ndarray:
        v = q.reshape(n_interior, n_bodies, dim)
        kin = 2.0 * v
        kin[1:] -= v[:-1]
        kin[:-1] -= v[1:]
        out = (masses[None, :, None] / dt) * kin
        out += dt * potential_hessian_vec(interior, v, params)
        return out.ravel()

    return apply


def _pcg(apply_h, rhs: np.ndarray, apply_m_inv, rel_tol: float, max_iter: int):
    """Preconditioned conjugate gradients for H d = rhs; stops on curvature <= 0."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = apply_m_inv(r)
    rz = float(r @ z)
    if rz <= 0.0:
        return x
    p = z.copy()
    target = rel_tol * rel_tol * rz
    for _ in range(max_iter):
        hp = apply_h(p)
        php = float(p @ hp)
        if php <= 0.0:
            break
        a = rz / php
        x += a * p
        r -= a * hp
        z = apply_m_inv(r)
        rz_new = float(r @ z)
        if rz_new <= target:
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


def _newton_cleanup(
    nodes: np.ndarray,
    total_time: float,
    energy: float,
    params: PotentialParams,
    floor: float,
    rounds: int,
):
    """Newton-CG cleanup of a converged interior solve; returns (nodes, grad norm)."""
    shape = nodes[1:-1].shape
    n_interior, n_bodies, dim = shape
    apply_h0 = _kinetic_preconditioner(
        n_interior, n_bodies, dim, total_time / (n_interior + 1), params.masses
    )
    best = nodes.copy()
    grad = _value_grad_parts(best, total_time, energy, params)[1]
    gnorm = float(np.linalg.norm(grad.ravel()))
    for _ in range(rounds):
        if gnorm == 0.0:
            break
        hess = _hessian_operator(best, total_time, params)
        step = _pcg(
            hess,
            -grad.ravel(),
            apply_h0,
            rel_tol=_NEWTON_CG_TOL,
            max_iter=_NEWTON_MAX_CG,
        )
        # a full step that does not lower |g| means the gradient sits at its
        # roundoff floor; shorter steps would only trade noise
        trial = best.copy()
        trial[1:-1] += step.reshape(shape)
        parts = _value_grad_parts(trial, total_time, energy, params, floor)
        if parts is None:
            break
        tnorm = float(np.linalg.norm(parts[1].ravel()))
        if tnorm >= gnorm:
            break
        best, grad, gnorm = trial, parts[1], tnorm
    return best, gnorm


def _solve_interior(
    nodes0: np.ndarray, total_time: float | None, x: np.ndarray, y: np.ndarray,
    energy: float, params: PotentialParams, floor: float, grad_tol: float,
):
    """Minimize over the interior nodes of a path x -> y at fixed T, or the
    T-reduced action when total_time is None (preconditioned at the start
    nodes' T*). The endpoints are x and y whatever nodes0 holds there.
    """
    m_plus_1, n_bodies, dim = nodes0.shape
    n_interior = m_plus_1 - 2
    nodes = nodes0.copy()
    nodes[0], nodes[-1] = x, y
    t_pre = _value_grad_parts(nodes, None, energy, params)[4] if total_time is None else total_time

    def fun_grad(z):
        nodes[1:-1] = z.reshape(n_interior, n_bodies, dim)
        parts = _value_grad_parts(nodes, total_time, energy, params, floor)
        if parts is None:
            return math.inf, None
        return parts[0].value, parts[1].ravel()

    apply_h0 = _kinetic_preconditioner(
        n_interior, n_bodies, dim, t_pre / (m_plus_1 - 1), params.masses
    )
    outcome = optimize.lbfgs(
        fun_grad,
        nodes0[1:-1].ravel(),
        grad_tol=grad_tol,
        max_iterations=_MAX_ITERATIONS,
        memory=_MEMORY,
        apply_h0=apply_h0,
    )
    nodes[1:-1] = outcome.x.reshape(n_interior, n_bodies, dim)
    return nodes, outcome


def _inner_status(outcome: optimize.OptimizeOutcome) -> str:
    """Result status of an inner solve: its L-BFGS status, the iteration cap renamed."""
    return "inner-not-converged" if outcome.status == "max-iterations" else outcome.status


def _assemble_result(
    nodes, total_time, energy, params, outcome, status, degenerate=False, coarse_value=None
) -> MinimizeResult:
    path = DiscretePath(total_time, nodes)
    act, grad, da_dt, min_sq, _ = _value_grad_parts(path.nodes, total_time, energy, params)
    return MinimizeResult(
        path=path,
        action=act,
        converged=status == "converged",
        status=status,
        grad_norm=outcome.grad_norm,
        iterations=outcome.iterations,
        energy_profile=energy_profile(path, params),
        # grad_k / (m dt) is minus the equation-of-motion defect at node k
        el_residual=_worst_norm(grad / (params.masses[None, :, None] * path.dt), params.masses),
        dA_dT=da_dt,
        min_sep=math.sqrt(min_sq),
        degenerate=degenerate,
        coarse_value=coarse_value,
    )


def minimize_fixed_time(
    x: np.ndarray,
    y: np.ndarray,
    total_time: float,
    energy: float,
    params: PotentialParams,
    n_segments: int = 200,
    settings: SolverSettings | None = None,
) -> MinimizeResult:
    """Minimize the action over paths x -> y with the duration held fixed.

    The L-BFGS solve starts from the straight path, bumped off collisions
    when it passes too near one.

    Args:
        x, y: Endpoint configurations, collision-free.
        total_time: Path duration T > 0.
        energy: Fixed energy level E > 0.
        params: Exponent and masses.
        n_segments: Node count is n_segments + 1; at least 2.
        settings: Solver tolerances; defaults when None.

    Returns:
        A :class:`MinimizeResult`; check ``converged``.
    """
    settings = settings or SolverSettings()
    _check_segments(n_segments)
    if energy <= 0.0:
        raise ValueError(f"energy must be positive, got {energy}")
    if total_time <= 0.0:
        raise ValueError(f"total_time must be positive, got {total_time}")
    floor = _COLLISION_FLOOR_SCALE * _check_endpoints(x, y, params)
    nodes0 = straight_path(x, y, total_time, n_segments).nodes
    bump_scale = max(weighted_distance(x, y, params.masses), 1.0)
    nodes0 = _feasible_nodes(nodes0, floor, bump_scale, np.random.default_rng(0))
    nodes, outcome = _solve_interior(
        nodes0, total_time, x, y, energy, params, floor, settings.grad_tol
    )
    return _assemble_result(nodes, total_time, energy, params, outcome, _inner_status(outcome))


def minimize_free_time(
    x: np.ndarray,
    y: np.ndarray,
    energy: float,
    params: PotentialParams,
    n_segments: int = 200,
    settings: SolverSettings | None = None,
    restarts: int = 1,
    rng: np.random.Generator | None = None,
    init_nodes: np.ndarray | None = None,
    newton_rounds: int = 0,
) -> MinimizeResult:
    """Minimize the action over paths x -> y and over the duration.

    A cold start brackets the optimal T with fixed-T minima around its
    start path's own optimal duration sqrt(S / (P + E)), then minimizes the
    T-reduced action over the nodes from the bracket's best ones (see the
    module docstring). A result is converged when its interior-node energy
    agrees with E; a cold one that misses is solved again on
    2 * n_segments, and on 4 * n_segments if it still misses.
    A converged result may then be polished at its T (newton_rounds) and
    tested again. Near-coincident endpoints short-circuit to a degenerate
    result at the time floor.

    Args:
        x, y: Endpoint configurations, collision-free.
        energy: Fixed energy level E > 0.
        params: Exponent and masses.
        n_segments: Segments per path, at least 2.
        settings: Solver tolerances; defaults when None.
        restarts: Independent starts (first straight, later ones perturbed);
            the best converged result wins.
        rng: Source for restart perturbations; a fixed default otherwise.
        init_nodes: Optional warm-start nodes of shape (n_segments+1, N, n)
            for the first attempt; endpoints are overwritten with x and y.
            The bracket is skipped: the reduced action is minimized
            from them directly, and a miss is returned on the grid given.
        newton_rounds: Most rounds of exact-Hessian Newton-CG cleanup of a
            converged search's nodes at its final T (0 disables); a full
            step that does not lower the gradient norm ends it. Long paths
            leave L-BFGS with error along low-frequency modes (curvature
            ~ 1/T^2) that pointwise comparisons of two paths need removed.
            A result in any other status is returned unpolished.

    Returns:
        A :class:`MinimizeResult` whose ``action.value`` estimates the
        distance phi_E(x, y). It is the discrete value of the best path
        found, not a certified upper bound (see the module docstring).
    """
    settings = settings or SolverSettings()
    _check_segments(n_segments)
    if energy <= 0.0:
        raise ValueError(f"energy must be positive, got {energy}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    floor = _COLLISION_FLOOR_SCALE * _check_endpoints(x, y, params)
    d = weighted_distance(x, y, params.masses)
    scale = 1.0 + max(weighted_norm(x, params.masses), weighted_norm(y, params.masses))
    if d <= 1e-9 * scale:
        nodes0 = straight_path(x, y, settings.time_floor, n_segments).nodes
        nodes, outcome = _solve_interior(
            nodes0, settings.time_floor, x, y, energy, params, floor, settings.grad_tol
        )
        return _assemble_result(
            nodes, settings.time_floor, energy, params, outcome,
            "degenerate-endpoints", degenerate=True,
        )

    if init_nodes is not None:
        init_nodes = np.array(init_nodes, dtype=float)
        if init_nodes.shape != (n_segments + 1,) + x.shape:
            raise ValueError(
                f"init_nodes must have shape {(n_segments + 1,) + x.shape}, "
                f"got {init_nodes.shape}"
            )
        init_nodes[0], init_nodes[-1] = x, y

    rng = rng if rng is not None else np.random.default_rng(0)
    best: MinimizeResult | None = None
    for attempt in range(restarts):
        result = _free_time_single(
            x, y, energy, params, n_segments, settings, floor, d, attempt, rng,
            init_nodes if attempt == 0 else None, newton_rounds,
        )
        if best is None:
            best = result
        elif result.converged and (not best.converged or result.value < best.value):
            best = result
        elif not best.converged and result.value < best.value:
            best = result
    assert best is not None
    return best


def _free_time_single(
    x, y, energy, params, n_segments, settings: SolverSettings, floor, dist, attempt, rng,
    init_nodes=None, newton_rounds=0,
) -> MinimizeResult:
    bump_scale = max(dist, 1.0)
    if init_nodes is not None:
        nodes = _feasible_nodes(init_nodes, floor, bump_scale, rng)
    else:
        # the nodes of a straight path do not depend on its duration
        warm = straight_path(x, y, 1.0, n_segments).nodes
        if attempt > 0:
            warm = _bumped_nodes(warm, 0.1 * dist / math.sqrt(2.0), rng)
        warm = _feasible_nodes(warm, floor, bump_scale, rng)
        # centre the bracket on the start path's own T* = sqrt(S / (P + E))
        t_start = _value_grad_parts(warm, None, energy, params)[4]
        t_guess = max(t_start, 10.0 * settings.time_floor)
        bracket_tol = max(settings.grad_tol, _BRACKET_GRAD_TOL)

        def solve_at(total_time: float):
            # (T, value of the fixed-T minimum, its nodes); each solve starts
            # from the last converged one
            nonlocal warm
            nodes, outcome = _solve_interior(
                warm, total_time, x, y, energy, params, floor, bracket_tol
            )
            if outcome.converged:
                warm = nodes
            return total_time, outcome.value, nodes

        def exit_at(total_time: float, nodes0, status: str, degenerate: bool = False):
            # re-solved at full tolerance, so grad_norm keeps its meaning
            nodes, outcome = _solve_interior(
                nodes0, total_time, x, y, energy, params, floor, settings.grad_tol
            )
            return _assemble_result(
                nodes, total_time, energy, params, outcome, status, degenerate
            )

        t_lo = max(0.5 * t_guess, settings.time_floor)
        lo, mid, hi = [solve_at(t) for t in (t_lo, t_guess, 2.0 * t_guess)]
        for _ in range(80):
            if lo[1] < mid[1]:
                if lo[0] <= settings.time_floor * (1.0 + 1e-12):
                    return exit_at(settings.time_floor, lo[2], "boundary-time-floor", True)
                hi, mid = mid, lo
                lo = solve_at(max(0.5 * mid[0], settings.time_floor))
            elif hi[1] < mid[1]:
                if 2.0 * hi[0] > 1e7 * t_guess:
                    return exit_at(hi[0], hi[2], "bracket-failure")
                lo, mid = mid, hi
                hi = solve_at(2.0 * mid[0])
            else:
                break
        nodes = mid[2]

    def misses(nodes, total_time) -> bool:
        prof = energy_profile(DiscretePath(total_time, nodes), params)
        return float(np.max(np.abs(prof - energy))) > settings.energy_tol * energy

    def reduced_solve(nodes0):
        nodes, outcome = _solve_interior(
            nodes0, None, x, y, energy, params, floor, settings.grad_tol
        )
        total_time = _value_grad_parts(nodes, None, energy, params)[4]
        status = _inner_status(outcome)
        if status == "converged" and misses(nodes, total_time):
            status = "transversality-miss"
        return nodes, outcome, total_time, status

    nodes, outcome, t_opt, status = reduced_solve(nodes)
    coarse_value = None
    for _ in range(_MAX_REFINEMENTS if init_nodes is None else 0):
        if status != "transversality-miss":
            break
        # a cold miss is grid resolution: solve again on twice the nodes
        if coarse_value is None:
            coarse_value = outcome.value
        fine = _feasible_nodes(DiscretePath(t_opt, nodes).refined().nodes, floor, bump_scale, rng)
        nodes, outcome, t_opt, status = reduced_solve(fine)
    if status == "converged" and newton_rounds > 0:
        nodes, gnorm = _newton_cleanup(nodes, t_opt, energy, params, floor, newton_rounds)
        if gnorm < outcome.grad_norm:
            outcome = replace(outcome, grad_norm=gnorm)
        if misses(nodes, t_opt):
            status = "transversality-miss"
    return _assemble_result(
        nodes, t_opt, energy, params, outcome, status, coarse_value=coarse_value
    )
