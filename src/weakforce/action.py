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

Minimization is an inner/outer scheme: interior nodes by preconditioned
L-BFGS at fixed T, inside one search over T. That search runs a secant that
drives the median interior-node energy h = K - U to E (the first-order
optimality condition in T). A cold start begins it at the midpoint of a
bracket on the action value; a warm start begins it at the warm path's own
optimal duration. On request, a converged search ends with exact-Hessian
Newton-CG rounds on the nodes at the duration it found.
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
    nodes: np.ndarray, total_time: float, energy: float, params: PotentialParams,
    floor: float = 0.0,
):
    """The action evaluator: one pair-kernel pass over all nodes.

    Returns (ActionValue, interior-node gradient, dA/dT, smallest squared
    node-pair separation), or None when some node pair is closer than floor.
    """
    min_sq, u, du = pair_terms(nodes, params, floor)
    if u is None:
        return None
    m_seg = nodes.shape[0] - 1
    dt = total_time / m_seg
    masses = params.masses
    d = np.diff(nodes, axis=0)
    kinetic = 0.5 * float(np.einsum("i,sic,sic->", masses, d, d)) / dt
    pot = dt * float(u[0] / 2.0 + u[1:-1].sum() + u[-1] / 2.0)
    e_term = energy * total_time
    act = ActionValue(
        value=kinetic + pot + e_term, kinetic=kinetic, potential=pot, energy_term=e_term
    )

    second = 2.0 * nodes[1:-1] - nodes[:-2] - nodes[2:]
    grad = (masses[None, :, None] / dt) * second + dt * du[1:-1]
    da_dt = (pot - kinetic) / total_time + energy
    return act, grad, da_dt, min_sq


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
    _, grad, da_dt, _ = _value_grad_parts(path.nodes, path.total_time, energy, params)
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
    defect = second - acceleration(path.nodes[1:-1], params)
    norms = np.sqrt(0.5 * np.einsum("i,sic,sic->s", params.masses, defect, defect))
    return float(norms.max())


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
    norms = np.sqrt(0.5 * np.einsum("i,sic,sic->s", params.masses, fourth, fourth))
    return float(norms.max()) / (12.0 * path.dt**2)


_MAX_ITERATIONS = 1500  # L-BFGS cap of one inner solve at fixed T
_MEMORY = 12
_COLLISION_FLOOR_SCALE = 1e-3  # veto floor over the endpoints' min separation
_MAX_POLISH = 12
# drive |median(h) - E| this far below energy_tol; residual timing noise
# otherwise dominates comparisons between independently solved paths
_POLISH_RTOL = 1e-6
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
    "line-search-failure", "transversality-miss", "degenerate-endpoints",
    "boundary-time-floor", "bracket-failure".
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
        z = x.reshape(n_interior, n_bodies, dim) * (dt / masses[None, :, None])
        return z.ravel()

    return apply


def _median(values: np.ndarray) -> float:
    """np.median of finite 1-d values from one partition (np.median loads numpy.ma)."""
    k = values.size // 2
    part = np.partition(values, (k - 1, k))
    return float(part[k] if values.size % 2 else (part[k - 1] + part[k]) / 2.0)


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
    envelope = np.sin(np.pi * np.linspace(0.0, 1.0, m_plus_1))[:, None, None]
    noise = rng.standard_normal(nodes.shape)
    return nodes + scale * envelope * noise


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
    _, grad, _, _ = _value_grad_parts(best, total_time, energy, params)
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
    nodes0: np.ndarray,
    total_time: float,
    energy: float,
    params: PotentialParams,
    floor: float,
    settings: SolverSettings,
):
    """Inner minimization over interior nodes at fixed T."""
    m_plus_1, n_bodies, dim = nodes0.shape
    n_interior = m_plus_1 - 2
    dt = total_time / (m_plus_1 - 1)
    endpoints = (nodes0[0].copy(), nodes0[-1].copy())
    template = nodes0.copy()

    def assemble(z):
        template[1:-1] = z.reshape(n_interior, n_bodies, dim)
        return template

    def fun_grad(z):
        parts = _value_grad_parts(assemble(z), total_time, energy, params, floor)
        if parts is None:
            return math.inf, None
        return parts[0].value, parts[1].ravel()

    apply_h0 = _kinetic_preconditioner(n_interior, n_bodies, dim, dt, params.masses)
    outcome = optimize.lbfgs(
        fun_grad,
        nodes0[1:-1].ravel(),
        grad_tol=settings.grad_tol,
        max_iterations=_MAX_ITERATIONS,
        memory=_MEMORY,
        apply_h0=apply_h0,
    )
    nodes = nodes0.copy()
    nodes[1:-1] = outcome.x.reshape(n_interior, n_bodies, dim)
    nodes[0], nodes[-1] = endpoints
    return nodes, outcome


def _inner_status(outcome: optimize.OptimizeOutcome) -> str:
    """Result status of an inner solve: its L-BFGS status, the iteration cap renamed."""
    return "inner-not-converged" if outcome.status == "max-iterations" else outcome.status


def _assemble_result(
    nodes, total_time, energy, params, outcome, status, degenerate=False
) -> MinimizeResult:
    path = DiscretePath(total_time, nodes)
    act, _, da_dt, min_sq = _value_grad_parts(path.nodes, total_time, energy, params)
    return MinimizeResult(
        path=path,
        action=act,
        converged=status == "converged",
        status=status,
        grad_norm=outcome.grad_norm,
        iterations=outcome.iterations,
        energy_profile=energy_profile(path, params),
        el_residual=el_residual(path, params),
        dA_dT=da_dt,
        min_sep=math.sqrt(min_sq),
        degenerate=degenerate,
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
    nodes, outcome = _solve_interior(nodes0, total_time, energy, params, floor, settings)
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

    The outer search brackets the optimal T around the free-particle guess
    ||x - y|| / sqrt(E), then moves T from the bracket's midpoint by a
    secant until the interior-node energy agrees with E (transversality).
    A search that ends converged may then polish its nodes at the T it
    found (newton_rounds) and test transversality again on the polished
    nodes. Near-coincident endpoints short-circuit to a degenerate result
    at the time floor.

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
            The bracket is skipped: the secant starts at their own optimal
            duration sqrt(S / (U + E)), S and U being the kinetic and
            potential parts of their action at T = 1.
        newton_rounds: Most rounds of exact-Hessian Newton-CG cleanup of a
            converged search's nodes at its final T (0 disables); a full
            step that does not lower the gradient norm ends it. Long paths
            leave L-BFGS with error along low-frequency modes (curvature
            ~ 1/T^2) that pointwise comparisons of two paths need removed.
            A search that ends in any other status is returned unpolished.

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
            nodes0, settings.time_floor, energy, params, floor, settings
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
    t_guess = max(dist / math.sqrt(energy), 10.0 * settings.time_floor)
    if init_nodes is not None:
        warm = {"nodes": init_nodes}
    else:
        warm = {"nodes": straight_path(x, y, t_guess, n_segments).nodes}
        if attempt > 0:
            warm["nodes"] = _bumped_nodes(warm["nodes"], 0.1 * dist / math.sqrt(2.0), rng)
    warm["nodes"] = _feasible_nodes(warm["nodes"], floor, max(dist, 1.0), rng)
    cache: dict[float, tuple] = {}

    def solve_at(total_time: float):
        if total_time in cache:
            return cache[total_time]
        nodes, outcome = _solve_interior(
            warm["nodes"], total_time, energy, params, floor, settings
        )
        if outcome.converged:
            warm["nodes"] = nodes
        cache[total_time] = (nodes, outcome)
        return cache[total_time]

    def value_at(total_time: float) -> float:
        nodes, _ = solve_at(total_time)
        return _value_grad_parts(nodes, total_time, energy, params)[0].value

    if init_nodes is not None:
        # A(T) = S/T + T (U + E) for the warm path's shape, S and U taken at T = 1
        act = _value_grad_parts(warm["nodes"], 1.0, energy, params)[0]
        t_cur = max(math.sqrt(act.kinetic / (act.potential + energy)), settings.time_floor)
    else:
        lo, mid, hi = 0.5 * t_guess, t_guess, 2.0 * t_guess
        lo = max(lo, settings.time_floor)
        f_lo, f_mid, f_hi = value_at(lo), value_at(mid), value_at(hi)
        for _ in range(80):
            if f_lo < f_mid:
                if lo <= settings.time_floor * (1.0 + 1e-12):
                    nodes, outcome = solve_at(settings.time_floor)
                    return _assemble_result(
                        nodes, settings.time_floor, energy, params, outcome,
                        "boundary-time-floor", degenerate=True,
                    )
                hi, f_hi, mid, f_mid = mid, f_mid, lo, f_lo
                lo = max(0.5 * lo, settings.time_floor)
                f_lo = value_at(lo)
            elif f_hi < f_mid:
                lo, f_lo, mid, f_mid = mid, f_mid, hi, f_hi
                hi *= 2.0
                if hi > 1e7 * t_guess:
                    nodes, outcome = solve_at(mid)
                    return _assemble_result(nodes, mid, energy, params, outcome, "bracket-failure")
                f_hi = value_at(hi)
            else:
                break
        t_cur = mid

    # transversality secant: the interior-node energy level is monotone
    # decreasing in T, so it drives median(h) to E
    def mismatch(total_time: float) -> float:
        nodes, _ = solve_at(total_time)
        path = DiscretePath(total_time, nodes)
        return _median(energy_profile(path, params)) - energy

    tol_abs = settings.energy_tol * energy
    polish_target = min(0.25 * tol_abs, _POLISH_RTOL * energy)
    g_cur = mismatch(t_cur)
    t_prev, g_prev = None, None
    for _ in range(_MAX_POLISH):
        if abs(g_cur) <= polish_target:
            break
        if t_prev is None or g_cur == g_prev:
            step = 0.02 * t_cur * (1.0 if g_cur > 0.0 else -1.0)
            t_next = t_cur + step
        else:
            t_next = t_cur - g_cur * (t_cur - t_prev) / (g_cur - g_prev)
            t_next = min(max(t_next, 0.5 * t_cur), 2.0 * t_cur)
        t_next = max(t_next, settings.time_floor)
        t_prev, g_prev = t_cur, g_cur
        t_cur = t_next
        g_cur = mismatch(t_cur)

    def misses(nodes) -> bool:
        prof = energy_profile(DiscretePath(t_cur, nodes), params)
        return float(np.max(np.abs(prof - energy))) > tol_abs

    nodes, outcome = solve_at(t_cur)
    status = _inner_status(outcome)
    if status == "converged" and misses(nodes):
        status = "transversality-miss"
    if status == "converged" and newton_rounds > 0:
        # the paths of the other durations visited are done with; free them
        # before the Newton-CG steps allocate
        cache.clear()
        nodes, gnorm = _newton_cleanup(nodes, t_cur, energy, params, floor, newton_rounds)
        if gnorm < outcome.grad_norm:
            outcome = replace(outcome, grad_norm=gnorm)
        if misses(nodes):
            status = "transversality-miss"
    return _assemble_result(nodes, t_cur, energy, params, outcome, status)
