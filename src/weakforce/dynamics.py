"""Weak-force potential, energies, and trajectory integration.

The interaction potential is

    U(x) = sum_{i<j} m_i m_j / |x_i - x_j|^alpha,      0 < alpha < 1,

a positive function blowing up at collisions. Newton's equations
m_i a_i = dU/dx_i give the per-body acceleration

    a_i = alpha * sum_{j != i} m_j (x_j - x_i) / |x_j - x_i|^(alpha + 2),

which conserves total momentum and the energy h = K - U with kinetic energy
K = ||v||^2 in the weighted norm of :mod:`weakforce.configspace`.

Two integrators are provided: an adaptive embedded Runge-Kutta 5(4) scheme
(the workhorse, via scipy) with a terminal close-approach event, and a
fixed-step leapfrog used as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configspace import mass_vector, min_separation, pair_indices, weighted_norm

__all__ = [
    "CollisionError",
    "IntegrationError",
    "PotentialParams",
    "PhasePoint",
    "ToleranceSettings",
    "Trajectory",
    "pair_terms",
    "potential",
    "potential_gradient",
    "acceleration",
    "kinetic_energy",
    "lagrangian",
    "total_energy",
    "total_momentum",
    "angular_momentum",
    "integrate",
    "integrate_leapfrog",
]


class CollisionError(ValueError):
    """Raised when a quantity is evaluated at (or below) a collision."""


class IntegrationError(RuntimeError):
    """Raised when the ODE solver fails or exceeds its step budget."""


@dataclass(frozen=True)
class PotentialParams:
    """Problem parameters: force exponent and masses.

    Args:
        alpha: Homogeneity exponent, strictly inside (0, 1).
        masses: Positive masses; rescaled so the smallest is 1.
    """

    alpha: float
    masses: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        object.__setattr__(self, "masses", mass_vector(self.masses))
        i, j = pair_indices(self.masses.size)
        products = self.masses[i] * self.masses[j]
        incidence = np.zeros((i.size, self.masses.size))
        incidence[np.arange(i.size), i] = 1.0
        incidence[np.arange(i.size), j] = -1.0
        for table in (products, incidence):
            table.setflags(write=False)
        object.__setattr__(self, "_pair_products", products)
        object.__setattr__(self, "_incidence", incidence)

    @property
    def n_bodies(self) -> int:
        return int(self.masses.size)

    @property
    def pair_products(self) -> np.ndarray:
        """m_i * m_j for every unordered pair, in triu order."""
        return self._pair_products  # type: ignore[attr-defined]

    @property
    def incidence(self) -> np.ndarray:
        """(P, N) pair-body incidence: +1 at (p, i), -1 at (p, j) for pair p = (i, j)."""
        return self._incidence  # type: ignore[attr-defined]


@dataclass(frozen=True)
class PhasePoint:
    """A state (positions, velocities), both of shape (N, n)."""

    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=float)
        v = np.asarray(self.velocities, dtype=float)
        if x.shape != v.shape or x.ndim != 2:
            raise ValueError(
                f"positions and velocities must share an (N, n) shape, got {x.shape} and {v.shape}"
            )
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "velocities", v)


def pair_terms(x: np.ndarray, params: PotentialParams, floor: float = 0.0, gradient: bool = True):
    """The pair kernel: (smallest squared separation, U, dU/dx) in one pass.

    Accepts (N, n) or a batch (..., N, n); U then has the batch shape and
    dU/dx the shape of x (None unless ``gradient``). The smallest squared
    separation is taken over the whole batch. When it is below floor**2
    the call stops there and returns it with U and dU/dx as None, so a
    caller can veto a configuration before any power is taken.

    Works on coordinate planes: the relative vectors are x @ B^T with the
    incidence matrix B, each pair takes one power u = d^-alpha, and the
    gradient is gathered back onto the bodies by one product with B. The
    relative vectors are exact; the body sums match a loop over pairs to
    roundoff.

    Raises:
        CollisionError: If two bodies coincide and the floor did not veto.
    """
    rel = np.moveaxis(x, -1, 0) @ params.incidence.T
    dist2 = (rel * rel).sum(axis=0)
    min_sq = float(dist2.min(initial=math.inf))
    if min_sq < floor * floor:
        return min_sq, None, None
    if min_sq == 0.0:
        raise CollisionError("configuration has two bodies at the same point")
    c = params.pair_products
    u = dist2 ** (-0.5 * params.alpha)
    grad = None
    if gradient:
        # dU/dx_i picks up -alpha m_i m_j (x_i - x_j)/d^(alpha+2) from pair (i, j).
        w = (-params.alpha * c) * u / dist2
        grad = np.moveaxis((w * rel) @ params.incidence, 0, -1)
    return min_sq, u @ c, grad


def potential(x: np.ndarray, params: PotentialParams):
    """U(x). Accepts (N, n) or a batch (..., N, n); scalar in, scalar out."""
    _, u, _ = pair_terms(x, params, gradient=False)
    return float(u) if np.ndim(u) == 0 else u


def potential_gradient(x: np.ndarray, params: PotentialParams) -> np.ndarray:
    """dU/dx, shaped like x. Batched along leading axes."""
    return pair_terms(x, params)[2]


def acceleration(x: np.ndarray, params: PotentialParams) -> np.ndarray:
    """Per-body acceleration a_i = (1/m_i) dU/dx_i. Batched along leading axes."""
    return potential_gradient(x, params) / params.masses[:, None]


def potential_hessian_vec(x: np.ndarray, vec: np.ndarray, params: PotentialParams) -> np.ndarray:
    """Hessian-vector product (d2U/dx2) vec, shaped like x. Batched.

    Per pair with r = x_i - x_j, d = |r|, w = vec_i - vec_j the block action
    is m_i m_j (-alpha d^-(alpha+2) w + alpha (alpha+2) d^-(alpha+4) (r.w) r)
    applied with opposite signs at i and j. Same coordinate-plane layout as
    :func:`pair_terms`, with one power per pair.
    """
    b = params.incidence
    rel = np.moveaxis(x, -1, 0) @ b.T
    w = np.moveaxis(vec, -1, 0) @ b.T
    dist2 = (rel * rel).sum(axis=0)
    if dist2.min(initial=math.inf) == 0.0:
        raise CollisionError("configuration has two bodies at the same point")
    a = params.alpha
    cu = params.pair_products * dist2 ** (-0.5 * a) / dist2
    rw = (rel * w).sum(axis=0)
    out = (-a * cu) * w + ((a * (a + 2.0)) * cu / dist2 * rw) * rel
    return np.moveaxis(out @ b, 0, -1)


def kinetic_energy(velocities: np.ndarray, masses: np.ndarray) -> float:
    """K = ||v||^2 in the weighted norm."""
    return weighted_norm(velocities, masses) ** 2


def lagrangian(state: PhasePoint, params: PotentialParams) -> float:
    """L = ||v||^2 + U(x)."""
    return kinetic_energy(state.velocities, params.masses) + potential(state.positions, params)


def total_energy(state: PhasePoint, params: PotentialParams) -> float:
    """Conserved energy h = ||v||^2 - U(x)."""
    return kinetic_energy(state.velocities, params.masses) - potential(state.positions, params)


def total_momentum(state: PhasePoint, masses: np.ndarray) -> np.ndarray:
    """Total linear momentum sum_i m_i v_i, shape (n,)."""
    return np.einsum("i,ik->k", masses, state.velocities)


def angular_momentum(state: PhasePoint, masses: np.ndarray) -> np.ndarray:
    """Angular momentum as the antisymmetric (n, n) matrix sum_i m_i x_i ^ v_i.

    Works in any dimension; in the plane the single independent entry is the
    usual scalar, in 3-d the three independent entries are the usual vector.
    """
    mixed = np.einsum("i,ij,ik->jk", masses, state.positions, state.velocities)
    return mixed - mixed.T


@dataclass(frozen=True)
class ToleranceSettings:
    """Integration controls.

    collision_eps defaults (when None) to 1e-8 times the initial minimum
    separation; the run halts when any pair gets that close. max_steps is an
    approximate cap enforced through the derivative-evaluation budget.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    collision_eps: float | None = None
    max_steps: int = 1_000_000


@dataclass(frozen=True)
class Trajectory:
    """Sampled trajectory with conservation diagnostics.

    energy_drift is relative to the initial energy scale; momentum and
    angular-momentum drifts are Frobenius norms of the change, scaled by the
    initial momentum scale (or 1 if starting at rest).
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    energy: np.ndarray
    energy_drift: np.ndarray
    momentum_drift: np.ndarray
    angular_momentum_drift: np.ndarray
    halted: bool = False
    halt_reason: str | None = None
    n_steps: int = 0

    @property
    def final_state(self) -> PhasePoint:
        return PhasePoint(self.positions[-1], self.velocities[-1])

    @classmethod
    def from_samples(
        cls,
        times: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray,
        params: PotentialParams,
        halted: bool = False,
        halt_reason: str | None = None,
    ) -> "Trajectory":
        """Package samples of shape (T, N, n) with their conservation diagnostics."""
        m = params.masses
        kin = 0.5 * np.einsum("i,tik,tik->t", m, velocities, velocities)
        energy = kin - pair_terms(positions, params, gradient=False)[1]
        e_scale = max(abs(energy[0]), 1e-30)
        e_drift = np.abs(energy - energy[0]) / e_scale

        mom = np.einsum("i,tik->tk", m, velocities)
        p_scale = max(1.0, float(np.abs(m[:, None] * velocities[0]).sum()))
        p_drift = np.linalg.norm(mom - mom[0], axis=1) / p_scale

        mixed = np.einsum("i,tij,tik->tjk", m, positions, velocities)
        ang = mixed - np.swapaxes(mixed, 1, 2)
        l_drift = np.linalg.norm((ang - ang[0]).reshape(len(times), -1), axis=1) / p_scale
        return cls(
            times=times,
            positions=positions,
            velocities=velocities,
            energy=energy,
            energy_drift=e_drift,
            momentum_drift=p_drift,
            angular_momentum_drift=l_drift,
            halted=halted,
            halt_reason=halt_reason,
            n_steps=max(0, len(times) - 1),
        )


def integrate(
    state: PhasePoint,
    t_end: float,
    params: PotentialParams,
    settings: ToleranceSettings = ToleranceSettings(),
    t_eval: np.ndarray | None = None,
) -> Trajectory:
    """Integrate Newton's equations from ``state`` over [0, t_end].

    Uses an adaptive embedded Runge-Kutta 5(4) pair with dense event
    detection. The run terminates early (with ``halted=True``) if any
    pairwise separation falls to the collision threshold.

    Args:
        state: Initial phase point; must be collision-free.
        t_end: Final time, > 0.
        params: Exponent and masses.
        settings: Tolerances, collision threshold, step budget.
        t_eval: Optional explicit sample times within [0, t_end].

    Returns:
        A :class:`Trajectory` sampled at solver steps (or t_eval).

    Raises:
        CollisionError: If the initial state is already at/below threshold.
        IntegrationError: On solver failure or step-budget exhaustion.
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    x0 = state.positions
    n_bodies, dim = x0.shape
    if n_bodies != params.n_bodies:
        raise ValueError(f"state has {n_bodies} bodies but params has {params.n_bodies}")
    r0 = min_separation(x0)
    eps = settings.collision_eps if settings.collision_eps is not None else 1e-8 * r0
    if r0 <= eps:
        raise CollisionError(
            f"initial minimum separation {r0:.3e} is not above the collision threshold {eps:.3e}"
        )

    size = n_bodies * dim
    budget = 8 * settings.max_steps
    evals = 0

    def rhs(t, y):
        nonlocal evals
        evals += 1
        if evals > budget:
            raise IntegrationError(f"step budget exceeded ({settings.max_steps} steps)")
        x = y[:size].reshape(n_bodies, dim)
        a = acceleration(x, params)
        return np.concatenate([y[size:], a.ravel()])

    def close_approach(t, y):
        return min_separation(y[:size].reshape(n_bodies, dim)) - eps

    close_approach.terminal = True
    close_approach.direction = -1

    # Imported here: scipy.integrate also loads scipy.optimize and
    # scipy.special, and no other entry point needs them.
    from scipy.integrate import solve_ivp

    y0 = np.concatenate([x0.ravel(), state.velocities.ravel()])
    sol = solve_ivp(
        rhs,
        (0.0, float(t_end)),
        y0,
        method="RK45",
        rtol=settings.rtol,
        atol=settings.atol,
        t_eval=t_eval,
        events=[close_approach],
    )
    if sol.status == -1:
        raise IntegrationError(f"integration failed: {sol.message}")

    times = sol.t
    ys = sol.y.T
    halted = sol.status == 1
    if halted and sol.t_events[0].size and (times.size == 0 or times[-1] < sol.t_events[0][0]):
        # with t_eval the event time itself is not in sol.t; append it
        times = np.append(times, sol.t_events[0][0])
        ys = np.vstack([ys, sol.y_events[0][0]])
    return Trajectory.from_samples(
        times,
        ys[:, :size].reshape(-1, n_bodies, dim),
        ys[:, size:].reshape(-1, n_bodies, dim),
        params,
        halted=halted,
        halt_reason=(
            f"close approach: minimum separation reached {eps:.6e}" if halted else None
        ),
    )


def integrate_leapfrog(
    state: PhasePoint,
    t_end: float,
    dt: float,
    params: PotentialParams,
    record_every: int = 1,
) -> Trajectory:
    """Fixed-step kick-drift-kick leapfrog; independent of :func:`integrate`.

    Second-order symplectic scheme. Meant for cross-checks, not precision
    work; halts when a separation falls to 1e-8 times the initial minimum
    separation, the default threshold of :func:`integrate`.
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("t_end and dt must be positive")
    x = state.positions.copy()
    v = state.velocities.copy()
    r0 = min_separation(x)
    eps = 1e-8 * r0
    if r0 <= eps:
        raise CollisionError("initial state is at/below the collision threshold")

    n_total = int(round(t_end / dt))
    times = [0.0]
    xs = [x.copy()]
    vs = [v.copy()]
    halted = False
    a = acceleration(x, params)
    for k in range(1, n_total + 1):
        v_half = v + 0.5 * dt * a
        x = x + dt * v_half
        if min_separation(x) <= eps:
            halted = True
            break
        a = acceleration(x, params)
        v = v_half + 0.5 * dt * a
        if k % record_every == 0 or k == n_total:
            times.append(k * dt)
            xs.append(x.copy())
            vs.append(v.copy())

    return Trajectory.from_samples(
        np.asarray(times),
        np.asarray(xs),
        np.asarray(vs),
        params,
        halted=halted,
        halt_reason="close approach during leapfrog step" if halted else None,
    )
