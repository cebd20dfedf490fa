"""Construction of approximate hyperbolic motions with a prescribed shape.

A hyperbolic motion of energy E > 0 escapes along a fixed collision-free
unit shape a with linear growth and asymptotic speed sqrt(E) in the
weighted norm. The constructive route: minimize the free-time action from
the start x0 to targets R_k * a pushed out along the ray with geometrically
growing radii. Successive minimizers agree better and better on any fixed
early time window (a Cauchy sequence of approximants), their directions
align with a, and their average speed approaches sqrt(E).

Note on conventions: with kinetic energy normalized as (1/2)|v|^2 the same
motions read sqrt(2E) a t + o(t); the asymptotics report shows the speed in
both conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import (
    DiscretePath,
    MinimizeResult,
    SolverSettings,
    minimize_free_time,
    straight_path,
)
from .configspace import angle, min_separation, weighted_norm
from .dynamics import PotentialParams

__all__ = [
    "HyperbolicRun",
    "LegSummary",
    "AsymptoticsReport",
    "default_radii",
    "construct",
    "approximant_gaps",
    "radial_growth_floor",
    "asymptotic_report",
    "render_asymptotics",
]

_GAP_GRID = 257
# Newton-CG rounds that end each converged leg's duration search
_POLISH_NEWTON_ROUNDS = 3
# cap on per-leg segment counts; a schedule long enough to hit it trades
# early-window comparability for cost
_MAX_SEGMENTS = 32000


def default_radii(
    x0: np.ndarray,
    shape: np.ndarray,
    masses: np.ndarray,
    n_legs: int = 5,
    ratio: float = 2.0,
    base_factor: float = 70.0,
) -> tuple[float, ...]:
    """Geometric target radii R_1 ... R_K with R_1 = base_factor (1+||x0||)/r(a)."""
    if n_legs < 1:
        raise ValueError("need at least one leg")
    if ratio <= 1.0:
        raise ValueError("radius ratio must exceed 1")
    r_a = min_separation(shape)
    if r_a <= 0.0:
        raise ValueError("shape has a collision; r(a) must be positive")
    r1 = base_factor * (1.0 + weighted_norm(x0, masses)) / r_a
    return tuple(r1 * ratio**k for k in range(n_legs))


@dataclass(frozen=True)
class HyperbolicRun:
    """Chain of free-time minimizers from x0 to targets radii[k] * shape.

    legs[k] is the full minimizer x0 -> radii[k] * shape (not an increment);
    completed is False when some leg failed to converge, in which case later
    legs are absent.
    """

    initial: np.ndarray
    shape: np.ndarray
    energy: float
    params: PotentialParams
    radii: tuple[float, ...]
    legs: tuple[MinimizeResult, ...]
    completed: bool

    @property
    def early_window(self) -> float:
        """0.9 of the first leg's duration: the common comparison window."""
        return 0.9 * self.legs[0].path.total_time

    @property
    def min_sep(self) -> float:
        return min(leg.min_sep for leg in self.legs)


def _require_unit_shape(shape: np.ndarray, masses: np.ndarray) -> float:
    nrm = weighted_norm(shape, masses)
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(
            f"shape must lie on the unit sphere of the weighted norm, got ||a|| = {nrm!r}"
        )
    r_a = min_separation(shape)
    if r_a <= 0.0:
        raise ValueError("shape has a collision; r(a) must be positive")
    return r_a


def _warm_nodes(prev: DiscretePath, target: np.ndarray, t_total: float, n_segments: int):
    """Extend the previous approximant straight to the new target, resampled."""
    extra = max(t_total - prev.total_time, 1e-3 * t_total)
    n_ext = max(2, int(round(extra / prev.dt)))
    ext = straight_path(prev.end, target, extra, n_ext)
    glued_nodes = np.concatenate([prev.nodes, ext.nodes[1:]], axis=0)
    glued = DiscretePath(prev.total_time + extra, glued_nodes)
    times = np.linspace(0.0, glued.total_time, n_segments + 1)
    return glued.sample(times)


def construct(
    x0: np.ndarray,
    shape: np.ndarray,
    energy: float,
    params: PotentialParams,
    radii: tuple[float, ...] | None = None,
    n_legs: int = 5,
    ratio: float = 2.0,
    base_factor: float = 70.0,
    n_segments: int = 1600,
    settings: SolverSettings | None = None,
    restarts: int = 1,
    rng: np.random.Generator | None = None,
) -> HyperbolicRun:
    """Build the approximant chain toward a hyperbolic motion.

    Each leg is a free-time minimization to the next target, warm-started by
    extending the previous leg along the ray. The first leg fixes the node
    spacing; later legs keep it (duration-proportional segment counts) so
    that successive approximants discretize the early window identically and
    their pointwise gaps reflect the paths, not the grids, up to a cap of
    _MAX_SEGMENTS. A converged duration search ends with exact-Hessian
    Newton-CG rounds at the duration it found: long legs are so soft along
    low-frequency modes (curvature ~ 1/T^2) that the quasi-Newton stage
    alone leaves position errors far above the gap scale.

    Args:
        x0: Start configuration, collision-free.
        shape: Limit shape on the weighted unit sphere, collision-free.
        energy: E > 0.
        params: Exponent and masses.
        radii: Explicit increasing target radii; default geometric schedule
            from ``default_radii``.
        n_legs, ratio, base_factor: Schedule knobs when radii is None.
            Either way radii[0] must be at least (1+||x0||)/r(shape).
        n_segments: Segment count of the first leg. The spacing it induces
            must resolve the start's near field or the interior-node energy
            check fails; the default suits the default radius schedule for
            few-body starts of moderate size.
        settings, restarts, rng: Passed to the free-time minimizer.

    Returns:
        A :class:`HyperbolicRun` (possibly partial; check ``completed``).

    Raises:
        ValueError: On a non-unit or colliding shape, a colliding start, or
            a radius schedule violating the growth precondition.
    """
    x0 = np.asarray(x0, dtype=float)
    shape = np.asarray(shape, dtype=float)
    masses = params.masses
    r_a = _require_unit_shape(shape, masses)
    if min_separation(x0) <= 0.0:
        raise ValueError("start configuration has a collision")
    if energy <= 0.0:
        raise ValueError(f"energy must be positive, got {energy}")

    if radii is None:
        radii = default_radii(x0, shape, masses, n_legs=n_legs, ratio=ratio, base_factor=base_factor)
    radii = tuple(float(r) for r in radii)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    r_min = (1.0 + weighted_norm(x0, masses)) / r_a
    if radii[0] < r_min:
        raise ValueError(
            f"first radius {radii[0]!r} is below the growth precondition {r_min!r}"
        )

    settings = settings or SolverSettings()
    sqrt_e = math.sqrt(energy)
    dists = [weighted_norm(r * shape - x0, masses) for r in radii]

    legs: list[MinimizeResult] = []
    completed = True
    dt_spacing: float | None = None
    t_prev: float | None = None
    for k, radius in enumerate(radii):
        target = radius * shape
        if k == 0:
            m_k = n_segments
            t_est = dists[0] / sqrt_e
            init = None
        else:
            # remaining distance covered at the asymptotic speed; the
            # previous duration anchors the near-field part
            t_est = t_prev + (dists[k] - dists[k - 1]) / sqrt_e
            m_k = min(_MAX_SEGMENTS, max(n_segments, int(round(t_est / dt_spacing))))
            init = _warm_nodes(legs[-1].path, target, t_est, m_k)
        result = minimize_free_time(
            x0, target, energy, params,
            n_segments=m_k, settings=settings, restarts=restarts, rng=rng, init_nodes=init,
            newton_rounds=_POLISH_NEWTON_ROUNDS,
        )
        legs.append(result)
        if not result.converged:
            completed = False
            break
        if k == 0:
            dt_spacing = result.path.dt
        t_prev = result.path.total_time

    return HyperbolicRun(
        initial=x0,
        shape=shape,
        energy=energy,
        params=params,
        radii=radii[: len(legs)],
        legs=tuple(legs),
        completed=completed,
    )


def approximant_gaps(run: HyperbolicRun, window: float | None = None) -> np.ndarray:
    """Sup-distance between successive approximants on the early window.

    gap[k] = max over a uniform grid in [0, window] of
    ||legs[k](t) - legs[k+1](t)|| in the weighted norm. A decreasing
    sequence is the Cauchy behavior the construction predicts.
    """
    if len(run.legs) < 2:
        return np.zeros(0)
    t_cut = run.early_window if window is None else window
    grid = np.linspace(0.0, t_cut, _GAP_GRID)
    masses = run.params.masses
    gaps = []
    for a, b in zip(run.legs[:-1], run.legs[1:]):
        xa = a.path.sample(grid)
        xb = b.path.sample(grid)
        diff = xa - xb
        norms = np.sqrt(0.5 * np.einsum("i,tik,tik->t", masses, diff, diff))
        gaps.append(float(norms.max()))
    return np.asarray(gaps)


def radial_growth_floor(
    run: HyperbolicRun, leg_index: int = -1, start_fraction: float = 0.75
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-separation growth along one approximant's late stretch.

    Returns (times, r_values, floor_values) for nodes with t >=
    start_fraction * T, where the floor is 0.5 * r(shape) * sqrt(E) * t.
    Hyperbolic motions keep r(gamma(t)) above a linear floor of this kind
    once the trajectory is escaping.
    """
    leg = run.legs[leg_index]
    path = leg.path
    times = path.times
    keep = times >= start_fraction * path.total_time
    r_vals = min_separation(path.nodes[keep])
    floor = 0.5 * min_separation(run.shape) * math.sqrt(run.energy) * times[keep]
    return times[keep], np.atleast_1d(r_vals), floor


@dataclass(frozen=True)
class LegSummary:
    radius: float
    duration: float
    action_value: float
    terminal_angle: float
    mean_speed: float
    terminal_speed: float
    min_sep: float
    converged: bool


@dataclass(frozen=True)
class AsymptoticsReport:
    energy: float
    speed_target: float  # sqrt(E), the weighted-norm convention
    legs: tuple[LegSummary, ...]
    gaps: tuple[float, ...]
    terminal_speed: float
    terminal_speed_doubled_convention: float  # sqrt(2) * terminal_speed
    angle_trend_ok: bool
    gap_trend_ok: bool
    completed: bool


def asymptotic_report(run: HyperbolicRun) -> AsymptoticsReport:
    """Summarize escape diagnostics of a run.

    Per leg: terminal direction error against the shape, mean speed
    ||gamma(T)|| / T, and the terminal node-difference speed. Across legs:
    the early-window gaps and whether angles and gaps are non-increasing.
    """
    if not run.legs:
        raise ValueError("run has no legs")
    masses = run.params.masses
    sqrt_e = math.sqrt(run.energy)
    rows = []
    for radius, leg in zip(run.radii, run.legs):
        path = leg.path
        end = path.end
        dt = path.dt
        term_v = (path.nodes[-1] - path.nodes[-2]) / dt
        rows.append(
            LegSummary(
                radius=radius,
                duration=path.total_time,
                action_value=leg.value,
                terminal_angle=angle(end, run.shape, masses),
                mean_speed=weighted_norm(end, masses) / path.total_time,
                terminal_speed=weighted_norm(term_v, masses),
                min_sep=leg.min_sep,
                converged=leg.converged,
            )
        )
    gaps = tuple(float(g) for g in approximant_gaps(run))
    angles = [r.terminal_angle for r in rows]
    pad = 1e-9
    angle_ok = all(b <= a + pad for a, b in zip(angles, angles[1:]))
    gap_ok = all(b <= a + pad for a, b in zip(gaps, gaps[1:]))
    last_speed = rows[-1].terminal_speed
    return AsymptoticsReport(
        energy=run.energy,
        speed_target=sqrt_e,
        legs=tuple(rows),
        gaps=gaps,
        terminal_speed=last_speed,
        terminal_speed_doubled_convention=math.sqrt(2.0) * last_speed,
        angle_trend_ok=angle_ok,
        gap_trend_ok=gap_ok,
        completed=run.completed,
    )


def render_asymptotics(report: AsymptoticsReport) -> str:
    """Deterministic plain-text rendering of an asymptotics report."""
    lines = [
        "hyperbolic approximants",
        f"energy = {report.energy!r}  speed target sqrt(E) = {report.speed_target!r}",
        f"legs = {len(report.legs)}  completed = {report.completed}",
        "",
        "leg  radius  duration  action  terminal_angle  mean_speed  terminal_speed  min_sep",
    ]
    for k, leg in enumerate(report.legs):
        lines.append(
            f"{k}  {leg.radius!r}  {leg.duration!r}  {leg.action_value!r}  "
            f"{leg.terminal_angle!r}  {leg.mean_speed!r}  {leg.terminal_speed!r}  {leg.min_sep!r}"
        )
    lines.append("")
    lines.append("early-window gaps between successive approximants:")
    for k, g in enumerate(report.gaps):
        lines.append(f"  gap[{k}] = {g!r}")
    lines.append(f"terminal speed = {report.terminal_speed!r}")
    lines.append(
        "same speed in the (1/2)|v|^2 convention = "
        f"{report.terminal_speed_doubled_convention!r}"
    )
    lines.append(f"angle trend non-increasing: {report.angle_trend_ok}")
    lines.append(f"gap trend non-increasing: {report.gap_trend_ok}")
    return "\n".join(lines) + "\n"
