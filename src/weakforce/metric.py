"""Estimation and property testing of the minimal-action distance.

phi_E(x, y) is the infimum of the fixed-energy action over collision-free
paths from x to y, time free. The minimizer's value is a discrete estimate
of it, not a certified bound (see the action module), so all metric
properties here (symmetry, triangle inequality, the two lower bounds) are
checked statistically over randomized endpoint families rather than
assumed; violations beyond the solver tolerance are counted and made
replayable through (seed, case index) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .action import MinimizeResult, SolverSettings, maupertuis_lower_bound, minimize_free_time
from .configspace import min_separation, weighted_norm
from .dynamics import PotentialParams
from .seeding import substream

__all__ = [
    "VALUE_RTOL",
    "check_symmetry",
    "check_triangle",
    "check_lower_bounds",
    "SymmetryCheck",
    "TriangleCheck",
    "BoundCheck",
    "MetricSuiteConfig",
    "MetricSuiteReport",
    "run_metric_suite",
    "render_metric_report",
]

# Two independent minimizations of the same distance agree to roughly the
# outer time-search tolerance squared through the envelope theorem; observed
# mismatches sit below 1e-5 relative, asserted at 1e-4 for slack.
VALUE_RTOL = 1e-4

# endpoint shapes have weighted norm uniform in this range, with every body
# pair at least _MIN_BODY_GAP apart
_SIZE_RANGE = (2.0, 4.0)
_MIN_BODY_GAP = 1.0


@dataclass(frozen=True)
class SymmetryCheck:
    forward: MinimizeResult
    backward: MinimizeResult
    mismatch: float  # |phi(x,y) - phi(y,x)| / (1 + phi)

    @property
    def ok(self) -> bool:
        return self.mismatch <= VALUE_RTOL


def check_symmetry(x, y, energy, params, **kwargs) -> SymmetryCheck:
    """Estimate phi in both directions and compare."""
    fwd = minimize_free_time(x, y, energy, params, **kwargs)
    bwd = minimize_free_time(y, x, energy, params, **kwargs)
    mismatch = abs(fwd.value - bwd.value) / (1.0 + abs(fwd.value))
    return SymmetryCheck(forward=fwd, backward=bwd, mismatch=mismatch)


@dataclass(frozen=True)
class TriangleCheck:
    leg_xy: MinimizeResult
    leg_yz: MinimizeResult
    leg_xz: MinimizeResult
    margin: float  # phi(x,y) + phi(y,z) - phi(x,z); negative means violation

    @property
    def ok(self) -> bool:
        # each of the three legs is an estimate carrying its own optimization
        # slack, so require the margin to clear -3x the per-value tolerance
        scale = 1.0 + abs(self.leg_xz.value)
        return self.margin >= -3.0 * VALUE_RTOL * scale


def check_triangle(x, y, z, energy, params, **kwargs) -> TriangleCheck:
    """Check phi(x,z) <= phi(x,y) + phi(y,z) on one triple."""
    xy = minimize_free_time(x, y, energy, params, **kwargs)
    yz = minimize_free_time(y, z, energy, params, **kwargs)
    xz = minimize_free_time(x, z, energy, params, **kwargs)
    return TriangleCheck(
        leg_xy=xy, leg_yz=yz, leg_xz=xz, margin=xy.value + yz.value - xz.value
    )


@dataclass(frozen=True)
class BoundCheck:
    value: float
    maupertuis: float
    positivity: float
    et_bound: float
    maupertuis_slack: float
    positivity_slack: float
    et_slack: float

    @property
    def ok(self) -> bool:
        pad = 1e-12 * (1.0 + abs(self.value))
        return (
            self.maupertuis_slack >= -pad
            and self.positivity_slack >= -pad
            and self.et_slack >= -pad
        )


def check_lower_bounds(
    x: np.ndarray, y: np.ndarray, energy: float, result: MinimizeResult, params: PotentialParams
) -> BoundCheck:
    """Evaluate the three analytic lower bounds against a minimize result.

    Maupertuis: A >= 2 sqrt(E) ||x - y||. Positivity: with min(m) = 1 the
    kinetic term alone gives A >= max_i |x_i - y_i|^2 / (2 T). And trivially
    A >= E * T. All use the duration the minimizer actually settled on.
    """
    a_val = result.value
    t_star = result.path.total_time
    mau = maupertuis_lower_bound(x, y, params.masses, energy)
    body_sep = np.linalg.norm(np.asarray(x) - np.asarray(y), axis=1)
    pos = float((body_sep**2).max()) / (2.0 * t_star)
    et = energy * t_star
    return BoundCheck(
        value=a_val,
        maupertuis=mau,
        positivity=pos,
        et_bound=et,
        maupertuis_slack=a_val - mau,
        positivity_slack=a_val - pos,
        et_slack=a_val - et,
    )


@dataclass(frozen=True)
class MetricSuiteConfig:
    """What the randomized metric suite runs.

    Endpoint shapes are rescaled Gaussian configurations kept clear of
    collisions; separations are drawn so that both near and well-separated
    endpoint pairs appear.

    Raises:
        ValueError: If n_pairs or n_triples is negative, or both are 0, or
            dim is below 1.
    """

    seed: int = 0
    n_pairs: int = 6
    n_triples: int = 3
    n_bodies: int = 3
    dim: int = 2
    alpha: float = 0.5
    energy: float = 1.0
    masses: tuple[float, ...] | None = None  # None: log-uniform in [1, 10] from the seed
    n_segments: int = 200
    restarts: int = 1
    separation_range: tuple[float, float] = (4.0, 10.0)

    def __post_init__(self):
        if self.n_pairs < 0 or self.n_triples < 0:
            raise ValueError(
                f"pairs and triples must not be negative, got {self.n_pairs} and {self.n_triples}"
            )
        if self.n_pairs == 0 and self.n_triples == 0:
            raise ValueError("the suite would check nothing: need at least one pair or triple")
        if self.dim < 1:
            raise ValueError(f"configurations need at least 1 dimension, got {self.dim}")


@dataclass(frozen=True)
class MetricSuiteReport:
    config: MetricSuiteConfig
    masses: np.ndarray
    symmetry_mismatches: np.ndarray
    triangle_margins: np.ndarray
    bound_failures: int
    n_bound_checks: int
    worst_symmetry: float
    worst_triangle_margin: float
    min_separation_seen: float
    monotonicity_pairs: np.ndarray  # columns: low-E value, high-E value
    replay: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return (
            self.worst_symmetry <= VALUE_RTOL
            and len(self.replay) == 0
            and self.bound_failures == 0
        )


def _sample_configuration(rng, n_bodies, dim, masses, size, min_gap):
    """Gaussian cloud rescaled to weighted norm ``size``; rejects tight pairs."""
    for _ in range(500):
        g = rng.standard_normal((n_bodies, dim))
        nrm = weighted_norm(g, masses)
        if nrm < 1e-12:
            continue
        x = g * (size / nrm)
        if min_separation(x) >= min_gap:
            return x
    raise RuntimeError("rejection sampling failed to find a separated configuration")


def _sample_pair(rng, cfg: MetricSuiteConfig, masses):
    size = rng.uniform(*_SIZE_RANGE)
    x = _sample_configuration(rng, cfg.n_bodies, cfg.dim, masses, size, _MIN_BODY_GAP)
    u = rng.standard_normal((cfg.n_bodies, cfg.dim))
    u /= weighted_norm(u, masses)
    sep = rng.uniform(*cfg.separation_range)
    size_y = rng.uniform(*_SIZE_RANGE)
    y_shape = _sample_configuration(rng, cfg.n_bodies, cfg.dim, masses, size_y, _MIN_BODY_GAP)
    y = y_shape + sep * u
    return x, y


def run_metric_suite(cfg: MetricSuiteConfig) -> MetricSuiteReport:
    """Randomized property testing of the phi estimator.

    Per pair: forward/backward symmetry, the three lower bounds, and
    monotonicity of phi in E (phi at E and at 2E). Per triple: the triangle
    inequality. Violating cases are recorded as (kind, index) replay keys;
    regenerate the offending endpoints by redrawing from
    substream(seed, kind, str(index)).
    """
    if cfg.masses is not None:
        params = PotentialParams(cfg.alpha, np.asarray(cfg.masses, dtype=float))
    else:
        m_rng = substream(cfg.seed, "metric-masses")
        params = PotentialParams(cfg.alpha, 10.0 ** m_rng.uniform(0.0, 1.0, cfg.n_bodies))
    masses = params.masses
    settings = SolverSettings()

    sym = []
    margins = []
    mono = []
    replay: list[tuple[str, int]] = []
    bound_failures = 0
    n_bound_checks = 0
    min_sep_seen = math.inf

    for k in range(cfg.n_pairs):
        rng = substream(cfg.seed, "metric-pair", str(k))
        x, y = _sample_pair(rng, cfg, masses)
        chk = check_symmetry(
            x, y, cfg.energy, params,
            n_segments=cfg.n_segments, settings=settings, restarts=cfg.restarts,
        )
        sym.append(chk.mismatch)
        min_sep_seen = min(min_sep_seen, chk.forward.min_sep, chk.backward.min_sep)
        if not chk.ok:
            replay.append(("metric-pair", k))

        bounds = check_lower_bounds(x, y, cfg.energy, chk.forward, params)
        n_bound_checks += 1
        if not bounds.ok:
            bound_failures += 1
            replay.append(("metric-pair-bounds", k))

        hi = minimize_free_time(
            x, y, 2.0 * cfg.energy, params,
            n_segments=cfg.n_segments, settings=settings, restarts=cfg.restarts,
        )
        mono.append((chk.forward.value, hi.value))
        if hi.value < chk.forward.value * (1.0 - VALUE_RTOL):
            replay.append(("metric-pair-monotone", k))

    for k in range(cfg.n_triples):
        rng = substream(cfg.seed, "metric-triple", str(k))
        x, y = _sample_pair(rng, cfg, masses)
        _, z = _sample_pair(rng, cfg, masses)
        chk = check_triangle(
            x, y, z, cfg.energy, params,
            n_segments=cfg.n_segments, settings=settings, restarts=cfg.restarts,
        )
        margins.append(chk.margin)
        for leg in (chk.leg_xy, chk.leg_yz, chk.leg_xz):
            min_sep_seen = min(min_sep_seen, leg.min_sep)
        if not chk.ok:
            replay.append(("metric-triple", k))

    sym_arr = np.asarray(sym) if sym else np.zeros(0)
    mar_arr = np.asarray(margins) if margins else np.zeros(0)
    return MetricSuiteReport(
        config=cfg,
        masses=masses,
        symmetry_mismatches=sym_arr,
        triangle_margins=mar_arr,
        bound_failures=bound_failures,
        n_bound_checks=n_bound_checks,
        worst_symmetry=float(sym_arr.max()) if sym_arr.size else 0.0,
        worst_triangle_margin=float(mar_arr.min()) if mar_arr.size else 0.0,
        min_separation_seen=min_sep_seen,
        monotonicity_pairs=np.asarray(mono) if mono else np.zeros((0, 2)),
        replay=tuple(replay),
    )


def render_metric_report(report: MetricSuiteReport) -> str:
    """Deterministic plain-text rendering of a metric suite run."""
    cfg = report.config
    lines = [
        "metric suite",
        f"seed = {cfg.seed}",
        f"bodies = {cfg.n_bodies}  dim = {cfg.dim}  alpha = {cfg.alpha!r}  energy = {cfg.energy!r}",
        f"pairs = {cfg.n_pairs}  triples = {cfg.n_triples}  segments = {cfg.n_segments}",
        "",
        f"symmetry checks: {report.symmetry_mismatches.size}",
        f"worst symmetry mismatch = {report.worst_symmetry!r}",
        f"triangle checks: {report.triangle_margins.size}",
        f"worst triangle margin = {report.worst_triangle_margin!r}",
        f"lower-bound checks: {report.n_bound_checks}  failures: {report.bound_failures}",
        f"monotonicity checks: {report.monotonicity_pairs.shape[0]}",
        f"minimum pair separation along any path = {report.min_separation_seen!r}",
        f"violations: {len(report.replay)}",
    ]
    for kind, idx in report.replay:
        lines.append(f"  replay: {kind} index {idx}")
    lines.append("")
    lines.append("status: " + ("PASS" if report.ok else "FAIL"))
    return "\n".join(lines) + "\n"
