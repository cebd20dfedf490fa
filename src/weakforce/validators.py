"""Randomized validation of explicit configuration-space inequalities.

Three families of bounds tie the weighted norm to pairwise separations and
control how rays and perturbations behave far from collisions. All require
masses normalized so min(m) = 1 (which :func:`weakforce.configspace.mass_vector`
guarantees):

* norm bounds: |x_i| <= sqrt(2) ||x|| per body and R(x) <= 2 sqrt(2) ||x||;
* ray estimates: for t > 70 (1 + ||x||) / r(a) and unit collision-free a,
  the normalized ray point stays within r(a)/30 of a and
  r(x + t a) >= (67/70) r(a) t > 67;
* perturbation estimates: for ||x' - a|| <= lambda r(a), lambda < 1/2,
  separations obey r(x') > (1 - 3 lambda) r(a), relative body directions
  tilt by at most cos >= 1 - 6 lambda, and unit x' keeps
  <a, x'> >= 1 - (9/2) lambda^2.

The ray hypothesis factor 70 and the perturbation constant 3 are the
sharp-enough forms the package asserts; the looser "stated" variants
(factor 1 hypothesis, constant 2) are measured and reported only, since
the first admits counterexamples and the second is not what the triangle
inequality actually yields.

Checkers return margins (slack >= 0 means the inequality holds). Each
inequality is written once, in the ``*_batch`` checkers, which take a stack
of S cases as (S, N, n) arrays and return margins holding (S,) arrays; the
scalar checkers and :func:`sample_shape` are the batch-of-one views.

Stream layout. A suite cell is one (family, body count, dimension), named
by its stream, e.g. ``"ray-3-2"``. The cell's masses come from
``substream(seed, stream)``. Its cases are drawn in chunks of
:data:`CHUNK_SIZE`: case k lives in chunk c = k // CHUNK_SIZE, row
k % CHUNK_SIZE, and chunk c is always drawn at full size from
``substream(seed, stream, str(c))`` and then truncated to the requested
sample count. So case k depends on (seed, stream, k) only, never on
``samples``, and :func:`replay_geometry_case` rebuilds any one case from its
own chunk. The perturbation family also checks the unit projection of every
even case k under the stream name ``stream + "-unit"``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from functools import reduce
from typing import NamedTuple

import numpy as np

from .configspace import mass_vector, pair_distances, pair_indices
from .seeding import substream

__all__ = [
    "NormBoundMargins",
    "RayMargins",
    "PerturbationMargins",
    "check_norm_bounds",
    "check_norm_bounds_batch",
    "check_ray_estimates",
    "check_ray_estimates_batch",
    "check_perturbation_estimates",
    "check_perturbation_estimates_batch",
    "sample_masses",
    "sample_shape",
    "sample_shapes",
    "SuiteConfig",
    "SuiteReport",
    "GeometryCase",
    "run_norm_suite",
    "run_ray_suite",
    "run_perturbation_suite",
    "run_all_suites",
    "replay_geometry_case",
    "render_geometry_report",
]

RAY_HYPOTHESIS_FACTOR = 70.0
RAY_DIRECTION_DENOM = 30.0
RAY_SEPARATION_FACTOR = 67.0 / 70.0
RAY_ABSOLUTE_FLOOR = 67.0
PERTURBATION_SEPARATION_CONST = 3.0
PERTURBATION_SEPARATION_STATED = 2.0
PERTURBATION_COSINE_CONST = 6.0
PERTURBATION_INNER_CONST = 4.5

# Cases per chunk. Even, so that even cases k are exactly the even rows.
CHUNK_SIZE = 512


def _require_normalized(masses: np.ndarray) -> np.ndarray:
    m = np.asarray(masses, dtype=float)
    if abs(float(m.min()) - 1.0) > 1e-12:
        raise ValueError("masses must be normalized so the smallest equals 1")
    return m


def _require_rows(ok: np.ndarray, message) -> None:
    """Raise ValueError(message(r)) for the first row r where ok is False."""
    if not np.all(ok):
        r = int(np.argmin(ok))
        where = f" (row {r})" if ok.size > 1 else ""
        raise ValueError(message(r) + where)


def _norms(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Weighted norms of a batch (S, N, n), shape (S,)."""
    return np.sqrt(0.5 * np.einsum("i,sik,sik->s", m, x, x))


def _unit_shape_separations(shape: np.ndarray, m: np.ndarray) -> np.ndarray:
    """r(a) per row, after checking each shape is unit and collision-free."""
    nrm = _norms(shape, m)
    _require_rows(
        np.abs(nrm - 1.0) <= 1e-9,
        lambda r: f"shape must be unit in the weighted norm, got {float(nrm[r])!r}",
    )
    r_a = pair_distances(shape).min(axis=-1)
    _require_rows(r_a > 0.0, lambda r: "shape has a collision")
    return r_a


def _fmin(*values):
    """Elementwise minimum of the slacks that apply (None and NaN do not)."""
    return reduce(np.fmin, [v for v in values if v is not None])


def _row(margins, r: int):
    """Row r of batched margins as floats; a NaN inner slack becomes None."""
    values = {f.name: float(getattr(margins, f.name)[r]) for f in fields(margins)}
    if math.isnan(values.get("inner_slack", 0.0)):
        values["inner_slack"] = None
    return type(margins)(**values)


@dataclass(frozen=True)
class NormBoundMargins:
    """Slacks of the per-body and pairwise norm bounds (>= 0 means holds).

    Fields are floats from the scalar checker and (S,) arrays from the
    batched one.
    """

    body_slack: float | np.ndarray
    pair_slack: float | np.ndarray

    @property
    def worst(self):
        return _fmin(self.body_slack, self.pair_slack)


def check_norm_bounds_batch(x: np.ndarray, masses: np.ndarray) -> NormBoundMargins:
    """Margins of |x_i| <= sqrt(2)||x|| and R(x) <= 2 sqrt(2)||x|| for x of shape (S, N, n)."""
    m = _require_normalized(masses)
    nrm = _norms(x, m)
    body_max = np.sqrt(np.einsum("sik,sik->si", x, x)).max(axis=-1)
    pair_max = pair_distances(x).max(axis=-1)
    return NormBoundMargins(
        body_slack=math.sqrt(2.0) * nrm - body_max,
        pair_slack=2.0 * math.sqrt(2.0) * nrm - pair_max,
    )


def check_norm_bounds(x: np.ndarray, masses: np.ndarray) -> NormBoundMargins:
    """Margins of |x_i| <= sqrt(2)||x|| and R(x) <= 2 sqrt(2)||x||."""
    return _row(check_norm_bounds_batch(x[None], masses), 0)


@dataclass(frozen=True)
class RayMargins:
    """Slacks of the ray-direction and ray-separation estimates."""

    direction_slack: float | np.ndarray
    separation_slack: float | np.ndarray
    absolute_floor_slack: float | np.ndarray

    @property
    def worst(self):
        return _fmin(self.direction_slack, self.separation_slack, self.absolute_floor_slack)


def _ray_threshold(x: np.ndarray, r_a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The growth hypothesis bound 70 (1 + ||x||) / r(a), per row."""
    return RAY_HYPOTHESIS_FACTOR * (1.0 + _norms(x, m)) / r_a


def check_ray_estimates_batch(
    x: np.ndarray, shape: np.ndarray, masses: np.ndarray, t: np.ndarray
) -> RayMargins:
    """Margins of the far-ray estimates at the points x + t * shape.

    x and shape have shape (S, N, n) and t shape (S,). Each row requires the
    growth hypothesis t > 70 (1 + ||x||) / r(shape); the conclusions are
    ||w/||w|| - shape|| <= r(shape)/30 with w = x + t shape,
    r(w) >= (67/70) r(shape) t, and r(w) > 67.

    Raises:
        ValueError: If any row fails the hypothesis (the estimates are simply
            not claimed there) or has a shape that is not unit/collision-free.
    """
    m = _require_normalized(masses)
    r_a = _unit_shape_separations(shape, m)
    t = np.asarray(t, dtype=float)
    threshold = _ray_threshold(x, r_a, m)
    _require_rows(
        t > threshold,
        lambda r: f"ray estimates need t > {float(threshold[r])!r} (70 (1+||x||)/r(shape)), "
        f"got t = {float(t[r])!r}",
    )
    w = x + t[:, None, None] * shape
    w_unit = w / _norms(w, m)[:, None, None]
    direction_err = _norms(w_unit - shape, m)
    r_w = pair_distances(w).min(axis=-1)
    return RayMargins(
        direction_slack=r_a / RAY_DIRECTION_DENOM - direction_err,
        separation_slack=r_w - RAY_SEPARATION_FACTOR * r_a * t,
        absolute_floor_slack=r_w - RAY_ABSOLUTE_FLOOR,
    )


def check_ray_estimates(
    x: np.ndarray, shape: np.ndarray, masses: np.ndarray, t: float
) -> RayMargins:
    """Margins of the far-ray estimates at the point x + t * shape.

    The single-case view of :func:`check_ray_estimates_batch`.

    Raises:
        ValueError: If the hypothesis fails or the shape is not
            unit/collision-free.
    """
    return _row(check_ray_estimates_batch(x[None], shape[None], masses, np.array([t])), 0)


@dataclass(frozen=True)
class PerturbationMargins:
    """Slacks of the perturbation estimates around a unit shape.

    separation_slack uses the asserted constant 3; stated_separation_slack
    uses the looser constant 2 and is reported, never asserted. inner_slack
    only applies where x' is itself unit (the inner-product estimate
    presumes that): the scalar checker gives None otherwise, the batched one
    NaN.
    """

    separation_slack: float | np.ndarray
    stated_separation_slack: float | np.ndarray
    cosine_slack: float | np.ndarray
    inner_slack: float | np.ndarray | None

    @property
    def worst(self):
        return _fmin(self.separation_slack, self.cosine_slack, self.inner_slack)


def check_perturbation_estimates_batch(
    shape: np.ndarray, perturbed: np.ndarray, lam: np.ndarray, masses: np.ndarray
) -> PerturbationMargins:
    """Margins of the estimates for rows x' with ||x' - shape|| <= lambda r(shape).

    Args:
        shape: Unit collision-free configurations a, shape (S, N, n).
        perturbed: The configurations x', shape (S, N, n).
        lam: The lambdas in the hypothesis, 0 < lambda < 1/2, shape (S,).
        masses: Normalized masses.

    Raises:
        ValueError: If any row has lambda out of range, an x' that violates
            the distance hypothesis, or a shape that is not
            unit/collision-free.
    """
    m = _require_normalized(masses)
    r_a = _unit_shape_separations(shape, m)
    lam = np.asarray(lam, dtype=float)
    _require_rows(
        (0.0 < lam) & (lam < 0.5), lambda r: f"lambda must lie in (0, 1/2), got {float(lam[r])}"
    )
    dist = _norms(perturbed - shape, m)
    _require_rows(
        dist <= lam * r_a * (1.0 + 1e-12),
        lambda r: f"perturbation {float(dist[r])!r} exceeds the hypothesis bound "
        f"{float(lam[r] * r_a[r])!r}",
    )

    i, j = pair_indices(shape.shape[-2])
    rel_a = shape[:, i] - shape[:, j]
    rel_p = perturbed[:, i] - perturbed[:, j]
    na = np.sqrt(np.einsum("spk,spk->sp", rel_a, rel_a))
    npn = np.sqrt(np.einsum("spk,spk->sp", rel_p, rel_p))
    r_p = npn.min(axis=-1)
    cosines = np.einsum("spk,spk->sp", rel_a, rel_p) / (na * npn)
    cosine_slack = cosines.min(axis=-1) - (1.0 - PERTURBATION_COSINE_CONST * lam)

    unit = np.abs(_norms(perturbed, m) - 1.0) <= 1e-9
    inner = 0.5 * np.einsum("i,sik,sik->s", m, shape, perturbed)
    inner_slack = np.where(unit, inner - (1.0 - PERTURBATION_INNER_CONST * lam**2), np.nan)

    return PerturbationMargins(
        separation_slack=r_p - (1.0 - PERTURBATION_SEPARATION_CONST * lam) * r_a,
        stated_separation_slack=r_p - (1.0 - PERTURBATION_SEPARATION_STATED * lam) * r_a,
        cosine_slack=cosine_slack,
        inner_slack=inner_slack,
    )


def check_perturbation_estimates(
    shape: np.ndarray, perturbed: np.ndarray, lam: float, masses: np.ndarray
) -> PerturbationMargins:
    """Margins of the estimates for x' with ||x' - shape|| <= lambda r(shape).

    The single-case view of :func:`check_perturbation_estimates_batch`.

    Raises:
        ValueError: If lambda is out of range or x' violates the distance
            hypothesis.
    """
    return _row(
        check_perturbation_estimates_batch(shape[None], perturbed[None], np.array([lam]), masses),
        0,
    )


def sample_masses(rng: np.random.Generator, n_bodies: int) -> np.ndarray:
    """Log-uniform masses in [1, 10], renormalized so the minimum is 1."""
    return mass_vector(10.0 ** rng.uniform(0.0, 1.0, n_bodies))


def sample_shapes(
    rng: np.random.Generator,
    count: int,
    n_bodies: int,
    dim: int,
    masses: np.ndarray,
    min_sep: float = 0.05,
    max_tries: int = 1000,
) -> np.ndarray:
    """``count`` unit-sphere Gaussian shapes with r(a) >= min_sep, shape (count, N, n).

    Candidates are drawn in rounds of 5/4 of the shortfall plus 8; those with
    ||g|| < 1e-12 or r(a) < min_sep are masked out, and the survivors are
    taken in draw order.

    Raises:
        RuntimeError: After max_tries candidates per requested shape.
    """
    out = np.empty((count, n_bodies, dim))
    have = drawn = 0
    while have < count:
        if drawn >= max_tries * count:
            raise RuntimeError("shape sampling kept hitting near-collisions; loosen min_sep")
        size = (count - have) * 5 // 4 + 8
        g = rng.standard_normal((size, n_bodies, dim))
        drawn += size
        nrm = _norms(g, masses)
        keep = nrm >= 1e-12
        a = g[keep] / nrm[keep, None, None]
        a = a[pair_distances(a).min(axis=-1) >= min_sep][: count - have]
        out[have:have + len(a)] = a
        have += len(a)
    return out


def sample_shape(
    rng: np.random.Generator,
    n_bodies: int,
    dim: int,
    masses: np.ndarray,
    min_sep: float = 0.05,
    max_tries: int = 1000,
) -> np.ndarray:
    """One unit-sphere Gaussian shape with r(a) >= min_sep (see :func:`sample_shapes`)."""
    return sample_shapes(rng, 1, n_bodies, dim, masses, min_sep, max_tries)[0]


@dataclass(frozen=True)
class SuiteConfig:
    """Sampling plan for the geometry suites.

    Each (n_bodies, dim) cell gets ``samples`` draws. Ray times are the
    hypothesis threshold times a log-uniform multiplier in
    _T_MULTIPLIER_RANGE; lambdas are uniform in lambda_range.

    Raises:
        ValueError: If a suite would check nothing or draw impossible
            configurations: samples < 1, no body count or dimension, a body
            count below 2 or a dimension below 1.
    """

    seed: int = 0
    samples: int = 200
    body_counts: tuple[int, ...] = (2, 3, 5)
    dims: tuple[int, ...] = (2, 3)
    lambda_range: tuple[float, float] = (0.01, 0.49)

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples per cell must be at least 1, got {self.samples}")
        if not self.body_counts or min(self.body_counts) < 2:
            raise ValueError(f"body counts must all be at least 2, got {list(self.body_counts)}")
        if not self.dims or min(self.dims) < 1:
            raise ValueError(f"dimensions must all be at least 1, got {list(self.dims)}")


@dataclass(frozen=True)
class SuiteReport:
    """Aggregated outcome of one inequality family."""

    name: str
    checked: int
    skipped: int
    violations: int
    worst_margin: float
    stated_violations: int = 0  # measured-only variants (never asserted)
    replay: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.violations == 0


_REPLAY_CAP = 20
# sampled shapes have r(a) >= _SHAPE_MIN_SEP; ray times and position scales
# are log-uniform in these ranges
_SHAPE_MIN_SEP = 0.05
_T_MULTIPLIER_RANGE = (1.0 + 1e-6, 100.0)
_POSITION_SCALE_RANGE = (0.1, 10.0)


class _Part(NamedTuple):
    """The checks of one chunk under one stream name.

    ``tried`` are the chunk rows this stream considered, ``rows`` the ones it
    checked (the rest were skipped); ``inputs`` and ``margins`` are aligned
    with ``rows``.
    """

    stream: str
    tried: np.ndarray
    rows: np.ndarray
    inputs: dict
    margins: NormBoundMargins | RayMargins | PerturbationMargins


_ALL_ROWS = np.arange(CHUNK_SIZE)
_EVEN_ROWS = _ALL_ROWS[::2]


def _log_uniform(rng: np.random.Generator, bounds: tuple[float, float]) -> np.ndarray:
    lo, hi = bounds
    return np.exp(rng.uniform(math.log(lo), math.log(hi), CHUNK_SIZE))


def _positions(rng: np.random.Generator, nb: int, dim: int) -> np.ndarray:
    """Gaussian configurations at log-uniform scales."""
    scale = _log_uniform(rng, _POSITION_SCALE_RANGE)
    return scale[:, None, None] * rng.standard_normal((CHUNK_SIZE, nb, dim))


def _norm_chunk(rng, cfg, stream, nb, dim, masses):
    x = _positions(rng, nb, dim)
    return [_Part(stream, _ALL_ROWS, _ALL_ROWS, {"x": x}, check_norm_bounds_batch(x, masses))]


def _ray_chunk(rng, cfg, stream, nb, dim, masses):
    a = sample_shapes(rng, CHUNK_SIZE, nb, dim, masses, _SHAPE_MIN_SEP)
    x = _positions(rng, nb, dim)
    t = _ray_threshold(x, pair_distances(a).min(axis=-1), masses) * _log_uniform(
        rng, _T_MULTIPLIER_RANGE
    )
    margins = check_ray_estimates_batch(x, a, masses, t)
    return [_Part(stream, _ALL_ROWS, _ALL_ROWS, {"x": x, "shape": a, "t": t}, margins)]


def _perturbation_chunk(rng, cfg, stream, nb, dim, masses):
    """Generic x' inside the lambda r(a) ball, plus unit projections on even rows.

    A projection whose effective lambda leaves (0, 1/2) is skipped.
    """
    a = sample_shapes(rng, CHUNK_SIZE, nb, dim, masses, _SHAPE_MIN_SEP)
    r_a = pair_distances(a).min(axis=-1)
    lam = rng.uniform(*cfg.lambda_range, CHUNK_SIZE)
    u = rng.standard_normal((CHUNK_SIZE, nb, dim))
    u /= _norms(u, masses)[:, None, None]
    radius = rng.uniform(0.5, 1.0, CHUNK_SIZE) * lam * r_a
    xp = a + radius[:, None, None] * u
    generic = _Part(
        stream, _ALL_ROWS, _ALL_ROWS, {"shape": a, "perturbed": xp, "lam": lam},
        check_perturbation_estimates_batch(a, xp, lam, masses),
    )

    even = _EVEN_ROWS
    xp_unit = xp[even] / _norms(xp[even], masses)[:, None, None]
    lam_eff = _norms(xp_unit - a[even], masses) / r_a[even]
    ok = (0.0 < lam_eff) & (lam_eff < 0.5)
    rows = even[ok]
    unit = _Part(
        stream + "-unit", even, rows,
        {"shape": a[rows], "perturbed": xp_unit[ok], "lam": lam_eff[ok]},
        check_perturbation_estimates_batch(a[rows], xp_unit[ok], lam_eff[ok], masses),
    )
    return [generic, unit]


_FAMILIES = {
    "norm": ("norm-bounds", _norm_chunk),
    "ray": ("ray-estimates", _ray_chunk),
    "perturb": ("perturbation-estimates", _perturbation_chunk),
}


def _cell_masses(cfg: SuiteConfig, family: str, nb: int, dim: int) -> np.ndarray:
    return sample_masses(substream(cfg.seed, f"{family}-{nb}-{dim}"), nb)


def _chunk(cfg: SuiteConfig, family: str, nb: int, dim: int, c: int, masses) -> list[_Part]:
    """Draw chunk c of a cell at full size and check every row of it."""
    stream = f"{family}-{nb}-{dim}"
    draw = _FAMILIES[family][1]
    return draw(substream(cfg.seed, stream, str(c)), cfg, stream, nb, dim, masses)


def _run_family(cfg: SuiteConfig, family: str) -> SuiteReport:
    checked = skipped = violations = stated_violations = 0
    worst = math.inf
    replay = []
    for nb in cfg.body_counts:
        for dim in cfg.dims:
            masses = _cell_masses(cfg, family, nb, dim)
            for c in range(-(-cfg.samples // CHUNK_SIZE)):
                base = c * CHUNK_SIZE
                take = cfg.samples - base
                for part in _chunk(cfg, family, nb, dim, c, masses):
                    keep = part.rows < take
                    n_kept = int(np.count_nonzero(keep))
                    checked += n_kept
                    skipped += int(np.count_nonzero(part.tried < take)) - n_kept
                    if n_kept == 0:
                        continue
                    case_worst = part.margins.worst[keep]
                    worst = min(worst, float(case_worst.min()))
                    bad = part.rows[keep][case_worst < 0.0]
                    violations += len(bad)
                    replay.extend((part.stream, base + int(r)) for r in bad)
                    if isinstance(part.margins, PerturbationMargins):
                        stated = part.margins.stated_separation_slack[keep]
                        stated_violations += int(np.count_nonzero(stated < 0.0))
    return SuiteReport(
        name=_FAMILIES[family][0], checked=checked, skipped=skipped, violations=violations,
        worst_margin=worst, stated_violations=stated_violations,
        replay=tuple(replay[:_REPLAY_CAP]),
    )


def run_norm_suite(cfg: SuiteConfig) -> SuiteReport:
    """Check the norm bounds on random configurations (collisions allowed)."""
    return _run_family(cfg, "norm")


def run_ray_suite(cfg: SuiteConfig) -> SuiteReport:
    """Check the ray estimates at hypothesis-satisfying times."""
    return _run_family(cfg, "ray")


def run_perturbation_suite(cfg: SuiteConfig) -> SuiteReport:
    """Check the perturbation estimates, including the unit-projected case.

    Each draw checks a generic x' inside the lambda r(a) ball; every even
    draw also projects x' back to the unit sphere (with its effective
    lambda) to exercise the inner-product estimate, under the stream name
    ending in "-unit". Projections whose effective lambda leaves (0, 1/2)
    are skipped, not counted.
    """
    return _run_family(cfg, "perturb")


def run_all_suites(cfg: SuiteConfig) -> tuple[SuiteReport, ...]:
    return (run_norm_suite(cfg), run_ray_suite(cfg), run_perturbation_suite(cfg))


@dataclass(frozen=True)
class GeometryCase:
    """One suite case rebuilt by :func:`replay_geometry_case`.

    x is set for the norm and ray families, shape for ray and perturbation,
    t for ray, perturbed (x') and lam for perturbation.
    """

    stream: str
    index: int
    masses: np.ndarray
    margins: NormBoundMargins | RayMargins | PerturbationMargins
    x: np.ndarray | None = None
    shape: np.ndarray | None = None
    perturbed: np.ndarray | None = None
    t: float | None = None
    lam: float | None = None


_STREAM = re.compile(r"(norm|ray|perturb)-(\d+)-(\d+)(-unit)?")


def replay_geometry_case(cfg: SuiteConfig, stream: str, k: int) -> GeometryCase:
    """Rebuild case k of a suite stream from its own chunk, with its margins.

    ``stream`` is a name as printed in a report's replay lines, e.g.
    ``"norm-2-2"`` or ``"perturb-5-3-unit"``; cfg supplies the seed and the
    sampling ranges. The margins are those the suite computed for the case,
    bit for bit.

    Raises:
        ValueError: On an unknown stream name, a negative k, an odd k on a
            "-unit" stream, or a unit projection the suite skipped.
    """
    match = _STREAM.fullmatch(stream)
    if match is None or (match[4] and match[1] != "perturb"):
        raise ValueError(f"unknown geometry suite stream {stream!r}")
    if k < 0:
        raise ValueError(f"case index must be non-negative, got {k}")
    family, nb, dim = match[1], int(match[2]), int(match[3])
    if nb < 2 or dim < 1:
        raise ValueError(f"stream {stream!r} needs >= 2 bodies in >= 1 dimension")
    masses = _cell_masses(cfg, family, nb, dim)
    c, row = divmod(k, CHUNK_SIZE)
    part = next(p for p in _chunk(cfg, family, nb, dim, c, masses) if p.stream == stream)
    if row not in part.tried:
        raise ValueError(f"stream {stream!r} checks even cases only, got {k}")
    hits = np.flatnonzero(part.rows == row)
    if hits.size == 0:
        raise ValueError(
            f"case {k} of {stream!r} was skipped: its effective lambda leaves (0, 1/2)"
        )
    r = int(hits[0])
    inputs = {
        name: float(v[r]) if v.ndim == 1 else v[r] for name, v in part.inputs.items()
    }
    return GeometryCase(stream, k, masses, _row(part.margins, r), **inputs)


def render_geometry_report(reports: tuple[SuiteReport, ...], cfg: SuiteConfig) -> str:
    """Deterministic plain-text rendering of geometry suite results."""
    lines = [
        "geometry validation suites",
        f"seed = {cfg.seed}  samples per cell = {cfg.samples}",
        f"body counts = {list(cfg.body_counts)}  dims = {list(cfg.dims)}",
        "",
    ]
    total_violations = 0
    for rep in reports:
        total_violations += rep.violations
        lines.append(f"[{rep.name}]")
        lines.append(f"  checked = {rep.checked}  skipped = {rep.skipped}")
        lines.append(f"  violations = {rep.violations}")
        lines.append(f"  worst margin = {rep.worst_margin!r}")
        if rep.name == "perturbation-estimates":
            lines.append(
                f"  stated-constant (2 lambda) violations, reported only = {rep.stated_violations}"
            )
        for stream, idx in rep.replay:
            lines.append(
                f"  replay: substream {stream!r} sample {idx}"
                f"  (replay_geometry_case(cfg, {stream!r}, {idx}))"
            )
        lines.append("")
    lines.append("status: " + ("PASS" if total_violations == 0 else "FAIL"))
    return "\n".join(lines) + "\n"
