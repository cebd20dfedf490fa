import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import weakforce.validators as validators
from oracles import scalar_weighted_inner, scalar_weighted_norm
from weakforce.configspace import min_separation, weighted_norm
from weakforce.seeding import substream
from weakforce.validators import (
    CHUNK_SIZE,
    SuiteConfig,
    check_norm_bounds,
    check_norm_bounds_batch,
    check_perturbation_estimates,
    check_perturbation_estimates_batch,
    check_ray_estimates,
    check_ray_estimates_batch,
    render_geometry_report,
    replay_geometry_case,
    run_all_suites,
    run_norm_suite,
    run_perturbation_suite,
    run_ray_suite,
    sample_masses,
    sample_shape,
    sample_shapes,
)

EQUAL = np.array([1.0, 1.0])


def small_config(**overrides):
    base = dict(seed=1, samples=60)
    base.update(overrides)
    return SuiteConfig(**base)


def spearman(a, b):
    """Rank correlation, hand-rolled: 1 - 6 sum(d^2) / (n (n^2 - 1))."""
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    d = ra - rb
    n = len(a)
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


# ---------------------------------------------------------------------------
# norm bounds


def test_norm_bounds_exact_margins():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    m = check_norm_bounds(x, EQUAL)
    npt.assert_allclose(m.body_slack, math.sqrt(2.0) - 1.0, rtol=1e-14)
    npt.assert_allclose(m.pair_slack, 2.0 * math.sqrt(2.0) - 2.0, rtol=1e-14)
    npt.assert_allclose(m.worst, m.body_slack, rtol=1e-14)


def test_norm_body_bound_tight_for_lone_mover():
    # all displacement on one unit-mass body makes |x_i| = sqrt(2) ||x||
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    m = check_norm_bounds(x, EQUAL)
    npt.assert_allclose(m.body_slack, 0.0, atol=1e-12)
    assert m.pair_slack >= 0.0


def test_norm_bounds_require_normalized_masses():
    with pytest.raises(ValueError):
        check_norm_bounds(np.zeros((2, 2)), np.array([2.0, 3.0]))


# ---------------------------------------------------------------------------
# ray estimates


def antipodal_shape():
    return np.array([[1.0, 0.0], [-1.0, 0.0]])


def test_ray_estimates_exact_on_pure_ray():
    # x = 0 makes w = t a exactly: zero direction error, r(w) = t r(a)
    a = antipodal_shape()
    x = np.zeros((2, 2))
    t = 36.0  # threshold is 70 (1 + 0) / 2 = 35
    m = check_ray_estimates(x, a, EQUAL, t)
    npt.assert_allclose(m.direction_slack, 2.0 / 30.0, rtol=1e-12)
    npt.assert_allclose(m.separation_slack, 2.0 * t - (67.0 / 70.0) * 2.0 * t, rtol=1e-12)
    npt.assert_allclose(m.absolute_floor_slack, 2.0 * t - 67.0, rtol=1e-12)
    assert m.worst >= 0.0


def test_ray_estimates_reject_below_threshold():
    a = antipodal_shape()
    x = np.zeros((2, 2))
    with pytest.raises(ValueError):
        check_ray_estimates(x, a, EQUAL, 35.0)  # not strictly above


def test_ray_estimates_reject_bad_shape():
    x = np.zeros((2, 2))
    with pytest.raises(ValueError):
        check_ray_estimates(x, 2.0 * antipodal_shape(), EQUAL, 1e6)


def test_ray_estimates_hold_off_axis():
    a = antipodal_shape()
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.normal(scale=3.0, size=(2, 2))
        threshold = 70.0 * (1.0 + weighted_norm(x, EQUAL)) / 2.0
        t = threshold * float(rng.uniform(1.001, 50.0))
        m = check_ray_estimates(x, a, EQUAL, t)
        assert m.worst >= 0.0


# ---------------------------------------------------------------------------
# perturbation estimates


def test_perturbation_along_ray_margins():
    # scaling the shape leaves all angles fixed: cosine slack is exactly
    # the 6 lambda allowance and the separation grows instead of shrinking
    a = antipodal_shape()
    lam = 0.1
    xp = 1.1 * a  # ||x' - a|| = 0.1 <= lam * r(a) = 0.2
    m = check_perturbation_estimates(a, xp, lam, EQUAL)
    npt.assert_allclose(m.cosine_slack, 6.0 * lam, rtol=1e-12)
    npt.assert_allclose(m.separation_slack, 2.2 - (1.0 - 3.0 * lam) * 2.0, rtol=1e-12)
    assert m.inner_slack is None  # 1.1 a is not unit


def test_perturbation_inward_squeeze_boundary():
    # equal masses moving straight at each other realize the extreme
    # separation drop 2 lambda r(a): the measured constant-2 slack sits at
    # zero while the asserted constant-3 slack keeps lambda r(a) of room
    a = antipodal_shape()
    lam = 0.2
    u = np.array([[-1.0, 0.0], [1.0, 0.0]])  # unit weighted norm
    xp = a + (lam * 2.0) * u
    m = check_perturbation_estimates(a, xp, lam, EQUAL)
    npt.assert_allclose(m.stated_separation_slack, 0.0, atol=1e-12)
    npt.assert_allclose(m.separation_slack, lam * 2.0, rtol=1e-12)


def test_perturbation_unit_case_reports_inner_slack():
    a = antipodal_shape()
    rng = np.random.default_rng(9)
    g = rng.standard_normal((2, 2)) * 0.05
    xp = a + g
    xp_unit = xp / weighted_norm(xp, EQUAL)
    lam = weighted_norm(xp_unit - a, EQUAL) / 2.0 + 1e-9
    m = check_perturbation_estimates(a, xp_unit, lam, EQUAL)
    assert m.inner_slack is not None
    assert m.inner_slack >= 0.0
    assert m.worst >= 0.0


def test_perturbation_hypothesis_validation():
    a = antipodal_shape()
    with pytest.raises(ValueError):
        check_perturbation_estimates(a, a, 0.6, EQUAL)  # lambda out of range
    with pytest.raises(ValueError):
        check_perturbation_estimates(a, a + 1.0, 0.1, EQUAL)  # too far


def test_perturbation_deficit_tracks_lambda():
    # aim the whole budget at the tightest pair: the separation deficit
    # then grows with lambda, and the rank statistic picks that up
    rng = np.random.default_rng(17)
    masses = sample_masses(rng, 3)
    a = sample_shape(rng, 3, 2, masses)
    r_a = min_separation(a)
    d = a[:, None, :] - a[None, :, :]
    seps = np.linalg.norm(d, axis=-1)
    seps[np.diag_indices(3)] = np.inf
    i, j = np.unravel_index(np.argmin(seps), seps.shape)
    e = (a[j] - a[i]) / seps[i, j]
    u = np.zeros_like(a)
    u[i], u[j] = e, -e
    u /= weighted_norm(u, masses)
    lams, deficits = [], []
    for _ in range(40):
        lam = float(rng.uniform(0.02, 0.48))
        xp = a + lam * r_a * u
        check_perturbation_estimates(a, xp, lam, masses)
        lams.append(lam)
        deficits.append((r_a - min_separation(xp)) / r_a)
    assert np.all(np.array(deficits) > 0.0)
    assert spearman(np.array(lams), np.array(deficits)) > 0.9


# ---------------------------------------------------------------------------
# samplers


def test_sample_masses_normalized_range():
    rng = substream(0, "unit-masses")
    for n in (2, 3, 5):
        m = sample_masses(rng, n)
        npt.assert_allclose(m.min(), 1.0, rtol=1e-14)
        assert m.max() <= 10.0 + 1e-9


def test_sample_shape_unit_and_separated():
    rng = substream(0, "unit-shapes")
    masses = sample_masses(rng, 4)
    a = sample_shape(rng, 4, 3, masses, min_sep=0.2)
    npt.assert_allclose(weighted_norm(a, masses), 1.0, rtol=1e-12)
    assert min_separation(a) >= 0.2


# ---------------------------------------------------------------------------
# suites


def test_norm_suite_clean():
    rep = run_norm_suite(small_config())
    assert rep.ok
    assert rep.violations == 0
    assert rep.checked == 60 * 6
    assert rep.worst_margin >= 0.0
    assert rep.replay == ()


def test_ray_suite_clean():
    rep = run_ray_suite(small_config(samples=40))
    assert rep.ok
    assert rep.checked == 40 * 6
    assert rep.worst_margin >= 0.0


def test_perturbation_suite_clean_and_counts():
    cfg = small_config(samples=40)
    rep = run_perturbation_suite(cfg)
    assert rep.ok
    assert rep.worst_margin >= 0.0
    # every draw is checked; every other draw adds a unit-projected check
    # that is either counted or skipped
    cells = len(cfg.body_counts) * len(cfg.dims)
    extra = math.ceil(cfg.samples / 2)
    assert rep.checked + rep.skipped == cells * (cfg.samples + extra)
    assert rep.stated_violations >= 0


def test_suites_deterministic():
    cfg = small_config(samples=25)
    a = render_geometry_report(run_all_suites(cfg), cfg)
    b = render_geometry_report(run_all_suites(cfg), cfg)
    assert a == b
    assert "status: PASS" in a


def test_suites_seed_sensitivity():
    a = run_norm_suite(small_config(samples=25))
    b = run_norm_suite(small_config(samples=25, seed=99))
    assert a.worst_margin != b.worst_margin


def test_render_report_failure_lines():
    cfg = small_config(samples=10)
    reports = run_all_suites(cfg)
    broken = tuple(
        replace(r, violations=2, replay=(("norm-2-2", 7),)) if r.name == "norm-bounds" else r
        for r in reports
    )
    text = render_geometry_report(broken, cfg)
    assert "status: FAIL" in text
    assert "replay: substream 'norm-2-2' sample 7" in text
    assert "stated-constant (2 lambda) violations, reported only" in text


# ---------------------------------------------------------------------------
# batched checkers: one chunk per family


def _chunk_inputs(family, n_bodies=3, dim=2):
    """A full chunk of valid inputs for one family, drawn like the suites."""
    rng = substream(0, "batch-views", family)
    masses = sample_masses(rng, n_bodies)
    shapes = sample_shapes(rng, CHUNK_SIZE, n_bodies, dim, masses)
    x = rng.uniform(0.1, 10.0, (CHUNK_SIZE, 1, 1)) * rng.standard_normal(
        (CHUNK_SIZE, n_bodies, dim)
    )
    if family == "norm":
        return masses, (x,)
    r_a = np.array([min_separation(a) for a in shapes])
    if family == "ray":
        norms = np.array([weighted_norm(v, masses) for v in x])
        t = 70.0 * (1.0 + norms) / r_a * rng.uniform(1.01, 100.0, CHUNK_SIZE)
        return masses, (x, shapes, t)
    lam = rng.uniform(0.01, 0.49, CHUNK_SIZE)
    u = rng.standard_normal((CHUNK_SIZE, n_bodies, dim))
    u /= np.array([weighted_norm(v, masses) for v in u])[:, None, None]
    xp = shapes + (rng.uniform(0.5, 0.999, CHUNK_SIZE) * lam * r_a)[:, None, None] * u
    # every other row projected to the unit sphere, so both inner-slack cases occur
    unit = xp[::2] / np.array([weighted_norm(v, masses) for v in xp[::2]])[:, None, None]
    lam_unit = np.array(
        [weighted_norm(p - a, masses) for p, a in zip(unit, shapes[::2])]
    ) / r_a[::2] * (1.0 + 1e-9)
    xp[::2] = unit
    lam[::2] = lam_unit
    keep = lam < 0.5
    return masses, (shapes[keep], xp[keep], lam[keep])


def _batch(family, masses, args):
    if family == "norm":
        return check_norm_bounds_batch(*args, masses)
    if family == "ray":
        x, a, t = args
        return check_ray_estimates_batch(x, a, masses, t)
    return check_perturbation_estimates_batch(*args, masses)


def _scalar_rows(family, masses, args):
    if family == "norm":
        return [check_norm_bounds(x, masses) for x in args[0]]
    if family == "ray":
        return [check_ray_estimates(x, a, masses, float(t)) for x, a, t in zip(*args)]
    return [check_perturbation_estimates(a, p, float(lam), masses) for a, p, lam in zip(*args)]


@pytest.mark.parametrize("family", ["norm", "ray", "perturb"])
def test_batched_rows_equal_scalar_views(family):
    masses, args = _chunk_inputs(family)
    batch, rows = _batch(family, masses, args), _scalar_rows(family, masses, args)
    assert len(rows) == len(batch.worst) > CHUNK_SIZE // 2
    for name in batch.__dataclass_fields__:
        column = getattr(batch, name)
        scalar = np.array([np.nan if getattr(r, name) is None else getattr(r, name) for r in rows])
        npt.assert_array_equal(column, scalar, err_msg=name)
    npt.assert_array_equal(batch.worst, [r.worst for r in rows])
    assert np.all(batch.worst >= 0.0)
    if family == "perturb":
        assert any(r.inner_slack is None for r in rows)
        assert any(r.inner_slack is not None for r in rows)


def _reference_margins(family, masses, row):
    """Loop-only margins of one case, from the inequalities as stated."""
    pairs = [(i, j) for i in range(len(masses)) for j in range(i + 1, len(masses))]

    def seps(x):
        return [math.dist(x[i], x[j]) for i, j in pairs]

    if family == "norm":
        (x,) = row
        nrm = scalar_weighted_norm(masses, x)
        return [
            math.sqrt(2.0) * nrm - max(math.hypot(*p) for p in x),
            2.0 * math.sqrt(2.0) * nrm - max(seps(x)),
        ]
    if family == "ray":
        x, a, t = row
        r_a = min(seps(a))
        w = x + t * a
        w_unit = w / scalar_weighted_norm(masses, w)
        return [
            r_a / 30.0 - scalar_weighted_norm(masses, w_unit - a),
            min(seps(w)) - (67.0 / 70.0) * r_a * t,
            min(seps(w)) - 67.0,
        ]
    a, xp, lam = row
    r_a, r_p = min(seps(a)), min(seps(xp))
    cosines = [
        float(np.dot(a[i] - a[j], xp[i] - xp[j]))
        / (math.dist(a[i], a[j]) * math.dist(xp[i], xp[j]))
        for i, j in pairs
    ]
    inner = math.nan
    if abs(scalar_weighted_norm(masses, xp) - 1.0) <= 1e-9:
        inner = scalar_weighted_inner(masses, a, xp) - (1.0 - 4.5 * lam**2)
    return [
        r_p - (1.0 - 3.0 * lam) * r_a,
        r_p - (1.0 - 2.0 * lam) * r_a,
        min(cosines) - (1.0 - 6.0 * lam),
        inner,
    ]


@pytest.mark.parametrize("family", ["norm", "ray", "perturb"])
def test_batched_margins_match_loop_reference(family):
    masses, args = _chunk_inputs(family)
    args = tuple(v[:64] for v in args)
    batch = _batch(family, masses, args)
    columns = np.array([getattr(batch, name) for name in batch.__dataclass_fields__]).T
    reference = np.array([_reference_margins(family, masses, row) for row in zip(*args)])
    # each slack to 1e-12 of the size of the terms it subtracts; the ray
    # separation slacks subtract numbers of size r(x + t a) ~ 1e5
    size = 1.0 + np.abs(reference)
    if family == "ray":
        size[:, 1:] += reference[:, 2:] + 67.0
    npt.assert_array_equal(np.isnan(columns), np.isnan(reference))
    assert np.nanmax(np.abs(columns - reference) / size) < 1e-12


@pytest.mark.parametrize(
    "family, spoil",
    [
        ("ray", lambda a: a[1].__setitem__(17, 2.0 * a[1][17])),  # shape off the sphere
        ("ray", lambda a: a[2].__setitem__(17, 1e-3 * a[2][17])),  # t below the threshold
        ("perturb", lambda a: a[0].__setitem__(17, 2.0 * a[0][17])),  # shape off the sphere
        ("perturb", lambda a: a[2].__setitem__(17, 0.6)),  # lambda outside (0, 1/2)
        ("perturb", lambda a: a[2].__setitem__(17, 1e-3 * a[2][17])),  # x' too far
    ],
)
def test_batched_call_rejects_one_bad_row(family, spoil):
    masses, args = _chunk_inputs(family)
    args = tuple(v.copy() for v in args)
    spoil(args)
    with pytest.raises(ValueError, match="row 17"):
        _batch(family, masses, args)


def test_batched_shape_collision_rejected():
    masses = np.ones(2)
    shape = np.array([[[1.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]])
    with pytest.raises(ValueError, match="collision"):
        check_ray_estimates_batch(np.zeros((2, 2, 2)), shape, masses, np.array([1e6, 1e6]))


def test_sample_shapes_cap_raises():
    rng = substream(0, "impossible-shapes")
    masses = sample_masses(rng, 3)
    with pytest.raises(RuntimeError, match="near-collisions"):
        sample_shapes(rng, 4, 3, 2, masses, min_sep=10.0, max_tries=3)


# ---------------------------------------------------------------------------
# chunked streams and replay

ONE_CELL = dict(seed=3, body_counts=(3,), dims=(2,))


def test_case_depends_on_index_not_sample_count():
    few, many = SuiteConfig(samples=10, **ONE_CELL), SuiteConfig(samples=3000, **ONE_CELL)
    for stream, k in (("norm-3-2", 7), ("ray-3-2", 2500), ("perturb-3-2", 4),
                      ("perturb-3-2-unit", 2048)):
        a, b = replay_geometry_case(few, stream, k), replay_geometry_case(many, stream, k)
        assert a.margins == b.margins
        for name in ("masses", "x", "shape", "perturbed", "t", "lam"):
            npt.assert_array_equal(getattr(a, name), getattr(b, name))
    # the suites truncate the same draws: the first ten cases of a
    # 3000-sample run are exactly the 10-sample run
    for runner, stream in ((run_norm_suite, "norm-3-2"), (run_ray_suite, "ray-3-2")):
        worst = min(replay_geometry_case(many, stream, k).margins.worst for k in range(10))
        assert runner(few).worst_margin == worst


@pytest.mark.parametrize("samples", [9, CHUNK_SIZE + 3])
def test_counts_for_odd_samples(samples):
    cfg = SuiteConfig(samples=samples, **ONE_CELL)
    norm, ray, pert = run_all_suites(cfg)
    assert norm.checked + norm.skipped == samples
    assert ray.checked + ray.skipped == samples
    assert pert.checked + pert.skipped == samples + math.ceil(samples / 2)
    assert norm.skipped == ray.skipped == 0


def test_replay_margins_equal_suite_margins():
    cfg = SuiteConfig(samples=40, **ONE_CELL)
    for runner, streams in (
        (run_norm_suite, ["norm-3-2"]),
        (run_ray_suite, ["ray-3-2"]),
        (run_perturbation_suite, ["perturb-3-2", "perturb-3-2-unit"]),
    ):
        report = runner(cfg)
        worst = []
        for stream in streams:
            for k in range(0, 40, 2 if stream.endswith("-unit") else 1):
                case = replay_geometry_case(cfg, stream, k)
                assert case.stream == stream and case.index == k
                worst.append(case.margins.worst)
        assert report.worst_margin == min(worst)  # bit for bit
        assert report.checked == len(worst)


def test_replay_rejects_unknown_or_unchecked_cases():
    cfg = SuiteConfig(samples=10, **ONE_CELL)
    for stream, k in (("norm-3", 0), ("ray-3-2-unit", 0), ("perturb-3-2-unit", 3),
                      ("norm-3-2", -1), ("norm-1-2", 0)):
        with pytest.raises(ValueError):
            replay_geometry_case(cfg, stream, k)


@pytest.mark.parametrize(
    "constant, false_value, runner",
    [
        ("PERTURBATION_SEPARATION_CONST", 0.0, run_perturbation_suite),
        ("PERTURBATION_INNER_CONST", 0.0, run_perturbation_suite),
        ("RAY_SEPARATION_FACTOR", 1.0, run_ray_suite),
        ("RAY_DIRECTION_DENOM", 1e6, run_ray_suite),
    ],
)
def test_suites_have_power_to_fail(monkeypatch, constant, false_value, runner):
    cfg = SuiteConfig(samples=200, **ONE_CELL)
    assert runner(cfg).ok
    monkeypatch.setattr(validators, constant, false_value)
    report = runner(cfg)
    assert report.violations > 0
    assert report.worst_margin < 0.0
    assert 0 < len(report.replay) <= min(report.violations, 20)
    for stream, k in report.replay:
        assert replay_geometry_case(cfg, stream, k).margins.worst < 0.0
    text = render_geometry_report((report,), cfg)
    assert "status: FAIL" in text
    stream, k = report.replay[0]
    assert f"replay_geometry_case(cfg, {stream!r}, {k})" in text


@pytest.mark.parametrize(
    "overrides",
    [dict(samples=0), dict(samples=-3), dict(body_counts=(2, 1)), dict(body_counts=()),
     dict(dims=(0,)), dict(dims=())],
)
def test_suite_config_rejects_vacuous_or_invalid_plans(overrides):
    with pytest.raises(ValueError):
        SuiteConfig(**overrides)


def test_replay_of_skipped_unit_projection_raises():
    # lambdas near 1/2 push some unit projections outside (0, 1/2)
    cfg = SuiteConfig(samples=64, seed=3, body_counts=(2,), dims=(2,),
                      lambda_range=(0.48, 0.4999))
    report = run_perturbation_suite(cfg)
    assert report.skipped > 0
    skipped = 0
    for k in range(0, 64, 2):
        try:
            case = replay_geometry_case(cfg, "perturb-2-2-unit", k)
        except ValueError as exc:
            assert "skipped" in str(exc)
            skipped += 1
        else:
            assert 0.0 < case.lam < 0.5
    assert skipped == report.skipped
