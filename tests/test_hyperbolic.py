import math

import numpy as np
import numpy.testing as npt
import pytest

from weakforce.configspace import min_separation, weighted_norm
from weakforce.dynamics import PotentialParams
from weakforce.hyperbolic import (
    approximant_gaps,
    asymptotic_report,
    construct,
    default_radii,
    radial_growth_floor,
    render_asymptotics,
)
from weakforce.presets import shape_preset


def pair_setup():
    params = PotentialParams(0.5, np.array([1.0, 1.0]))
    shape = shape_preset("antipodal", params.masses)
    x0 = 2.0 * shape
    return x0, shape, params


def small_run(radii=(8.0, 16.0, 32.0), n_segments=300, **kwargs):
    x0, shape, params = pair_setup()
    run = construct(x0, shape, 1.0, params, radii=radii, n_segments=n_segments, **kwargs)
    # far below the module's segment cap, which these schedules never reach
    assert all(leg.path.n_segments < 4000 for leg in run.legs)
    return run


def test_construct_makes_one_minimizer_call_per_leg(monkeypatch):
    from weakforce import action, hyperbolic

    free_calls, fixed_calls = [], []
    free = hyperbolic.minimize_free_time

    def counted_free(*args, **kwargs):
        free_calls.append(1)
        return free(*args, **kwargs)

    monkeypatch.setattr(hyperbolic, "minimize_free_time", counted_free)
    # patch the name in both modules, so that a call through either counts
    for module in (action, hyperbolic):
        monkeypatch.setattr(
            module, "minimize_fixed_time", lambda *a, **k: fixed_calls.append(1), raising=False
        )
    run = small_run()
    assert run.completed
    assert len(free_calls) == len(run.legs) == 3
    assert fixed_calls == []


def test_default_radii_schedule():
    x0, shape, params = pair_setup()
    radii = default_radii(x0, shape, params.masses, n_legs=4, ratio=3.0, base_factor=10.0)
    r1 = 10.0 * (1.0 + weighted_norm(x0, params.masses)) / min_separation(shape)
    npt.assert_allclose(radii, [r1, 3.0 * r1, 9.0 * r1, 27.0 * r1], rtol=1e-14)


def test_default_radii_validation():
    x0, shape, params = pair_setup()
    with pytest.raises(ValueError):
        default_radii(x0, shape, params.masses, n_legs=0)
    with pytest.raises(ValueError):
        default_radii(x0, shape, params.masses, ratio=1.0)


def test_construct_rejects_bad_shapes():
    x0, shape, params = pair_setup()
    with pytest.raises(ValueError):
        construct(x0, 1.1 * shape, 1.0, params, radii=(8.0, 16.0))
    coincident = np.array([[0.5, 0.5], [0.5, 0.5]])
    coincident /= weighted_norm(coincident, params.masses)
    with pytest.raises(ValueError):
        construct(x0, coincident, 1.0, params, radii=(8.0, 16.0))


def test_construct_rejects_bad_schedules():
    x0, shape, params = pair_setup()
    with pytest.raises(ValueError):
        construct(x0, shape, -1.0, params, radii=(8.0, 16.0))
    with pytest.raises(ValueError):
        construct(x0, shape, 1.0, params, radii=(16.0, 8.0))
    # first radius below the growth precondition (1 + ||x0||) / r(a)
    with pytest.raises(ValueError):
        construct(x0, shape, 1.0, params, radii=(1.2, 8.0))


def test_chain_hits_targets_exactly():
    run = small_run(radii=(8.0, 16.0))
    assert run.completed
    assert len(run.legs) == 2
    for radius, leg in zip(run.radii, run.legs):
        assert leg.converged
        npt.assert_allclose(leg.path.end, radius * run.shape, atol=1e-12)
        npt.assert_allclose(leg.path.start, run.initial, atol=1e-12)
    t0, t1 = (leg.path.total_time for leg in run.legs)
    assert t1 > t0


def test_chain_durations_track_free_travel_time():
    run = small_run(radii=(8.0, 16.0))
    for radius, leg in zip(run.radii, run.legs):
        d = weighted_norm(radius * run.shape - run.initial, run.params.masses)
        # escape at energy E moves at speed ~ sqrt(E); the potential only
        # shortens the trip a little at these separations
        assert 0.8 * d <= leg.path.total_time <= 1.05 * d


def test_gaps_shrink_between_successive_approximants():
    run = small_run()
    gaps = approximant_gaps(run)
    assert gaps.shape == (2,)
    assert np.all(gaps > 0.0)
    assert gaps[1] < gaps[0]


def test_gap_window_override():
    run = small_run(radii=(8.0, 16.0))
    full = approximant_gaps(run)
    tiny = approximant_gaps(run, window=1e-3)
    assert tiny[0] <= full[0]
    assert tiny[0] < 1e-2


def test_single_leg_run_has_no_gaps():
    run = small_run(radii=(8.0,))
    assert run.completed
    assert approximant_gaps(run).shape == (0,)


def test_early_window_is_most_of_first_leg():
    run = small_run(radii=(8.0, 16.0))
    t0 = run.legs[0].path.total_time
    npt.assert_allclose(run.early_window, 0.9 * t0, rtol=1e-14)
    assert run.min_sep > 0.0


def test_asymptotic_report_trends_and_speeds():
    run = small_run()
    report = asymptotic_report(run)
    assert report.completed
    assert report.gap_trend_ok
    assert report.angle_trend_ok
    # endpoints are pinned to the ray, so terminal angles vanish identically
    for leg in report.legs:
        assert leg.terminal_angle < 1e-12
        assert leg.converged
    npt.assert_allclose(report.speed_target, 1.0, rtol=1e-15)
    npt.assert_allclose(
        report.terminal_speed_doubled_convention,
        math.sqrt(2.0) * report.terminal_speed,
        rtol=1e-15,
    )
    # terminal speeds approach sqrt(E) as the legs lengthen; at these small
    # radii the leftover potential keeps the error at the R^(-alpha) scale
    errs = [abs(leg.terminal_speed - 1.0) for leg in report.legs]
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.1


def test_radial_growth_floor_cleared():
    run = small_run(radii=(8.0, 16.0))
    times, r_vals, floor = radial_growth_floor(run)
    assert times.size == r_vals.size == floor.size
    assert times.size > 0
    assert np.all(r_vals > floor)


def test_radial_growth_floor_start_fraction():
    run = small_run(radii=(8.0, 16.0))
    late, _, _ = radial_growth_floor(run, start_fraction=0.9)
    wide, _, _ = radial_growth_floor(run, start_fraction=0.5)
    assert late.size < wide.size
    assert late[0] >= 0.9 * run.legs[-1].path.total_time - 1e-12


def test_render_asymptotics_deterministic():
    a = render_asymptotics(asymptotic_report(small_run(radii=(8.0, 16.0))))
    b = render_asymptotics(asymptotic_report(small_run(radii=(8.0, 16.0))))
    assert a == b
    assert "gap trend non-increasing: True" in a
    assert "terminal speed = " in a
    assert a.endswith("\n")


def test_chain_with_unequal_masses_triangle():
    params = PotentialParams(0.6, np.array([1.0, 1.3, 1.8]))
    shape = shape_preset("triangle", params.masses)
    x0 = 2.0 * shape
    run = construct(x0, shape, 2.0, params, radii=(10.0, 20.0), n_segments=300)
    assert run.completed
    report = asymptotic_report(run)
    assert report.gap_trend_ok or len(report.gaps) < 2
    # radius 20 still feels the pair potential, so only expect rough
    # agreement with sqrt(E) plus improvement over the first leg
    errs = [abs(leg.terminal_speed - math.sqrt(2.0)) for leg in report.legs]
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.25 * math.sqrt(2.0)
