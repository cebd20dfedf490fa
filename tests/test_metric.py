import math

import numpy as np
import numpy.testing as npt

from weakforce.action import minimize_free_time
from weakforce.configspace import weighted_distance
from weakforce.dynamics import PotentialParams
from weakforce.metric import (
    VALUE_RTOL,
    MetricSuiteConfig,
    check_lower_bounds,
    check_symmetry,
    check_triangle,
    render_metric_report,
    run_metric_suite,
)


def small_config(**overrides):
    base = dict(
        seed=3,
        n_pairs=2,
        n_triples=1,
        n_bodies=2,
        dim=2,
        alpha=0.5,
        energy=1.0,
        masses=(1.0, 2.0),
        n_segments=100,
        separation_range=(4.0, 8.0),
    )
    base.update(overrides)
    return MetricSuiteConfig(**base)


def test_phi_far_pair_free_particle_value():
    # separation 1e6 makes U ~ 1e-3, so the free-particle value dominates
    p = PotentialParams(0.5, np.array([1.0, 1.0]))
    x = np.array([[0.0, 0.0], [1e6, 0.0]])
    y = np.array([[4.0, 0.0], [1e6 + 4.0, 0.0]])
    d = weighted_distance(x, y, p.masses)
    est = minimize_free_time(x, y, 1.0, p, n_segments=80)
    assert est.converged
    npt.assert_allclose(est.value, 2.0 * math.sqrt(1.0) * d, rtol=0.02)


def test_symmetry_check_on_generic_pair():
    p = PotentialParams(0.5, np.array([1.0, 1.5]))
    x = np.array([[0.0, 0.0], [2.5, 0.0]])
    y = np.array([[5.0, 1.0], [7.0, -1.0]])
    chk = check_symmetry(x, y, 1.0, p, n_segments=100)
    assert chk.forward.converged and chk.backward.converged
    assert chk.ok
    assert chk.mismatch <= VALUE_RTOL


def test_triangle_check_on_generic_triple():
    p = PotentialParams(0.5, np.array([1.0, 1.0]))
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    y = np.array([[0.0, 5.0], [2.0, 5.0]])
    z = np.array([[4.0, 9.0], [6.0, 9.0]])
    chk = check_triangle(x, y, z, 1.0, p, n_segments=100)
    assert chk.ok
    # through-point detours cost real action here, so the margin is visibly
    # positive, not just within tolerance of zero
    assert chk.margin > 0.01


def test_triangle_near_tight_for_midpoint():
    # y on the straight segment from x to z: the two legs nearly concatenate
    # into the direct minimizer, so the margin collapses toward zero
    p = PotentialParams(0.5, np.array([1.0, 1.0]))
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    z = np.array([[0.0, 8.0], [2.0, 8.0]])
    y = 0.5 * (x + z)
    chk = check_triangle(x, y, z, 1.0, p, n_segments=100)
    assert chk.ok
    scale = 1.0 + abs(chk.leg_xz.value)
    assert abs(chk.margin) < 0.02 * scale


def test_lower_bound_fields_and_slacks():
    p = PotentialParams(0.5, np.array([1.0, 1.0]))
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    y = np.array([[1.0, 6.0], [3.0, 6.0]])
    est = minimize_free_time(x, y, 2.0, p, n_segments=100)
    assert est.converged
    chk = check_lower_bounds(x, y, 2.0, est, p)
    assert chk.ok
    npt.assert_allclose(
        chk.maupertuis, 2.0 * math.sqrt(2.0) * weighted_distance(x, y, p.masses), rtol=1e-14
    )
    t_star = est.path.total_time
    npt.assert_allclose(chk.et_bound, 2.0 * t_star, rtol=1e-14)
    assert chk.maupertuis_slack >= 0.0
    assert chk.positivity_slack >= 0.0
    assert chk.et_slack >= 0.0


def test_phi_monotone_in_energy():
    p = PotentialParams(0.6, np.array([1.0, 1.0]))
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    y = np.array([[0.0, 6.0], [2.0, 6.0]])
    lo = minimize_free_time(x, y, 1.0, p, n_segments=100)
    hi = minimize_free_time(x, y, 2.0, p, n_segments=100)
    assert lo.converged and hi.converged
    assert hi.value > lo.value


def test_suite_small_run_clean():
    report = run_metric_suite(small_config())
    assert report.ok
    assert report.replay == ()
    assert report.bound_failures == 0
    assert report.worst_symmetry <= VALUE_RTOL
    assert report.symmetry_mismatches.shape == (2,)
    assert report.triangle_margins.shape == (1,)
    assert report.min_separation_seen > 0.0
    lo, hi = report.monotonicity_pairs.T
    assert np.all(hi >= lo * (1.0 - VALUE_RTOL))


def test_suite_is_deterministic():
    a = run_metric_suite(small_config())
    b = run_metric_suite(small_config())
    assert render_metric_report(a) == render_metric_report(b)
    npt.assert_array_equal(a.symmetry_mismatches, b.symmetry_mismatches)
    npt.assert_array_equal(a.triangle_margins, b.triangle_margins)


def test_suite_seed_changes_samples():
    a = run_metric_suite(small_config())
    b = run_metric_suite(small_config(seed=4))
    assert not np.array_equal(a.symmetry_mismatches, b.symmetry_mismatches)


def test_suite_draws_masses_when_unspecified():
    report = run_metric_suite(small_config(masses=None, n_pairs=1, n_triples=0))
    assert report.masses.shape == (2,)
    # params rescale masses so the smallest is one
    npt.assert_allclose(report.masses.min(), 1.0, rtol=1e-14)


def test_render_report_flags_failures():
    base = run_metric_suite(small_config(n_pairs=1, n_triples=0))
    from dataclasses import replace

    broken = replace(base, replay=(("metric-pair", 0),))
    text = render_metric_report(broken)
    assert "status: FAIL" in text
    assert "replay: metric-pair index 0" in text
    clean = render_metric_report(base)
    assert "status: PASS" in clean
    assert clean.endswith("\n")
