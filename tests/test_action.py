import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from oracles import (
    fd_action_node_gradient,
    fd_action_time_derivative,
    free_particle_action,
    free_particle_time,
    scalar_path_action,
)
from weakforce.action import (
    DiscretePath,
    SolverSettings,
    discretization_scale,
    el_residual,
    energy_profile,
    maupertuis_lower_bound,
    minimize_fixed_time,
    minimize_free_time,
    path_action,
    path_action_gradient,
    straight_path,
)
from weakforce.configspace import weighted_distance
from weakforce.dynamics import (
    CollisionError,
    PhasePoint,
    PotentialParams,
    integrate,
    potential,
)
from weakforce.presets import circular_two_body


def two_body(alpha=0.5):
    return PotentialParams(alpha, np.array([1.0, 1.0]))


def wiggled_path(rng, n_bodies=2, dim=2, m=40, total_time=3.0, spread=4.0):
    """Random collision-free piecewise-linear path with fixed endpoints."""
    while True:
        x = rng.normal(scale=spread, size=(n_bodies, dim))
        y = rng.normal(scale=spread, size=(n_bodies, dim))
        s = np.linspace(0.0, 1.0, m + 1)[:, None, None]
        nodes = (1.0 - s) * x + s * y
        bumps = rng.normal(scale=0.3, size=(m - 1, n_bodies, dim))
        nodes[1:-1] += bumps * np.sin(np.pi * s[1:-1])
        d = nodes[:, :, None, :] - nodes[:, None, :, :]
        seps = np.linalg.norm(d, axis=-1)
        iu = np.triu_indices(n_bodies, k=1)
        if seps[:, iu[0], iu[1]].min() > 0.3:
            return DiscretePath(total_time, nodes)


# n -> (bound on the residual, bound on the agreement with LAPACK), each 20x
# the figure measured for the seed below. The prefix sums carry roundoff of
# order n^2 * eps relative to q, as LAPACK's own solve does.
_PRECONDITIONER_BOUNDS = {
    3: (4e-15, 6.3e-15),
    200: (5.9e-12, 1.3e-12),
    1601: (6.1e-10, 8.4e-12),
    28063: (5.5e-8, 3.8e-9),
}


@pytest.mark.parametrize("n_interior", list(_PRECONDITIONER_BOUNDS))
def test_kinetic_preconditioner_inverts_the_second_difference(n_interior):
    from scipy.linalg import cho_solve_banded, cholesky_banded

    from weakforce.action import _kinetic_preconditioner

    masses = np.array([1.0, 1.3, 1.8])
    dt = 0.037
    apply = _kinetic_preconditioner(n_interior, 3, 2, dt, masses)
    q = np.random.default_rng(n_interior).normal(size=n_interior * 6)
    x = apply(q).reshape(n_interior, 3, 2) * (masses[None, :, None] / dt)
    x = x.reshape(n_interior, 6)
    cols = q.reshape(n_interior, 6)
    residual_bound, agreement_bound = _PRECONDITIONER_BOUNDS[n_interior]

    tx = 2.0 * x
    tx[1:] -= x[:-1]
    tx[:-1] -= x[1:]
    assert np.abs(tx - cols).max() / np.abs(cols).max() <= residual_bound

    ab = np.zeros((2, n_interior))
    ab[0, 1:] = -1.0
    ab[1, :] = 2.0
    want = cho_solve_banded((cholesky_banded(ab), False), cols)
    assert np.abs(x - want).max() / np.abs(want).max() <= agreement_bound


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kinetic_preconditioner_rejects_non_finite(bad):
    from weakforce.action import _kinetic_preconditioner

    apply = _kinetic_preconditioner(5, 2, 2, 0.1, np.array([1.0, 2.0]))
    q = np.ones(20)
    q[7] = bad
    with pytest.raises(ValueError):
        apply(q)


# ---------------------------------------------------------------------------
# path_action


def test_constant_path_action_is_potential_plus_energy():
    p = two_body()
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    path = straight_path(x, x, 5.0, 30)
    act = path_action(path, 1.5, p)
    u = potential(x, p)
    assert act.kinetic == 0.0
    npt.assert_allclose(act.potential, 5.0 * u, rtol=1e-13)
    npt.assert_allclose(act.energy_term, 7.5, rtol=1e-15)
    npt.assert_allclose(act.value, 5.0 * (u + 1.5), rtol=1e-13)


def test_path_action_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    p = PotentialParams(0.6, np.array([1.0, 2.0, 1.5]))
    for _ in range(5):
        path = wiggled_path(rng, n_bodies=3)
        ours = path_action(path, 2.0, p).value
        ref = scalar_path_action(0.6, p.masses.tolist(), path.nodes, path.total_time, 2.0)
        npt.assert_allclose(ours, ref, rtol=1e-12)


def test_path_action_reversal_symmetry():
    rng = np.random.default_rng(11)
    p = two_body(0.4)
    path = wiggled_path(rng)
    fwd = path_action(path, 1.0, p).value
    bwd = path_action(path.reversed(), 1.0, p).value
    npt.assert_allclose(fwd, bwd, rtol=1e-13)


def test_path_action_requires_positive_energy():
    p = two_body()
    path = straight_path(
        np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 1.0]]), 1.0, 10
    )
    with pytest.raises(ValueError):
        path_action(path, 0.0, p)


def test_path_action_rejects_collision_node():
    p = two_body()
    x = np.array([[-1.0, 0.0], [1.0, 0.0]])
    path = straight_path(x, -x, 1.0, 10)  # bodies cross at the midpoint
    with pytest.raises(CollisionError):
        path_action(path, 1.0, p)


def test_straight_path_trapezoid_error_shrinks_fourfold():
    # the kinetic part of a straight path is exact at every resolution, so
    # the remaining quadrature error is the trapezoid O(dt^2) term
    p = two_body()
    x = np.array([[0.0, 0.0], [1.2, 0.0]])
    y = np.array([[0.0, 2.0], [3.0, 1.0]])
    coarse = path_action(straight_path(x, y, 2.0, 40), 1.0, p).value
    mid = path_action(straight_path(x, y, 2.0, 80), 1.0, p).value
    fine = path_action(straight_path(x, y, 2.0, 160), 1.0, p).value
    ratio = (coarse - mid) / (mid - fine)
    npt.assert_allclose(ratio, 4.0, rtol=0.05)


def test_action_lower_bounds_hold_on_random_paths():
    """A >= E T and A >= 2 sqrt(E) ||x - y|| for every discrete path."""
    rng = np.random.default_rng(23)
    p = PotentialParams(0.5, np.array([1.0, 3.0]))
    for _ in range(60):
        energy = float(rng.uniform(0.2, 5.0))
        path = wiggled_path(rng, total_time=float(rng.uniform(0.5, 6.0)))
        act = path_action(path, energy, p).value
        assert act >= energy * path.total_time
        bound = maupertuis_lower_bound(path.start, path.end, p.masses, energy)
        assert act >= bound


def test_maupertuis_lower_bound_value():
    masses = np.array([1.0, 1.0])
    x = np.array([[0.0, 0.0], [0.0, 0.0]])
    y = np.array([[2.0, 0.0], [0.0, 0.0]])
    # ||x - y|| = sqrt(0.5 * 1 * 4) = sqrt(2)
    npt.assert_allclose(
        maupertuis_lower_bound(x, y, masses, 4.0), 4.0 * math.sqrt(2.0), rtol=1e-14
    )


# ---------------------------------------------------------------------------
# gradients


def test_node_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    for alpha in (0.3, 0.5, 0.8):
        p = PotentialParams(alpha, np.array([1.0, 2.0]))
        path = wiggled_path(rng, m=12)
        grad, _ = path_action_gradient(path, 1.3, p)
        ref = fd_action_node_gradient(
            alpha, p.masses.tolist(), path.nodes, path.total_time, 1.3
        )
        err = np.abs(grad - ref).max() / (1.0 + np.abs(ref).max())
        assert err < 1e-6


def test_time_derivative_matches_finite_differences():
    rng = np.random.default_rng(37)
    p = two_body(0.7)
    path = wiggled_path(rng, m=16)
    _, da_dt = path_action_gradient(path, 0.8, p)
    ref = fd_action_time_derivative(0.7, p.masses.tolist(), path.nodes, path.total_time, 0.8)
    npt.assert_allclose(da_dt, ref, rtol=1e-6, atol=1e-9)


def test_gradient_vanishing_direction_at_free_particle_line():
    # far-separated pair moving straight: interior gradient is tiny because
    # the straight line is the minimizer when the potential is negligible,
    # and dA/dT at the free-particle time is the size of the leftover U
    p = two_body()
    x = np.array([[0.0, 0.0], [1e8, 0.0]])
    y = np.array([[3.0, 0.0], [1e8 + 3.0, 0.0]])
    d = weighted_distance(x, y, p.masses)
    t_star = free_particle_time(d, 1.0)
    path = straight_path(x, y, t_star, 50)
    grad, da_dt = path_action_gradient(path, 1.0, p)
    u0 = potential(x, p)
    assert np.abs(grad).max() < 1e-6
    assert abs(da_dt) < 2.0 * u0 + 1e-12


# ---------------------------------------------------------------------------
# energy profile and Euler-Lagrange defect


def test_energy_profile_of_integrated_orbit_is_flat():
    state, params, period = circular_two_body()
    traj = integrate(state, period, params, t_eval=np.linspace(0.0, period, 201))
    path = DiscretePath(period, traj.positions)
    prof = energy_profile(path, params)
    h = 0.5 * float(
        np.einsum("i,ic,ic->", params.masses, state.velocities, state.velocities)
    ) - potential(state.positions, params)
    npt.assert_allclose(prof, h, atol=5e-4 * abs(h) + 1e-6)


def test_el_residual_small_on_solution_and_quarters_on_refinement():
    state, params, period = circular_two_body()
    res = []
    for m in (100, 200):
        traj = integrate(state, period, params, t_eval=np.linspace(0.0, period, m + 1))
        path = DiscretePath(period, traj.positions)
        res.append(el_residual(path, params))
    assert res[0] < 5e-3
    npt.assert_allclose(res[0] / res[1], 4.0, rtol=0.1)


def test_el_residual_large_on_random_path():
    rng = np.random.default_rng(41)
    p = two_body()
    path = wiggled_path(rng)
    assert el_residual(path, p) > 0.1


def test_discretization_scale_needs_five_nodes():
    p = two_body()
    path = straight_path(
        np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 1.0]]), 1.0, 3
    )
    with pytest.raises(ValueError):
        discretization_scale(path, p)


# ---------------------------------------------------------------------------
# fixed-time minimization


def test_fixed_time_free_particle_action():
    # at separation 1e4 the potential is nearly constant along the short
    # displacement, so the minimum is d^2/T + (E + U) T to high accuracy
    p = two_body()
    x = np.array([[0.0, 0.0], [1e4, 0.0]])
    y = np.array([[2.0, 1.0], [1e4 + 2.0, 1.0]])
    d = weighted_distance(x, y, p.masses)
    u0 = potential(x, p)
    result = minimize_fixed_time(x, y, 4.0, 1.0, p, n_segments=60)
    assert result.converged
    npt.assert_allclose(result.value, d * d / 4.0 + (1.0 + u0) * 4.0, rtol=1e-4)


def test_fixed_time_validates_inputs():
    p = two_body()
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    y = np.array([[0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        minimize_fixed_time(x, y, -1.0, 1.0, p)
    with pytest.raises(ValueError):
        minimize_fixed_time(x, y, 1.0, -2.0, p)


def test_fixed_time_minimizer_beats_straight_path():
    p = PotentialParams(0.5, np.array([1.0, 1.0, 1.0]))
    x = np.array([[-2.0, 0.0], [0.0, 1.5], [2.0, 0.0]])
    y = np.array([[-2.0, 3.0], [0.0, -1.5], [2.0, 3.0]])
    result = minimize_fixed_time(x, y, 2.5, 2.0, p, n_segments=80)
    assert result.converged
    straight = path_action(straight_path(x, y, 2.5, 80), 2.0, p).value
    assert result.value <= straight + 1e-9
    # first-order conditions transfer to the reported gradient norm
    assert result.grad_norm < 1e-6 * (1.0 + abs(result.value))


def test_solver_settings_fields():
    assert [f.name for f in dataclasses.fields(SolverSettings)] == [
        "grad_tol", "energy_tol", "time_floor",
    ]


def test_fixed_time_minimizer_el_residual_near_discretization_scale():
    p = two_body()
    x = np.array([[-1.5, 0.0], [1.5, 0.0]])
    y = np.array([[-1.5, 2.0], [1.5, 2.0]])
    result = minimize_fixed_time(x, y, 2.0, 1.5, p, n_segments=100)
    assert result.converged
    assert result.el_residual <= 10.0 * discretization_scale(result.path, p)


# ---------------------------------------------------------------------------
# free-time minimization


def test_free_time_warm_start_keeps_endpoints():
    p = two_body()
    x = np.array([[-1.0, 0.0], [1.0, 0.0]])
    y = np.array([[-1.0, 1.0], [1.0, 1.0]])
    init = straight_path(x + 0.3, y - 0.2, 1.0, 40).nodes
    result = minimize_free_time(x, y, 1.0, p, n_segments=40, init_nodes=init)
    npt.assert_array_equal(result.path.start, x)
    npt.assert_array_equal(result.path.end, y)


def test_free_time_far_pair_matches_free_particle():
    p = two_body()
    x = np.array([[0.0, 0.0], [200.0, 0.0]])
    y = np.array([[3.0, 0.0], [203.0, 0.0]])
    d = weighted_distance(x, y, p.masses)
    result = minimize_free_time(x, y, 2.0, p, n_segments=80)
    assert result.converged
    npt.assert_allclose(result.path.total_time, free_particle_time(d, 2.0), rtol=0.02)
    npt.assert_allclose(result.value, free_particle_action(d, 2.0), rtol=0.02)


def test_free_time_transversality():
    """At the free-time optimum the interior energy sits on the level E."""
    p = PotentialParams(0.5, np.array([1.0, 2.0]))
    x = np.array([[0.0, 0.0], [4.0, 0.0]])
    y = np.array([[0.5, 2.0], [5.0, 2.5]])
    energy = 1.7
    settings = SolverSettings()
    result = minimize_free_time(x, y, energy, p, n_segments=120, settings=settings)
    assert result.converged
    dev = np.abs(result.energy_profile - energy).max()
    assert dev <= settings.energy_tol * energy
    assert abs(result.dA_dT) < 1e-4 * (1.0 + result.value)


# (params, x, y, energy, n_segments): the transversality case above and a
# three-body crossing at M = 200
SEARCH_CASES = {
    "two-body": (
        PotentialParams(0.5, np.array([1.0, 2.0])),
        np.array([[0.0, 0.0], [4.0, 0.0]]),
        np.array([[0.5, 2.0], [5.0, 2.5]]),
        1.7,
        120,
    ),
    "three-body": (
        PotentialParams(0.5, np.array([1.0, 1.0, 1.0])),
        np.array([[-2.0, 0.0], [0.0, 1.5], [2.0, 0.0]]),
        np.array([[-2.0, 3.0], [0.0, -1.5], [2.0, 3.0]]),
        2.0,
        200,
    ),
}


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_free_time_search_inner_solve_count(monkeypatch, case):
    """The search over T is a bracket, then one reduced solve: a dozen inner solves at most."""
    from weakforce import action

    p, x, y, energy, m = SEARCH_CASES[case]
    calls = []
    inner = action._solve_interior

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(action, "_solve_interior", counted)
    result = minimize_free_time(x, y, energy, p, n_segments=m)
    assert result.converged
    assert len(calls) <= 14


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_free_time_result_sits_at_its_optimal_duration(case):
    """T is the nodes' own sqrt(S / (P + E)), so the mean segment energy is E to roundoff."""
    p, x, y, energy, m = SEARCH_CASES[case]
    result = minimize_free_time(x, y, energy, p, n_segments=m)
    assert result.converged
    unit = path_action(DiscretePath(1.0, result.path.nodes), energy, p)
    t_star = math.sqrt(unit.kinetic / (unit.potential + energy))
    npt.assert_allclose(result.path.total_time, t_star, rtol=1e-12)
    assert abs(result.dA_dT) <= 1e-12 * energy
    # dA/dT = E - mean segment energy, recomputed here from the nodes
    v = np.diff(result.path.nodes, axis=0) / result.path.dt
    kinetic = 0.5 * np.einsum("i,sic,sic->s", p.masses, v, v)
    u = potential(result.path.nodes, p)
    mean_energy = kinetic.mean() - (u[0] / 2.0 + u[1:-1].sum() + u[-1] / 2.0) / m
    assert abs(mean_energy - energy) <= 1e-12 * energy


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_free_time_warm_start_is_one_reduced_solve(monkeypatch, case):
    """Warm-started from a converged solve's nodes: no bracket, one reduced solve, no steps."""
    from weakforce import action

    p, x, y, energy, m = SEARCH_CASES[case]
    cold = minimize_free_time(x, y, energy, p, n_segments=m)
    calls = []
    inner = action._solve_interior

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(action, "_solve_interior", counted)
    warm = minimize_free_time(x, y, energy, p, n_segments=m, init_nodes=cold.path.nodes)
    assert cold.converged and warm.converged
    assert calls == [None]
    assert warm.iterations <= 2
    npt.assert_allclose(warm.value, cold.value, rtol=1e-9)
    npt.assert_allclose(warm.path.total_time, cold.path.total_time, rtol=1e-9)


def _reduced_action(nodes, energy, p):
    from weakforce import action

    return action._value_grad_parts(nodes, None, energy, p)


def test_reduced_action_gradient_matches_central_differences():
    rng = np.random.default_rng(59)
    for alpha in (0.3, 0.5, 0.8):
        p = PotentialParams(alpha, np.array([1.0, 1.5, 2.0]))
        nodes = wiggled_path(rng, n_bodies=3, m=12).nodes
        grad = _reduced_action(nodes, 1.3, p)[1]
        ref = np.zeros_like(grad)
        h = 1e-6
        for idx in np.ndindex(grad.shape):
            k = (idx[0] + 1,) + idx[1:]
            up, down = nodes.copy(), nodes.copy()
            up[k] += h
            down[k] -= h
            ref[idx] = (
                _reduced_action(up, 1.3, p)[0].value - _reduced_action(down, 1.3, p)[0].value
            ) / (2.0 * h)
        err = np.abs(grad - ref).max() / (1.0 + np.abs(ref).max())
        assert err < 1e-7


def test_reduced_action_is_the_action_at_the_optimal_duration():
    """F = 2 sqrt(S (P + E)) = A(T*), and dA/dT vanishes there to roundoff."""
    rng = np.random.default_rng(61)
    p = PotentialParams(0.5, np.array([1.0, 1.5, 2.0]))
    energy = 1.3
    for _ in range(5):
        nodes = wiggled_path(rng, n_bodies=3).nodes
        act, grad, da_dt, _, t_star = _reduced_action(nodes, energy, p)
        unit = path_action(DiscretePath(1.0, nodes), energy, p)
        npt.assert_allclose(
            act.value, 2.0 * math.sqrt(unit.kinetic * (unit.potential + energy)), rtol=1e-13
        )
        at_t_star = DiscretePath(t_star, nodes)
        npt.assert_allclose(act.value, path_action(at_t_star, energy, p).value, rtol=1e-14)
        fixed_grad, fixed_da_dt = path_action_gradient(at_t_star, energy, p)
        npt.assert_array_equal(grad, fixed_grad)
        assert abs(da_dt) <= 1e-14 * act.value
        assert abs(fixed_da_dt) <= 1e-14 * act.value


def test_free_time_miss_is_solved_again_on_the_refined_grid():
    p, x, y, energy, _ = SEARCH_CASES["three-body"]
    # at 10 segments the close approach misses the energy test
    refined = minimize_free_time(x, y, energy, p, n_segments=10)
    assert refined.converged
    assert refined.path.n_segments == 20
    assert refined.coarse_value is not None
    assert abs(refined.coarse_value - refined.value) <= 1e-3 * refined.value
    # a warm start keeps its grid, and returns the miss on it
    warm = minimize_free_time(
        x, y, energy, p, n_segments=10, init_nodes=straight_path(x, y, 1.0, 10).nodes
    )
    assert warm.status == "transversality-miss"
    assert warm.path.n_segments == 10 and warm.coarse_value is None
    plain = minimize_free_time(x, y, energy, p, n_segments=20)
    assert plain.converged and plain.coarse_value is None


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_cold_bracket_starts_at_half_the_start_paths_optimal_duration(monkeypatch, case):
    """The walk solves at T0/2, T0 and 2 T0 first, T0 = sqrt(S / (P + E)) of the straight path."""
    from weakforce import action

    p, x, y, energy, m = SEARCH_CASES[case]
    calls = []
    inner = action._solve_interior

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(action, "_solve_interior", counted)
    minimize_free_time(x, y, energy, p, n_segments=m)
    unit = path_action(straight_path(x, y, 1.0, m), energy, p)
    t0 = math.sqrt(unit.kinetic / (unit.potential + energy))
    npt.assert_allclose(calls[:3], [0.5 * t0, t0, 2.0 * t0], rtol=1e-12)
    # the free-particle guess ignores the potential and lies above T0
    assert t0 < weighted_distance(x, y, p.masses) / math.sqrt(energy)


def test_free_time_miss_is_refined_up_to_twice(monkeypatch):
    """A cold miss at M and at 2M converges at 4M; coarse_value is the solve at M."""
    from weakforce import action

    p, x, y, energy, _ = SEARCH_CASES["three-body"]
    reduced = []
    inner = action._solve_interior

    def counted(*args, **kwargs):
        nodes, outcome = inner(*args, **kwargs)
        if args[1] is None:
            reduced.append((nodes.shape[0] - 1, outcome.value))
        return nodes, outcome

    monkeypatch.setattr(action, "_solve_interior", counted)
    result = minimize_free_time(x, y, energy, p, n_segments=5)
    assert result.converged
    assert result.path.n_segments == 20
    assert [m for m, _ in reduced] == [5, 10, 20]
    assert result.coarse_value == reduced[0][1]
    assert result.value == reduced[2][1]
    # one grid short of it stays a miss, after the same two doublings
    reduced.clear()
    short = minimize_free_time(x, y, energy, p, n_segments=4)
    assert short.status == "transversality-miss"
    assert [m for m, _ in reduced] == [4, 8, 16]
    assert short.coarse_value == reduced[0][1]
    # a warm start that misses keeps its grid
    reduced.clear()
    warm = minimize_free_time(x, y, energy, p, n_segments=5, init_nodes=result.path.nodes[::4])
    assert warm.status == "transversality-miss"
    assert [m for m, _ in reduced] == [5]
    assert warm.path.n_segments == 5 and warm.coarse_value is None


def test_roundoff_stall_ends_at_the_noise_floor(monkeypatch):
    """ROADMAP item 9's radial two-body pair: the refined solve's Armijo decrease sinks
    below the roundoff of F, and L-BFGS stops there instead of at its iteration cap."""
    from weakforce import optimize

    p = PotentialParams(0.8, np.array([1.0, 1.0]))
    u = np.array([0.6, 0.8])
    x = np.array([-0.1 * u, 0.1 * u])
    y = np.array([-1.5 * u, 1.5 * u])
    outcomes = []
    inner = optimize.lbfgs

    def counted(*args, **kwargs):
        outcomes.append(inner(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(optimize, "lbfgs", counted)
    result = minimize_free_time(x, y, 1.0, p, n_segments=200)
    assert result.status == "noise-floor" and not result.converged
    assert outcomes[-1].status == "noise-floor"
    assert not outcomes[-1].grad_norm <= 1e-8 * (1.0 + abs(outcomes[-1].value))
    assert max(o.iterations for o in outcomes) < 100


def test_result_el_residual_is_the_public_one():
    """The result's residual, read off the evaluator's gradient, is el_residual's."""
    for case in sorted(SEARCH_CASES):
        p, x, y, energy, m = SEARCH_CASES[case]
        # a gradient tolerance every start meets leaves the straight path,
        # far from a solution
        start = minimize_fixed_time(
            x, y, 2.0, energy, p, n_segments=m, settings=SolverSettings(grad_tol=1e3)
        )
        assert start.iterations == 0
        npt.assert_allclose(start.el_residual, el_residual(start.path, p), rtol=1e-12)
        # on a solution both are small differences of O(1) terms
        for result in (
            minimize_fixed_time(x, y, 2.0, energy, p, n_segments=m),
            minimize_free_time(x, y, energy, p, n_segments=m),
        ):
            assert result.converged
            assert abs(result.el_residual - el_residual(result.path, p)) <= 1e-12


def test_free_time_swap_ends_exactly_at_the_endpoints():
    """Restarts bump their start paths; the result still ends at x and y bit for bit."""
    p = two_body()
    x = np.array([[-1.0, 0.0], [1.0, 0.0]])
    y = np.array([[1.0, 0.0], [-1.0, 0.0]])
    result = minimize_free_time(x, y, 1.0, p, n_segments=60, restarts=3)
    assert result.path.start.tobytes() == x.tobytes()
    assert result.path.end.tobytes() == y.tobytes()
    fixed = minimize_fixed_time(x, y, 4.0, 1.0, p, n_segments=60)
    assert fixed.path.start.tobytes() == x.tobytes()
    assert fixed.path.end.tobytes() == y.tobytes()


def test_warm_start_duration_minimizes_action_of_its_shape():
    """T0 = sqrt(S / (U + E)) from the parts at T = 1 minimizes A over rescaled durations."""
    rng = np.random.default_rng(11)
    p = PotentialParams(0.5, np.array([1.0, 1.5, 2.0]))
    energy = 1.3
    for _ in range(5):
        nodes = wiggled_path(rng, n_bodies=3).nodes
        unit = path_action(DiscretePath(1.0, nodes), energy, p)
        t0 = math.sqrt(unit.kinetic / (unit.potential + energy))
        at_t0 = path_action(DiscretePath(t0, nodes), energy, p).value
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            assert path_action(DiscretePath(t0 * factor, nodes), energy, p).value >= at_t0


def test_free_time_newton_rounds():
    p, x, y, energy, _ = SEARCH_CASES["three-body"]
    default = minimize_free_time(x, y, energy, p, n_segments=80)
    plain = minimize_free_time(x, y, energy, p, n_segments=80, newton_rounds=0)
    polished = minimize_free_time(x, y, energy, p, n_segments=80, newton_rounds=3)

    # zero rounds is the default call, bit for bit
    assert plain.path.nodes.tobytes() == default.path.nodes.tobytes()
    assert (plain.value, plain.grad_norm, plain.iterations, plain.status) == (
        default.value, default.grad_norm, default.iterations, default.status,
    )

    assert plain.converged and polished.converged
    # the polish runs at the duration the search found
    assert polished.path.total_time == plain.path.total_time
    assert polished.path.n_segments == 80
    npt.assert_array_equal(polished.path.start, x)
    npt.assert_array_equal(polished.path.end, y)
    # the exact-Hessian steps do more than the L-BFGS stop already did
    assert polished.grad_norm < 1e-2 * plain.grad_norm


def _count_newton_cleanups(monkeypatch):
    from weakforce import action

    calls = []
    cleanup = action._newton_cleanup

    def counted(*args, **kwargs):
        calls.append(args[1])
        return cleanup(*args, **kwargs)

    monkeypatch.setattr(action, "_newton_cleanup", counted)
    return calls


def test_free_time_polish_runs_once_after_a_converged_search(monkeypatch):
    """The polish is the search's last step, not part of every secant solve."""
    p, x, y, energy, m = SEARCH_CASES["three-body"]
    calls = _count_newton_cleanups(monkeypatch)
    result = minimize_free_time(x, y, energy, p, n_segments=m, newton_rounds=3)
    assert result.converged
    assert calls == [result.path.total_time]


def test_free_time_failed_search_is_returned_unpolished(monkeypatch):
    # an energy tolerance no discrete profile meets ends the search in a miss
    p, x, y, energy, m = SEARCH_CASES["three-body"]
    settings = SolverSettings(energy_tol=1e-9)
    plain = minimize_free_time(x, y, energy, p, n_segments=m, settings=settings)
    calls = _count_newton_cleanups(monkeypatch)
    result = minimize_free_time(
        x, y, energy, p, n_segments=m, settings=settings, newton_rounds=3
    )
    assert result.status == plain.status == "transversality-miss"
    assert calls == []
    assert result.path.nodes.tobytes() == plain.path.nodes.tobytes()
    assert (result.value, result.grad_norm, result.path.total_time) == (
        plain.value, plain.grad_norm, plain.path.total_time,
    )


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_newton_cleanup_stops_at_the_roundoff_floor(monkeypatch, case):
    """One evaluation per round at most, and the gradient norm never grows."""
    from weakforce import action

    p, x, y, energy, m = SEARCH_CASES[case]
    lbfgs = minimize_fixed_time(x, y, 2.0, energy, p, n_segments=m)
    assert lbfgs.converged
    nodes = lbfgs.path.nodes
    g_in = float(np.linalg.norm(path_action_gradient(lbfgs.path, energy, p)[0]))
    evals = []
    evaluator = action._value_grad_parts

    def counted(*args, **kwargs):
        evals.append(1)
        return evaluator(*args, **kwargs)

    monkeypatch.setattr(action, "_value_grad_parts", counted)
    for rounds in (0, 1, 3, 8):
        evals.clear()
        out, g_out = action._newton_cleanup(nodes, 2.0, energy, p, 0.0, rounds)
        assert len(evals) <= rounds + 1
        assert g_out <= g_in
        npt.assert_array_equal(out[[0, -1]], nodes[[0, -1]])


def test_free_time_action_between_bounds():
    p = two_body(0.6)
    x = np.array([[-1.0, 0.0], [1.0, 0.0]])
    y = np.array([[-1.0, 4.0], [1.5, 4.0]])
    energy = 1.2
    result = minimize_free_time(x, y, energy, p, n_segments=80)
    assert result.converged
    lower = maupertuis_lower_bound(x, y, p.masses, energy)
    upper = path_action(
        straight_path(x, y, free_particle_time(weighted_distance(x, y, p.masses), energy), 80),
        energy,
        p,
    ).value
    assert lower <= result.value <= upper + 1e-9


def test_free_time_refinement_stability():
    p = two_body()
    x = np.array([[-1.0, 0.0], [1.0, 0.0]])
    y = np.array([[-2.0, 3.0], [2.0, 3.0]])
    coarse = minimize_free_time(x, y, 1.0, p, n_segments=60)
    fine = minimize_free_time(x, y, 1.0, p, n_segments=120)
    assert coarse.converged and fine.converged
    npt.assert_allclose(coarse.value, fine.value, rtol=0.01)


def test_free_time_degenerate_endpoints():
    p = two_body()
    x = np.array([[-1.0, 0.0], [1.0, 0.0]])
    result = minimize_free_time(x, x, 1.0, p, n_segments=20)
    assert result.degenerate
    assert result.status == "degenerate-endpoints"
    assert result.path.total_time <= SolverSettings().time_floor + 1e-15


def test_free_time_validates_inputs():
    p = two_body()
    x = np.array([[-1.0, 0.0], [1.0, 0.0]])
    y = np.array([[-1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        minimize_free_time(x, y, -1.0, p)
    with pytest.raises(ValueError):
        minimize_free_time(x, y, 1.0, p, restarts=0)
    with pytest.raises(ValueError):
        minimize_free_time(x, y, 1.0, p, n_segments=30, init_nodes=np.zeros((12, 2, 2)))


def test_free_time_min_sep_reported():
    p = two_body()
    x = np.array([[-1.0, 0.0], [1.0, 0.0]])
    y = np.array([[-1.0, 2.0], [1.0, 2.0]])
    result = minimize_free_time(x, y, 1.0, p, n_segments=60)
    assert result.converged
    assert result.min_sep > 0.0
    seps = np.linalg.norm(result.path.nodes[:, 0] - result.path.nodes[:, 1], axis=-1)
    npt.assert_allclose(result.min_sep, seps.min(), rtol=1e-12)


# ---------------------------------------------------------------------------
# DiscretePath helpers


def test_path_sample_interpolates_and_clips():
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    y = np.array([[0.0, 2.0], [1.0, 2.0]])
    path = straight_path(x, y, 2.0, 4)
    mid = path.sample(np.array([1.0]))[0]
    npt.assert_allclose(mid, 0.5 * (x + y), atol=1e-15)
    before, after = path.sample(np.array([-5.0, 99.0]))
    npt.assert_allclose(before, x, atol=1e-15)
    npt.assert_allclose(after, y, atol=1e-15)


def test_path_refined_doubles_segments_same_geometry():
    rng = np.random.default_rng(53)
    path = wiggled_path(rng, m=10)
    fine = path.refined()
    assert fine.n_segments == 2 * path.n_segments
    npt.assert_allclose(fine.nodes[::2], path.nodes, atol=1e-15)
    npt.assert_allclose(fine.total_time, path.total_time)
