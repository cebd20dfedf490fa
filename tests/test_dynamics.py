import math

import numpy as np
import numpy.testing as npt
import pytest

from oracles import fd_potential_gradient, scalar_potential, scatter_loop
from weakforce.dynamics import (
    CollisionError,
    IntegrationError,
    PhasePoint,
    PotentialParams,
    ToleranceSettings,
    acceleration,
    angular_momentum,
    integrate,
    integrate_leapfrog,
    kinetic_energy,
    lagrangian,
    pair_terms,
    potential,
    potential_gradient,
    potential_hessian_vec,
    total_energy,
    total_momentum,
)
from weakforce.presets import circular_two_body


def two_body(alpha=0.5):
    return PotentialParams(alpha, np.array([1.0, 1.0]))


def test_potential_params_validation():
    with pytest.raises(ValueError):
        PotentialParams(0.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        PotentialParams(1.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        PotentialParams(0.5, np.array([1.0]))


def test_potential_examples():
    p = two_body()
    assert potential(np.array([[0.0, 0.0], [1.0, 0.0]]), p) == 1.0
    npt.assert_allclose(potential(np.array([[0.0, 0.0], [4.0, 0.0]]), p), 0.5, rtol=1e-15)
    with pytest.raises(CollisionError):
        potential(np.zeros((2, 2)), p)


def test_pair_terms_veto_and_batch():
    p = PotentialParams(0.5, np.array([1.0, 2.0, 3.0]))
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    nodes = np.stack([x, 2.0 * x])
    min_sq, u, grad = pair_terms(nodes, p)
    assert min_sq == 1.0
    npt.assert_array_equal(u, [potential(x, p), potential(2.0 * x, p)])
    npt.assert_array_equal(grad[1], potential_gradient(2.0 * x, p))
    # a floor above the closest pair vetoes before any power is taken, so a
    # coincident pair is reported rather than raised
    collided = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    assert pair_terms(collided, p, floor=0.5) == (0.0, None, None)
    assert pair_terms(nodes, p, floor=1.5) == (1.0, None, None)
    with pytest.raises(CollisionError):
        pair_terms(collided, p)


def test_pair_terms_blocks_match_one_pass_bit_for_bit(monkeypatch):
    from weakforce import dynamics

    rng = np.random.default_rng(5)
    p = PotentialParams(0.5, 10.0 ** rng.uniform(0.0, 0.5, 10))
    nodes = 5.0 * rng.standard_normal((1000, 10, 2))
    # 45 pairs, so blocks of 160 configurations: the last block of 1000 takes
    # a 40-row tail, 900 ends in a block of 100, and 801 leaves no 1-row block
    sizes = (1000, 900, 801)
    blocked = [pair_terms(nodes[:m], p) for m in sizes]
    blocked_u = pair_terms(nodes, p, gradient=False)[1]
    monkeypatch.setattr(dynamics, "_PAIR_BLOCK", 10**9)
    for m, (min_sq, u, grad) in zip(sizes, blocked):
        one_pass = pair_terms(nodes[:m], p)
        assert min_sq == one_pass[0]
        npt.assert_array_equal(u, one_pass[1])
        npt.assert_array_equal(grad, one_pass[2])
    npt.assert_array_equal(blocked_u, pair_terms(nodes, p)[1])
    # a veto in the last block stops the pass with nothing returned
    monkeypatch.undo()
    nodes[-1, 1] = nodes[-1, 0]
    assert pair_terms(nodes, p, floor=1e-3)[1:] == (None, None)


def test_potential_homogeneity():
    rng = np.random.default_rng(2)
    p = PotentialParams(0.7, np.array([1.0, 2.0, 3.0]))
    x = rng.normal(size=(3, 3)) * 2.0
    u = potential(x, p)
    for lam in (0.5, 2.0, 10.0):
        npt.assert_allclose(potential(lam * x, p), lam**-0.7 * u, rtol=1e-12)


def test_potential_matches_loop_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        masses = np.abs(rng.normal(size=4)) + 1.0
        p = PotentialParams(0.3, masses)
        x = rng.normal(size=(4, 2)) * 3.0
        # params rescale masses to minimum 1; compare on what the package uses
        npt.assert_allclose(
            potential(x, p), scalar_potential(0.3, p.masses.tolist(), x.tolist()), rtol=1e-13
        )


def test_acceleration_two_body_unit_separation():
    p = two_body()
    a = acceleration(np.array([[0.0, 0.0], [1.0, 0.0]]), p)
    npt.assert_allclose(a, [[0.5, 0.0], [-0.5, 0.0]], atol=1e-15)


def test_acceleration_equilateral_symmetry():
    p = PotentialParams(0.5, np.array([1.0, 1.0, 1.0]))
    x = np.array(
        [[1.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0], [-0.5, -math.sqrt(3.0) / 2.0]]
    )
    a = acceleration(x, p)
    mags = np.linalg.norm(a, axis=1)
    npt.assert_allclose(mags, mags[0], rtol=1e-12)
    # each acceleration points from the body toward the centroid (origin)
    for row, pos in zip(a, x):
        cos = row @ (-pos) / (np.linalg.norm(row) * np.linalg.norm(pos))
        npt.assert_allclose(cos, 1.0, rtol=1e-12)


def test_action_reaction_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        masses = np.abs(rng.normal(size=3)) + 1.0
        p = PotentialParams(0.6, masses)
        x = rng.normal(size=(3, 3)) * 2.0
        f = masses[:, None] * acceleration(x, p)
        npt.assert_allclose(f.sum(axis=0), 0.0, atol=1e-12 * np.abs(f).max())


def test_gradient_consistency_small_sweep():
    """m_i a_i must match central finite differences of U through the masses."""
    rng = np.random.default_rng(13)
    for alpha in (0.3, 0.5, 0.8):
        for n in (2, 4):
            masses = np.abs(rng.normal(size=n)) + 1.0
            p = PotentialParams(alpha, masses)
            x = rng.normal(size=(n, 2)) * 2.0
            while np.any(np.isclose(potential(x, p), 0.0)):
                x = rng.normal(size=(n, 2)) * 2.0
            fd = np.array(fd_potential_gradient(alpha, p.masses.tolist(), x.tolist()))
            exact = p.masses[:, None] * acceleration(x, p)
            npt.assert_allclose(exact, fd, rtol=1e-6, atol=1e-9)


def test_acceleration_homogeneity():
    rng = np.random.default_rng(21)
    p = PotentialParams(0.4, np.array([1.0, 1.5]))
    x = rng.normal(size=(2, 2)) * 3.0
    a = acceleration(x, p)
    for lam in (0.5, 2.0, 10.0):
        npt.assert_allclose(acceleration(lam * x, p), lam ** -(1.4) * a, rtol=1e-12)


def test_hessian_vec_matches_gradient_differences():
    rng = np.random.default_rng(29)
    p = PotentialParams(0.6, np.array([1.0, 1.7, 2.4]))
    x = rng.normal(size=(3, 2)) * 2.0
    v = rng.normal(size=(3, 2))
    h = 1e-6
    fd = (potential_gradient(x + h * v, p) - potential_gradient(x - h * v, p)) / (2 * h)
    npt.assert_allclose(potential_hessian_vec(x, v, p), fd, rtol=1e-5, atol=1e-8)


def _pair_loop_terms(x, vec, alpha, masses):
    """Per-pair gradient and Hessian-vector terms, and their magnitudes, pair by pair."""
    n_bodies = x.shape[-2]
    grad, hess, grad_mag, hess_mag = [], [], [], []
    for a, b in zip(*np.triu_indices(n_bodies, k=1)):
        c = masses[a] * masses[b]
        r = x[..., a, :] - x[..., b, :]
        w = vec[..., a, :] - vec[..., b, :]
        d = np.sqrt(np.sum(r * r, axis=-1, keepdims=True))
        g = -alpha * c * d ** -(alpha + 2.0) * r
        h1 = -alpha * c * d ** -(alpha + 2.0) * w
        h2 = alpha * (alpha + 2.0) * c * d ** -(alpha + 4.0) * np.sum(r * w, axis=-1, keepdims=True) * r
        grad.append(g)
        hess.append(h1 + h2)
        grad_mag.append(np.abs(g))
        hess_mag.append(np.abs(h1) + np.abs(h2))
    return [np.stack(t, axis=-2) for t in (grad, hess, grad_mag, hess_mag)]


# worst |kernel - pair loop| / (eps * sum_p |term_p|) over these draws was
# 5.05 for the gradient and 6.74 for the Hessian product; fixed once at 20x 6.74
_PAIR_LOOP_ROUNDOFF = 135.0


@pytest.mark.parametrize("n_bodies", [2, 3, 4, 10])
def test_pair_kernel_matches_pair_loop(n_bodies):
    rng = np.random.default_rng(41 + n_bodies)
    masses = np.abs(rng.normal(size=n_bodies)) + 1.0
    p = PotentialParams(0.45, masses)
    eps = np.finfo(float).eps
    for shape in [(n_bodies, 2), (7, n_bodies, 3)]:
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
        vec = rng.normal(size=shape)
        grad_p, hess_p, grad_mag, hess_mag = _pair_loop_terms(x, vec, p.alpha, p.masses)
        for got, pairs, mag in [
            (pair_terms(x, p)[2], grad_p, grad_mag),
            (potential_hessian_vec(x, vec, p), hess_p, hess_mag),
        ]:
            want = scatter_loop(pairs, n_bodies)
            assert got.shape == want.shape == x.shape
            bound = _PAIR_LOOP_ROUNDOFF * eps * mag.sum(axis=-2, keepdims=True)
            assert np.all(np.abs(got - want) <= bound)


def test_lagrangian_and_energy_examples():
    p = two_body()
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    v0 = np.zeros((2, 2))
    assert lagrangian(PhasePoint(x, v0), p) == potential(x, p)
    v = np.array([[1.0, 0.0], [-1.0, 0.0]])
    npt.assert_allclose(lagrangian(PhasePoint(x, v), p), 2.0, rtol=1e-15)
    npt.assert_allclose(lagrangian(PhasePoint(x, -v), p), lagrangian(PhasePoint(x, v), p))
    npt.assert_allclose(total_energy(PhasePoint(x, v), p), 0.0, atol=1e-15)
    assert total_energy(PhasePoint(x, v0), p) == -1.0
    assert kinetic_energy(v, p.masses) == 1.0


def test_integrate_circular_orbit_radius():
    state, params, period = circular_two_body()
    traj = integrate(state, period, params)
    seps = np.linalg.norm(traj.positions[:, 0] - traj.positions[:, 1], axis=1)
    npt.assert_allclose(seps, 1.0, rtol=1e-6)
    assert not traj.halted


def test_integrate_conservation_drifts():
    state, params, _ = circular_two_body(speed_factor=0.8)
    traj = integrate(state, 10.0, params)
    assert traj.energy_drift.max() <= 1e-8
    assert traj.momentum_drift.max() <= 1e-10
    assert traj.angular_momentum_drift.max() <= 1e-8


def test_integrate_symmetric_collapse_stays_symmetric():
    # two equal bodies released from rest: x2(t) = -x1(t) for all t
    params = two_body(0.5)
    x0 = np.array([[1.0, 0.5], [-1.0, -0.5]])
    state = PhasePoint(x0, np.zeros((2, 2)))
    traj = integrate(state, 2.0, params)
    npt.assert_allclose(traj.positions[:, 0], -traj.positions[:, 1], atol=1e-10)


def test_integrate_momentum_conservation_random():
    rng = np.random.default_rng(31)
    params = PotentialParams(0.5, np.array([1.0, 2.0, 1.3]))
    x0 = rng.normal(size=(3, 2)) * 3.0
    v0 = rng.normal(size=(3, 2)) * 0.2
    traj = integrate(PhasePoint(x0, v0), 5.0, params)
    p0 = total_momentum(PhasePoint(x0, v0), params.masses)
    p_end = total_momentum(traj.final_state, params.masses)
    npt.assert_allclose(p_end, p0, atol=1e-10 * max(1.0, np.abs(p0).max()))


def test_integrate_halts_near_collision():
    # head-on approach must stop early with a partial trajectory
    params = two_body(0.5)
    x0 = np.array([[0.5, 0.0], [-0.5, 0.0]])
    v0 = np.array([[-1.0, 0.0], [1.0, 0.0]])
    traj = integrate(PhasePoint(x0, v0), 10.0, params, ToleranceSettings(collision_eps=1e-3))
    assert traj.halted
    assert traj.halt_reason is not None
    assert traj.times[-1] < 10.0
    final_sep = np.linalg.norm(traj.positions[-1, 0] - traj.positions[-1, 1])
    npt.assert_allclose(final_sep, 1e-3, rtol=1e-6)


def test_integrate_rejects_initial_collision():
    params = two_body()
    with pytest.raises(CollisionError):
        integrate(PhasePoint(np.zeros((2, 2)), np.zeros((2, 2))), 1.0, params)


def test_integrate_step_budget():
    state, params, _ = circular_two_body()
    with pytest.raises(IntegrationError):
        integrate(state, 50.0, params, ToleranceSettings(max_steps=3))


def test_integrate_t_eval_grid():
    state, params, period = circular_two_body()
    ts = np.linspace(0.0, period, 17)
    traj = integrate(state, period, params, t_eval=ts)
    npt.assert_allclose(traj.times, ts)


def test_leapfrog_cross_checks_adaptive_integrator():
    state, params, period = circular_two_body(speed_factor=0.9)
    t_end = 0.5 * period
    fine = integrate(state, t_end, params, t_eval=np.array([t_end]))
    lf = integrate_leapfrog(state, t_end, dt=t_end / 20000, params=params)
    npt.assert_allclose(lf.positions[-1], fine.positions[-1], atol=5e-6)


def test_leapfrog_energy_stays_bounded_long_horizon():
    state, params, period = circular_two_body()
    lf = integrate_leapfrog(state, 20.0 * period, dt=period / 400, params=params, record_every=50)
    # symplectic scheme: energy oscillates but does not drift away
    assert lf.energy_drift.max() <= 5e-4


def test_angular_momentum_planar_matches_scalar_cross_product():
    state, params, _ = circular_two_body(alpha=0.5, masses=(1.0, 2.5), separation=1.3)
    ang = angular_momentum(state, params.masses)
    assert ang.shape == (2, 2)
    npt.assert_array_equal(ang, -ang.T)
    x, v, m = state.positions, state.velocities, params.masses
    scalar = sum(m[i] * (x[i, 0] * v[i, 1] - x[i, 1] * v[i, 0]) for i in range(2))
    assert scalar != 0.0
    npt.assert_allclose(ang[0, 1], scalar, rtol=1e-14)


def test_angular_momentum_3d_matches_cross_product_vector():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3))
    v = rng.standard_normal((4, 3))
    m = np.array([1.0, 1.5, 2.0, 3.0])
    ang = angular_momentum(PhasePoint(x, v), m)
    assert ang.shape == (3, 3)
    npt.assert_array_equal(ang, -ang.T)
    vec = np.einsum("i,ik->k", m, np.cross(x, v))
    npt.assert_allclose([ang[1, 2], ang[2, 0], ang[0, 1]], vec, rtol=1e-12, atol=1e-14)
