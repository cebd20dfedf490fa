import math

import numpy as np
import numpy.testing as npt
import pytest

from oracles import scalar_weighted_inner, scalar_weighted_norm
from weakforce.configspace import (
    angle,
    is_collision_free,
    mass_vector,
    max_separation,
    min_separation,
    normalize_to_sphere,
    pair_distances,
    pair_indices,
    weighted_distance,
    weighted_inner,
    weighted_norm,
)


def test_mass_vector_normalizes_minimum_to_one():
    m = mass_vector([2.0, 3.0, 4.0])
    npt.assert_allclose(m, [1.0, 1.5, 2.0])
    assert m.min() == 1.0


def test_mass_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        mass_vector([1.0])
    with pytest.raises(ValueError):
        mass_vector([1.0, 0.0])
    with pytest.raises(ValueError):
        mass_vector([1.0, -2.0])


def test_mass_vector_is_read_only():
    m = mass_vector([1.0, 2.0])
    with pytest.raises(ValueError):
        m[0] = 5.0


def test_weighted_norm_examples():
    m = np.array([1.0, 1.0])
    assert weighted_norm(np.array([[1.0, 0.0], [1.0, 0.0]]), m) == 1.0
    assert weighted_norm(np.zeros((2, 2)), m) == 0.0
    # unequal masses, worked by hand and by the loop oracle
    m2 = np.array([1.0, 4.0])
    x = np.array([[2.0, 0.0], [1.0, 0.0]])
    npt.assert_allclose(weighted_norm(x, m2), 2.0, rtol=1e-15)
    npt.assert_allclose(weighted_norm(x, m2), scalar_weighted_norm(m2, x.tolist()), rtol=1e-15)


def test_weighted_inner_examples():
    m = np.array([1.0, 1.0])
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert weighted_inner(x, x, m) == weighted_norm(x, m) ** 2
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert weighted_inner(a, b, m) == 0.0
    m2 = np.array([2.0, 1.0])
    p = np.array([[2.0, 0.0], [0.0, 0.0]])
    q = np.array([[3.0, 0.0], [0.0, 0.0]])
    npt.assert_allclose(weighted_inner(p, q, m2), 6.0, rtol=1e-15)


def test_weighted_inner_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(2, 6)
        dim = rng.integers(2, 4)
        m = np.abs(rng.normal(size=n)) + 1.0
        x = rng.normal(size=(n, dim))
        y = rng.normal(size=(n, dim))
        npt.assert_allclose(
            weighted_inner(x, y, m),
            scalar_weighted_inner(m, x.tolist(), y.tolist()),
            rtol=1e-13,
        )


def test_cauchy_schwarz_sampled():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = np.abs(rng.normal(size=3)) + 1.0
        x = rng.normal(size=(3, 2))
        y = rng.normal(size=(3, 2))
        lhs = abs(weighted_inner(x, y, m))
        rhs = weighted_norm(x, m) * weighted_norm(y, m)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_min_and_max_separation_examples():
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert min_separation(x) == 1.0
    assert max_separation(x) == 1.0
    assert min_separation(np.zeros((2, 2))) == 0.0
    tri = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    # pairwise distances are 3, 5, 4
    assert min_separation(tri) == 3.0
    assert max_separation(tri) == 5.0
    assert max_separation(np.ones((3, 2))) == 0.0


def test_separation_homogeneity_and_order():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.normal(size=(4, 3))
        assert min_separation(x) <= max_separation(x)
        for lam in (0.5, 2.0, 10.0):
            npt.assert_allclose(min_separation(lam * x), lam * min_separation(x), rtol=1e-12)


def test_pair_distances_order():
    x = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    npt.assert_allclose(pair_distances(x), [3.0, 5.0, 4.0])


def test_pair_indices_cached_and_read_only():
    i, j = pair_indices(4)
    assert pair_indices(4)[0] is i and pair_indices(4)[1] is j
    npt.assert_array_equal(i, [0, 0, 0, 1, 1, 2])
    npt.assert_array_equal(j, [1, 2, 3, 2, 3, 3])
    with pytest.raises(ValueError):
        i[0] = 3
    with pytest.raises(ValueError):
        j[:] = 0
    with pytest.raises(ValueError):
        i.setflags(write=True)
    # the failed writes left the shared indices, and every kernel, intact
    x = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0], [0.0, 4.0]])
    npt.assert_allclose(pair_distances(x), [3.0, 5.0, 4.0, 4.0, 5.0, 3.0])


def test_is_collision_free():
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert is_collision_free(x, 0.0)
    assert not is_collision_free(np.zeros((2, 2)), 0.0)
    close = np.array([[0.0, 0.0], [1e-9, 0.0]])
    assert not is_collision_free(close, 1e-6)


def test_normalize_to_sphere():
    m = np.array([1.0, 1.0])
    x = np.array([[2.0, 0.0], [2.0, 0.0]])
    npt.assert_allclose(normalize_to_sphere(x, m), [[1.0, 0.0], [1.0, 0.0]])
    unit = normalize_to_sphere(x, m)
    npt.assert_allclose(normalize_to_sphere(unit, m), unit, rtol=1e-15)
    rng = np.random.default_rng(5)
    for _ in range(200):
        y = rng.normal(size=(3, 3))
        u = normalize_to_sphere(y, np.array([1.0, 2.0, 3.0]))
        assert abs(weighted_norm(u, np.array([1.0, 2.0, 3.0])) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        normalize_to_sphere(np.zeros((2, 2)), m)


def test_angle_endpoints():
    m = np.array([1.0, 1.0])
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert angle(x, x, m) == 0.0
    npt.assert_allclose(angle(x, -x, m), math.pi, rtol=1e-15)
    with pytest.raises(ValueError):
        angle(x, np.zeros((2, 2)), m)


def test_chord_identity_pi_third():
    """Unit configurations one chord-unit apart subtend an angle of pi/3."""
    m = np.array([1.0, 1.0])
    x = normalize_to_sphere(np.array([[1.0, 0.0], [1.0, 0.0]]), m)
    # rotate both points by the planar angle that makes the chord length 1
    theta = math.pi / 3.0
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    y = x @ rot.T
    npt.assert_allclose(weighted_distance(x, y, m), 1.0, rtol=1e-12)
    npt.assert_allclose(angle(x, y, m), math.pi / 3.0, rtol=1e-12)


def test_chord_identity_sampled():
    # |(1/2)||x - y|| - sin(angle/2)| <= 1e-10 on the unit sphere
    rng = np.random.default_rng(19)
    m = np.array([1.0, 3.0, 1.5])
    for _ in range(500):
        x = normalize_to_sphere(rng.normal(size=(3, 2)), m)
        y = normalize_to_sphere(rng.normal(size=(3, 2)), m)
        chord = 0.5 * weighted_distance(x, y, m)
        half_angle = 0.5 * angle(x, y, m)
        assert abs(chord - math.sin(half_angle)) <= 1e-10


def test_norm_triangle_inequality_bulk():
    rng = np.random.default_rng(23)
    n_triples = 10_000
    m = np.abs(rng.normal(size=4)) + 1.0
    x = rng.normal(size=(n_triples, 4, 2))
    y = rng.normal(size=(n_triples, 4, 2))
    sum_norm = np.sqrt(0.5 * np.einsum("i,tic,tic->t", m, x + y, x + y))
    norm_x = np.sqrt(0.5 * np.einsum("i,tic,tic->t", m, x, x))
    norm_y = np.sqrt(0.5 * np.einsum("i,tic,tic->t", m, y, y))
    slack = norm_x + norm_y - sum_norm
    assert np.all(slack >= -1e-12 * (norm_x + norm_y))

