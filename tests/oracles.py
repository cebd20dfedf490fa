"""Independent reference computations used to check the package.

Everything here is deliberately written without importing the package under
test: plain Python loops for the weighted geometry, central finite
differences for gradients, closed forms for the free-particle limit, and a
radial-quadrature solution of the reduced two-body problem. Where a test
compares package output against one of these routines, the two code paths
share no arithmetic.
"""

import csv
import io
import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import roots_legendre


def scalar_weighted_norm(masses, points):
    """(1/2 sum m_i |x_i|^2)^(1/2) with explicit loops."""
    acc = 0.0
    for m, p in zip(masses, points):
        for c in p:
            acc += m * c * c
    return math.sqrt(0.5 * acc)


def scalar_weighted_inner(masses, points_a, points_b):
    acc = 0.0
    for m, pa, pb in zip(masses, points_a, points_b):
        for ca, cb in zip(pa, pb):
            acc += m * ca * cb
    return 0.5 * acc


def scalar_potential(alpha, masses, points):
    """Pairwise sum m_i m_j / |x_i - x_j|^alpha with explicit loops."""
    n = len(points)
    acc = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d2 = 0.0
            for ci, cj in zip(points[i], points[j]):
                d2 += (ci - cj) ** 2
            acc += masses[i] * masses[j] * d2 ** (-0.5 * alpha)
    return acc


def fd_potential_gradient(alpha, masses, points, h=1e-5):
    """Central finite differences of the potential, one coordinate at a time."""
    pts = [list(p) for p in points]
    grad = [[0.0] * len(p) for p in pts]
    for i in range(len(pts)):
        for k in range(len(pts[i])):
            orig = pts[i][k]
            pts[i][k] = orig + h
            up = scalar_potential(alpha, masses, pts)
            pts[i][k] = orig - h
            down = scalar_potential(alpha, masses, pts)
            pts[i][k] = orig
            grad[i][k] = (up - down) / (2.0 * h)
    return grad


def scalar_path_action(alpha, masses, nodes, total_time, energy):
    """Discrete action: exact piecewise-linear kinetic + trapezoid potential.

    nodes is a list of configurations (lists of points). Matches the
    quadrature the package documents, recomputed with plain loops.
    """
    m_seg = len(nodes) - 1
    dt = total_time / m_seg
    kinetic = 0.0
    for k in range(m_seg):
        acc = 0.0
        for m, pa, pb in zip(masses, nodes[k], nodes[k + 1]):
            for ca, cb in zip(pa, pb):
                acc += m * (cb - ca) ** 2
        kinetic += 0.5 * acc / dt
    pots = [scalar_potential(alpha, masses, x) for x in nodes]
    potential = dt * (0.5 * pots[0] + sum(pots[1:-1]) + 0.5 * pots[-1])
    return kinetic + potential + energy * total_time


def fd_action_node_gradient(alpha, masses, nodes, total_time, energy, h=1e-6):
    """Central differences of the discrete action in the interior nodes."""
    work = [[list(p) for p in x] for x in nodes]
    grad = []
    for k in range(1, len(nodes) - 1):
        gk = [[0.0] * len(p) for p in work[k]]
        for i in range(len(work[k])):
            for c in range(len(work[k][i])):
                orig = work[k][i][c]
                work[k][i][c] = orig + h
                up = scalar_path_action(alpha, masses, work, total_time, energy)
                work[k][i][c] = orig - h
                down = scalar_path_action(alpha, masses, work, total_time, energy)
                work[k][i][c] = orig
                gk[i][c] = (up - down) / (2.0 * h)
        grad.append(gk)
    return grad


def fd_action_time_derivative(alpha, masses, nodes, total_time, energy, h=1e-6):
    up = scalar_path_action(alpha, masses, nodes, total_time * (1 + h), energy)
    down = scalar_path_action(alpha, masses, nodes, total_time * (1 - h), energy)
    return (up - down) / (2.0 * total_time * h)


def scatter_loop(pair_vectors, n_bodies):
    """Pair -> body sum by a loop over pairs in triu order: +c_p at i, -c_p at j.

    The reference the pair kernel's gradient and Hessian-vector product are
    checked against, to roundoff, when fed per-pair terms computed pair by
    pair.
    """
    out = np.zeros(pair_vectors.shape[:-2] + (n_bodies, pair_vectors.shape[-1]))
    for p, (a, b) in enumerate(zip(*np.triu_indices(n_bodies, k=1))):
        out[..., a, :] += pair_vectors[..., p, :]
        out[..., b, :] -= pair_vectors[..., p, :]
    return out


def trajectory_csv_rows(header, rows):
    """CSV text from csv.writer with every number as repr(float(v))."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


def free_particle_time(distance, energy):
    """Minimizer of d^2/T + E T over T > 0."""
    return distance / math.sqrt(energy)


def free_particle_action(distance, energy):
    """Value at the optimum: 2 sqrt(E) d."""
    return 2.0 * math.sqrt(energy) * distance


class TwoBodyOracle:
    """Reduced two-body motion by radial quadrature, no time stepping.

    With the equations m_i x_i'' = dU/dx_i for U = m1 m2 / rho^alpha the
    relative coordinate z = x1 - x2 obeys z'' = -alpha (m1 + m2)
    z/|z|^(alpha+2), a central-force problem with conserved specific energy
    e = |z'|^2/2 - (m1+m2)/rho^alpha and angular momentum l = z x z'. Radius
    against time and swept angle come from the standard quadratures

        t(rho) = integral d rho / sqrt(f(rho)),
        theta(rho) = integral (l/rho^2) d rho / sqrt(f(rho)),
        f(rho) = 2 e + 2 (m1+m2)/rho^alpha - l^2/rho^2,

    evaluated with a Gauss-Legendre rule after the substitution
    rho = rho_min + (rho_max - rho_min) sin^2(psi) that absorbs both
    turning-point singularities. The motion is continued past the apoapsis
    by reflection symmetry.

    The constructor takes a state at periapsis: separation rho0 with purely
    tangential relative speed v_t (must exceed nothing; rho0 is a turning
    point by construction, and the orbit is bound iff e < 0 with alpha < 2).
    """

    def __init__(self, alpha, m1, m2, rho0, v_t, n_quad=240):
        if v_t <= 0.0:
            raise ValueError("need a positive tangential speed")
        self.alpha = alpha
        self.mu_sum = m1 + m2
        self.m1 = m1
        self.m2 = m2
        self.rho0 = rho0
        self.energy_rel = 0.5 * v_t * v_t - self.mu_sum / rho0**alpha
        self.ell = rho0 * v_t
        if self.energy_rel >= 0.0:
            raise ValueError("oracle covers bound orbits only")
        self._psi, self._w = roots_legendre(n_quad)
        self.rho_min, self.rho_max = self._turning_points()
        self.half_period = self._time_between(self.rho_min, self.rho_max)
        self.period = 2.0 * self.half_period
        self.theta_half = self._angle_between(self.rho_min, self.rho_max)

    def _f(self, rho):
        return (
            2.0 * self.energy_rel
            + 2.0 * self.mu_sum * rho ** -self.alpha
            - self.ell**2 * rho**-2
        )

    def _turning_points(self):
        f0 = self._f(self.rho0)
        if abs(f0) > 1e-9 * abs(self.energy_rel):
            raise ValueError("state is not at a turning point")
        # inner root: f < 0 as rho -> 0 (centrifugal wall), f(rho0) = 0.
        # rho0 is the periapsis when f grows just outside it.
        probe = self.rho0 * (1.0 + 1e-6)
        if self._f(probe) <= 0.0:
            raise ValueError("expected rho0 at periapsis (f must open outward)")
        hi = self.rho0
        while self._f(hi * 2.0) > 0.0:
            hi *= 2.0
            if hi > 1e12 * self.rho0:
                raise ValueError("no outer turning point found")
        rho_max = brentq(self._f, hi, hi * 2.0, xtol=1e-14, rtol=1e-15)
        return self.rho0, rho_max

    def _substituted(self, rho_a, rho_b):
        span = rho_b - rho_a
        psi = 0.25 * math.pi * (self._psi + 1.0)  # nodes on (0, pi/2)
        s = np.sin(psi)
        c = np.cos(psi)
        rho = rho_a + span * s * s
        drho = 2.0 * span * s * c * (0.25 * math.pi)
        f = self._f(rho)
        # roundoff can push f slightly negative at the very ends
        f = np.maximum(f, 1e-300)
        return rho, drho, np.sqrt(f)

    def _time_between(self, rho_a, rho_b):
        if rho_b <= rho_a:
            return 0.0
        rho, drho, root = self._substituted(rho_a, rho_b)
        return float(np.sum(self._w * drho / root))

    def _angle_between(self, rho_a, rho_b):
        if rho_b <= rho_a:
            return 0.0
        rho, drho, root = self._substituted(rho_a, rho_b)
        return float(np.sum(self._w * self.ell * drho / (rho * rho * root)))

    def radius_at(self, t):
        """rho(t) for t >= 0, periapsis at t = 0."""
        t = math.fmod(t, self.period)
        if t > self.half_period:
            t = self.period - t
        if t <= 0.0:
            return self.rho_min
        if t >= self.half_period:
            return self.rho_max

        def mismatch(rho):
            return self._time_between(self.rho_min, rho) - t

        return brentq(mismatch, self.rho_min, self.rho_max, xtol=1e-13, rtol=1e-14)

    def state_at(self, t):
        """Relative position z(t) with z(0) = (rho0, 0) and counterclockwise motion."""
        t_red = math.fmod(t, self.period)
        n_laps = round((t - t_red) / self.period)
        mirrored = t_red > self.half_period
        t_seg = self.period - t_red if mirrored else t_red
        rho = self.radius_at(t_seg)
        theta_seg = self._angle_between(self.rho_min, rho)
        if mirrored:
            theta = 2.0 * self.theta_half - theta_seg
        else:
            theta = theta_seg
        theta += 2.0 * self.theta_half * n_laps
        return rho * math.cos(theta), rho * math.sin(theta)

    def body_positions(self, t, com=(0.0, 0.0)):
        """Positions of both bodies with the center of mass held at `com`."""
        zx, zy = self.state_at(t)
        w1 = self.m2 / self.mu_sum
        w2 = self.m1 / self.mu_sum
        x1 = (com[0] + w1 * zx, com[1] + w1 * zy)
        x2 = (com[0] - w2 * zx, com[1] - w2 * zy)
        return x1, x2
