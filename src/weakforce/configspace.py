"""Mass-weighted geometry of the N-body configuration space.

A configuration is an (N, n) float array: N point masses in R^n. The space
carries the weighted inner product

    <x, y> = (1/2) * sum_i m_i <x_i, y_i>,

whose norm makes the kinetic energy of a velocity v equal to ||v||^2. All
norms, distances, angles and sphere projections in this package refer to
this structure unless a function name says otherwise (pairwise separations
are plain Euclidean distances between bodies).

Masses are always normalized so the smallest equals one; several geometric
bounds (e.g. ``R(x) <= 2 sqrt(2) ||x||``) are only true under that
normalization.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "mass_vector",
    "as_configuration",
    "weighted_inner",
    "weighted_norm",
    "weighted_distance",
    "pair_indices",
    "pair_distances",
    "min_separation",
    "max_separation",
    "is_collision_free",
    "normalize_to_sphere",
    "angle",
]


def mass_vector(values) -> np.ndarray:
    """Validate a mass list and rescale so that min(m) == 1.

    Args:
        values: Sequence of at least two positive finite masses.

    Returns:
        A read-only float array with minimum exactly 1.

    Raises:
        ValueError: On wrong shape, non-finite or non-positive entries.
    """
    m = np.array(values, dtype=float)
    if m.ndim != 1 or m.size < 2:
        raise ValueError(f"need a 1-d list of at least two masses, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("masses must be finite")
    if np.any(m <= 0.0):
        raise ValueError("masses must be positive")
    m = m / m.min()
    m.setflags(write=False)
    return m


def as_configuration(points) -> np.ndarray:
    """Coerce array-like input of shape (N, n) to a float configuration array.

    Raises:
        ValueError: On wrong rank, fewer than 2 bodies or 1 dimension, or
            non-finite entries.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"configuration must be 2-d (bodies, coordinates), got shape {x.shape}")
    if x.shape[0] < 2 or x.shape[1] < 1:
        raise ValueError(f"configuration needs >= 2 bodies in >= 1 dimension, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("configuration has non-finite entries")
    return x


def weighted_inner(x: np.ndarray, y: np.ndarray, masses: np.ndarray) -> float:
    """Mass-weighted inner product (1/2) sum_i m_i <x_i, y_i>."""
    return 0.5 * float(np.einsum("i,ik,ik->", masses, x, y))


def weighted_norm(x: np.ndarray, masses: np.ndarray) -> float:
    """Norm induced by :func:`weighted_inner`."""
    return math.sqrt(0.5 * float(np.einsum("i,ik,ik->", masses, x, x)))


def weighted_distance(x: np.ndarray, y: np.ndarray, masses: np.ndarray) -> float:
    """Weighted distance ||x - y||."""
    return weighted_norm(x - y, masses)


_PAIR_INDICES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def pair_indices(n_bodies: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) enumerating the N(N-1)/2 unordered body pairs.

    Built once per body count and shared by every caller, so both are
    read-only views of one read-only array.
    """
    pairs = _PAIR_INDICES.get(n_bodies)
    if pairs is None:
        both = np.stack(np.triu_indices(n_bodies, k=1))
        both.setflags(write=False)
        pairs = _PAIR_INDICES[n_bodies] = (both[0], both[1])
    return pairs


def pair_distances(x: np.ndarray) -> np.ndarray:
    """Euclidean separations |x_i - x_j| for all unordered pairs.

    Accepts a single (N, n) configuration or a batch (..., N, n); pairs are
    enumerated along the last axis of the result in triu order.
    """
    i, j = pair_indices(x.shape[-2])
    rel = np.take(x, i, axis=-2) - np.take(x, j, axis=-2)
    return np.sqrt(np.einsum("...pk,...pk->...p", rel, rel))


def min_separation(x: np.ndarray):
    """r(x): the smallest pairwise separation. Batched like pair_distances."""
    d = pair_distances(x).min(axis=-1)
    return float(d) if np.ndim(d) == 0 else d


def max_separation(x: np.ndarray):
    """R(x): the largest pairwise separation. Batched like pair_distances."""
    d = pair_distances(x).max(axis=-1)
    return float(d) if np.ndim(d) == 0 else d


def is_collision_free(x: np.ndarray, eps: float = 0.0) -> bool:
    """True when every pairwise separation exceeds eps."""
    return bool(min_separation(x) > eps)


def normalize_to_sphere(x: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Project onto the unit sphere of the weighted norm.

    Raises:
        ValueError: If ||x|| is numerically zero.
    """
    nrm = weighted_norm(x, masses)
    if nrm <= 1e-300:
        raise ValueError("cannot project the zero configuration onto the unit sphere")
    return x / nrm


def angle(x: np.ndarray, y: np.ndarray, masses: np.ndarray) -> float:
    """Angle between nonzero configurations in the weighted inner product.

    Returns a value in [0, pi]. For unit configurations this satisfies the
    chord identity (1/2)||x - y|| = sin(angle/2).

    Raises:
        ValueError: If either argument has zero weighted norm.
    """
    nx = weighted_norm(x, masses)
    ny = weighted_norm(y, masses)
    if nx <= 1e-300 or ny <= 1e-300:
        raise ValueError("angle is undefined for the zero configuration")
    c = weighted_inner(x, y, masses) / (nx * ny)
    return math.acos(min(1.0, max(-1.0, c)))

