"""Independent checks of the files the CLI writes.

Nothing here imports weakforce: the path CSV parser, the discrete action,
the weighted norm and the report parsers are written from the file formats
and the formulas alone, so a defect in the library's own readers or action
code cannot hide itself. Checks return the problems they find, an empty list
when the output is right.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# reported action values must agree with the recomputed one to this
# relative tolerance; the library sums in a different order
ACTION_RTOL = 1e-9


def weighted_norm(x: np.ndarray, masses: np.ndarray) -> float:
    """||x||^2 = (1/2) sum_i m_i |x_i|^2 for one (N, n) configuration."""
    return math.sqrt(0.5 * float(np.sum(masses[:, None] * x * x)))


def normalized_masses(values) -> np.ndarray:
    m = np.asarray(values, dtype=float)
    return m / m.min()


def read_path_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Read (times, positions of shape (M+1, N, n)) from a trajectory CSV.

    The format: one '# key=value ...' header line, one line of column names
    (t, x{body}_{coord}, v{body}_{coord}, then diagnostics) and one row of
    numbers per node. Only the time and position columns are parsed.
    """
    with open(path, newline="") as fh:
        first = fh.readline()
        columns = fh.readline().strip().split(",")
        rows = fh.read().split()
    if not first.startswith("#"):
        raise ValueError(f"{path.name}: missing '#' header line")
    header = dict(part.split("=", 1) for part in first[1:].split())
    n_bodies, dim = int(header["bodies"]), int(header["dim"])
    width = 1 + n_bodies * dim
    expected = ["t"] + [f"x{i + 1}_{k + 1}" for i in range(n_bodies) for k in range(dim)]
    if columns[:width] != expected:
        raise ValueError(f"{path.name}: unexpected columns {columns[:width]}")
    if any(row.count(",") != len(columns) - 1 for row in rows):
        raise ValueError(f"{path.name}: a row does not have {len(columns)} fields")
    table = np.array([float(v) for row in rows for v in row.split(",", width)[:width]])
    table = table.reshape(len(rows), width)
    return table[:, 0], table[:, 1:].reshape(len(rows), n_bodies, dim)


def pair_potential(nodes: np.ndarray, masses: np.ndarray, alpha: float) -> np.ndarray:
    """U = sum_{i<j} m_i m_j / |x_i - x_j|^alpha at every node of an (M+1, N, n) array."""
    u = np.zeros(nodes.shape[0])
    n_bodies = nodes.shape[1]
    for i in range(n_bodies):
        for j in range(i + 1, n_bodies):
            r = np.sqrt(np.sum((nodes[:, i] - nodes[:, j]) ** 2, axis=1))
            u += masses[i] * masses[j] * r ** -alpha
    return u


def discrete_action(times: np.ndarray, nodes: np.ndarray, masses, alpha, energy) -> float:
    """sum_k ||d_k||^2 / dt + dt * trapezoid(U) + E * T on a uniform grid."""
    total_time = float(times[-1])
    dt = total_time / (len(times) - 1)
    d = np.diff(nodes, axis=0)
    kinetic = 0.5 * float(np.sum(masses[None, :, None] * d * d)) / dt
    u = pair_potential(nodes, masses, alpha)
    potential = dt * (0.5 * u[0] + float(u[1:-1].sum()) + 0.5 * u[-1])
    return float(kinetic + potential + energy * total_time)


def check_path(
    csv_path: Path,
    reported_action: float,
    start: np.ndarray,
    end: np.ndarray,
    masses: np.ndarray,
    alpha: float,
    energy: float,
    endpoint_rtol: float = 0.0,
) -> tuple[list[str], tuple[np.ndarray, np.ndarray] | None]:
    """Check one written path against the action its report claims.

    The path must start at ``start`` and end at ``end`` (to ``endpoint_rtol``
    relative to the configuration's size; 0 means bit-equal), its recomputed
    action must match ``reported_action`` to ACTION_RTOL, and that action must
    be at least 2 sqrt(E) ||start - end||. Returns the problems found and the
    parsed (times, nodes), or None when the file could not be read.
    """
    name = csv_path.name
    try:
        times, nodes = read_path_csv(csv_path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{name}: unreadable ({exc})"], None
    if nodes.shape[1:] != start.shape or nodes.shape[0] < 2:
        return [f"{name}: node array shape {nodes.shape} does not fit {start.shape}"], None
    problems = []
    for label, got, want in (("start", nodes[0], start), ("end", nodes[-1], end)):
        scale = endpoint_rtol * (1.0 + float(np.abs(want).max()))
        if float(np.abs(got - want).max()) > scale:
            problems.append(f"{name}: {label} node differs from the requested configuration")
    value = discrete_action(times, nodes, masses, alpha, energy)
    if not abs(value - reported_action) <= ACTION_RTOL * abs(value):
        problems.append(
            f"{name}: recomputed action {value!r} vs reported {reported_action!r}"
        )
    floor = 2.0 * math.sqrt(energy) * weighted_norm(start - end, masses)
    if not value >= floor:
        problems.append(f"{name}: action {value!r} below 2 sqrt(E)||x - y|| = {floor!r}")
    return problems, (times, nodes)


def report_fields(text: str) -> dict[str, str]:
    """'key = value' lines of a text report, keys stripped."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def digest(paths: list[Path]) -> str:
    """sha256 over the bytes of the given files, in order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()
