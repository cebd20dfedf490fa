"""CSV and report serialization.

All numbers are written with repr (shortest round-trip text), so identical
inputs produce byte-identical files; nothing here writes timestamps or
machine-specific data. Trajectory files carry a comment header with the
problem parameters and one column per body coordinate, configuration files
a single flat row.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .configspace import as_configuration
from .dynamics import PotentialParams, Trajectory

__all__ = [
    "format_float",
    "write_configuration_csv",
    "read_configuration_csv",
    "parse_inline_configuration",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_text",
]


# Trajectory rows formatted per write; a fixed size keeps memory flat on
# long paths.
_CSV_BLOCK_ROWS = 2048


def format_float(value: float) -> str:
    """Shortest exact decimal text for a float."""
    return repr(float(value))


def _position_columns(n_bodies: int, dim: int) -> list[str]:
    return [f"x{i + 1}_{k + 1}" for i in range(n_bodies) for k in range(dim)]


def _velocity_columns(n_bodies: int, dim: int) -> list[str]:
    return [f"v{i + 1}_{k + 1}" for i in range(n_bodies) for k in range(dim)]


def write_configuration_csv(path: str | Path, x: np.ndarray) -> None:
    """Write one configuration as a flat row-major CSV row."""
    x = as_configuration(x)
    n_bodies, dim = x.shape
    with open(path, "w", newline="") as fh:
        fh.write(f"# bodies={n_bodies} dim={dim}\n")
        writer = csv.writer(fh)
        writer.writerow(_position_columns(n_bodies, dim))
        writer.writerow([format_float(v) for v in x.ravel()])


def read_configuration_csv(path: str | Path) -> np.ndarray:
    """Read a configuration written by :func:`write_configuration_csv`."""
    header = None
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                header = line
                continue
            rows.append(line)
    if header is None or len(rows) < 2:
        raise ValueError(f"{path}: not a configuration file (missing header or rows)")
    meta = dict(part.split("=") for part in header[1:].split())
    n_bodies, dim = int(meta["bodies"]), int(meta["dim"])
    values = [float(v) for v in rows[1].split(",")]
    if len(values) != n_bodies * dim:
        raise ValueError(
            f"{path}: expected {n_bodies * dim} values for {n_bodies} bodies in "
            f"dimension {dim}, got {len(values)}"
        )
    return np.asarray(values).reshape(n_bodies, dim)


def parse_inline_configuration(text: str) -> np.ndarray:
    """Parse "x11,x12;x21,x22;..." into an (N, n) configuration.

    Raises:
        ValueError: On ragged rows or unparseable numbers.
    """
    rows = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            rows.append([float(v) for v in part.split(",")])
        except ValueError as exc:
            raise ValueError(f"bad configuration row {part!r}: {exc}") from None
    if not rows:
        raise ValueError("empty configuration text")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"configuration rows have mixed lengths {sorted(widths)}")
    return as_configuration(np.asarray(rows))


def write_trajectory_csv(path: str | Path, traj: Trajectory, params: PotentialParams) -> None:
    """Write a sampled trajectory with a parameter comment header.

    Columns: t, positions x{i}_{k}, velocities v{i}_{k} (1-based indices),
    then the conservation diagnostics.
    """
    n_samples, n_bodies, dim = traj.positions.shape
    mass_text = ",".join(format_float(m) for m in params.masses)
    header = (
        ["t"]
        + _position_columns(n_bodies, dim)
        + _velocity_columns(n_bodies, dim)
        + ["energy", "energy_drift", "momentum_drift", "angular_momentum_drift"]
    )
    columns = (
        traj.times,
        traj.positions.reshape(n_samples, n_bodies * dim),
        traj.velocities.reshape(n_samples, n_bodies * dim),
        traj.energy,
        traj.energy_drift,
        traj.momentum_drift,
        traj.angular_momentum_drift,
    )
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# bodies={n_bodies} dim={dim} alpha={format_float(params.alpha)} "
            f"masses={mass_text}\n"
        )
        # The rows csv.writer would emit: repr needs no quoting, and its
        # line ends are \r\n. Blocks bound the memory of the text rows.
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_samples, _CSV_BLOCK_ROWS):
            block = np.column_stack(
                [np.asarray(c[start : start + _CSV_BLOCK_ROWS], dtype=float) for c in columns]
            )
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in block.tolist()))


def read_trajectory_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Read (times, positions, velocities, meta) from a trajectory file."""
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if not first.startswith("#"):
            raise ValueError(f"{path}: missing parameter header")
        meta_parts = dict(part.split("=", 1) for part in first[1:].split())
        meta = {
            "bodies": int(meta_parts["bodies"]),
            "dim": int(meta_parts["dim"]),
            "alpha": float(meta_parts["alpha"]),
            "masses": np.asarray([float(v) for v in meta_parts["masses"].split(",")]),
        }
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    n_bodies, dim = meta["bodies"], meta["dim"]
    data = np.asarray(rows)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: column count mismatch")
    times = data[:, 0]
    size = n_bodies * dim
    positions = data[:, 1 : 1 + size].reshape(-1, n_bodies, dim)
    velocities = data[:, 1 + size : 1 + 2 * size].reshape(-1, n_bodies, dim)
    return times, positions, velocities, meta


def write_text(path: str | Path, text: str) -> None:
    """Write a report with a trailing newline guaranteed."""
    if not text.endswith("\n"):
        text += "\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)
