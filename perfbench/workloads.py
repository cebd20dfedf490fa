"""The four benchmark workloads: their CLI calls and how their outputs are counted.

Each workload turns (seed, item) into a list of CLI calls, and after the
calls ran, turns the files they wrote into an Outcome: how many operations
were attempted, how many failed, and any independent-check problems (an
output that is wrong, as opposed to an operation that honestly failed).
Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Call:
    argv: list[str]
    outdir: Path
    inputs: dict = field(default_factory=dict)


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str]
    reports: list[Path]


@dataclass(frozen=True)
class Workload:
    name: str
    # distinct input draws per untraced run, executed in turn until the time
    # is up; each seed gives other draws, so a run spans several of them
    items: int
    make_calls: Callable[[int, bool, Path], list[Call]]
    account: Callable[[list[Call], list[int]], Outcome]


def item_seed(name: str, seed: int, item: int) -> int:
    """A CLI seed for draw ``item`` of a run seeded with ``seed``."""
    h = hashlib.sha256(f"{name}/{seed}/{item}".encode()).digest()
    return int.from_bytes(h[:4], "little") >> 1


def _fmt_config(x: np.ndarray) -> str:
    return ";".join(",".join(repr(float(v)) for v in row) for row in x)


def _fmt_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def _int_after(pattern: str, text: str) -> int | None:
    m = re.search(pattern, text, flags=re.MULTILINE)
    return int(m.group(1)) if m else None


# ---------------------------------------------------------------- metric_suite

METRIC_SIZES = {False: (12, 6), True: (1, 1)}


def metric_calls(cli_seed: int, tiny: bool, outdir: Path) -> list[Call]:
    pairs, triples = METRIC_SIZES[tiny]
    argv = ["metric-suite", "--pairs", str(pairs), "--triples", str(triples),
            "--seed", str(cli_seed), "--output-dir", str(outdir)]
    if tiny:
        argv += ["--segments", "40"]
    return [Call(argv, outdir, {"pairs": pairs, "triples": triples})]


def metric_account(calls: list[Call], rcs: list[int]) -> Outcome:
    call = calls[0]
    pairs, triples = call.inputs["pairs"], call.inputs["triples"]
    expected = 3 * pairs + triples
    report = call.outdir / "metric_report.txt"
    text = _read(report)
    if text is None:
        return Outcome(expected, expected, [f"metric_report.txt missing (exit {rcs[0]})"], [])
    counts = {
        "symmetry": _int_after(r"^symmetry checks: (\d+)", text),
        "bounds": _int_after(r"^lower-bound checks: (\d+)", text),
        "monotonicity": _int_after(r"^monotonicity checks: (\d+)", text),
        "triangle": _int_after(r"^triangle checks: (\d+)", text),
    }
    want = {"symmetry": pairs, "bounds": pairs, "monotonicity": pairs, "triangle": triples}
    problems = [f"metric report lists {counts[k]} {k} checks, expected {want[k]}"
                for k in want if counts[k] != want[k]]
    violations = _int_after(r"^violations: (\d+)", text)
    replays = len(re.findall(r"^  replay: ", text, flags=re.MULTILINE))
    if violations != replays:
        problems.append(f"metric report: violations = {violations} but {replays} replay keys")
    passed = "\nstatus: PASS" in text
    if passed != (replays == 0) or passed != (rcs[0] == 0):
        problems.append(f"metric report status disagrees with its violations / exit {rcs[0]}")
    return Outcome(expected, min(replays, expected), problems, [report])


# -------------------------------------------------------------------- geometry

GEOMETRY_SAMPLES = {False: 2000, True: 10}
GEOMETRY_CELLS = 6  # CLI default body counts (2, 3, 5) x dims (2, 3)


def geometry_calls(cli_seed: int, tiny: bool, outdir: Path) -> list[Call]:
    samples = GEOMETRY_SAMPLES[tiny]
    argv = ["validate-geometry", "--samples", str(samples), "--seed", str(cli_seed),
            "--output-dir", str(outdir)]
    return [Call(argv, outdir, {"samples": samples})]


def geometry_account(calls: list[Call], rcs: list[int]) -> Outcome:
    call = calls[0]
    samples = call.inputs["samples"]
    per_family = samples * GEOMETRY_CELLS
    # perturbation draws add a unit-projected check on every other sample
    expected = {
        "norm-bounds": per_family,
        "ray-estimates": per_family,
        "perturbation-estimates": per_family + math.ceil(samples / 2) * GEOMETRY_CELLS,
    }
    total = sum(expected.values())
    report = call.outdir / "geometry_report.txt"
    text = _read(report)
    if text is None:
        return Outcome(total, total, [f"geometry_report.txt missing (exit {rcs[0]})"], [])
    problems = []
    checked = violations = 0
    for name, want in expected.items():
        block = re.search(
            rf"^\[{name}\]\n  checked = (\d+)  skipped = (\d+)\n  violations = (\d+)",
            text, flags=re.MULTILINE,
        )
        if block is None:
            problems.append(f"geometry report has no [{name}] block")
            continue
        c, s, v = (int(g) for g in block.groups())
        if c + s != want:
            problems.append(f"[{name}]: checked + skipped = {c + s}, expected {want}")
        checked += c
        violations += v
    passed = "\nstatus: PASS" in text
    if passed != (violations == 0) or passed != (rcs[0] == 0):
        problems.append(f"geometry report status disagrees with its violations / exit {rcs[0]}")
    return Outcome(max(checked, 1), min(violations, max(checked, 1)), problems, [report])


# ------------------------------------------------------------ hyperbolic_chain

HYPERBOLIC_MASSES = (1.0, 1.3, 1.8)
HYPERBOLIC_ALPHA = 0.6
HYPERBOLIC_ENERGY = 2.0
HYPERBOLIC_LEGS = {False: 5, True: 2}
# CLI defaults the report is checked against: start 2a, radii 70(1+||x0||)/r(a) * 2^k
HYPERBOLIC_BASE_FACTOR = 70.0
HYPERBOLIC_RATIO = 2.0
SPEED_RTOL = 0.02
TREND_PAD = 1e-9
# acos near 1 in the report can be off by ~1e-8
ANGLE_ATOL = 1e-6
GAP_GRID = 257


def hyperbolic_calls(cli_seed: int, tiny: bool, outdir: Path) -> list[Call]:
    # the chain's input is fixed; cli_seed is unused on purpose
    legs = HYPERBOLIC_LEGS[tiny]
    argv = ["hyperbolic", "--shape", "triangle", "--masses", _fmt_list(HYPERBOLIC_MASSES),
            "--alpha", repr(HYPERBOLIC_ALPHA), "--energy", repr(HYPERBOLIC_ENERGY),
            "--output-dir", str(outdir)]
    if tiny:
        argv += ["--legs", str(legs), "--segments", "400"]
    return [Call(argv, outdir, {"legs": legs})]


def _triangle_shape(masses: np.ndarray) -> np.ndarray:
    x = np.array([[1.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0], [-0.5, -math.sqrt(3.0) / 2.0]])
    return x / checks.weighted_norm(x, masses)


def _min_gap(x: np.ndarray) -> float:
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
    return float(d[np.triu_indices(len(x), 1)].min())


def _parse_asymptotics(text: str) -> dict:
    rows = []
    table = re.search(r"^leg  radius .*\n((?:\d+  .*\n)*)", text, flags=re.MULTILINE)
    if table:
        for line in table.group(1).splitlines():
            rows.append([float(v) for v in line.split()[1:]])
    gaps = [float(g) for g in re.findall(r"^  gap\[\d+\] = (\S+)$", text, flags=re.MULTILINE)]
    speed = re.search(r"^terminal speed = (\S+)$", text, flags=re.MULTILINE)
    return {
        "rows": rows,  # radius, duration, action, angle, mean speed, terminal speed, min sep
        "gaps": gaps,
        "terminal_speed": float(speed.group(1)) if speed else None,
        "completed": "completed = True" in text,
    }


def _sample(times: np.ndarray, nodes: np.ndarray, grid: np.ndarray) -> np.ndarray:
    flat = nodes.reshape(len(times), -1)
    cols = [np.interp(grid, times, flat[:, c]) for c in range(flat.shape[1])]
    return np.stack(cols, axis=1).reshape((len(grid),) + nodes.shape[1:])


def hyperbolic_account(calls: list[Call], rcs: list[int]) -> Outcome:
    call = calls[0]
    n_legs = call.inputs["legs"]
    attempted = n_legs + 3
    report = call.outdir / "asymptotics.txt"
    text = _read(report)
    if text is None:
        return Outcome(attempted, attempted, [f"asymptotics.txt missing (exit {rcs[0]})"], [])
    rep = _parse_asymptotics(text)
    problems = []
    failed = 0
    masses = checks.normalized_masses(HYPERBOLIC_MASSES)
    shape = _triangle_shape(masses)
    x0 = 2.0 * shape
    r1 = HYPERBOLIC_BASE_FACTOR * (1.0 + checks.weighted_norm(x0, masses)) / _min_gap(shape)
    paths = []
    for k in range(n_legs):
        if k >= len(rep["rows"]):
            failed += 1
            continue
        radius, _, action, *_ = rep["rows"][k]
        want_radius = r1 * HYPERBOLIC_RATIO**k
        if abs(radius - want_radius) > 1e-12 * want_radius:
            problems.append(f"leg {k}: radius {radius!r}, expected {want_radius!r}")
        csv_path = call.outdir / f"leg_{k}.csv"
        leg_problems, path = checks.check_path(
            csv_path, action, x0, want_radius * shape, masses,
            HYPERBOLIC_ALPHA, HYPERBOLIC_ENERGY, endpoint_rtol=1e-12,
        )
        problems += leg_problems
        last = k == len(rep["rows"]) - 1
        if leg_problems or (last and not rep["completed"]):
            failed += 1
        if path is not None:
            paths.append(path)
    if len(paths) != len(rep["rows"]):
        return Outcome(attempted, attempted, problems, [report])

    # asymptotics, recomputed from the legs themselves; the angle between
    # unit configurations u and a is 2 asin(||u - a|| / 2), well conditioned
    # near 0 where acos of the inner product is not
    angles = []
    for times, nodes in paths:
        unit = nodes[-1] / checks.weighted_norm(nodes[-1], masses)
        angles.append(2.0 * math.asin(min(1.0, 0.5 * checks.weighted_norm(unit - shape, masses))))
    angle_ok = all(b <= a + TREND_PAD for a, b in zip(angles, angles[1:]))
    gaps = []
    if len(paths) > 1:
        grid = np.linspace(0.0, 0.9 * paths[0][0][-1], GAP_GRID)
        for (ta, na), (tb, nb) in zip(paths[:-1], paths[1:]):
            diff = _sample(ta, na, grid) - _sample(tb, nb, grid)
            gaps.append(float(np.sqrt(0.5 * np.einsum("i,tik,tik->t", masses, diff, diff)).max()))
    gap_ok = all(b <= a + TREND_PAD for a, b in zip(gaps, gaps[1:]))
    times, nodes = paths[-1]
    dt = times[-1] / (len(times) - 1)
    speed = checks.weighted_norm((nodes[-1] - nodes[-2]) / dt, masses)
    sqrt_e = math.sqrt(HYPERBOLIC_ENERGY)

    reported_angles = [row[3] for row in rep["rows"]]
    if any(abs(a - b) > ANGLE_ATOL for a, b in zip(angles, reported_angles)):
        problems.append(f"terminal angles reported {reported_angles}, recomputed {angles}")
    if len(gaps) != len(rep["gaps"]) or any(
        abs(a - b) > 1e-9 * abs(a) + 1e-12 for a, b in zip(gaps, rep["gaps"])
    ):
        problems.append(f"early-window gaps reported {rep['gaps']}, recomputed {gaps}")
    if rep["terminal_speed"] is None or abs(speed - rep["terminal_speed"]) > 1e-9 * speed:
        problems.append(f"terminal speed reported {rep['terminal_speed']}, recomputed {speed!r}")
    failed += (not angle_ok) + (not gap_ok) + (abs(speed - sqrt_e) > SPEED_RTOL * sqrt_e)
    return Outcome(attempted, min(failed, attempted), problems, [report])


# ---------------------------------------------------------------- phi_manybody

PHI_SIZES = {False: (10, 10), True: (2, 4)}  # (calls, bodies)
PHI_ALPHA = 0.5
PHI_ENERGY = 1.0


def _cloud(rng: np.random.Generator, n_bodies: int, masses: np.ndarray, size: float):
    """Planar Gaussian cloud of weighted norm ``size`` with every body gap >= 1."""
    while True:
        g = rng.standard_normal((n_bodies, 2))
        x = g * (size / checks.weighted_norm(g, masses))
        if _min_gap(x) >= 1.0:
            return x


def phi_calls(cli_seed: int, tiny: bool, outdir: Path) -> list[Call]:
    n_calls, n_bodies = PHI_SIZES[tiny]
    rng = np.random.default_rng(cli_seed)
    calls = []
    for c in range(n_calls):
        masses = 10.0 ** rng.uniform(0.0, 0.5, n_bodies)
        norm_masses = checks.normalized_masses(masses)
        x = _cloud(rng, n_bodies, norm_masses, rng.uniform(6.0, 9.0))
        y = _cloud(rng, n_bodies, norm_masses, rng.uniform(6.0, 9.0))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        y = y + rng.uniform(6.0, 12.0) * np.array([math.cos(angle), math.sin(angle)])
        d = outdir / f"call{c}"
        argv = ["phi", f"--start={_fmt_config(x)}", f"--end={_fmt_config(y)}",
                "--masses", _fmt_list(masses), "--alpha", repr(PHI_ALPHA),
                "--energy", repr(PHI_ENERGY), "--output-dir", str(d)]
        if tiny:
            argv += ["--segments", "50"]
        calls.append(Call(argv, d, {"x": x, "y": y, "masses": norm_masses}))
    return calls


def phi_account(calls: list[Call], rcs: list[int]) -> Outcome:
    problems = []
    failed = 0
    reports = []
    for call, rc in zip(calls, rcs):
        report = call.outdir / "phi_report.txt"
        text = _read(report)
        if text is None:
            problems.append(f"{call.outdir.name}: phi_report.txt missing (exit {rc})")
            failed += 1
            continue
        reports.append(report)
        fields = checks.report_fields(text)
        try:
            value = float(fields["action value"])
        except (KeyError, ValueError):
            problems.append(f"{call.outdir.name}: no action value in phi_report.txt")
            failed += 1
            continue
        if (rc == 0) != (fields.get("status") == "converged"):
            problems.append(f"{call.outdir.name}: exit {rc} with status {fields.get('status')}")
        found, _ = checks.check_path(
            call.outdir / "phi_path.csv", value, call.inputs["x"], call.inputs["y"],
            call.inputs["masses"], PHI_ALPHA, PHI_ENERGY,
        )
        problems += [f"{call.outdir.name}/{p}" for p in found]
        failed += bool(found) or rc != 0
    return Outcome(len(calls), failed, problems, reports)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("metric_suite", 5, metric_calls, metric_account),
        Workload("hyperbolic_chain", 1, hyperbolic_calls, hyperbolic_account),
        Workload("phi_manybody", 3, phi_calls, phi_account),
        Workload("geometry", 3, geometry_calls, geometry_account),
    )
}
