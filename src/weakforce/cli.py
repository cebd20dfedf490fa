"""Command-line interface.

Subcommands: simulate, minimize, phi, metric-suite, hyperbolic,
validate-geometry. Options come from flags, optionally seeded by a flat
"key = value" config file (flags win). The output directory may also be
set through the WEAKFORCE_OUTPUT_DIR environment variable; no other
environment variable is consulted.

Exit codes: 0 success, 1 a run that finished but failed its goal
(non-convergence, inequality violations, early halt), 2 invalid input or
configuration.
"""

from __future__ import annotations

import argparse
# argparse's gettext loads locale; load it here, not in the first parse
import locale  # noqa: F401
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .action import SolverSettings, minimize_fixed_time, minimize_free_time
from .configspace import normalize_to_sphere, weighted_norm
from .dynamics import (
    CollisionError,
    IntegrationError,
    PhasePoint,
    PotentialParams,
    ToleranceSettings,
    Trajectory,
    integrate,
)
from .fileio import (
    format_float,
    parse_inline_configuration,
    read_configuration_csv,
    write_text,
    write_trajectory_csv,
)
from .hyperbolic import asymptotic_report, construct, render_asymptotics
from .metric import MetricSuiteConfig, render_metric_report, run_metric_suite
from .presets import circular_two_body, shape_preset
from .seeding import substream
from .validators import SuiteConfig, render_geometry_report, run_all_suites

_CONFIG_KEYS = {
    "alpha": float,
    "energy": float,
    "seed": int,
    "n_segments": int,
    "restarts": int,
    "grad_tol": float,
    "energy_tol": float,
    "time_floor": float,
    "rtol": float,
    "atol": float,
    "output_dir": str,
    "masses": "floats",
}


def parse_config_text(text: str) -> dict:
    """Parse a flat "key = value" config; commas separate array entries.

    Raises:
        ValueError: With the offending line number on any malformed line or
            unknown key.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected KEY = VALUE, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        kind = _CONFIG_KEYS[key]
        try:
            if kind == "floats":
                out[key] = tuple(float(v) for v in value.split(","))
            elif kind is str:
                out[key] = value
            else:
                out[key] = kind(value)
        except ValueError:
            raise ValueError(
                f"config line {lineno}: cannot parse {value!r} for key {key!r}"
            ) from None
    return out


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ValueError(f"config file not found: {path}")
    return parse_config_text(p.read_text())


def _setting(args, config: dict, name: str, fallback):
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in config:
        return config[name]
    return fallback


def _output_dir(args, config: dict) -> Path:
    directory = getattr(args, "output_dir", None)
    if directory is None:
        directory = os.environ.get("WEAKFORCE_OUTPUT_DIR")
    if directory is None:
        directory = config.get("output_dir", ".")
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_masses(text) -> tuple[float, ...]:
    if isinstance(text, tuple):
        return text
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError:
        raise ValueError(f"cannot parse masses from {text!r}") from None


def _load_endpoint(text: str) -> np.ndarray:
    """Inline "a,b;c,d" when a semicolon is present, else a CSV path."""
    if ";" in text:
        return parse_inline_configuration(text)
    return read_configuration_csv(text)


def _path_as_trajectory(result, params: PotentialParams) -> Trajectory:
    """Repackage a minimizer path as a trajectory with FD velocities."""
    path = result.path
    nodes = path.nodes
    dt = path.dt
    v = np.empty_like(nodes)
    v[1:-1] = (nodes[2:] - nodes[:-2]) / (2.0 * dt)
    v[0] = (nodes[1] - nodes[0]) / dt
    v[-1] = (nodes[-1] - nodes[-2]) / dt
    return Trajectory.from_samples(path.times, nodes, v, params)


def _minimize_report_text(result, energy: float, params: PotentialParams) -> str:
    act = result.action
    lines = [
        "minimization report",
        f"status = {result.status}",
        f"converged = {result.converged}",
        f"action value = {format_float(act.value)}",
        f"  kinetic = {format_float(act.kinetic)}",
        f"  potential = {format_float(act.potential)}",
        f"  energy term = {format_float(act.energy_term)}",
        f"duration = {format_float(result.path.total_time)}",
        f"gradient norm = {format_float(result.grad_norm)}",
        f"iterations = {result.iterations}",
        f"equation-of-motion residual = {format_float(result.el_residual)}",
        f"dA/dT = {format_float(result.dA_dT)}",
        f"min pair separation along path = {format_float(result.min_sep)}",
        f"interior energy range = [{format_float(float(result.energy_profile.min()))}, "
        f"{format_float(float(result.energy_profile.max()))}] (target {format_float(energy)})",
        f"degenerate endpoints = {result.degenerate}",
        f"segments = {result.path.n_segments}",
    ]
    if result.coarse_value is not None:
        lines.append(f"coarse action value = {format_float(result.coarse_value)}")
    return "\n".join(lines) + "\n"


def _solver_settings(args, config: dict) -> SolverSettings:
    kwargs = {}
    for name in ("grad_tol", "energy_tol", "time_floor"):
        value = _setting(args, config, name, None)
        if value is not None:
            kwargs[name] = value
    return SolverSettings(**kwargs)


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    out = _output_dir(args, config)
    alpha = _setting(args, config, "alpha", 0.5)
    masses = _parse_masses(_setting(args, config, "masses", (1.0, 1.0)))

    if args.initial is not None:
        if args.velocities is None:
            raise ValueError("--initial needs --velocities")
        x0 = _load_endpoint(args.initial)
        v0 = _load_endpoint(args.velocities)
        if len(masses) != x0.shape[0]:
            raise ValueError(f"got {len(masses)} masses for {x0.shape[0]} bodies")
        params = PotentialParams(alpha, np.asarray(masses))
        state = PhasePoint(x0, v0)
        t_end = args.t_end if args.t_end is not None else 10.0
    else:
        if len(masses) != 2:
            raise ValueError("the circular preset needs exactly two masses")
        state, params, period = circular_two_body(
            alpha=alpha,
            masses=(masses[0], masses[1]),
            separation=args.separation,
            speed_factor=args.speed_factor,
        )
        t_end = args.t_end if args.t_end is not None else period

    settings = ToleranceSettings(
        rtol=_setting(args, config, "rtol", 1e-10),
        atol=_setting(args, config, "atol", 1e-12),
    )
    t_eval = np.linspace(0.0, t_end, args.samples) if args.samples else None
    traj = integrate(state, t_end, params, settings, t_eval=t_eval)
    dest = out / "trajectory.csv"
    write_trajectory_csv(dest, traj, params)
    print(f"wrote {dest}")
    print(f"final time = {format_float(float(traj.times[-1]))}")
    print(f"max energy drift = {format_float(float(traj.energy_drift.max()))}")
    print(f"max momentum drift = {format_float(float(traj.momentum_drift.max()))}")
    print(f"halted = {traj.halted}")
    if traj.halted:
        print(f"halt reason: {traj.halt_reason}")
        return 1
    return 0


def _cmd_minimize(args, free_time: bool | None = None) -> int:
    config = _load_config(args.config)
    out = _output_dir(args, config)
    alpha = _setting(args, config, "alpha", 0.5)
    energy = _setting(args, config, "energy", 1.0)
    seed = _setting(args, config, "seed", 0)
    n_segments = _setting(args, config, "n_segments", 200)
    restarts = _setting(args, config, "restarts", 1)

    x = _load_endpoint(args.start)
    y = _load_endpoint(args.end)
    masses = _setting(args, config, "masses", None)
    if masses is None:
        masses = (1.0,) * x.shape[0]
    params = PotentialParams(alpha, np.asarray(_parse_masses(masses)))
    settings = _solver_settings(args, config)
    rng = substream(seed, "cli-minimize")

    use_free = free_time if free_time is not None else (args.fixed_time is None)
    if use_free:
        result = minimize_free_time(
            x, y, energy, params,
            n_segments=n_segments, settings=settings, restarts=restarts, rng=rng,
        )
    else:
        result = minimize_fixed_time(
            x, y, args.fixed_time, energy, params,
            n_segments=n_segments, settings=settings,
        )

    report = _minimize_report_text(result, energy, params)
    name = "phi" if free_time else "minimize"
    write_text(out / f"{name}_report.txt", report)
    write_trajectory_csv(out / f"{name}_path.csv", _path_as_trajectory(result, params), params)
    if free_time:
        print(f"phi estimate (upper bound) = {format_float(result.value)}")
        print(f"optimal duration = {format_float(result.path.total_time)}")
    sys.stdout.write(report)
    return 0 if result.converged else 1


def _cmd_phi(args) -> int:
    return _cmd_minimize(args, free_time=True)


def _cmd_metric_suite(args) -> int:
    config = _load_config(args.config)
    out = _output_dir(args, config)
    masses = _setting(args, config, "masses", None)
    cfg = MetricSuiteConfig(
        seed=_setting(args, config, "seed", 0),
        n_pairs=args.pairs,
        n_triples=args.triples,
        n_bodies=args.bodies,
        dim=args.dim,
        alpha=_setting(args, config, "alpha", 0.5),
        energy=_setting(args, config, "energy", 1.0),
        masses=_parse_masses(masses) if masses is not None else None,
        n_segments=_setting(args, config, "n_segments", 200),
        restarts=_setting(args, config, "restarts", 1),
    )
    report = run_metric_suite(cfg)
    text = render_metric_report(report)
    write_text(out / "metric_report.txt", text)
    sys.stdout.write(text)
    return 0 if report.ok else 1


def _cmd_hyperbolic(args) -> int:
    config = _load_config(args.config)
    out = _output_dir(args, config)
    alpha = _setting(args, config, "alpha", 0.5)
    energy = _setting(args, config, "energy", 1.0)
    seed = _setting(args, config, "seed", 0)
    # chains need a finer grid than the minimize default to hold the
    # interior-node energy inside tolerance near the start
    n_segments = _setting(args, config, "n_segments", 1600)
    restarts = _setting(args, config, "restarts", 1)

    masses = _setting(args, config, "masses", None)
    if args.shape_file is not None:
        shape_raw = _load_endpoint(args.shape_file)
        if masses is None:
            masses = (1.0,) * shape_raw.shape[0]
        params = PotentialParams(alpha, np.asarray(_parse_masses(masses)))
        shape = normalize_to_sphere(shape_raw, params.masses)
    else:
        if masses is None:
            n_for = {"antipodal": 2, "triangle": 3, "collinear": 3}[args.shape]
            masses = (1.0,) * n_for
        params = PotentialParams(alpha, np.asarray(_parse_masses(masses)))
        shape = shape_preset(args.shape, params.masses)

    x0 = _load_endpoint(args.start) if args.start is not None else 2.0 * shape
    settings = _solver_settings(args, config)
    run = construct(
        x0, shape, energy, params,
        n_legs=args.legs, ratio=args.ratio, base_factor=args.base_factor,
        n_segments=n_segments, settings=settings, restarts=restarts,
        rng=substream(seed, "cli-hyperbolic"),
    )
    report = asymptotic_report(run)
    text = render_asymptotics(report)
    write_text(out / "asymptotics.txt", text)
    for k, leg in enumerate(run.legs):
        write_trajectory_csv(out / f"leg_{k}.csv", _path_as_trajectory(leg, params), params)
    sys.stdout.write(text)
    return 0 if run.completed else 1


def _cmd_validate_geometry(args) -> int:
    config = _load_config(args.config)
    out = _output_dir(args, config)
    cfg = SuiteConfig(
        seed=_setting(args, config, "seed", 0),
        samples=args.samples,
        body_counts=tuple(int(v) for v in args.bodies.split(",")),
        dims=tuple(int(v) for v in args.dims.split(",")),
    )
    reports = run_all_suites(cfg)
    text = render_geometry_report(reports, cfg)
    write_text(out / "geometry_report.txt", text)
    sys.stdout.write(text)
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakforce",
        description="N-body toolkit for weak-force potentials 1/r^alpha, 0 < alpha < 1",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat KEY = VALUE config file")
        p.add_argument("--output-dir", help="where files are written (or WEAKFORCE_OUTPUT_DIR)")
        p.add_argument("--seed", type=int, help="run seed")
        p.add_argument("--alpha", type=float, help="force exponent in (0, 1)")
        p.add_argument("--energy", type=float, help="energy level E > 0")
        p.add_argument("--masses", help="comma-separated masses")

    p = sub.add_parser("simulate", help="integrate the equations of motion")
    common(p)
    p.add_argument("--initial", help="positions: inline a,b;c,d or a configuration CSV")
    p.add_argument("--velocities", help="velocities, same formats")
    p.add_argument("--separation", type=float, default=1.0, help="circular preset separation")
    p.add_argument(
        "--speed-factor", type=float, default=1.0,
        help="tangential speed vs circular (preset only)",
    )
    p.add_argument("--t-end", type=float, help="final time (default: one circular period)")
    p.add_argument("--samples", type=int, help="fixed number of output samples")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("minimize", help="fixed- or free-time action minimization")
    common(p)
    p.add_argument("--start", required=True, help="start configuration (inline or CSV)")
    p.add_argument("--end", required=True, help="end configuration (inline or CSV)")
    p.add_argument("--fixed-time", type=float, help="hold the duration fixed at T")
    p.add_argument("--segments", dest="n_segments", type=int, help="path segments")
    p.add_argument("--restarts", type=int, help="independent starts")
    p.add_argument("--grad-tol", dest="grad_tol", type=float)
    p.add_argument("--energy-tol", dest="energy_tol", type=float)
    p.add_argument("--time-floor", dest="time_floor", type=float)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("phi", help="estimate the minimal-action distance phi_E(x, y)")
    common(p)
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--segments", dest="n_segments", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--grad-tol", dest="grad_tol", type=float)
    p.add_argument("--energy-tol", dest="energy_tol", type=float)
    p.add_argument("--time-floor", dest="time_floor", type=float)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("metric-suite", help="randomized metric property checks")
    common(p)
    p.add_argument("--pairs", type=int, default=6)
    p.add_argument("--triples", type=int, default=3)
    p.add_argument("--bodies", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--segments", dest="n_segments", type=int)
    p.add_argument("--restarts", type=int)
    p.set_defaults(func=_cmd_metric_suite)

    p = sub.add_parser("hyperbolic", help="build an approximate hyperbolic motion")
    common(p)
    p.add_argument(
        "--shape", default="triangle", choices=["antipodal", "triangle", "collinear"],
        help="limit-shape preset",
    )
    p.add_argument("--shape-file", help="explicit shape (inline or CSV); normalized")
    p.add_argument("--start", help="start configuration (default: 2 * shape)")
    p.add_argument("--legs", type=int, default=5)
    p.add_argument("--ratio", type=float, default=2.0)
    p.add_argument("--base-factor", type=float, default=70.0)
    p.add_argument("--segments", dest="n_segments", type=int)
    p.add_argument("--restarts", type=int)
    p.set_defaults(func=_cmd_hyperbolic)

    p = sub.add_parser("validate-geometry", help="randomized inequality suites")
    common(p)
    p.add_argument("--samples", type=int, default=200, help="samples per (bodies, dim) cell")
    p.add_argument("--bodies", default="2,3,5", help="comma-separated body counts")
    p.add_argument("--dims", default="2,3", help="comma-separated dimensions")
    p.set_defaults(func=_cmd_validate_geometry)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CollisionError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
