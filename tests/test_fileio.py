import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import weakforce
from oracles import trajectory_csv_rows
from weakforce.dynamics import PhasePoint, PotentialParams, Trajectory, integrate
from weakforce.fileio import (
    _CSV_BLOCK_ROWS,
    format_float,
    parse_inline_configuration,
    read_configuration_csv,
    read_trajectory_csv,
    write_configuration_csv,
    write_text,
    write_trajectory_csv,
)
from weakforce.presets import circular_two_body


def test_format_float_round_trips():
    for v in (0.1, 1.0 / 3.0, 1e-17, -2.5e300, 0.0):
        assert float(format_float(v)) == v
    assert format_float(1.0) == "1.0"


def test_configuration_round_trip(tmp_path):
    x = np.array([[0.1, -2.0, 3.5], [1.0 / 3.0, 4.0, -5.25]])
    path = tmp_path / "config.csv"
    write_configuration_csv(path, x)
    back = read_configuration_csv(path)
    npt.assert_array_equal(back, x)


def test_configuration_write_is_deterministic(tmp_path):
    x = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_configuration_csv(p1, x)
    write_configuration_csv(p2, x)
    assert p1.read_bytes() == p2.read_bytes()


def test_configuration_read_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1_1,x1_2\n1.0,2.0\n")
    with pytest.raises(ValueError):
        read_configuration_csv(path)
    path.write_text("# bodies=2 dim=2\nx1_1,x1_2,x2_1,x2_2\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError):
        read_configuration_csv(path)


def test_parse_inline_configuration():
    x = parse_inline_configuration("1,2; 3,4 ;5,6")
    npt.assert_array_equal(x, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    x = parse_inline_configuration("1.5,-2e3;0,4e-2")
    npt.assert_array_equal(x, [[1.5, -2000.0], [0.0, 0.04]])


def test_parse_inline_rejects_bad_text():
    with pytest.raises(ValueError):
        parse_inline_configuration("")
    with pytest.raises(ValueError):
        parse_inline_configuration("1,2;3")
    with pytest.raises(ValueError):
        parse_inline_configuration("1,spam")
    # one row is not a many-body configuration
    with pytest.raises(ValueError):
        parse_inline_configuration("1.5,-2e3")


def test_trajectory_round_trip(tmp_path):
    state, params, period = circular_two_body()
    traj = integrate(state, period, params, t_eval=np.linspace(0.0, period, 17))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj, params)
    times, positions, velocities, meta = read_trajectory_csv(path)
    npt.assert_array_equal(times, traj.times)
    npt.assert_array_equal(positions, traj.positions)
    npt.assert_array_equal(velocities, traj.velocities)
    assert meta["bodies"] == 2 and meta["dim"] == 2
    assert meta["alpha"] == params.alpha
    npt.assert_array_equal(meta["masses"], params.masses)


def test_trajectory_header_line(tmp_path):
    state, params, period = circular_two_body()
    traj = integrate(state, 0.5, params, t_eval=np.array([0.0, 0.5]))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj, params)
    first = path.read_text().splitlines()[0]
    assert first.startswith("# bodies=2 dim=2 alpha=0.5 masses=")


def test_trajectory_read_rejects_missing_header(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,x1_1\n0.0,1.0\n")
    with pytest.raises(ValueError):
        read_trajectory_csv(path)


def test_write_text_newline_guarantee(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_text(a, "report")
    write_text(b, "report\n")
    assert a.read_bytes() == b.read_bytes() == b"report\n"


def test_trajectory_csv_bytes_match_csv_writer_reference(tmp_path):
    n = 2 * _CSV_BLOCK_ROWS + 5  # two full blocks and a short one
    rng = np.random.default_rng(5)
    pos = rng.normal(size=(n, 3, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, 3, 2))
    vel = rng.normal(size=(n, 3, 2))
    specials = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.0, 1e-7, 123456789.0]
    pos[0, :, :].flat[:6] = specials[:6]
    vel[1, :, :].flat[:6] = specials[3:]
    columns = [rng.normal(size=n) for _ in range(5)]
    for c in columns:
        c[: len(specials)] = specials
    traj = Trajectory(columns[0], pos, vel, *columns[1:])
    params = PotentialParams(0.6, np.array([1.0, 1.3, 1.8]))
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj, params)

    first, body = path.read_bytes().decode().split("\n", 1)
    assert first == "# bodies=3 dim=2 alpha=0.6 masses=1.0,1.3,1.8"
    header = (
        ["t"]
        + [f"x{i}_{k}" for i in (1, 2, 3) for k in (1, 2)]
        + [f"v{i}_{k}" for i in (1, 2, 3) for k in (1, 2)]
        + ["energy", "energy_drift", "momentum_drift", "angular_momentum_drift"]
    )
    rows = np.column_stack(
        [columns[0], pos.reshape(n, 6), vel.reshape(n, 6)] + columns[1:]
    )
    assert body == trajectory_csv_rows(header, rows)


def test_trajectory_csv_of_empty_trajectory(tmp_path):
    empty = np.zeros(0)
    traj = Trajectory(empty, np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), *[empty] * 4)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj, PotentialParams(0.5, np.array([1.0, 2.0])))
    assert path.read_bytes().decode().count("\r\n") == 1


def _fresh_python(probe):
    src = str(Path(weakforce.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_does_not_load_ode_solver():
    # no scipy module at all: only `simulate` needs one, and it imports it
    # lazily; and no numpy.ma, which only np.median would need
    probe = (
        "import sys, weakforce.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma'])"
    )
    assert _fresh_python(probe) == "[]"


_PAIR = ["--start=-1,0;1,0", "--end=-1,3;1,3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["validate-geometry", "--samples", "5", "--bodies", "2", "--dims", "2"],
        ["phi", *_PAIR, "--segments", "40"],
        ["minimize", *_PAIR, "--segments", "40"],
        ["metric-suite", "--pairs", "1", "--triples", "0", "--bodies", "2", "--segments", "40"],
        ["hyperbolic", "--shape", "antipodal", "--legs", "2", "--base-factor", "4.0",
         "--segments", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_call_loads_no_module(tmp_path, argv):
    # every module a subcommand needs is loaded by the import, so none
    # is loaded during the call, and numpy.ma is not loaded at all
    probe = (
        "import contextlib, io, sys, weakforce.cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = weakforce.cli.main({[*argv, '--output-dir', str(tmp_path)]!r})\n"
        "print(code, sorted(set(sys.modules) - before), 'numpy.ma' in sys.modules)"
    )
    assert _fresh_python(probe) == "0 [] False"
