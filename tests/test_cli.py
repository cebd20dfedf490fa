import numpy as np
import numpy.testing as npt
import pytest

from weakforce import __version__
from weakforce.cli import main, parse_config_text
from weakforce.fileio import read_trajectory_csv

PAIR_START = "-1,0;1,0"
PAIR_END = "-1,3;1,3"


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# parser plumbing


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# config files


def test_parse_config_text_values():
    cfg = parse_config_text(
        "# comment\n"
        "alpha = 0.7\n"
        "masses = 1, 2.5,3\n"
        "seed=4  # trailing comment\n"
        "output_dir = runs/a\n"
    )
    assert cfg == {
        "alpha": 0.7,
        "masses": (1.0, 2.5, 3.0),
        "seed": 4,
        "output_dir": "runs/a",
    }


def test_parse_config_text_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("volume = 11\n")


def test_parse_config_text_rejects_malformed_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("alpha = 0.5\nnonsense\n")
    with pytest.raises(ValueError, match="cannot parse"):
        parse_config_text("alpha = fast\n")


def test_thread_knob_is_gone():
    # BLAS reads its thread count once, when numpy loads; set
    # OPENBLAS_NUM_THREADS / OMP_NUM_THREADS before the process starts
    with pytest.raises(ValueError, match="line 2: unknown key 'threads'"):
        parse_config_text("alpha = 0.5\nthreads = 2\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("phi", "--threads", "2", f"--start={PAIR_START}", f"--end={PAIR_END}")
    assert exc.value.code == 2


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = run_cli(
        "simulate", "--config", str(tmp_path / "absent.cfg"),
        "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp = 9\n")
    code = run_cli("simulate", "--config", str(cfg), "--output-dir", str(tmp_path))
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_circular_preset(tmp_path, capsys):
    code = run_cli("simulate", "--output-dir", str(tmp_path), "--samples", "33")
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    drift_line = next(l for l in out.splitlines() if l.startswith("max energy drift"))
    assert float(drift_line.split("=")[1]) <= 1e-8
    times, positions, _, meta = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert times.shape == (33,)
    assert positions.shape == (33, 2, 2)
    assert meta["alpha"] == 0.5


def test_simulate_initial_needs_velocities(tmp_path, capsys):
    code = run_cli(
        "simulate", "--output-dir", str(tmp_path), f"--initial={PAIR_START}"
    )
    assert code == 2
    assert "--velocities" in capsys.readouterr().err


def test_simulate_explicit_state(tmp_path):
    code = run_cli(
        "simulate", "--output-dir", str(tmp_path),
        "--initial=-2,0;2,0", "--velocities=0,0.3;0,-0.3",
        "--t-end", "1.0", "--samples", "5",
    )
    assert code == 0
    times, positions, velocities, _ = read_trajectory_csv(tmp_path / "trajectory.csv")
    npt.assert_allclose(times[-1], 1.0)
    npt.assert_allclose(positions[0], [[-2.0, 0.0], [2.0, 0.0]])
    npt.assert_allclose(velocities[0], [[0.0, 0.3], [0.0, -0.3]])


def test_simulate_mass_count_mismatch(tmp_path, capsys):
    code = run_cli(
        "simulate", "--output-dir", str(tmp_path),
        "--initial=-2,0;2,0", "--velocities=0,0.3;0,-0.3",
        "--masses", "1,2,3",
    )
    assert code == 2
    assert "masses" in capsys.readouterr().err


def test_flag_beats_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.9\n")
    code = run_cli(
        "simulate", "--config", str(cfg), "--output-dir", str(tmp_path),
        "--alpha", "0.3", "--samples", "3", "--t-end", "0.5",
    )
    assert code == 0
    _, _, _, meta = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert meta["alpha"] == 0.3


def test_config_used_when_no_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.9\n")
    code = run_cli(
        "simulate", "--config", str(cfg), "--output-dir", str(tmp_path),
        "--samples", "3", "--t-end", "0.5",
    )
    assert code == 0
    _, _, _, meta = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert meta["alpha"] == 0.9


def test_output_dir_environment_fallback(tmp_path, monkeypatch):
    dest = tmp_path / "from_env"
    monkeypatch.setenv("WEAKFORCE_OUTPUT_DIR", str(dest))
    code = run_cli("simulate", "--samples", "3", "--t-end", "0.5")
    assert code == 0
    assert (dest / "trajectory.csv").exists()


# ---------------------------------------------------------------------------
# minimize / phi


def test_minimize_free_time_run(tmp_path, capsys):
    code = run_cli(
        "minimize", "--output-dir", str(tmp_path),
        f"--start={PAIR_START}", f"--end={PAIR_END}", "--segments", "60",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged = True" in out
    assert (tmp_path / "minimize_report.txt").exists()
    assert (tmp_path / "minimize_path.csv").exists()


def test_minimize_fixed_time_run(tmp_path, capsys):
    code = run_cli(
        "minimize", "--output-dir", str(tmp_path),
        f"--start={PAIR_START}", f"--end={PAIR_END}",
        "--fixed-time", "3.0", "--segments", "60",
    )
    assert code == 0
    report = (tmp_path / "minimize_report.txt").read_text()
    assert "duration = 3.0" in report


def test_minimize_unreachable_tolerance_exits_1(tmp_path, capsys):
    code = run_cli(
        "minimize", "--output-dir", str(tmp_path),
        f"--start={PAIR_START}", f"--end={PAIR_END}",
        "--fixed-time", "3.0", "--segments", "30", "--grad-tol", "1e-16",
    )
    assert code == 1
    assert "converged = False" in capsys.readouterr().out


def test_minimize_colliding_endpoint_exits_2(tmp_path, capsys):
    code = run_cli(
        "minimize", "--output-dir", str(tmp_path),
        "--start=0,0;0,0", f"--end={PAIR_END}", "--segments", "30",
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_phi_prints_estimate(tmp_path, capsys):
    code = run_cli(
        "phi", "--output-dir", str(tmp_path),
        f"--start={PAIR_START}", f"--end={PAIR_END}", "--segments", "60",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "phi estimate (upper bound) = " in out
    assert "optimal duration = " in out
    assert (tmp_path / "phi_report.txt").exists()
    assert (tmp_path / "phi_path.csv").exists()


def test_phi_deterministic_report(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        assert run_cli(
            "phi", "--output-dir", str(d),
            f"--start={PAIR_START}", f"--end={PAIR_END}", "--segments", "60",
        ) == 0
    capsys.readouterr()
    assert (a_dir / "phi_report.txt").read_bytes() == (b_dir / "phi_report.txt").read_bytes()


def _report_fields(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines() if " = " in line)


def test_phi_report_names_the_final_grid(tmp_path, capsys):
    plain, refined = tmp_path / "plain", tmp_path / "refined"
    assert run_cli(
        "phi", "--output-dir", str(plain),
        f"--start={PAIR_START}", f"--end={PAIR_END}", "--segments", "60",
    ) == 0
    # three bodies whose close approach misses the energy test at 10 segments
    assert run_cli(
        "phi", "--output-dir", str(refined), "--start=-2,0;0,1.5;2,0",
        "--end=-2,3;0,-1.5;2,3", "--energy", "2", "--segments", "10",
    ) == 0
    capsys.readouterr()
    fields = _report_fields(plain / "phi_report.txt")
    assert fields["segments"] == "60"
    assert "coarse action value" not in fields
    fields = _report_fields(refined / "phi_report.txt")
    assert fields["segments"] == "20"
    coarse, fine = float(fields["coarse action value"]), float(fields["action value"])
    assert coarse != fine and abs(coarse - fine) <= 1e-3 * fine
    assert len(read_trajectory_csv(refined / "phi_path.csv")[0]) == 21


# ---------------------------------------------------------------------------
# metric-suite / hyperbolic / validate-geometry


def test_metric_suite_small(tmp_path, capsys):
    code = run_cli(
        "metric-suite", "--output-dir", str(tmp_path),
        "--pairs", "1", "--triples", "0", "--bodies", "2", "--segments", "80",
    )
    assert code == 0
    assert "status: PASS" in capsys.readouterr().out
    assert (tmp_path / "metric_report.txt").exists()


def test_hyperbolic_small_chain(tmp_path, capsys):
    code = run_cli(
        "hyperbolic", "--output-dir", str(tmp_path),
        "--shape", "antipodal", "--legs", "2", "--base-factor", "4.0",
        "--segments", "300",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "completed = True" in out
    assert "gap trend non-increasing" in out
    assert (tmp_path / "asymptotics.txt").exists()
    assert (tmp_path / "leg_0.csv").exists()
    assert (tmp_path / "leg_1.csv").exists()


def test_validate_geometry_small(tmp_path, capsys):
    code = run_cli(
        "validate-geometry", "--output-dir", str(tmp_path), "--samples", "20"
    )
    assert code == 0
    assert "status: PASS" in capsys.readouterr().out
    assert (tmp_path / "geometry_report.txt").exists()


def test_validate_geometry_deterministic(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        assert run_cli(
            "validate-geometry", "--output-dir", str(d), "--samples", "15"
        ) == 0
    capsys.readouterr()
    assert (
        (a_dir / "geometry_report.txt").read_bytes()
        == (b_dir / "geometry_report.txt").read_bytes()
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--samples", "-3"), "samples per cell"),
        (("--samples", "0"), "samples per cell"),
        (("--dims", "0"), "dimensions"),
    ],
)
def test_validate_geometry_vacuous_or_invalid_plan_exits_2(tmp_path, capsys, flags, message):
    code = run_cli("validate-geometry", "--output-dir", str(tmp_path), *flags)
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "status: PASS" not in captured.out
    assert not (tmp_path / "geometry_report.txt").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--pairs", "0", "--triples", "0"), "check nothing"),
        (("--pairs", "-2", "--triples", "0"), "must not be negative"),
        (("--pairs", "1", "--triples", "-1"), "must not be negative"),
        (("--dim", "0"), "at least 1 dimension"),
    ],
)
def test_metric_suite_vacuous_or_invalid_plan_exits_2(tmp_path, capsys, flags, message):
    code = run_cli("metric-suite", "--output-dir", str(tmp_path), *flags)
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "status: PASS" not in captured.out
    assert not (tmp_path / "metric_report.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", f"--start={PAIR_START}", f"--end={PAIR_END}", "--segments", "1"),
        ("phi", f"--start={PAIR_START}", f"--end={PAIR_END}", "--segments", "0"),
        ("minimize", f"--start={PAIR_START}", f"--end={PAIR_END}", "--fixed-time", "2",
         "--segments", "1"),
        ("metric-suite", "--pairs", "1", "--triples", "0", "--segments", "1"),
        ("hyperbolic", "--legs", "1", "--segments", "1"),
    ],
)
def test_fewer_than_two_segments_exits_2(tmp_path, capsys, argv):
    code = run_cli(*argv, "--output-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert f"at least 2 segments, got {argv[-1]}" in err
