"""Smoke test of the benchmark itself.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs every workload once at tiny sizes, untraced and traced, and asserts
that each metric BENCHMARK.json names comes back with its unit and that the
outputs check out. Then it asserts that the independent output check flags
a copy of a written path CSV with one interior node moved, and one with an
endpoint moved. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import run as bench
from workloads import WORKLOADS, item_seed, phi_calls, phi_account


def check_metrics(root: Path, spec: dict) -> None:
    for name in WORKLOADS:
        for trace in (False, True):
            result = bench.run_workload(root, name, seed=0, seconds=0.0, trace=trace, tiny=True)
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: unit for k, (_, unit) in result["metrics"].items()}
            assert got == want, f"{name} trace={trace}: metrics differ: " \
                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, " \
                f"units {[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}"
            assert result["correct"], f"{name} trace={trace}: {result['problems']}"
            assert result["attempted"] >= 1
            print(f"ok  {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} ops failed")


def _moved(src: Path, dst: Path, row: int) -> None:
    """Copy a trajectory CSV, moving body 1's first coordinate at data row ``row``."""
    lines = src.read_text().splitlines(keepends=True)
    data = 2 + (row % (len(lines) - 2))
    fields = lines[data].rstrip("\r\n").split(",")
    fields[1] = repr(float(fields[1]) + 1e-2)
    lines[data] = ",".join(fields) + "\r\n"
    dst.write_text("".join(lines))


def check_perturbation(root: Path) -> None:
    run = bench.Run(root, "phi_manybody", seed=0, tiny=True)
    try:
        outdir = run.dir / "perturb"
        calls = phi_calls(item_seed("phi_manybody", 0, 0), True, outdir)[:1]
        _, rec = run.spawn([c.argv for c in calls], trace=False)
        outcome = phi_account(calls, rec["rcs"])
        assert not outcome.problems, outcome.problems
        call = calls[0]
        value = float(checks.report_fields(
            (call.outdir / "phi_report.txt").read_text())["action value"])
        original = call.outdir / "phi_path.csv"
        n_rows = len(original.read_text().splitlines()) - 2
        for label, row in (("interior node", n_rows // 2), ("end node", n_rows - 1)):
            copy = call.outdir / "moved.csv"
            _moved(original, copy, row)
            found, _ = checks.check_path(copy, value, call.inputs["x"], call.inputs["y"],
                                         call.inputs["masses"], 0.5, 1.0)
            assert found, f"a path CSV with its {label} moved passed the output check"
            print(f"ok  output check flags a moved {label}: {found[0]}")
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "weakforce" / "cli.py").is_file():
        print("error: run from a weakforce checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check_metrics(root, spec)
    check_perturbation(root)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
