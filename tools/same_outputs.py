"""Check that the working tree writes the same bytes as another commit.

Usage (from anywhere inside the repository):

    python3 tools/same_outputs.py BASE_REF

Checks out BASE_REF as a temporary git worktree, then runs a fixed list of
CLI calls against both trees, each call in a fresh interpreter with one
BLAS/OpenMP thread and the tree's own ``src/`` on ``PYTHONPATH``. Every file
a call writes is compared byte for byte, together with its stdout, its
stderr (tree paths masked) and its exit code. Prints every file that differs
or exists on one side only, and exits 1 if any does, 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_START_10 = ";".join(f"{2.0 * (k % 5) - 4.0},{2.5 * (k // 5)}" for k in range(10))
_END_10 = ";".join(f"{2.0 * (k % 5) + 3.0},{2.5 * (k // 5) + 8.0}" for k in range(10))
_MASSES_10 = ",".join(f"1.{k}" for k in range(10))

# (name, argv); each call writes into its own directory.
CALLS = [
    ("readme_simulate", ["simulate", "--alpha", "0.5", "--t-end", "62.8"]),
    ("readme_minimize", ["minimize", "--start=-1,0;1,0", "--end=-1,3;1,3", "--energy", "1.0"]),
    ("readme_phi", ["phi", "--start=-1,0;1,0", "--end=-1,3;1,3", "--energy", "1.0"]),
    (
        "minimize_fixed_time",
        ["minimize", "--start=-1,0;1,0", "--end=-1,3;1,3", "--energy", "1.0", "--fixed-time", "3.0"],
    ),
    (
        # the straight path swaps the bodies through a collision, so the
        # initial path is bumped until it is feasible
        "minimize_fixed_time_swap",
        ["minimize", "--start=-1,0;1,0", "--end=1,0;-1,0", "--energy", "1.0", "--fixed-time", "4.0"],
    ),
    ("readme_metric_suite", ["metric-suite", "--pairs", "12", "--triples", "6", "--seed", "3"]),
    (
        "readme_hyperbolic",
        ["hyperbolic", "--shape", "triangle", "--masses", "1,1.3,1.8", "--energy", "2", "--legs", "3"],
    ),
    ("readme_validate_geometry", ["validate-geometry", "--samples", "500", "--seed", "7"]),
    (
        "phi_10_bodies",
        ["phi", f"--start={_START_10}", f"--end={_END_10}", "--masses", _MASSES_10, "--energy", "1.0"],
    ),
    (
        "hyperbolic_alpha_0_6",
        ["hyperbolic", "--shape", "triangle", "--masses", "1,1.3,1.8", "--alpha", "0.6", "--energy", "2"],
    ),
    ("metric_suite_small", ["metric-suite", "--pairs", "3", "--triples", "2"]),
    ("validate_geometry_200", ["validate-geometry", "--samples", "200"]),
]

_CHILD = "import sys; from weakforce.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_calls(tree: Path, dest: Path) -> None:
    env = {k: v for k, v in os.environ.items() if k != "WEAKFORCE_OUTPUT_DIR"}
    env.update(
        PYTHONPATH=str(tree / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    for name, argv in CALLS:
        out = dest / name
        out.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, *argv, "--output-dir", "."],
            cwd=out,
            env=env,
            capture_output=True,
            text=True,
        )
        (out / "stdout.txt").write_text(proc.stdout)
        (out / "stderr.txt").write_text(proc.stderr.replace(str(tree), "<tree>"))
        (out / "exit_code.txt").write_text(f"{proc.returncode}\n")
        print(f"  {name}: exit {proc.returncode}", flush=True)


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref", metavar="BASE_REF", help="commit to compare against")
    args = parser.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="same_outputs_"))
    base = tmp / "base"
    try:
        added = subprocess.run(
            ["git", "-C", str(REPO), "worktree", "add", "--detach", "--quiet", str(base), args.base_ref]
        )
        if added.returncode != 0:
            print(f"error: cannot check out {args.base_ref!r}", file=sys.stderr)
            return 2
        print(f"base {args.base_ref}:")
        _run_calls(base, tmp / "out_base")
        print("working tree:")
        _run_calls(REPO, tmp / "out_head")

        left, right = tmp / "out_base", tmp / "out_head"
        names = sorted(_files(left) | _files(right))
        differing = []
        for rel in names:
            a, b = left / rel, right / rel
            if not a.exists() or not b.exists() or a.read_bytes() != b.read_bytes():
                side = "" if a.exists() and b.exists() else (" (base only)" if a.exists() else " (head only)")
                differing.append(f"{rel}{side}")
        for line in differing:
            print(f"DIFFERS: {line}")
        print(f"{len(names)} files compared, {len(differing)} differ")
        return 1 if differing else 0
    finally:
        subprocess.run(
            ["git", "-C", str(REPO), "worktree", "remove", "--force", str(base)],
            capture_output=True,
        )
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
