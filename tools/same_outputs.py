"""Check that the working tree writes the same bytes as another commit.

Usage (from anywhere inside the repository):

    python3 tools/same_outputs.py BASE_REF

Checks out BASE_REF as a temporary git worktree, then runs a fixed list of
CLI calls against both trees, each call in a fresh interpreter with one
BLAS/OpenMP thread and the tree's own ``src/`` on ``PYTHONPATH``. Every file
a call writes is compared byte for byte, together with its stdout, its
stderr (tree paths masked) and its exit code. Prints every file that differs
or exists on one side only, and exits 1 if any does, 0 otherwise.

Each file that differs on both sides is also compared token by token: the
largest absolute change among its numbers and the largest change relative to
the file's largest magnitude, the largest change on each labelled line
(``action value = ...``, relative to that value) before and after, every
other token that changed (a status word, PASS/FAIL), every line only one side
has, and every exit code that flipped.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_START_10 = ";".join(f"{2.0 * (k % 5) - 4.0},{2.5 * (k // 5)}" for k in range(10))
_END_10 = ";".join(f"{2.0 * (k % 5) + 3.0},{2.5 * (k // 5) + 8.0}" for k in range(10))
_MASSES_10 = ",".join(f"1.{k}" for k in range(10))
# each body ends one column over, the last of each row wrapping to its first
_END_10_SHIFTED = ";".join(f"{2.0 * ((k + 1) % 5) + 3.0},{2.5 * (k // 5) + 8.0}" for k in range(10))

# one input draw of a 10-body benchmark workload (unequal masses, alpha 0.5)
# whose path misses the energy test at 200 and at 400 segments
_START_10_DRAWN = (
    "-1.3194522454195483,0.5082130279614888;-0.2553104460209076,1.2358044534839927;"
    "-2.951620164816375,-0.49355965705888555;1.0404716170022255,2.573910917386421;"
    "1.7898670277533886,1.683492096446902;-1.6411033520372662,-2.5230508823149695;"
    "-1.7496478646009814,-0.8905228499704497;-0.4902806460187493,-2.4456326204292504;"
    "0.14581153836205218,0.04948827020427804;0.3480342942636506,-1.6393680723315054"
)
_END_10_DRAWN = (
    "3.5431494406502404,5.487460266886536;-1.728781042480574,11.13559517094789;"
    "1.9856586975442108,6.279145156432945;-2.1972051928057192,5.906629397420155;"
    "-0.42890698072424116,5.233739249583064;1.0195830573070181,8.799487523251;"
    "3.475667593253913,8.384773190743694;1.9193214605409752,9.899184543458652;"
    "3.8795659043134822,10.40239582049811;-0.09369118484207462,9.482634652692376"
)
_MASSES_10_DRAWN = (
    "3.0320768150851576,1.8916408187970981,2.8086948620365595,1.8235716238828936,"
    "2.319836878844465,1.4078871239519775,1.3286698623841755,2.7541455053245176,"
    "1.5529605884856221,2.580350603019297"
)

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
        # the wrapping body crosses its row, and the close approaches miss
        # the energy test at 200 segments: the path is solved again on 400
        "phi_10_bodies_refined",
        [
            "phi", f"--start={_START_10}", f"--end={_END_10_SHIFTED}", "--masses", _MASSES_10,
            "--energy", "1.0",
        ],
    ),
    (
        # the path is solved on 200, 400 and 800 segments
        "phi_10_bodies_twice_refined",
        [
            "phi", f"--start={_START_10_DRAWN}", f"--end={_END_10_DRAWN}",
            "--masses", _MASSES_10_DRAWN, "--alpha", "0.5", "--energy", "1.0",
        ],
    ),
    (
        "hyperbolic_alpha_0_6",
        ["hyperbolic", "--shape", "triangle", "--masses", "1,1.3,1.8", "--alpha", "0.6", "--energy", "2"],
    ),
    (
        # a second geometry at a soft exponent, where the duration is least determined
        "hyperbolic_antipodal_alpha_0_3",
        [
            "hyperbolic", "--shape", "antipodal", "--masses", "1,2", "--alpha", "0.3",
            "--energy", "1", "--legs", "4",
        ],
    ),
    (
        # leg 6 hits the segment cap and ends transversality-miss: the only
        # call with a failed leg
        "hyperbolic_alpha_0_6_six_legs",
        [
            "hyperbolic", "--shape", "triangle", "--masses", "1,1.3,1.8", "--alpha", "0.6",
            "--energy", "2", "--legs", "6",
        ],
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


_SEPARATORS = re.compile(r"[\s,;=()\[\]]+")
_SHOWN_LINES = 5


def _tokens(line: str) -> list[str]:
    return [t for t in _SEPARATORS.split(line) if t]


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _shape(line: str) -> tuple:
    """The line with every number blanked, so lines that differ only in numbers match."""
    return tuple(None if _number(t) is not None else t for t in _tokens(line))


@dataclass
class TextDiff:
    """Token-level comparison of two texts (see :func:`compare_texts`)."""

    numbers_changed: int = 0
    max_abs: float = 0.0
    max_abs_at: str = ""
    # change over the largest magnitude in either text, so a column of
    # roundoff-sized values (a drift column) does not read as a change of 1
    max_rel: float = 0.0
    max_rel_at: str = ""
    # for lines with words: the largest change relative to the value itself
    # per label, (rel, old, new)
    by_label: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    words: list[tuple[str, str, str]] = field(default_factory=list)  # (where, old, new)
    removed: list[str] = field(default_factory=list)
    added: list[str] = field(default_factory=list)

    def _pair_line(self, lineno: int, old: str, new: str, scale: float) -> None:
        a, b = _tokens(old), _tokens(new)
        if len(a) != len(b):
            self.removed.append(old)
            self.added.append(new)
            return
        label = " ".join(x for x, y in zip(a, b) if x == y and _number(x) is None)[:40]
        for k, (x, y) in enumerate(zip(a, b), start=1):
            if x == y:
                continue
            where = f"line {lineno}, field {k}" + (f" ({label})" if label else "")
            nx, ny = _number(x), _number(y)
            if nx is None or ny is None:
                self.words.append((where, x, y))
                continue
            self.numbers_changed += 1
            change = abs(ny - nx)
            rel = change / scale if scale > 0.0 else 0.0
            if not change <= self.max_abs:
                self.max_abs, self.max_abs_at = change, where
            if not rel <= self.max_rel:
                self.max_rel, self.max_rel_at = rel, where
            own = max(abs(nx), abs(ny))
            own_rel = change / own if own > 0.0 else 0.0
            if label and not own_rel <= self.by_label.get(label, (0.0,))[0]:
                self.by_label[label] = (own_rel, x, y)


def compare_texts(old: str, new: str) -> TextDiff:
    """Pair the lines of two texts, then the tokens of each line pair.

    Texts with the same line count are paired line by line; otherwise lines
    are aligned on their shape (the line with its numbers blanked). Paired
    lines with the same token count are compared token by token; any other
    line counts as removed from ``old`` or added in ``new``.
    """
    a, b = old.splitlines(), new.splitlines()
    numbers = [_number(t) for line in a + b for t in _tokens(line)]
    scale = max((abs(n) for n in numbers if n is not None), default=0.0)
    diff = TextDiff()
    if len(a) == len(b):
        blocks = [("equal", 0, len(a), 0, len(b))]
    else:
        blocks = difflib.SequenceMatcher(
            None, [_shape(line) for line in a], [_shape(line) for line in b]
        ).get_opcodes()
    for _, i1, i2, j1, j2 in blocks:
        if i2 - i1 == j2 - j1:
            for i, j in zip(range(i1, i2), range(j1, j2)):
                if a[i] != b[j]:
                    diff._pair_line(j + 1, a[i], b[j], scale)
        else:
            diff.removed.extend(a[i1:i2])
            diff.added.extend(b[j1:j2])
    return diff


def _print_numeric(rel: Path, old: str, new: str) -> None:
    if rel.name == "exit_code.txt":
        print(f"  EXIT CODE FLIPPED: {rel.parent}: {old.strip()} -> {new.strip()}")
        return
    diff = compare_texts(old, new)
    if diff.numbers_changed:
        print(
            f"  {diff.numbers_changed} numbers changed; "
            f"max abs {diff.max_abs:.3g} at {diff.max_abs_at}; "
            f"max rel to the file's largest number {diff.max_rel:.3g} at {diff.max_rel_at}"
        )
    for label, (rel, x, y) in diff.by_label.items():
        print(f"  {label}: {x} -> {y} (rel {rel:.3g})")
    for where, x, y in diff.words:
        print(f"  TOKEN {where}: {x} -> {y}")
    for sign, lines in (("-", diff.removed), ("+", diff.added)):
        for line in lines[:_SHOWN_LINES]:
            print(f"  {sign} {line}")
        if len(lines) > _SHOWN_LINES:
            print(f"  {sign} ... {len(lines) - _SHOWN_LINES} more lines")


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
        differing = 0
        for rel in names:
            a, b = left / rel, right / rel
            if a.exists() and b.exists() and a.read_bytes() == b.read_bytes():
                continue
            differing += 1
            side = "" if a.exists() and b.exists() else (" (base only)" if a.exists() else " (head only)")
            print(f"DIFFERS: {rel}{side}")
            if not side:
                _print_numeric(rel, a.read_text(), b.read_text())
        print(f"{len(names)} files compared, {differing} differ")
        return 1 if differing else 0
    finally:
        subprocess.run(
            ["git", "-C", str(REPO), "worktree", "remove", "--force", str(base)],
            capture_output=True,
        )
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
