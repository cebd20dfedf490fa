"""Outside-in benchmark of the weakforce command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Workloads: metric_suite, hyperbolic_chain, phi_manybody, geometry (see
README.md). Every execution of a workload is a fresh interpreter
(child.py) that imports weakforce.cli from ./src and calls
``weakforce.cli.main`` once per CLI call, with one BLAS/OpenMP thread set
in its environment at start. The files it writes are then checked by
checks.py, which shares no code with the library.

--trace 0 runs several input draws derived from the seed and reports the
end-to-end metrics (setup_s, wall_s, peak_rss_mb). --trace 1 alternates
untraced and traced executions of the first draw and reports the per-layer
metrics, including the tracing overhead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 after a completed run (``correct`` says whether the outputs
checked out), 1 when an execution crashed or ran out of time, 2 when the
current directory holds no weakforce source tree.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the checks run numpy in this process too; pin its pools before numpy loads
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, item_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
IMPORT_PROBES = 1  # extra import-only interpreters per run, for setup_s
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """An execution crashed or ran out of time: no result can be reported."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "weakforce").rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source_digest(root),
    }


class Run:
    """State of one benchmark invocation: where it works and what it saw."""

    def __init__(self, root: Path, workload: str, seed: int, tiny: bool):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.tiny = tiny
        self.started = now()
        self.store = root / WORK_DIR
        self.dir = self.store / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = environment(root, seed)
        self.digests_file = self.store / "digests.json"
        try:
            self.digests = json.loads(self.digests_file.read_text())
        except (OSError, ValueError):
            self.digests = {}
        self.count = 0

    def spawn(self, calls: list[list[str]], trace: bool) -> tuple[float, dict]:
        """Run one fresh interpreter; returns (spawn stamp, its record)."""
        self.count += 1
        spec_path = self.dir / f"spec{self.count}.json"
        record_path = self.dir / f"record{self.count}.json"
        err_path = self.dir / f"stderr{self.count}.txt"
        spec_path.write_text(json.dumps(
            {"calls": calls, "trace": trace, "record": str(record_path)}))
        child_env = dict(os.environ, **THREAD_ENV)
        child_env["PYTHONPATH"] = str(self.root / "src")
        child_env.pop("WEAKFORCE_OUTPUT_DIR", None)
        timeout = self.started + DEADLINE_S - now()
        if timeout <= 0:
            raise BenchError("out of time before the next execution")
        with open(err_path, "w") as err:
            spawned = now()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=self.root, env=child_env, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"an execution ran past the {DEADLINE_S:.0f} s deadline")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if rc != 0 or not record_path.exists():
            tail = err_path.read_text()[-2000:]
            raise BenchError(f"execution exited with {rc}:\n{tail}")
        return spawned, json.loads(record_path.read_text())

    def execute(self, item: int, trace: bool) -> dict:
        """One checked execution of input draw ``item``."""
        cli_seed = item_seed(self.workload.name, self.seed, item)
        outdir = self.dir / f"out{self.count + 1}"
        t0 = now()
        calls = self.workload.make_calls(cli_seed, self.tiny, outdir)
        gen_s = now() - t0
        spawned, rec = self.spawn([c.argv for c in calls], trace)
        t0 = now()
        outcome = self.workload.account(calls, rec["rcs"])
        check_s = now() - t0
        problems = list(outcome.problems)
        failed = outcome.failed
        text_digest = checks.digest(outcome.reports) if outcome.reports else None
        # the same source and the same CLI arguments (output paths aside) must
        # write the same bytes, in this run and in earlier ones
        request = [[a for a in c.argv if not a.startswith(str(self.dir))] for c in calls]
        key = hashlib.sha256(
            json.dumps([self.env["source_sha256"], request]).encode()).hexdigest()
        if text_digest is not None:
            seen = self.digests.setdefault(key, text_digest)
            if seen != text_digest:
                problems.append(f"report digest {text_digest[:12]} differs from an earlier "
                                f"run of the same source and seed ({seen[:12]})")
                failed = outcome.attempted
        shutil.rmtree(outdir, ignore_errors=True)
        return {
            "item": item,
            "cli_seed": cli_seed,
            "traced": trace,
            "import_s": rec["imported"] - spawned,
            "gen_s": gen_s,
            "wall_s": rec["last"] - rec["first"] + check_s,
            "check_s": check_s,
            "cpu_s": rec["cpu_s"],
            "rss_mb": rec["peak_rss_kb"] / 1024.0,
            "attempted": outcome.attempted,
            "failed": failed,
            "problems": problems,
            "digest": text_digest,
            "trace": rec["trace"],
        }

    def probe_import(self) -> float:
        spawned, rec = self.spawn([], False)
        return rec["imported"] - spawned

    def elapsed(self) -> float:
        return now() - self.started

    def save(self, result: dict) -> None:
        tmp = self.digests_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True))
        os.replace(tmp, self.digests_file)
        results = self.store / "results"
        results.mkdir(exist_ok=True)
        name = f"{self.workload.name}-seed{self.seed}-trace{int(result['trace'])}.json"
        (results / name).write_text(json.dumps(result, indent=1, default=str))
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Execute the workload for about ``seconds``; returns reps and metrics."""
    imports = [run.probe_import() for _ in range(IMPORT_PROBES)]
    reps: list[dict] = []
    items = 1 if run.tiny else run.workload.items

    def more(minimum: int) -> bool:
        if len(reps) < minimum:
            return True
        mean = (run.elapsed() - sum(imports)) / len(reps)
        return run.elapsed() + mean <= seconds

    if not trace:
        while more(items):
            reps.append(run.execute(len(reps) % items, False))
    else:
        while more(2):
            reps.append(run.execute(0, len(reps) % 2 == 1))

    imports += [r["import_s"] for r in reps]
    plain = [r for r in reps if not r["traced"]]
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        gen_s = statistics.median([r["gen_s"] for r in reps])
        metrics["setup_s"] = (statistics.median(imports) + gen_s, "s")
        # a median, so that one hard draw (a single slow solve can triple a
        # metric-suite execution) does not swing the figure between seeds
        metrics["wall_s"] = (statistics.median([r["wall_s"] for r in plain]), "s")
        metrics["peak_rss_mb"] = (statistics.median([r["rss_mb"] for r in plain]), "MB")
    else:
        traced = [r for r in reps if r["traced"]]
        per_rep = [layers.from_trace(r["trace"], r["wall_s"]) for r in traced]
        for name, (_, unit) in per_rep[0].items():
            metrics[name] = (statistics.median([m[name][0] for m in per_rep]), unit)
        untraced_wall = statistics.median([r["wall_s"] for r in plain])
        metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
        metrics["process.cpu_s"] = (statistics.median([r["cpu_s"] for r in plain]), "s")
    problems = [p for r in reps for p in r["problems"]]
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "trace": trace,
        "env": run.env,
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "problems": problems,
        "metrics": metrics,
        "reps": [{k: v for k, v in r.items() if k != "trace"} for r in reps],
    }


def report_lines(result: dict) -> list[str]:
    """Human-readable lines printed before the JSON result."""
    lines = [f"env {json.dumps(result['env'], sort_keys=True)}"]
    for r in result["reps"]:
        lines.append(
            f"exec item={r['item']} cli_seed={r['cli_seed']} traced={int(r['traced'])} "
            f"wall_s={r['wall_s']:.4f} import_s={r['import_s']:.4f} "
            f"check_s={r['check_s']:.4f} rss_mb={r['rss_mb']:.1f} ops={r['attempted']} "
            f"failed={r['failed']} digest={(r['digest'] or '-')[:16]}"
        )
    for p in result["problems"]:
        lines.append(f"CHECK FAILED: {p}")
    m = result["metrics"]
    share = result["failed"] / result["attempted"]
    head = f"{result['workload']} seed={result['seed']}:"
    if not result["trace"]:
        lines.append(
            f"{head} setup_s={m['setup_s'][0]:.4f} s  wall_s={m['wall_s'][0]:.4f} s  "
            f"failed_share={share:.4f} ratio ({result['failed']}/{result['attempted']})  "
            f"peak_rss_mb={m['peak_rss_mb'][0]:.1f} MB"
        )
        return lines
    wall = m["trace.wall_s"][0]
    lines.append(f"{head} traced accounting (self time, share of traced wall_s "
                 f"{wall:.4f} s; failed_share={share:.4f} ratio)")
    for layer in layers.LAYERS:
        value = m[f"{layer}.self_s"][0]
        lines.append(f"  {layer:<12} {value:9.4f} s  {value / wall:7.2%}")
    lines.append(f"  {'unattributed':<12} {m['trace.unattributed_s'][0]:9.4f} s  "
                 f"{m['trace.unattributed_s'][0] / wall:7.2%}")
    lines.append(f"  trace.overhead_s = {m['trace.overhead_s'][0]:.4f} s "
                 f"(untraced wall_s {m['trace.untraced_wall_s'][0]:.4f} s)")
    return lines


def contract_json(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    run = Run(root, workload, seed, tiny)
    try:
        result = measure(run, seconds, trace)
    except BaseException:
        shutil.rmtree(run.dir, ignore_errors=True)
        raise
    run.save(result)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its child (see Run.spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "weakforce" / "cli.py").is_file():
        print("error: run from a weakforce checkout (no src/weakforce/cli.py here)",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(report_lines(result)), flush=True)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(contract_json(results[0]))
    else:
        print(json.dumps({r["workload"]: json.loads(contract_json(r)) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
