"""driftmap benchmark: electricity-shaped sweeps and a CLI map job.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_marginal --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One run generates the seeded stream (``stream.py``), then repeats its job
until ``--seconds`` of job time have passed, checking every job's output
outside the timed region. Before each job it sets the workload up again,
as often as it takes to keep set-up time at ``SETUP_SHARE`` of the job
time so far, so that ``setup_s`` is a median over the whole run. A job
that raises ends the run's loop. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones (``setup_s``, ``job_s``, ``peak_rss_mb``). With
``--trace 1`` the run first repeats itself untraced in a child process,
then installs the wrappers of ``spans.py`` and reports the per-layer
metrics, each the median over iterations of one set-up plus one job, with
the tracing overhead. ``--workload all`` runs every workload, each in a
fresh process, and prints one table.
"""

from __future__ import annotations

import os
import sys

# before numpy is imported, here and in every child process
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import stream  # noqa: E402
import workloads  # noqa: E402

SETUP_SHARE = 0.15
CHILD_TIMEOUT_S = 170
LAYERS = ("schema", "discretize", "estimate", "measures", "temporal", "maps", "render", "cli")


def load_program():
    """driftmap from this checkout's ``src`` and the test oracles, or exit."""
    package = ROOT / "src" / "driftmap" / "__init__.py"
    oracle_file = ROOT / "tests" / "oracles.py"
    if not package.is_file() or not oracle_file.is_file():
        raise SystemExit(f"perfbench: {package.relative_to(ROOT)} or "
                         f"{oracle_file.relative_to(ROOT)} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    dm = types.SimpleNamespace(**{
        layer: importlib.import_module(f"driftmap.{layer}") for layer in LAYERS})
    if Path(dm.cli.__file__).resolve().parent != package.parent:
        raise SystemExit(f"perfbench: imported driftmap from {dm.cli.__file__}, "
                         f"not from {package.parent}")
    spec = importlib.util.spec_from_file_location("driftmap_oracles", oracle_file)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return dm, oracles


def git_state() -> dict:
    """sha and dirty flag of the checkout, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_OPTIONAL_LOCKS="0")

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, env=env, check=True).stdout.strip()
    try:
        return {"git_sha": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": os.getloadavg()[0],
        **git_state(),
    }


def _check(workload, out) -> list[str | None]:
    try:
        return workload.check(out)
    except Exception:  # noqa: BLE001 - a check that raises is a failed check
        return [f"check raised: {traceback.format_exc(limit=3)}"] * workload.ops_per_job


class Tally:
    """Operations attempted and failed; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, verdicts) -> None:
        self.attempted += len(verdicts)
        for verdict in verdicts:
            if verdict is not None:
                self.failed += 1
                print(f"perfbench: failed: {verdict}", file=sys.stderr)


def run_job(workload, tally: Tally):
    """One timed job; returns (wall seconds, output or None)."""
    gc.collect()
    start = time.perf_counter()
    try:
        out = workload.job()
    except Exception:  # noqa: BLE001 - a job that raises is a failed operation
        elapsed = time.perf_counter() - start
        tally.add([f"job raised: {traceback.format_exc(limit=5)}"] * workload.ops_per_job)
        return elapsed, None
    return time.perf_counter() - start, out


def set_up(workload, setup_times: list[float], job_time: float) -> None:
    """Set up at least once, and until the run's summed set-up time reaches
    SETUP_SHARE of its job time so far, ``job_time``."""
    while True:
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        if sum(setup_times) >= SETUP_SHARE * job_time:
            return


def untraced(workload, args, tally: Tally) -> tuple[dict, dict]:
    setup_times, job_times, written = [], [], (0, 0)
    while sum(job_times) < args.seconds:
        set_up(workload, setup_times, sum(job_times))
        elapsed, out = run_job(workload, tally)
        job_times.append(elapsed)
        if out is None:
            break
        tally.add(_check(workload, out))
        written = workload.written(out)
        workload.close(out)
        del out
    set_up(workload, setup_times, sum(job_times))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_s": (statistics.median(job_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"setups": len(setup_times), "jobs": len(job_times),
            "job_times_s": job_times,
            "files_written_per_job": written[0], "bytes_written_per_job": written[1]}
    return metrics, info


def run_child(workload: str, args, trace: int, timeout: float) -> tuple[list[str], dict]:
    """This script for one workload in a fresh process: its comment lines
    and its result."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} run took more than {timeout} s") from None
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {workload} run exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def traced(workload, args, tally: Tally, dm) -> tuple[dict, dict]:
    import spans

    _, reference = run_child(args.workload, args, 0, CHILD_TIMEOUT_S)
    tracer = spans.Tracer()
    spans.install(tracer, dm)
    samples, job_times = [], []
    while sum(job_times) < args.seconds:
        gc.collect()
        tracer.begin()
        tracer.enabled = True
        workload.setup()
        elapsed, out = run_job(workload, tally)
        tracer.enabled = False
        job_times.append(elapsed)
        if out is None:
            break
        files, size = workload.written(out)
        tracer.counts["cli.files_written"] += files
        tracer.counts["cli.bytes_written"] += size
        samples.append(tracer.metrics())
        tally.add(_check(workload, out))
        workload.close(out)
    if not reference["correct"] or reference["failed"]:
        tally.add(["untraced child run failed its checks"])
    untraced_job_s = reference["metrics"]["job_s"]["value"]
    traced_job_s = statistics.median(job_times)
    # counts repeat exactly across iterations; keep them whole numbers
    middle = {"s": statistics.median}
    metrics = {name: (middle.get(unit, statistics.median_low)([s[name] for s in samples])
                      if samples else 0, unit)
               for name, unit in spans.LAYER_METRICS}
    metrics["trace.job_s"] = (traced_job_s, "s")
    metrics["trace.untraced_job_s"] = (untraced_job_s, "s")
    metrics["trace.overhead_s"] = (traced_job_s - untraced_job_s, "s")
    print("# span tree of the last iteration:")
    for line in tracer.tree_lines():
        print("#   " + line)
    return metrics, {"iterations": len(job_times)}


def run_one(args) -> int:
    env = environment(args)
    dm, oracles = load_program()
    csv_text = stream.generate_csv(args.seed)
    tally = Tally()
    tally.add([None if csv_text == stream.generate_csv(args.seed)
               else "the same seed gave a different CSV",
               None if stream.frozen_columns_ok(csv_text)
               else "frozen columns are not constant before the change"])
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](dm, oracles, csv_text, workdir, args.seed)
    try:
        if args.trace:
            metrics, info = traced(workload, args, tally, dm)
        else:
            metrics, info = untraced(workload, args, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    error_rate = tally.failed / tally.attempted
    print(f"# {args.workload}: {workload.why}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name} = {value:.6g} {unit}")
    print(f"#   error_rate = {error_rate:.6g} ({tally.failed}/{tally.attempted} operations)")
    print("# " + json.dumps({**env, "why": workload.why, **info, "error_rate": error_rate}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        lines, results[name] = run_child(name, args, args.trace, 2 * CHILD_TIMEOUT_S)
        print("\n".join(lines))
    print(f"# {'workload':<18} {'metric':<24} {'value':>14} unit")
    for name, result in results.items():
        rate = result["failed"] / result["attempted"]
        rows = [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
        for metric, value, unit in rows + [("error_rate", rate, "ratio")]:
            print(f"# {name:<18} {metric:<24} {value:>14.6g} {unit}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
