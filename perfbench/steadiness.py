"""Run the benchmark once per seed and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --workload sweep_marginal --seeds 1-10

Each run is a fresh ``run.py`` process with the run length of
``BENCHMARK.json``. For every end-to-end metric the script prints the ten
(or however many) values, their median and quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound. It also checks that every run's result carries exactly the
metrics ``BENCHMARK.json`` declares, with their units. The last line is a
JSON summary; the exit code is 1 if any run failed or broke that contract.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '1,4,7'")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    ok = True
    values: dict[str, list[float]] = {name: [] for name in units}
    for seed in seed_list(args.seeds):
        command = [sys.executable, *bench["command"][1:], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        missing = {n: u for n, u in units.items() if got.get(n) != u}
        if missing or not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
                  f"metrics not as declared: {missing}", file=sys.stderr)
            ok = False
        for name in units:
            if name in result["metrics"]:
                values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={values[n][-1]:.6g}" for n in units
                                           if values[n]), flush=True)

    summary = {}
    for metric in declared:
        name, vals = metric["name"], values[metric["name"]]
        if len(vals) < 2:
            continue
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = metric["bound"]
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound, "values": vals}
        verdict = "steady" if spread < bound / 3 else "NOT steady"
        print(f"{name}: median={median:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} "
              f"bound={bound} {verdict} (< bound/3)")
    print(json.dumps({"workload": args.workload, "ok": ok, "metrics": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
