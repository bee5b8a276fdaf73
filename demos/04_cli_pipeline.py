"""End-to-end CLI pipeline on generated data.

Writes a config + CSV, then drives the four subcommands exactly as a
shell user would: encode, measure, series, map. Every artifact filename
embeds a provenance hash, so rerunning this script reproduces the same
bytes. The script stops with a command's exit code as soon as one fails.
"""

import sys
from pathlib import Path

import numpy as np

from driftmap import run_cli

HERE = Path(__file__).parent
OUT = HERE / "output" / "cli"
OUT.mkdir(parents=True, exist_ok=True)

rng = np.random.default_rng(11)
lines = ["price,demand,transfer,label"]
for i in range(1200):
    late = i >= 600
    lines.append(
        f"{rng.normal(loc=0.8 if late else 0):.4f},"
        f"{rng.normal():.4f},"
        f"{abs(rng.normal()):.4f},"
        f"{'up' if rng.random() < (0.6 if late else 0.4) else 'down'}")
data = OUT / "stream.csv"
data.write_text("\n".join(lines) + "\n")

config = OUT / "config.yaml"
config.write_text("""\
attributes:
  - {name: price, kind: numeric}
  - {name: demand, kind: numeric}
  - {name: transfer, kind: numeric}
  - {name: label, kind: categorical}
class: label
timestamp:
  source: record-index
  ticks_per_day: 24
discretization:
  bins: 5
analysis:
  distance: total_variation
""")

base = ["--config", str(config), "--data", str(data), "--out", str(OUT)]


def run(argv):
    code = run_cli(argv)
    if code != 0:
        sys.exit(code)


print("== encode ==")
run(["encode", *base])

print("\n== measure: first half vs second half ==")
run(["measure", *base, "--window-a", "0:600", "--window-b", "600:1200"])

print("\n== series: daily step, 5-day span, with SVG ==")
run(["series", *base, "--step", "1d", "--span", "5d",
     "--measure", "covariate", "--measure", "class",
     "--measure", "posterior",
     "--format-out", "csv,json,svg"])

print("\n== map: pairwise joint with the class on the grid ==")
run(["map", *base, "--kind", "pairwise-joint", "--classes-on-map",
     "--window-a", "0:600", "--window-b", "600:1200",
     "--format-out", "csv,json,svg"])
