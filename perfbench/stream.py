"""Seeded, electricity-shaped stream for the benchmark.

The shape follows the paper's electricity case (elecNormNew): 944 days of
48 half-hour ticks, five normalised covariates and an UP/DOWN class that
says whether the NSW price sits above its trailing one-day mean. The three
Victorian columns hold one constant value each until the market change at
day 360 and vary afterwards, as in the real stream. The program under test
only ever sees the CSV and YAML text this module returns.
"""

from __future__ import annotations

import numpy as np

TICKS_PER_DAY = 48
DAYS = 944
RECORDS = DAYS * TICKS_PER_DAY
CHANGE_DAY = 360
CHANGE_TICK = CHANGE_DAY * TICKS_PER_DAY
SPAN = 30 * TICKS_PER_DAY

COVARIATES = ("nswprice", "nswdemand", "vicprice", "vicdemand", "transfer")
FROZEN = ("vicprice", "vicdemand", "transfer")
CLASS = "class"
LABELS = ("DOWN", "UP")

# the constants elecNormNew carries before the market change
_FROZEN_VALUES = {"vicprice": 0.003467, "vicdemand": 0.422915, "transfer": 0.414912}

CONFIG_YAML = """\
attributes:
  - {name: nswprice, kind: numeric}
  - {name: nswdemand, kind: numeric}
  - {name: vicprice, kind: numeric}
  - {name: vicdemand, kind: numeric}
  - {name: transfer, kind: numeric}
  - {name: class, kind: categorical, domain: [DOWN, UP]}
class: class
timestamp:
  source: record-index
  ticks_per_day: 48
  epoch: "1996-05-07"
discretization:
  bins: 5
analysis:
  distance: total_variation
"""


def _columns(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    tick = np.arange(RECORDS)
    phase = 2 * np.pi * (tick % TICKS_PER_DAY) / TICKS_PER_DAY
    season = np.sin(2 * np.pi * tick / (365 * TICKS_PER_DAY))

    demand = 0.42 + 0.14 * np.sin(phase - 2.0) + 0.04 * season \
        + 0.04 * rng.standard_normal(RECORDS)
    spikes = rng.exponential(0.01, RECORDS) * (rng.random(RECORDS) < 0.05)
    price = 0.058 + 0.02 * np.sin(phase - 2.2) + 0.08 * (demand - 0.42) \
        + 0.01 * rng.standard_normal(RECORDS) + spikes

    post = tick >= CHANGE_TICK
    live = {
        "vicprice": 0.0035 + 0.05 * (price - 0.058) + 0.001 * rng.standard_normal(RECORDS),
        "vicdemand": 0.42 + 0.6 * (demand - 0.42) + 0.06 * rng.standard_normal(RECORDS),
        "transfer": 0.41 + 0.1 * np.sin(phase) + 0.12 * rng.standard_normal(RECORDS),
    }
    columns = {"nswprice": price, "nswdemand": demand}
    for name in FROZEN:
        columns[name] = np.where(post, live[name], _FROZEN_VALUES[name])
    return {name: np.clip(col, 0.0, 1.0) for name, col in columns.items()}


def _class_codes(price: np.ndarray) -> np.ndarray:
    """1 (UP) where the price exceeds the mean of the previous day's ticks."""
    csum = np.concatenate(([0.0], np.cumsum(price)))
    idx = np.arange(len(price))
    lo = np.maximum(idx - TICKS_PER_DAY, 0)
    count = np.maximum(idx - lo, 1)
    trailing = np.where(idx > 0, (csum[idx] - csum[lo]) / count, price)
    return (price > trailing).astype(np.int64)


def generate_csv(seed: int) -> str:
    """The stream as CSV text; the same seed gives byte-identical text."""
    columns = _columns(seed)
    cells = [np.char.mod("%.6f", columns[name]) for name in COVARIATES]
    labels = np.asarray(LABELS)[_class_codes(columns["nswprice"])]
    lines = [",".join(COVARIATES + (CLASS,))]
    lines.extend(map(",".join, zip(*cells, labels)))
    return "\n".join(lines) + "\n"


def frozen_columns_ok(csv_text: str) -> bool:
    """Each frozen column holds one value before the change tick and more
    than one after it."""
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    for name in FROZEN:
        j = COVARIATES.index(name)
        before = {row[j] for row in rows[:CHANGE_TICK]}
        after = {row[j] for row in rows[CHANGE_TICK:]}
        if len(before) != 1 or len(after) < 2:
            return False
    return len(rows) == RECORDS
