"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (pytest -s shows them; failures carry the detail).

Criterion 4 needs the public electricity-market ARFF (45,312 half-hour
records); point DRIFTMAP_ELECTRICITY_ARFF at it or drop it in data/.
Without the file the criterion is reported as SKIPPED, never faked.
"""

import os
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from driftmap.cli import run_cli
from driftmap.discretize import apply_discretizer, fit_discretizer
from driftmap.estimate import (
    AttributeSubset,
    DistributionEstimate,
    TimeInterval,
    estimate_conditional,
    estimate_distribution,
    select_window,
)
from driftmap.maps import pairwise_joint_map, posterior_pairwise_map
from driftmap.measures import (
    HELLINGER,
    TOTAL_VARIATION,
    conditioned_covariate_drift,
    hellinger,
    marginal_drift,
    posterior_drift,
    total_variation,
)
from driftmap.schema import ingest_records, parse_schema
from driftmap.temporal import (
    ADJACENT,
    CONSECUTIVE,
    MeasureSpec,
    SweepSpec,
    drift_series,
    series_statistics,
)

from conftest import build_encoded, random_encoded
import oracles

TOL = 1e-9


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def synthetic_corpus():
    """200 randomized small datasets shared by criteria 2 and 3."""
    rng = np.random.default_rng(1234)
    return [random_encoded(rng) for _ in range(200)]


def test_criterion_1_distance_unit_suite():
    rng = np.random.default_rng(99)
    subset = AttributeSubset.covariates(["a0"])

    def random_estimate():
        size = int(rng.integers(1, 26))
        probs = rng.dirichlet(np.ones(size))
        return DistributionEstimate(
            subset=subset,
            support={(i,): p for i, p in enumerate(probs) if p > 0},
            sample_size=size)

    start = time.perf_counter()
    for _ in range(1000):
        p, q, r = random_estimate(), random_estimate(), random_estimate()
        shift = len(p.support)
        disjoint = DistributionEstimate(
            subset=subset,
            support={(i + shift,): v for (i,), v in p.support.items()},
            sample_size=p.sample_size)
        for dist in (total_variation, hellinger):
            assert dist(p, p) <= TOL
            assert abs(dist(p, disjoint) - 1.0) <= TOL
            assert abs(dist(p, q) - dist(q, p)) <= TOL
            assert dist(p, r) <= dist(p, q) + dist(q, r) + TOL
    elapsed = time.perf_counter() - start
    report(1, elapsed < 1.0, f"1000 triples in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence(synthetic_corpus):
    start = time.perf_counter()
    worst = 0.0
    for ds, wa, wb in synthetic_corpus:
        rows_a = ds.codes[wa.start:wa.end].tolist()
        rows_b = ds.codes[wb.start:wb.end].tolist()
        names = ds.schema.covariate_names
        cols = list(range(len(names)))
        class_col = len(names)
        subset = AttributeSubset.covariates(names)
        for dist in (TOTAL_VARIATION, HELLINGER):
            got = marginal_drift(ds, wa, wb, subset, dist).magnitude
            want = oracles.marginal_drift_oracle(
                rows_a, rows_b, cols, ds.cardinalities, dist)
            worst = max(worst, abs(got - want))

            got = conditioned_covariate_drift(ds, wa, wb, subset, dist).magnitude
            want = oracles.conditioned_covariate_oracle(
                rows_a, rows_b, cols, class_col, ds.cardinalities, dist)
            worst = max(worst, abs(got - want))

            got = posterior_drift(ds, wa, wb, subset, dist).magnitude
            want = oracles.posterior_oracle(
                rows_a, rows_b, cols, class_col, ds.cardinalities, dist)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    report(2, worst <= TOL and elapsed < 30.0,
           f"max |got-oracle| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_monotonicity(synthetic_corpus):
    worst_gap = 0.0
    for ds, wa, wb in synthetic_corpus:
        names = ds.schema.covariate_names
        for dist in (TOTAL_VARIATION, HELLINGER):
            # every chain obtained by adding attributes one at a time
            for k in range(1, len(names)):
                small = marginal_drift(
                    ds, wa, wb, AttributeSubset.covariates(names[:k]), dist)
                grown = marginal_drift(
                    ds, wa, wb, AttributeSubset.covariates(names[:k + 1]), dist)
                worst_gap = max(worst_gap, small.magnitude - grown.magnitude)
        if len(names) >= 2:
            grid = pairwise_joint_map(ds, wa, wb)  # validate() enforces the bound
            n = len(grid.row_labels)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        worst_gap = max(
                            worst_gap,
                            grid.cell(i, i) - grid.cell(i, j),
                            grid.cell(j, j) - grid.cell(i, j))
    report(3, worst_gap <= TOL, f"worst monotonicity gap = {worst_gap:.2e}")


ELECTRICITY_COLUMNS = ["nswprice", "nswdemand", "vicprice", "vicdemand", "transfer"]

ELECTRICITY_CONFIG = {
    "attributes": (
        [{"name": c, "kind": "numeric"} for c in ELECTRICITY_COLUMNS]
        + [{"name": "class", "kind": "categorical"}]
    ),
    "class": "class",
    "timestamp": {"source": "record-index", "ticks_per_day": 48,
                  "epoch": "1996-05-07"},
    "exclude": ["date", "day", "period"],
}


def _electricity_path():
    env = os.environ.get("DRIFTMAP_ELECTRICITY_ARFF")
    if env:
        return Path(env)
    for candidate in ("data/elecNormNew.arff", "data/electricity.arff",
                      "data/elec.arff"):
        p = Path(__file__).resolve().parent.parent / candidate
        if p.exists():
            return p
    return None


def test_criterion_4_electricity_reproduction():
    path = _electricity_path()
    if path is None:
        print("ACCEPTANCE 4: SKIPPED (electricity ARFF not present; "
              "set DRIFTMAP_ELECTRICITY_ARFF)")
        pytest.skip("electricity dataset not available in this environment")

    start = time.perf_counter()
    schema = parse_schema(ELECTRICITY_CONFIG)
    raw = ingest_records(path.read_bytes(), "arff", schema)
    assert len(raw) == 45312
    encoded = apply_discretizer(raw, fit_discretizer(raw, 5))

    day = 48
    span = 30 * day
    market_day = (date(1997, 5, 2) - date(1996, 5, 7)).days  # data epoch
    market_tick = market_day * day

    per_var = tuple(
        MeasureSpec("covariate", AttributeSubset.covariates([c]))
        for c in ("vicprice", "vicdemand", "transfer"))
    all_cov = MeasureSpec("covariate",
                          AttributeSubset.covariates(ELECTRICITY_COLUMNS))
    cls = MeasureSpec("class", AttributeSubset.class_only("class"))
    spec = SweepSpec(compute_step=day, span=span, alignment=ADJACENT,
                     measures=per_var + (all_cov, cls))
    series = drift_series(encoded, spec)

    # (a) constant-before-market attributes: exact zero while both windows
    # end before the market introduction (after-window ends at t + span)
    pre_market_ok = True
    for point in series.points:
        if point.time + span < market_tick:
            for mspec in per_var:
                if point.results[mspec.key].magnitude != 0.0:
                    pre_market_ok = False

    # (b) global max of the all-covariate series within +/-3 days of the
    # market introduction
    stats = series_statistics(series)[all_cov.key]
    argmax_day = stats["argmax_time"] / day
    peak_ok = abs(argmax_day - market_day) <= 3

    # (c) class drift stays below 0.5 throughout
    class_vals = [v for v in series.magnitudes(cls.key) if v is not None]
    class_ok = max(class_vals) < 0.5

    elapsed = time.perf_counter() - start
    report(4, pre_market_ok and peak_ok and class_ok and elapsed < 120,
           f"peak at day {argmax_day:.0f} (market day {market_day}), "
           f"max class drift {max(class_vals):.3f}, {elapsed:.0f}s")


def test_criterion_4_offline_proxy():
    """Criterion 4's checks (a) and (b) on a synthetic stream of the same
    kind, which stands beside the skipped test and does not replace it:
    two covariates hold one value each until a known change tick and vary
    afterwards, a third carries a daily cycle throughout."""
    day, days, change_day, span_days = 24, 90, 40, 10
    change_tick = change_day * day
    rng = np.random.default_rng(4)
    tick = np.arange(days * day)
    cycle = np.sin(2 * np.pi * tick / day) + 0.3 * rng.standard_normal(len(tick))
    frozen = {
        "vicprice": np.where(tick < change_tick, 0.0035, rng.uniform(0, 0.01, len(tick))),
        "transfer": np.where(tick < change_tick, 0.4147, rng.normal(0.4, 0.1, len(tick))),
    }
    labels = np.where(cycle + 0.5 * rng.standard_normal(len(tick)) > 0, "UP", "DOWN")
    lines = ["nswdemand,vicprice,transfer,class"] + [
        f"{c:.6f},{p:.6f},{t:.6f},{y}"
        for c, p, t, y in zip(cycle, frozen["vicprice"], frozen["transfer"], labels)]
    covariates = ["nswdemand", *frozen]
    schema = parse_schema({
        "attributes": [{"name": c, "kind": "numeric"} for c in covariates]
        + [{"name": "class", "kind": "categorical"}],
        "class": "class",
        "timestamp": {"source": "record-index", "ticks_per_day": day},
    })
    raw = ingest_records("\n".join(lines) + "\n", "csv", schema)
    encoded = apply_discretizer(raw, fit_discretizer(raw, 5))

    per_var = tuple(MeasureSpec("covariate", AttributeSubset.covariates([c])) for c in frozen)
    all_cov = MeasureSpec("covariate", AttributeSubset.covariates(covariates))
    spec = SweepSpec(compute_step=day, span=span_days * day, alignment=ADJACENT,
                     measures=per_var + (all_cov,))
    series = drift_series(encoded, spec)

    # (a) exact zero for each frozen column wherever the after-window ends at
    # or before the change
    before = [p for p in series.points if spec.windows_at(p.time)[1].end <= change_tick]
    zero_ok = bool(before) and all(
        p.results[m.key].magnitude == 0.0 for p in before for m in per_var)
    # (b) the all-covariate series peaks within +/-3 days of the change
    argmax_day = series_statistics(series)[all_cov.key]["argmax_time"] / day
    peak_ok = abs(argmax_day - change_day) <= 3
    report("4 offline proxy", zero_ok and peak_ok,
           f"{len(before)} pre-change points, peak at day {argmax_day:.0f} "
           f"(change day {change_day})")


def test_criterion_5_invariant_class_analogue():
    # time-invariant class: Y = XOR(X1, X2) in the first window and its
    # negation in the second, over balanced covariates
    window_a = [[x1, x2, x1 ^ x2] for x1 in (0, 1) for x2 in (0, 1)] * 25
    window_b = [[x1, x2, 1 - (x1 ^ x2)] for x1 in (0, 1) for x2 in (0, 1)] * 25
    ds = build_encoded(window_a + window_b, [2, 2, 2])
    wa, wb = TimeInterval(0, 100), TimeInterval(100, 200)

    cov = AttributeSubset.covariates(["a0", "a1"])
    class_drift = marginal_drift(ds, wa, wb, AttributeSubset.class_only("label"))
    covariate = marginal_drift(ds, wa, wb, cov)
    conditioned = conditioned_covariate_drift(ds, wa, wb, cov)
    posterior = posterior_drift(ds, wa, wb, cov)

    grid = posterior_pairwise_map(ds, wa, wb)
    pairwise_cell = grid.cell(0, 1)
    univariate_cells = (grid.cell(0, 0), grid.cell(1, 1))

    checks = {
        "class drift exactly 0": class_drift.magnitude == 0.0,
        "pairwise posterior cell > 0.2": pairwise_cell > 0.2,
        "univariate posterior cells < 0.05": all(c < 0.05 for c in univariate_cells),
        # deliberately no conditioned >= covariate assertion: no such theorem
        "all four measures in [0,1]": all(
            -TOL <= m.magnitude <= 1 + TOL
            for m in (class_drift, covariate, conditioned, posterior)),
    }
    report(5, all(checks.values()),
           "; ".join(k for k, ok in checks.items() if not ok) or
           f"pairwise={pairwise_cell:.2f}, univariate={univariate_cells}")


def test_criterion_6_periodicity_contrast():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    days = 28
    per_day = 500
    codes = []
    timestamps = []
    for d in range(days):
        dow = d % 7
        for _ in range(per_day):
            # day-of-week signal with i.i.d. noise on top
            x1 = dow if rng.random() < 0.6 else int(rng.integers(0, 7))
            x2 = int(rng.integers(0, 5))
            y = int(rng.random() < 0.5)
            codes.append([x1, x2, y])
            timestamps.append(d)
    ds = build_encoded(codes, [7, 5, 2], timestamps=timestamps)

    cov = MeasureSpec("covariate", AttributeSubset.covariates(["a0", "a1"]))

    def mean_drift(span):
        spec = SweepSpec(compute_step=1, span=span, alignment=CONSECUTIVE,
                         measures=(cov,))
        series = drift_series(ds, spec)
        vals = [v for v in series.magnitudes(cov.key) if v is not None]
        return float(np.mean(vals))

    daily = mean_drift(1)
    weekly = mean_drift(7)
    elapsed = time.perf_counter() - start
    report(6, daily >= 3 * weekly and elapsed < 60,
           f"daily mean {daily:.3f} vs weekly mean {weekly:.3f}, {elapsed:.0f}s")


def test_criterion_7_cli_determinism(tmp_path, capsys):
    rng = np.random.default_rng(7)
    lines = ["x1,x2,label"]
    for i in range(300):
        shift = 1.5 if i >= 150 else 0.0
        lines.append(f"{rng.normal() + shift:.4f},{rng.normal():.4f},"
                     f"{'a' if rng.random() < 0.5 else 'b'}")
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "config.yaml").write_text(
        "attributes:\n"
        "  - {name: x1, kind: numeric}\n"
        "  - {name: x2, kind: numeric}\n"
        "  - {name: label, kind: categorical}\n"
        "class: label\n")

    def run(out, command_args):
        rc = run_cli([*command_args,
                      "--config", str(tmp_path / "config.yaml"),
                      "--data", str(tmp_path / "data.csv"),
                      "--out", str(out),
                      "--format-out", "csv,json,svg"])
        assert rc == 0

    identical = True
    for command_args in (
        ["series", "--step", "10", "--span", "75",
         "--measure", "covariate", "--measure", "class"],
        ["map", "--kind", "pairwise-joint",
         "--window-a", "0:150", "--window-b", "150:300"],
    ):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run(out1, command_args)
        run(out2, command_args)
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        if names1 != names2:
            identical = False
        else:
            for name in names1:
                if (out1 / name).read_bytes() != (out2 / name).read_bytes():
                    identical = False
        for p in list(out1.iterdir()) + list(out2.iterdir()):
            p.unlink()
    capsys.readouterr()  # drop the CLI's artifact-path listing
    with capsys.disabled():
        report(7, identical, "CSV/JSON/SVG byte-identical across reruns")


def test_criterion_8_estimation_consistency():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 150))
        cards = [int(rng.integers(2, 5)) for _ in range(3)]
        codes = np.column_stack([
            rng.choice(c, size=n, p=rng.dirichlet(np.ones(c))) for c in cards])
        ds = build_encoded(codes, cards)
        w = select_window(ds, TimeInterval(0, n))

        # chain rule: P(a,b) = P(a) * P(b|a)
        joint = estimate_distribution(w, AttributeSubset.covariates(["a0", "a1"]))
        fam = estimate_conditional(
            w, AttributeSubset.covariates(["a1"]), AttributeSubset.covariates(["a0"]))
        for (a, b), p in joint.support.items():
            weight, inner = fam.members[(a,)]
            worst = max(worst, abs(weight * inner.probability((b,)) - p))

        # marginalization: summing the joint over a1 gives the a0 estimate
        direct = estimate_distribution(w, AttributeSubset.covariates(["a0"]))
        summed = joint.marginalize(["a0"])
        for key in direct.support.keys() | summed.support.keys():
            worst = max(worst, abs(direct.probability(key) - summed.probability(key)))
    report(8, worst <= TOL, f"worst invariant residual = {worst:.2e}")
