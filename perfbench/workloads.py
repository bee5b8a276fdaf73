"""The benchmark's workloads: set-up, one job, and the checks on a job's output.

Every call into driftmap goes through a module attribute looked up at call
time (``self.dm.temporal.drift_series``, ...), so the tracer's wrappers see
the benchmark's own calls as well as the calls driftmap makes internally.
Checks run outside the timed region and compare against the dense
brute-force oracles of ``tests/oracles.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
from pathlib import Path

import numpy as np

import stream

ORACLE_TOL = 1e-9
PEAK_SLACK = 3 * stream.TICKS_PER_DAY
SWEEP_POINTS = 885
BINS = 5
TVD = "total_variation"

# one 180-day window on each side of the change tick
MAP_DAYS = 180
MAP_KINDS = ("pairwise-joint", "conditioned-univariate",
             "conditioned-pairwise", "posterior-pairwise")


def _digest(*texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text if isinstance(text, bytes) else text.encode())
    return h.hexdigest()


class Workload:
    """Shared state: the driftmap modules, the oracles and the stream text."""

    name = ""
    why = ""
    ops_per_job = 1

    def __init__(self, dm, oracles, csv_text: str, workdir, seed: int):
        self.dm = dm
        self.oracles = oracles
        self.csv_text = csv_text
        self.workdir = workdir
        self.seed = seed
        self.schema = dm.schema.parse_schema(stream.CONFIG_YAML)

    def encode(self):
        """ingest + fit + apply of the stream text."""
        raw = self.dm.schema.ingest_records(self.csv_text, "csv", self.schema)
        discretizer = self.dm.discretize.fit_discretizer(raw, BINS)
        return self.dm.discretize.apply_discretizer(raw, discretizer)

    def written(self, out) -> tuple[int, int]:
        """Files and bytes a job wrote."""
        return 0, 0

    def close(self, out) -> None:
        """Release what a checked job left behind."""


class Sweep(Workload):
    """drift_series at daily step and 30-day adjacent span, then
    statistics, CSV, JSON and a line plot of the result."""

    def __init__(self, *args):
        super().__init__(*args)
        dm = self.dm
        covariates = dm.estimate.AttributeSubset.covariates
        self.spec = dm.temporal.SweepSpec(
            compute_step=stream.TICKS_PER_DAY, span=stream.SPAN,
            alignment=dm.temporal.ADJACENT, measures=self.measures(dm))
        self.all_covariates = covariates(stream.COVARIATES)
        self.style = dm.render.PlotStyle(vertical_markers=(stream.CHANGE_TICK,),
                                         x_label="time (ticks)", y_label="drift magnitude")
        self.encoded = None
        self.expected = None
        self.first_digest = None

    def measures(self, dm):
        raise NotImplementedError

    def setup(self):
        self.encoded = None  # so that two encodings are never held at once
        self.encoded = self.encode()

    def job(self):
        dm = self.dm
        series = dm.temporal.drift_series(self.encoded, self.spec)
        stats = dm.temporal.series_statistics(series)
        return (series, stats, series.to_csv(), series.to_json(),
                dm.render.render_lineplot(series, self.style))

    def _sample_indices(self) -> list[int]:
        change = (stream.CHANGE_TICK - stream.SPAN) // stream.TICKS_PER_DAY
        rng = np.random.default_rng(self.seed)
        picks = {0, SWEEP_POINTS - 1, *range(change - 2, change + 3)}
        picks.update(int(i) for i in rng.integers(0, SWEEP_POINTS, 3))
        return sorted(picks)

    def _oracle(self, mspec, t: int) -> float:
        enc, oracles = self.encoded, self.oracles
        window_a, window_b = self.spec.windows_at(t)
        rows = []
        for w in (window_a, window_b):
            lo, hi = np.searchsorted(enc.timestamps, [w.start, w.end], side="left")
            rows.append(enc.codes[lo:hi].tolist())
        cards = list(enc.cardinalities)
        cols = enc.column_indices(mspec.subset.names)
        class_col = enc.column_indices([self.schema.class_attribute])[0]
        kind, distance = mspec.measure_kind, mspec.distance_kind
        if kind == "conditioned_covariate":
            return oracles.conditioned_covariate_oracle(*rows, cols, class_col, cards, distance)
        if kind == "posterior":
            return oracles.posterior_oracle(*rows, cols, class_col, cards, distance)
        return oracles.marginal_drift_oracle(*rows, cols, cards, distance)

    def _expected(self):
        """Oracle values at the sampled points; the same for every job."""
        if self.expected is None:
            first = self.encoded.timestamps[0] + stream.SPAN
            self.expected = {
                (i, mspec.key): self._oracle(mspec, int(first) + i * self.spec.compute_step)
                for i in self._sample_indices() for mspec in self.spec.measures
            }
        return self.expected

    def check(self, out) -> list[str | None]:
        series, stats, csv_text, json_text, svg = out
        problems = []
        points = series.points
        if len(points) != SWEEP_POINTS:
            problems.append(f"{len(points)} points, expected {SWEEP_POINTS}")
        bad = sum(not m.ok for p in points for m in p.results.values())
        if bad:
            problems.append(f"{bad} measurements not ok")
        if not problems:
            for (i, key), want in self._expected().items():
                got = points[i].results[key].magnitude
                if abs(got - want) > ORACLE_TOL:
                    problems.append(f"{key} at t={points[i].time}: {got!r} vs oracle {want!r}")
        for mspec in self.spec.measures:
            names = mspec.subset.names
            if len(names) == 1 and names[0] in stream.FROZEN:
                nonzero = [p.time for p in points
                           if self.spec.windows_at(p.time)[1].end <= stream.CHANGE_TICK
                           and p.results[mspec.key].magnitude != 0.0]
                if nonzero:
                    problems.append(f"{mspec.key} not exactly 0.0 before the change "
                                    f"at {len(nonzero)} points, first t={nonzero[0]}")
            if mspec.subset == self.all_covariates:
                peak = stats[mspec.key].get("argmax_time")
                if peak is None or abs(peak - stream.CHANGE_TICK) > PEAK_SLACK:
                    problems.append(f"{mspec.key} peaks at t={peak}, "
                                    f"not within 3 days of {stream.CHANGE_TICK}")
        rows = len(points) * len(self.spec.measures)
        if csv_text.count("\n") != rows + 1:
            problems.append("CSV row count differs from the series")
        if len(json.loads(json_text)["points"]) != rows:
            problems.append("JSON row count differs from the series")
        if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")):
            problems.append("line plot is not a complete SVG document")
        digest = _digest(csv_text, json_text, svg)
        self.first_digest = self.first_digest or digest
        if digest != self.first_digest:
            problems.append("serialized output differs from the first job's")
        return ["; ".join(problems) if problems else None]


class SweepMarginal(Sweep):
    name = "sweep_marginal"
    why = ("the paper's headline daily 30-day sweep over five marginal measures: "
           "8,850 window estimates, conditional path and maps bypassed")

    def measures(self, dm):
        MeasureSpec, covariates = dm.temporal.MeasureSpec, dm.estimate.AttributeSubset.covariates
        return tuple(MeasureSpec("covariate", covariates([c])) for c in stream.FROZEN) + (
            MeasureSpec("covariate", covariates(stream.COVARIATES)),
            MeasureSpec("class", dm.estimate.AttributeSubset.class_only(stream.CLASS)),
        )


class SweepConditional(Sweep):
    name = "sweep_conditional"
    why = ("the same sweep with conditioned-covariate and posterior drift: one "
           "inner estimate and distance per covariate tuple, the costliest path")

    def measures(self, dm):
        subset = dm.estimate.AttributeSubset.covariates(stream.COVARIATES)
        return (dm.temporal.MeasureSpec("conditioned_covariate", subset),
                dm.temporal.MeasureSpec("posterior", subset))


def _expected_names(command: list[str]) -> list[str]:
    """Filename patterns one CLI command must write, one per artifact."""
    h = "[0-9a-f]{12}"
    if command[0] == "encode":
        return [f"encoded_{h}\\.csv", f"discretizer_{h}\\.json", f"provenance_{h}\\.json"]
    if command[0] == "measure":
        return [f"measure_{h}\\.csv", f"measure_{h}\\.json"]
    kind = command[command.index("--kind") + 1]
    suffixes = ("_DOWN", "_UP") if kind == "conditioned-pairwise" else ("",)
    return [f"map_{kind}_{h}{s}\\.{ext}" for s in suffixes for ext in ("csv", "json", "svg")]


class CliMaps(Workload):
    """In-process run_cli: encode, measure under TVD and Hellinger, and all
    four map kinds, for one 180-day window pair straddling the change."""

    name = "cli_maps"
    why = ("few large windows over many attribute subsets through the CLI: "
           "re-ingest per command, four map kinds, Hellinger, hashing, artifact writes")
    ops_per_job = 3 + len(MAP_KINDS)  # encode, two measures, one map per kind

    def __init__(self, *args):
        super().__init__(*args)
        half = MAP_DAYS * stream.TICKS_PER_DAY
        self.window_a = (stream.CHANGE_TICK - half, stream.CHANGE_TICK)
        self.window_b = (stream.CHANGE_TICK, stream.CHANGE_TICK + half)
        self.inputs = self.workdir / "input"
        self.jobs_run = 0
        self.expected = None
        self.first_digests = {}

    def setup(self):
        # the same paths every time: the CLI records them in its provenance
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        (self.inputs / "stream.csv").write_text(self.csv_text)
        (self.inputs / "config.yaml").write_text(stream.CONFIG_YAML)

    def commands(self, out_dir) -> list[list[str]]:
        base = ["--config", str(self.inputs / "config.yaml"),
                "--data", str(self.inputs / "stream.csv"), "--out", str(out_dir)]
        windows = ["--window-a", "%d:%d" % self.window_a, "--window-b", "%d:%d" % self.window_b]
        commands = [["encode", *base],
                    ["measure", *base, *windows],
                    ["measure", *base, *windows, "--distance", "hellinger"]]
        commands += [["map", *base, "--kind", kind, *windows, "--format-out", "csv,json,svg"]
                     for kind in MAP_KINDS]
        return commands

    def job(self):
        self.jobs_run += 1
        out_dir = self.workdir / f"job-{self.jobs_run}"
        results = []
        for command in self.commands(out_dir):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.dm.cli.run_cli(command)
            results.append((command, code, stdout.getvalue().split(), stderr.getvalue()))
        return out_dir, results

    def _expected(self):
        """The library's rows and grids for the same window pair."""
        if self.expected is None:
            dm = self.dm
            enc = self.encode()
            a = dm.estimate.TimeInterval(*self.window_a)
            b = dm.estimate.TimeInterval(*self.window_b)
            subsets = dm.estimate.AttributeSubset
            cov = stream.COVARIATES
            kinds = [("joint", subsets.joint(cov, stream.CLASS)),
                     ("covariate", subsets.covariates(cov)),
                     ("class", subsets.class_only(stream.CLASS)),
                     ("conditioned_covariate", subsets.covariates(cov)),
                     ("posterior", subsets.covariates(cov))]
            measure = {
                distance: [dm.measures.compute_drift(enc, a, b, k, s, distance).to_row()
                           for k, s in kinds]
                for distance in (TVD, "hellinger")
            }
            maps = dm.maps
            grids = {
                "pairwise-joint": [maps.pairwise_joint_map(enc, a, b, None, TVD)],
                "conditioned-univariate": [maps.conditioned_univariate_map(enc, a, b, None, TVD)],
                "conditioned-pairwise": maps.conditioned_pairwise_map(enc, a, b, None, TVD),
                "posterior-pairwise": [maps.posterior_pairwise_map(enc, a, b, None, TVD)],
            }
            cells = {(kind, g.class_label or ""): g.to_rows()
                     for kind, gs in grids.items() for g in gs}
            self.expected = (measure, cells, list(enc.cardinalities))
        return self.expected

    def _check_command(self, index, command, code, paths, stderr) -> str | None:
        if code != 0:
            return f"{command[0]} exited {code}: {stderr.strip()}"
        files = {Path(p).name: Path(p) for p in paths}
        patterns = _expected_names(command)
        if len(files) != len(patterns) or not all(
                any(re.fullmatch(p, n) for n in files) for p in patterns):
            return f"{command[0]} wrote {sorted(files)}"
        measure, cells, cards = self._expected()
        contents = {name: path.read_bytes() for name, path in sorted(files.items())}
        digest = _digest(*(name.encode() + data for name, data in contents.items()))
        first = self.first_digests.setdefault(index, digest)
        if digest != first:
            return f"{command[0]} artifacts differ from the first job's"
        for name, content in contents.items():
            if not name.endswith(".json"):
                continue
            doc = json.loads(content)
            if name.startswith("provenance_"):
                if doc["records"] != stream.RECORDS or doc["cardinalities"] != cards:
                    return f"{name}: records/cardinalities differ from the library"
            elif name.startswith("measure_"):
                distance = "hellinger" if "hellinger" in command else TVD
                if doc["measurements"] != measure[distance]:
                    return f"{name}: measurements differ from the library"
            elif name.startswith("map_"):
                kind = command[command.index("--kind") + 1]
                if doc["cells"] != cells[(kind, doc["class"] or "")]:
                    return f"{name}: grid cells differ from the library"
        return None

    def check(self, out) -> list[str | None]:
        _, results = out
        return [self._check_command(i, *result) for i, result in enumerate(results)]

    def written(self, out) -> tuple[int, int]:
        out_dir, _ = out
        files = [p for p in out_dir.iterdir() if p.is_file()] if out_dir.exists() else []
        return len(files), sum(p.stat().st_size for p in files)

    def close(self, out) -> None:
        if out is not None:
            shutil.rmtree(out[0], ignore_errors=True)


WORKLOADS = {w.name: w for w in (SweepMarginal, SweepConditional, CliMaps)}
