"""Command-line front end: encode, measure, series, map.

Every run is driven by a YAML config document (schema plus optional
analysis defaults); command-line flags override config fields. Artifact
filenames are deterministic, derived from the subcommand and a provenance
hash of the resolved parameters and input data, and every JSON artifact
embeds that provenance. Reruns on identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import maps as maps_mod
from .discretize import (
    DEFAULT_BIN_COUNT,
    Discretizer,
    EncodedDataset,
    apply_discretizer,
    fit_discretizer,
)
from .estimate import CLASS_ONLY, JOINT, AttributeSubset, EstimationError, TimeInterval
from .measures import (
    TOTAL_VARIATION,
    HELLINGER,
    MEASURE_ROLES,
    MEASUREMENT_FIELDS,
    compute_drift,
    table_csv,
    table_json,
)
from .render import PlotStyle, render_heatmap, render_lineplot
from .schema import AttributeSchema, check_keys, ingest_records, parse_schema
from .temporal import ADJACENT, CONSECUTIVE, MeasureSpec, SweepSpec, drift_series
from .temporal import check_unique_measures, series_statistics

# --kind -> its builder's name in driftmap.maps, looked up when the command runs
_MAP_BUILDERS = {
    "pairwise-joint": "pairwise_joint_map",
    "conditioned-univariate": "conditioned_univariate_map",
    "conditioned-pairwise": "conditioned_pairwise_map",
    "posterior-pairwise": "posterior_pairwise_map",
}


# keys of the config sections read here; parse_schema checks the rest
ANALYSIS_KEYS = ("distance", "step", "span", "alignment", "measures")
DISCRETIZATION_KEYS = ("bins",)
ARTIFACT_FORMATS = ("csv", "json", "svg")


class CliError(ValueError):
    pass


def _parse_span(text, schema: AttributeSchema) -> int:
    """A span/step value: integer ticks, or 'Nd'/'Nw' resolved via the
    schema's declared ticks_per_day."""
    given = text = str(text).strip()
    unit = 1
    if text.endswith(("d", "w")):
        if schema.ticks_per_day is None:
            raise CliError(f"span {text!r} uses calendar units but the schema "
                           "declares no ticks_per_day")
        unit = schema.ticks_per_day * (7 if text.endswith("w") else 1)
        text = text[:-1]
    try:
        value = int(text) * unit
    except ValueError:
        raise CliError(f"unparseable span {given!r}") from None
    if value <= 0:
        raise CliError("span/step must be positive")
    return value


def _name_list(text: str, flag: str) -> tuple[str, ...]:
    """'attr1,attr2' -> its names; an empty list or name is an error naming ``flag``."""
    names = tuple(n.strip() for n in text.split(","))
    if not all(names):
        raise CliError(f"{flag} needs a comma list of attribute names, got {text!r}")
    return names


def _parse_measure(text: str, schema: AttributeSchema) -> tuple[str, AttributeSubset]:
    """'kind' or 'kind:attr1,attr2' -> (measure_kind, subset)."""
    kind, colon, attrs = text.partition(":")
    kind = kind.strip().replace("-", "_")
    names = _name_list(attrs, f"--measure {text!r}") if colon else ()
    covariates = names or schema.covariate_names
    if kind not in MEASURE_ROLES:
        raise CliError(f"unknown measure kind {kind!r}")
    if MEASURE_ROLES[kind] == CLASS_ONLY:
        if names:
            raise CliError(f"measure {kind!r} takes no attributes, got {text!r}")
        return kind, AttributeSubset.class_only(schema.class_attribute)
    if MEASURE_ROLES[kind] == JOINT:
        return kind, AttributeSubset.joint(covariates, schema.class_attribute)
    return kind, AttributeSubset.covariates(covariates)


def _measure_args(args, analysis: dict, default: list[str]) -> list[str]:
    """The --measure values, else ``analysis.measures``, else ``default``;
    the config's list must be a non-empty list of strings."""
    measure_args = args.measure or analysis.get("measures", default)
    if not (isinstance(measure_args, list) and measure_args
            and all(isinstance(m, str) for m in measure_args)):
        raise CliError(f"analysis.measures must be a non-empty list of measures, "
                       f"got {measure_args!r}")
    return measure_args


def _measure_specs(texts, schema: AttributeSchema, distance: str) -> tuple[MeasureSpec, ...]:
    """--measure values -> MeasureSpecs, their attributes checked against the
    schema; naming one measure twice is an error."""
    specs = tuple(MeasureSpec(*_parse_measure(text, schema), distance_kind=distance)
                  for text in texts)
    for spec in specs:
        spec.subset.validate_against(schema)
    check_unique_measures(specs)
    return specs


def _parse_formats(args) -> set[str]:
    """--format-out 'csv,json' -> {'csv', 'json'}; an empty list, or a format
    the subcommand does not write, is an error."""
    formats = {f.strip() for f in args.formats.split(",") if f.strip()}
    if not formats or not formats <= set(args.writable):
        unwritten = [f for f in ARTIFACT_FORMATS if f not in args.writable]
        note = f" ({args.command} writes no {', '.join(unwritten)})" if unwritten else ""
        raise CliError(f"--format-out must list some of {', '.join(args.writable)}{note}; "
                       f"got {args.formats!r}")
    return formats


def _windows(args) -> tuple[TimeInterval, TimeInterval]:
    """--window-a and --window-b, each 'START:END', as intervals; an empty or
    reversed one fails as such, naming its flag."""
    windows = []
    for flag, text in (("--window-a", args.window_a), ("--window-b", args.window_b)):
        try:
            start, end = map(int, text.split(":"))
        except ValueError:
            raise CliError(f"window must be START:END ticks, got {text!r}") from None
        try:
            windows.append(TimeInterval(start, end))
        except EstimationError as exc:
            raise CliError(f"{flag}: {exc}") from None
    return windows[0], windows[1]


def _provenance_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_artifacts(out_dir, formats: set[str], artifacts: dict) -> list[Path]:
    """Write, in order under ``out_dir``, each named artifact whose file
    extension is in ``formats``. A content may be a callable that builds the
    text; it is called only for an artifact that is written. If a write
    fails, every file written so far (a partial one too) is removed, so no
    partial outputs survive. The directory is created only when needed."""
    out_dir, written = Path(out_dir), []
    try:
        for name, content in artifacts.items():
            if Path(name).suffix[1:] not in formats:
                continue
            content = content() if callable(content) else content
            out_dir.mkdir(parents=True, exist_ok=True)
            written.append(out_dir / name)
            written[-1].write_text(content)
    except BaseException:
        for path in written:
            if path.is_file():
                path.unlink()
        raise
    return written


@dataclass(frozen=True)
class Config:
    """The config document, read before any data: its text (hashed into the
    provenance), the schema, the analysis section and the configured bins."""

    text: str
    schema: AttributeSchema
    analysis: dict
    bins: int


def _load_config(args) -> Config:
    text = Path(args.config).read_text()
    import yaml

    config = yaml.safe_load(text)
    schema = parse_schema(config)
    analysis = check_keys(config.get("analysis"), ANALYSIS_KEYS, "analysis")
    discretization = check_keys(config.get("discretization"), DISCRETIZATION_KEYS,
                                "discretization")
    bins = discretization.get("bins", DEFAULT_BIN_COUNT)
    if not isinstance(bins, int) or isinstance(bins, bool):
        raise CliError(f"discretization.bins must be an integer, got {bins!r}")
    return Config(text, schema, analysis, bins)


def _load_data(args, config: Config) -> tuple[EncodedDataset, str]:
    """Ingest, fit (or read the sidecar) and apply -> (encoded dataset, provenance seed)."""
    data_path = Path(args.data)
    data_bytes = data_path.read_bytes()
    fmt = args.format or ("arff" if data_path.suffix.lower() == ".arff" else "csv")
    raw = ingest_records(data_bytes, fmt, config.schema)

    # a sidecar fixes the bins, so --bins enters the hash only when fitting
    if args.discretizer:
        sidecar_text = Path(args.discretizer).read_text()
        discretizer = Discretizer.from_json(sidecar_text, config.schema)
        fitting = {"discretizer_sha256": hashlib.sha256(sidecar_text.encode()).hexdigest()}
    else:
        bins = config.bins if args.bins is None else args.bins
        discretizer = fit_discretizer(raw, bins)
        fitting = {"bins": bins}
    encoded = apply_discretizer(raw, discretizer)

    seed = _provenance_hash({
        "config_sha256": hashlib.sha256(config.text.encode()).hexdigest(),
        "data_sha256": hashlib.sha256(data_bytes).hexdigest(),
        "format": fmt,
        **fitting,
    })
    return encoded, seed


def _provenance_doc(args, seed: str, extra: dict) -> dict:
    doc = {
        "input_hash": seed,
        "config": str(args.config),
        "data": str(args.data),
    }
    doc.update(extra)
    return doc


def _distance(args, analysis: dict) -> str:
    if args.distance:
        return {"tvd": TOTAL_VARIATION, "hellinger": HELLINGER}[args.distance]
    configured = analysis.get("distance", TOTAL_VARIATION)
    if configured not in (TOTAL_VARIATION, HELLINGER):
        raise CliError(f"unknown analysis.distance {configured!r}; "
                       f"expected {TOTAL_VARIATION!r} or {HELLINGER!r}")
    return configured


def cmd_encode(args) -> dict:
    encoded, seed = _load_data(args, _load_config(args))
    key = _provenance_hash({"cmd": "encode", "seed": seed})
    return {
        f"encoded_{key}.csv": partial(table_csv, ("timestamp",) + encoded.attribute_names,
                                      [encoded.timestamps, *encoded.codes.T]),
        f"discretizer_{key}.json": encoded.discretizer.to_json() + "\n",
        f"provenance_{key}.json": _json(_provenance_doc(args, seed, {
            "command": "encode",
            "records": len(encoded),
            "cardinalities": list(encoded.cardinalities),
            "overflow_counts": encoded.overflow_counts,
            "discretizer": f"discretizer_{key}.json",
        })),
    }


def cmd_measure(args) -> dict:
    window_a, window_b = _windows(args)
    config = _load_config(args)
    distance = _distance(args, config.analysis)
    measure_args = _measure_args(args, config.analysis, list(MEASURE_ROLES))
    specs = _measure_specs(measure_args, config.schema, distance)
    encoded, seed = _load_data(args, config)
    results = [compute_drift(encoded, window_a, window_b, m.measure_kind, m.subset, distance)
               for m in specs]

    key = _provenance_hash({
        "cmd": "measure", "seed": seed, "distance": distance,
        "windows": [window_a.start, window_a.end, window_b.start, window_b.end],
        "measures": sorted(measure_args),
    })
    rows = [m.to_row() for m in results]
    columns = [[row[name] for row in rows] for name in MEASUREMENT_FIELDS]
    return {
        f"measure_{key}.csv": table_csv(MEASUREMENT_FIELDS, columns),
        f"measure_{key}.json": table_json({
            "provenance": _provenance_doc(args, seed, {
                "command": "measure", "distance": distance,
                "one_sided_conditionals": "inner distance fixed at 1.0",
            }),
        }, "measurements", MEASUREMENT_FIELDS, columns) + "\n",
    }


def cmd_series(args) -> dict:
    config = _load_config(args)
    analysis, schema = config.analysis, config.schema
    distance = _distance(args, analysis)
    step = _parse_span(args.step or analysis.get("step", 1), schema)
    span = _parse_span(args.span or analysis.get("span", 1), schema)
    alignment = args.alignment or analysis.get("alignment", ADJACENT)
    measure_args = _measure_args(args, analysis, ["covariate"])
    spec = SweepSpec(compute_step=step, span=span, alignment=alignment,
                     measures=_measure_specs(measure_args, schema, distance))
    encoded, seed = _load_data(args, config)
    series = drift_series(encoded, spec)

    key = _provenance_hash({
        "cmd": "series", "seed": seed, "distance": distance,
        "step": step, "span": span, "alignment": alignment,
        "measures": sorted(measure_args),
    })
    artifacts = {
        f"series_{key}.csv": series.to_csv(),
        f"series_{key}.json": series.to_json({
            "provenance": _provenance_doc(args, seed, {
                "command": "series", "distance": distance,
                "step": step, "span": span, "alignment": alignment,
            }),
            "statistics": series_statistics(series) if len(series) else {},
        }) + "\n",
    }
    if len(series):
        style = PlotStyle(vertical_markers=tuple(args.marker or ()),
                          x_label="time (ticks)", y_label="drift magnitude")
        artifacts[f"series_{key}.svg"] = partial(render_lineplot, series, style)
    return artifacts


def _file_label(label: str) -> str:
    """``label`` as part of one file name: ``%``, ``/`` and NUL are written
    ``%25``, ``%2F`` and ``%00``, so that two labels never share a name."""
    return "".join(f"%{ord(c):02X}" if c in "%/\0" else c for c in label)


def cmd_map(args) -> dict:
    if args.classes_on_map and args.kind != "pairwise-joint":
        raise CliError(f"--classes-on-map applies only to --kind pairwise-joint, "
                       f"not {args.kind!r}")
    window_a, window_b = _windows(args)
    config = _load_config(args)
    distance = _distance(args, config.analysis)
    attributes = None if args.subset is None else _name_list(args.subset, "--subset")
    # a --kind is its map kind, dashed
    maps_mod.map_attributes(config.schema, attributes, args.kind.replace("-", "_"),
                            args.classes_on_map)
    encoded, seed = _load_data(args, config)
    extra = {"include_class": True} if args.classes_on_map else {}
    grids = getattr(maps_mod, _MAP_BUILDERS[args.kind])(
        encoded, window_a, window_b, attributes, distance, **extra)

    key = _provenance_hash({
        "cmd": "map", "seed": seed, "distance": distance, "kind": args.kind,
        "windows": [window_a.start, window_a.end, window_b.start, window_b.end],
        "subset": list(attributes or ()),
        "classes_on_map": bool(args.classes_on_map),
    })
    artifacts = {}
    for grid in grids if isinstance(grids, list) else [grids]:
        suffix = f"_{_file_label(grid.class_label)}" if grid.class_label else ""
        stem = f"map_{args.kind}_{key}{suffix}"
        artifacts[stem + ".csv"] = grid.to_csv()
        artifacts[stem + ".json"] = grid.to_json({"provenance": _provenance_doc(args, seed, {
            "command": "map", "kind": args.kind, "distance": distance,
        })}) + "\n"
        artifacts[stem + ".svg"] = partial(render_heatmap, grid)
    return artifacts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftmap",
        description="Quantify and map concept drift in timestamped tabular data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, writable, windows=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, writable=writable)
        p.add_argument("--config", required=True, help="YAML schema/analysis config")
        p.add_argument("--data", required=True, help="input CSV or ARFF file")
        p.add_argument("--format", choices=["csv", "arff"],
                       help="input format (default: by file extension)")
        p.add_argument("--bins", type=int, help="equal-frequency bin count (default 5)")
        p.add_argument("--discretizer", help="reuse a fitted discretizer sidecar JSON")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format-out", dest="formats", default="csv,json",
                       help="comma list of artifact formats: " + ",".join(writable))
        if windows:
            p.add_argument("--window-a", required=True, help="START:END ticks")
            p.add_argument("--window-b", required=True, help="START:END ticks")
        return p

    command("encode", "ingest, fit and apply the discretizer", cmd_encode, ("csv", "json"))

    p_measure = command("measure", "drift measures for one window pair", cmd_measure,
                        ("csv", "json"), windows=True)
    p_measure.add_argument("--measure", action="append",
                           help="kind[:attr,...]; repeatable")

    p_series = command("series", "sweep drift measures along the stream", cmd_series,
                       ARTIFACT_FORMATS)
    p_series.add_argument("--step", help="evaluation frequency (ticks or Nd/Nw)")
    p_series.add_argument("--span", help="compared-period span (ticks or Nd/Nw)")
    p_series.add_argument("--alignment", choices=[ADJACENT, CONSECUTIVE])
    p_series.add_argument("--measure", action="append",
                          help="kind[:attr,...]; repeatable")
    p_series.add_argument("--marker", type=int, action="append",
                          help="dashed vertical marker at this tick; repeatable")

    p_map = command("map", "heat-map grids for one window pair", cmd_map, ARTIFACT_FORMATS,
                    windows=True)
    p_map.add_argument("--kind", choices=sorted(_MAP_BUILDERS), required=True)
    p_map.add_argument("--subset", help="comma list of attributes (default: all covariates)")
    p_map.add_argument("--classes-on-map", action="store_true",
                       help="add the class attribute to a pairwise-joint map")
    for p in (p_measure, p_series, p_map):
        p.add_argument("--distance", choices=["tvd", "hellinger"])
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        written = _write_artifacts(args.out, _parse_formats(args), args.func(args))
    except Exception as exc:  # noqa: BLE001 - single exit point for the CLI
        print(f"driftmap: error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
