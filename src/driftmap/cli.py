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
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

from . import maps as maps_mod
from .discretize import (
    DEFAULT_BIN_COUNT,
    Discretizer,
    EncodedDataset,
    apply_discretizer,
    fit_discretizer,
)
from .estimate import AttributeSubset, TimeInterval
from .measures import (
    CLASS_DRIFT,
    COVARIATE_DRIFT,
    JOINT_DRIFT,
    CONDITIONED_COVARIATE_DRIFT,
    POSTERIOR_DRIFT,
    TOTAL_VARIATION,
    HELLINGER,
    MEASUREMENT_FIELDS,
    compute_drift,
    rows_to_csv,
)
from .render import PlotStyle, render_heatmap, render_lineplot
from .schema import AttributeSchema, check_keys, ingest_records, parse_schema
from .temporal import ADJACENT, CONSECUTIVE, MeasureSpec, SweepSpec, drift_series
from .temporal import series_statistics

_MAP_KINDS = {
    "pairwise-joint": maps_mod.PAIRWISE_JOINT,
    "conditioned-univariate": maps_mod.CONDITIONED_UNIVARIATE,
    "conditioned-pairwise": maps_mod.CONDITIONED_PAIRWISE,
    "posterior-pairwise": maps_mod.POSTERIOR_PAIRWISE,
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
    text = str(text).strip()
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
        raise CliError(f"unparseable span {text!r}") from None
    if value <= 0:
        raise CliError("span/step must be positive")
    return value


def _parse_measure(text: str, schema: AttributeSchema) -> tuple[str, AttributeSubset]:
    """'kind' or 'kind:attr1,attr2' -> (measure_kind, subset)."""
    kind, _, attrs = text.partition(":")
    kind = kind.strip().replace("-", "_")
    names = tuple(a.strip() for a in attrs.split(",") if a.strip())
    covariates = names or schema.covariate_names
    if kind == CLASS_DRIFT:
        if names:
            raise CliError(f"measure 'class' takes no attributes, got {text!r}")
        subset = AttributeSubset.class_only(schema.class_attribute)
    elif kind == JOINT_DRIFT:
        subset = AttributeSubset.joint(covariates, schema.class_attribute)
    elif kind in (COVARIATE_DRIFT, CONDITIONED_COVARIATE_DRIFT, POSTERIOR_DRIFT):
        subset = AttributeSubset.covariates(covariates)
    else:
        raise CliError(f"unknown measure kind {kind!r}")
    return kind, subset


def _parse_formats(text: str) -> set[str]:
    """'csv,json' -> {'csv', 'json'}; an unknown or empty list is an error."""
    formats = {f.strip() for f in text.split(",") if f.strip()}
    if not formats or not formats <= set(ARTIFACT_FORMATS):
        raise CliError(f"--format-out must list some of {', '.join(ARTIFACT_FORMATS)}; "
                       f"got {text!r}")
    return formats


def _parse_interval(text: str) -> TimeInterval:
    try:
        start, end = text.split(":")
        return TimeInterval(int(start), int(end))
    except (ValueError, TypeError):
        raise CliError(f"window must be START:END ticks, got {text!r}") from None


def _provenance_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_artifacts(out_dir, artifacts: dict[str, str]) -> list[Path]:
    """Write each named artifact under ``out_dir``, in order. If a write
    fails, every file written so far (a partial one too) is removed, so no
    partial outputs survive. The directory is created only when needed."""
    out_dir, written = Path(out_dir), []
    try:
        for name, content in artifacts.items():
            out_dir.mkdir(parents=True, exist_ok=True)
            written.append(out_dir / name)
            written[-1].write_text(content)
    except BaseException:
        for path in written:
            if path.is_file():
                path.unlink()
        raise
    return written


def _load_pipeline(args) -> tuple[dict, AttributeSchema, EncodedDataset, str]:
    """Config + data -> (analysis section, schema, encoded dataset, provenance seed)."""
    config_text = Path(args.config).read_text()
    import yaml

    config = yaml.safe_load(config_text)
    schema = parse_schema(config)
    analysis = check_keys(config.get("analysis"), ANALYSIS_KEYS, "analysis")
    discretization = check_keys(config.get("discretization"), DISCRETIZATION_KEYS,
                                "discretization")

    data_path = Path(args.data)
    data_bytes = data_path.read_bytes()
    fmt = args.format or ("arff" if data_path.suffix.lower() == ".arff" else "csv")
    raw = ingest_records(data_bytes, fmt, schema)

    bins = args.bins
    if bins is None:
        bins = discretization.get("bins")
    if bins is None:
        bins = DEFAULT_BIN_COUNT
    if getattr(args, "discretizer", None):
        discretizer = Discretizer.from_json(Path(args.discretizer).read_text(), schema)
    else:
        discretizer = fit_discretizer(raw, bins)
    encoded = apply_discretizer(raw, discretizer)

    seed = _provenance_hash({
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "data_sha256": hashlib.sha256(data_bytes).hexdigest(),
        "bins": bins,
        "format": fmt,
    })
    return analysis, schema, encoded, seed


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


def _encoded_csv(encoded: EncodedDataset) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("timestamp",) + encoded.attribute_names)
    writer.writerows(zip(encoded.timestamps.tolist(), *encoded.codes.T.tolist()))
    return out.getvalue()


def cmd_encode(args) -> list[Path]:
    _, schema, encoded, seed = _load_pipeline(args)
    key = _provenance_hash({"cmd": "encode", "seed": seed})
    return _write_artifacts(args.out, {
        f"encoded_{key}.csv": _encoded_csv(encoded),
        f"discretizer_{key}.json": encoded.discretizer.to_json() + "\n",
        f"provenance_{key}.json": _json(_provenance_doc(args, seed, {
            "command": "encode",
            "records": len(encoded),
            "cardinalities": list(encoded.cardinalities),
            "overflow_counts": encoded.overflow_counts,
            "discretizer": f"discretizer_{key}.json",
        })),
    })


def cmd_measure(args) -> list[Path]:
    analysis, schema, encoded, seed = _load_pipeline(args)
    window_a = _parse_interval(args.window_a)
    window_b = _parse_interval(args.window_b)
    distance = _distance(args, analysis)
    measure_args = args.measure or ["joint", "covariate", "class",
                                    "conditioned_covariate", "posterior"]
    results = []
    for text in measure_args:
        kind, subset = _parse_measure(text, schema)
        results.append(compute_drift(encoded, window_a, window_b, kind, subset, distance))

    key = _provenance_hash({
        "cmd": "measure", "seed": seed, "distance": distance,
        "windows": [window_a.start, window_a.end, window_b.start, window_b.end],
        "measures": sorted(measure_args),
    })
    rows = [m.to_row() for m in results]
    artifacts = {}
    if "csv" in args.formats:
        artifacts[f"measure_{key}.csv"] = rows_to_csv(rows, MEASUREMENT_FIELDS)
    if "json" in args.formats:
        artifacts[f"measure_{key}.json"] = _json({
            "provenance": _provenance_doc(args, seed, {
                "command": "measure", "distance": distance,
                "one_sided_conditionals": "inner distance fixed at 1.0",
            }),
            "measurements": rows,
        })
    return _write_artifacts(args.out, artifacts)


def cmd_series(args) -> list[Path]:
    analysis, schema, encoded, seed = _load_pipeline(args)
    distance = _distance(args, analysis)
    step = _parse_span(args.step or analysis.get("step", 1), schema)
    span = _parse_span(args.span or analysis.get("span", 1), schema)
    alignment = args.alignment or analysis.get("alignment", ADJACENT)
    measure_args = args.measure or analysis.get("measures") or ["covariate"]
    specs = tuple(
        MeasureSpec(*_parse_measure(text, schema), distance_kind=distance)
        for text in measure_args
    )
    spec = SweepSpec(compute_step=step, span=span, alignment=alignment, measures=specs)
    series = drift_series(encoded, spec)

    key = _provenance_hash({
        "cmd": "series", "seed": seed, "distance": distance,
        "step": step, "span": span, "alignment": alignment,
        "measures": sorted(measure_args),
    })
    artifacts = {}
    if "csv" in args.formats:
        artifacts[f"series_{key}.csv"] = series.to_csv()
    if "json" in args.formats:
        artifacts[f"series_{key}.json"] = _json({
            "provenance": _provenance_doc(args, seed, {
                "command": "series", "distance": distance,
                "step": step, "span": span, "alignment": alignment,
            }),
            "status": series.status,
            "statistics": series_statistics(series) if len(series) else {},
            "points": series.to_rows(),
        })
    if "svg" in args.formats and len(series):
        markers = tuple(int(m) for m in (args.marker or ()))
        style = PlotStyle(vertical_markers=markers,
                          x_label="time (ticks)", y_label="drift magnitude")
        artifacts[f"series_{key}.svg"] = render_lineplot(series, style)
    return _write_artifacts(args.out, artifacts)


def cmd_map(args) -> list[Path]:
    analysis, schema, encoded, seed = _load_pipeline(args)
    window_a = _parse_interval(args.window_a)
    window_b = _parse_interval(args.window_b)
    distance = _distance(args, analysis)
    attributes = tuple(a.strip() for a in args.subset.split(",")) if args.subset else None

    kind = _MAP_KINDS[args.kind]
    if kind == maps_mod.PAIRWISE_JOINT:
        grids = [maps_mod.pairwise_joint_map(
            encoded, window_a, window_b, attributes, distance,
            include_class=args.classes_on_map)]
    elif kind == maps_mod.CONDITIONED_UNIVARIATE:
        grids = [maps_mod.conditioned_univariate_map(
            encoded, window_a, window_b, attributes, distance)]
    elif kind == maps_mod.CONDITIONED_PAIRWISE:
        grids = maps_mod.conditioned_pairwise_map(
            encoded, window_a, window_b, attributes, distance)
    else:
        grids = [maps_mod.posterior_pairwise_map(
            encoded, window_a, window_b, attributes, distance)]

    key = _provenance_hash({
        "cmd": "map", "seed": seed, "distance": distance, "kind": args.kind,
        "windows": [window_a.start, window_a.end, window_b.start, window_b.end],
        "subset": list(attributes or ()),
        "classes_on_map": bool(args.classes_on_map),
    })
    artifacts = {}
    for grid in grids:
        suffix = f"_{grid.class_label}" if grid.class_label else ""
        stem = f"map_{args.kind}_{key}{suffix}"
        if "csv" in args.formats:
            artifacts[stem + ".csv"] = grid.to_csv()
        if "json" in args.formats:
            doc = json.loads(grid.to_json())
            doc["provenance"] = _provenance_doc(args, seed, {
                "command": "map", "kind": args.kind, "distance": distance,
            })
            artifacts[stem + ".json"] = _json(doc)
        if "svg" in args.formats:
            artifacts[stem + ".svg"] = render_heatmap(grid)
    return _write_artifacts(args.out, artifacts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftmap",
        description="Quantify and map concept drift in timestamped tabular data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, windows=False):
        p.add_argument("--config", required=True, help="YAML schema/analysis config")
        p.add_argument("--data", required=True, help="input CSV or ARFF file")
        p.add_argument("--format", choices=["csv", "arff"],
                       help="input format (default: by file extension)")
        p.add_argument("--bins", type=int, help="equal-frequency bin count (default 5)")
        p.add_argument("--discretizer", help="reuse a fitted discretizer sidecar JSON")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--distance", choices=["tvd", "hellinger"])
        p.add_argument("--format-out", dest="formats", default="csv,json",
                       help="comma list of artifact formats: csv,json,svg")
        if windows:
            p.add_argument("--window-a", required=True, help="START:END ticks")
            p.add_argument("--window-b", required=True, help="START:END ticks")

    p_encode = sub.add_parser("encode", help="ingest, fit and apply the discretizer")
    common(p_encode)
    p_encode.set_defaults(func=cmd_encode)

    p_measure = sub.add_parser("measure", help="drift measures for one window pair")
    common(p_measure, windows=True)
    p_measure.add_argument("--measure", action="append",
                           help="kind[:attr,...]; repeatable")
    p_measure.set_defaults(func=cmd_measure)

    p_series = sub.add_parser("series", help="sweep drift measures along the stream")
    common(p_series)
    p_series.add_argument("--step", help="evaluation frequency (ticks or Nd/Nw)")
    p_series.add_argument("--span", help="compared-period span (ticks or Nd/Nw)")
    p_series.add_argument("--alignment", choices=[ADJACENT, CONSECUTIVE])
    p_series.add_argument("--measure", action="append",
                          help="kind[:attr,...]; repeatable")
    p_series.add_argument("--marker", action="append",
                          help="dashed vertical marker at this tick; repeatable")
    p_series.set_defaults(func=cmd_series)

    p_map = sub.add_parser("map", help="heat-map grids for one window pair")
    common(p_map, windows=True)
    p_map.add_argument("--kind", choices=sorted(_MAP_KINDS), required=True)
    p_map.add_argument("--subset", help="comma list of attributes (default: all covariates)")
    p_map.add_argument("--classes-on-map", action="store_true",
                       help="include the class attribute on pairwise-joint maps")
    p_map.set_defaults(func=cmd_map)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.formats = _parse_formats(args.formats)
        written = args.func(args)
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
