"""Schema declaration and dataset ingestion for timestamped tabular streams.

A schema names the analyzed attributes (covariates plus one categorical
class attribute), says where timestamps come from, and optionally excludes
columns from analysis. Ingestion reads CSV or ARFF against the schema and
yields a timestamp-ordered :class:`RawDataset`.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

import yaml

CATEGORICAL = "categorical"
NUMERIC = "numeric"
RECORD_INDEX = "record-index"

MISSING_MARKERS = {"?", ""}


class SchemaError(ValueError):
    """Raised for an invalid or inconsistent schema declaration."""


class IngestError(ValueError):
    """Raised when input data cannot be parsed against the schema."""


@dataclass(frozen=True)
class Attribute:
    name: str
    kind: str  # CATEGORICAL or NUMERIC
    declared_domain: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise SchemaError(f"unknown attribute kind {self.kind!r} for {self.name!r}")


@dataclass(frozen=True)
class AttributeSchema:
    """Declares the analyzed columns, the class attribute and the time source.

    ``timestamp_source`` is either a column name or ``"record-index"``, in
    which case the ordinal row position stands in for time. Timestamps are
    integer ticks; ``ticks_per_day`` and ``epoch`` let downstream modules
    resolve calendar spans like "30 days" against the tick unit.
    """

    attributes: tuple[Attribute, ...]
    class_attribute: str
    timestamp_source: str = RECORD_INDEX
    excluded: tuple[str, ...] = ()
    ticks_per_day: int | None = None
    epoch: str | None = None

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate attribute names in schema")
        if self.class_attribute not in names:
            raise SchemaError(f"class attribute {self.class_attribute!r} not declared")
        if self.attribute(self.class_attribute).kind != CATEGORICAL:
            raise SchemaError("class attribute must be categorical")
        overlap = set(self.excluded) & set(names)
        if overlap:
            raise SchemaError(f"excluded columns also declared as attributes: {sorted(overlap)}")

    def attribute(self, name: str) -> Attribute:
        for a in self.attributes:
            if a.name == name:
                return a
        raise KeyError(name)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes if a.name != self.class_attribute)


@dataclass(frozen=True)
class RawDataset:
    """Timestamp-ordered records, one raw value slot per analyzed attribute.

    ``records`` holds ``(timestamp, values)`` pairs where ``values`` lines up
    with ``schema.attributes``; missing cells are ``None``. Records are sorted
    by timestamp, input order preserved on ties.
    """

    schema: AttributeSchema
    records: tuple[tuple[int, tuple], ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> list:
        idx = self.schema.attribute_names.index(name)
        return [values[idx] for _, values in self.records]

    def to_csv(self) -> str:
        """Serialize back to CSV (timestamp column first). Round-trips."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("__timestamp__",) + self.schema.attribute_names)
        for ts, values in self.records:
            writer.writerow([ts] + ["?" if v is None else v for v in values])
        return out.getvalue()


def parse_schema(config_document) -> AttributeSchema:
    """Build an :class:`AttributeSchema` from a YAML document or parsed dict.

    Expected keys: ``attributes`` (list of ``{name, kind, domain?}``),
    ``class`` (name of the class attribute), optional ``timestamp``
    (``{source, ticks_per_day?, epoch?}``) and ``exclude`` (list of column
    names dropped from analysis).
    """
    if isinstance(config_document, (str, bytes)):
        config = yaml.safe_load(config_document)
    else:
        config = config_document
    if not isinstance(config, dict):
        raise SchemaError("schema config must be a mapping")

    try:
        raw_attrs = config["attributes"]
        class_name = config["class"]
    except KeyError as exc:
        raise SchemaError(f"schema config missing required key: {exc}") from exc

    attributes = []
    for entry in raw_attrs:
        domain = entry.get("domain")
        attributes.append(
            Attribute(
                name=str(entry["name"]),
                kind=str(entry.get("kind", NUMERIC)),
                declared_domain=tuple(str(v) for v in domain) if domain else None,
            )
        )

    ts_conf = config.get("timestamp") or {}
    return AttributeSchema(
        attributes=tuple(attributes),
        class_attribute=str(class_name),
        timestamp_source=str(ts_conf.get("source", RECORD_INDEX)),
        excluded=tuple(str(c) for c in config.get("exclude", ())),
        ticks_per_day=ts_conf.get("ticks_per_day"),
        epoch=ts_conf.get("epoch"),
    )


def _parse_cell(raw: str, attr: Attribute, row_number: int):
    value = raw.strip()
    if value in MISSING_MARKERS:
        return None
    if attr.kind == NUMERIC:
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):  # nan/inf would land in a bin silently
            raise IngestError(
                f"row {row_number}: cannot parse {value!r} as a finite number "
                f"for attribute {attr.name!r}"
            )
        return number
    # ARFF convention: strip optional quoting on nominal values
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        value = value[1:-1]
    return value


def _parse_timestamp(raw: str, row_number: int) -> int:
    """An integer tick, parsed exactly; integral decimals such as "5.0" pass."""
    value = raw.strip()
    try:
        tick = Decimal(value)
    except InvalidOperation:
        tick = Decimal("NaN")
    if not tick.is_finite() or tick != tick.to_integral_value() or abs(tick) >= 2**63:
        raise IngestError(f"row {row_number}: timestamp {value!r} is not an int64 tick")
    return int(tick)


def _rows_from_csv(text: str, delimiter: str) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows = [row for row in reader if row]
    if not rows:
        raise IngestError("empty CSV input")
    return [c.strip() for c in rows[0]], rows[1:]


def _rows_from_arff(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows from the @attribute/@data ARFF subset."""
    header: list[str] = []
    data_rows: list[list[str]] = []
    in_data = False
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        lowered = line.lower()
        if in_data:
            if line.startswith("{"):
                raise IngestError("sparse ARFF data is not supported")
            data_rows.append(next(csv.reader([line])))
        elif lowered.startswith("@attribute"):
            # "@attribute name type" with the name possibly quoted
            rest = line.split(None, 1)[1].strip()
            if rest[0] in "'\"":
                quote = rest[0]
                end = rest.index(quote, 1)
                header.append(rest[1:end])
            else:
                header.append(rest.split(None, 1)[0])
        elif lowered.startswith("@data"):
            in_data = True
    if not in_data:
        raise IngestError("ARFF input has no @data section")
    return header, data_rows


def ingest_records(
    source,
    format: str,
    schema: AttributeSchema,
    delimiter: str = ",",
) -> RawDataset:
    """Parse a CSV or ARFF byte/text stream into a :class:`RawDataset`.

    Excluded columns are dropped, every row must supply all analyzed
    attributes, and the result is stably sorted by timestamp.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif hasattr(source, "read"):
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    else:
        text = source

    if format == "csv":
        header, rows = _rows_from_csv(text, delimiter)
    elif format == "arff":
        header, rows = _rows_from_arff(text)
    else:
        raise IngestError(f"unknown input format {format!r}")

    missing_cols = [a.name for a in schema.attributes if a.name not in header]
    if missing_cols:
        raise IngestError(f"columns declared in schema but absent from data: {missing_cols}")

    col_index = {name: header.index(name) for name in schema.attribute_names}
    use_index_ts = schema.timestamp_source == RECORD_INDEX
    if not use_index_ts:
        if schema.timestamp_source not in header:
            raise IngestError(f"timestamp column {schema.timestamp_source!r} absent from data")
        ts_index = header.index(schema.timestamp_source)

    records = []
    for i, row in enumerate(rows):
        row_number = i + 1
        if len(row) != len(header):
            raise IngestError(
                f"row {row_number}: expected {len(header)} fields, got {len(row)}"
            )
        timestamp = i if use_index_ts else _parse_timestamp(row[ts_index], row_number)
        values = tuple(
            _parse_cell(row[col_index[a.name]], a, row_number) for a in schema.attributes
        )
        records.append((timestamp, values))

    records.sort(key=lambda rec: rec[0])  # stable: ties keep input order
    return RawDataset(schema=schema, records=tuple(records))
