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
from operator import itemgetter

import numpy as np
import yaml

CATEGORICAL = "categorical"
NUMERIC = "numeric"
RECORD_INDEX = "record-index"

MISSING_MARKERS = {"?", ""}

# keys of a config document; "discretization" and "analysis" are read by the CLI
CONFIG_KEYS = ("attributes", "class", "timestamp", "exclude", "discretization", "analysis")
ATTRIBUTE_KEYS = ("name", "kind", "domain")
TIMESTAMP_KEYS = ("source", "ticks_per_day", "epoch")


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
        tpd = self.ticks_per_day
        if tpd is not None and (type(tpd) is not int or tpd <= 0):  # type(), so a bool is rejected
            raise SchemaError(f"ticks_per_day must be a positive integer, got {tpd!r}")

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


def read_only(array) -> np.ndarray:
    """A read-only view of ``array``. The frozen datasets hold only such
    views, so one dataset cannot change an array another one shares."""
    view = np.asarray(array).view()
    view.flags.writeable = False
    return view


def factorize(values) -> tuple[list, np.ndarray]:
    """Distinct values in first-seen order, and each value's index into them."""
    distinct = dict.fromkeys(values)
    index = {value: i for i, value in enumerate(distinct)}
    return list(distinct), np.fromiter(map(index.__getitem__, values), np.intp, len(values))


@dataclass(frozen=True)
class RawDataset:
    """Timestamp-ordered records, stored as one column per analyzed attribute.

    ``timestamps`` is a sorted int64 array, input order preserved on ties.
    ``columns`` lines up with ``schema.attributes``: a numeric column is
    float64 with NaN for a missing cell (ingest rejects non-finite values,
    so NaN means missing and nothing else), a categorical column is an
    object array of labels with ``None`` for a missing cell. All arrays are
    read-only.
    """

    schema: AttributeSchema
    timestamps: np.ndarray = field(repr=False)
    columns: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "timestamps", read_only(self.timestamps))
        object.__setattr__(self, "columns", tuple(read_only(c) for c in self.columns))

    @classmethod
    def from_records(cls, schema: AttributeSchema, records) -> "RawDataset":
        """Build from ``(timestamp, values)`` pairs, ``values`` lined up with
        ``schema.attributes`` and ``None`` for a missing cell; stably sorted
        by timestamp."""
        records = list(records)
        columns = []
        for j, attr in enumerate(schema.attributes):
            values = [v[j] for _, v in records]
            if attr.kind == NUMERIC:
                columns.append(np.array([math.nan if v is None else v for v in values], float))
            else:
                columns.append(np.array(values, dtype=object))
        return _sorted(schema, np.array([ts for ts, _ in records], np.int64), columns)

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def records(self) -> tuple[tuple[int, tuple], ...]:
        """``(timestamp, values)`` pairs in timestamp order; missing cells are ``None``."""
        columns = [self.column(name) for name in self.schema.attribute_names]
        return tuple(zip(self.timestamps.tolist(), zip(*columns)))

    def column(self, name: str) -> list:
        """The values of one attribute in record order; missing cells are ``None``."""
        idx = self.schema.attribute_names.index(name)
        values = self.columns[idx].tolist()
        if self.schema.attributes[idx].kind == NUMERIC:
            return [None if math.isnan(v) else v for v in values]
        return values

    def to_csv(self) -> str:
        """Serialize back to CSV (timestamp column first). Round-trips."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("__timestamp__",) + self.schema.attribute_names)
        for ts, values in self.records:
            writer.writerow([ts] + ["?" if v is None else v for v in values])
        return out.getvalue()


def _sorted(schema: AttributeSchema, timestamps: np.ndarray, columns) -> RawDataset:
    """A :class:`RawDataset` of the columns stably sorted by timestamp."""
    if np.any(timestamps[1:] < timestamps[:-1]):
        order = np.argsort(timestamps, kind="stable")  # ties keep input order
        timestamps, columns = timestamps[order], [c[order] for c in columns]
    return RawDataset(schema=schema, timestamps=timestamps, columns=tuple(columns))


def check_keys(section, allowed: tuple[str, ...], where: str) -> dict:
    """``section`` as a mapping (``None`` reads as empty), rejecting any key
    outside ``allowed`` so that a misspelt key fails instead of being ignored."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise SchemaError(f"{where} must be a mapping")
    for key in section:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r} in {where}; "
                              f"allowed keys: {', '.join(allowed)}")
    return section


def parse_schema(config_document) -> AttributeSchema:
    """Build an :class:`AttributeSchema` from a YAML document or parsed dict.

    Expected keys: ``attributes`` (list of ``{name, kind, domain?}``),
    ``class`` (name of the class attribute), optional ``timestamp``
    (``{source, ticks_per_day?, epoch?}``) and ``exclude`` (list of column
    names dropped from analysis). Unknown keys are a :class:`SchemaError`.
    """
    if isinstance(config_document, (str, bytes)):
        config = yaml.safe_load(config_document)
    else:
        config = config_document
    if not isinstance(config, dict):
        raise SchemaError("schema config must be a mapping")
    check_keys(config, CONFIG_KEYS, "the config")

    try:
        raw_attrs = config["attributes"]
        class_name = config["class"]
    except KeyError as exc:
        raise SchemaError(f"schema config missing required key: {exc}") from exc

    attributes = []
    for entry in raw_attrs:
        domain = check_keys(entry, ATTRIBUTE_KEYS, "an attribute entry").get("domain")
        attributes.append(
            Attribute(
                name=str(entry["name"]),
                kind=str(entry.get("kind", NUMERIC)),
                declared_domain=tuple(str(v) for v in domain) if domain else None,
            )
        )

    ts_conf = check_keys(config.get("timestamp"), TIMESTAMP_KEYS, "timestamp")
    excluded = config.get("exclude", ())
    if not isinstance(excluded, (list, tuple)):
        raise SchemaError(f"exclude must be a list of column names, got {excluded!r}")
    return AttributeSchema(
        attributes=tuple(attributes),
        class_attribute=str(class_name),
        timestamp_source=str(ts_conf.get("source", RECORD_INDEX)),
        excluded=tuple(str(c) for c in excluded),
        ticks_per_day=ts_conf.get("ticks_per_day"),
        epoch=ts_conf.get("epoch"),
    )


def _float_or_nan(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        return math.nan


def _numeric_column(cells: list[str], name: str):
    """(float64 column with NaN for missing cells, None), or (None, (index of
    the first bad cell, message))."""
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:  # a missing or unparseable cell: those read NaN
        values = np.fromiter(map(_float_or_nan, cells), float, len(cells))
    missing = np.fromiter(map(MISSING_MARKERS.__contains__, cells), bool, len(cells))
    bad = np.flatnonzero(~missing & ~np.isfinite(values))  # nan/inf would land in a bin silently
    if len(bad):
        first = int(bad[0])
        return None, (first, f"cannot parse {cells[first]!r} as a finite number "
                             f"for attribute {name!r}")
    return values, None


def _categorical_column(cells: list[str]) -> np.ndarray:
    """Labels with ARFF quoting removed, ``None`` for missing cells."""
    distinct, inverse = factorize(cells)
    labels = [None if value in MISSING_MARKERS else _unquote(value) for value in distinct]
    return np.array(labels, dtype=object)[inverse]


def _unquote(value: str) -> str:
    # ARFF convention: strip optional quoting on nominal values
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    return value


def _timestamp_column(cells: list[str]):
    """(int64 ticks, None), or (None, (index of the first bad cell, message)).
    Ticks are parsed exactly; integral decimals such as "5.0" pass."""
    ticks = []
    for i, value in enumerate(cells):
        try:
            tick = Decimal(value)
        except InvalidOperation:
            tick = Decimal("NaN")
        if not tick.is_finite() or tick != tick.to_integral_value() or abs(tick) >= 2**63:
            return None, (i, f"timestamp {value!r} is not an int64 tick")
        ticks.append(int(tick))
    return np.array(ticks, np.int64), None


def _rows_from_csv(text: str) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(text))
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


def ingest_records(source, format: str, schema: AttributeSchema) -> RawDataset:
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
        header, rows = _rows_from_csv(text)
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

    # every row must have the header's arity; rows before the first one that
    # does not are parsed column by column, so that the error raised names the
    # first bad row in input order (arity first, then timestamp, then the
    # attributes in schema order, as a row-by-row parse would)
    width = len(header)
    bad_arity = np.flatnonzero(np.fromiter(map(len, rows), np.intp, len(rows)) != width)
    n_ok = int(bad_arity[0]) if len(bad_arity) else len(rows)
    ok_rows = rows[:n_ok]

    def cells(index: int) -> list[str]:
        return list(map(str.strip, map(itemgetter(index), ok_rows)))

    errors = []
    if use_index_ts:
        timestamps = np.arange(n_ok, dtype=np.int64)
    else:
        timestamps, error = _timestamp_column(cells(ts_index))
        errors.append(error)
    columns = []
    for attr in schema.attributes:
        column = cells(col_index[attr.name])
        if attr.kind == NUMERIC:
            values, error = _numeric_column(column, attr.name)
            errors.append(error)
        else:
            values = _categorical_column(column)
        columns.append(values)

    first = min(((e[0], order, e[1]) for order, e in enumerate(errors) if e), default=None)
    if first is not None:
        raise IngestError(f"row {first[0] + 1}: {first[2]}")
    if n_ok < len(rows):
        raise IngestError(f"row {n_ok + 1}: expected {width} fields, got {len(rows[n_ok])}")
    return _sorted(schema, timestamps, columns)
