"""Columnar ingest, fit and apply against a row-by-row reference.

The reference parses one row at a time, cell by cell, the way a plain
loop over records does, and fits and applies the discretizer from those
records value by value. Generated CSV and ARFF inputs carry padding
whitespace, missing markers, quoted labels, duplicate and unsorted
timestamps, excluded columns, and bad cells and rows; the library must
return the same records, discretizer, codes and overflow counts, or raise
the same error.
"""

import math
from decimal import Decimal, InvalidOperation

import numpy as np
from hypothesis import example, given, settings, strategies as st

from driftmap.discretize import (
    DiscretizationError,
    Discretizer,
    _equal_frequency_cuts,
    apply_discretizer,
    fit_discretizer,
)
from driftmap.schema import (
    CATEGORICAL,
    NUMERIC,
    RECORD_INDEX,
    Attribute,
    AttributeSchema,
    IngestError,
    _rows_from_arff,
    _rows_from_csv,
    ingest_records,
)

BINS = 3


# --- the row-by-row reference ------------------------------------------------

def _reference_cell(raw, attr, row_number):
    value = raw.strip()
    if value in ("?", ""):
        return None
    if attr.kind == NUMERIC:
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise IngestError(f"row {row_number}: cannot parse {value!r} as a finite number "
                              f"for attribute {attr.name!r}")
        return number
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        value = value[1:-1]
    return value


def _reference_timestamp(raw, row_number):
    value = raw.strip()
    try:
        tick = Decimal(value)
    except InvalidOperation:
        tick = Decimal("NaN")
    if not tick.is_finite() or tick != tick.to_integral_value() or abs(tick) >= 2**63:
        raise IngestError(f"row {row_number}: timestamp {value!r} is not an int64 tick")
    return int(tick)


def reference_ingest(text, fmt, schema):
    header, rows = _rows_from_csv(text, ",") if fmt == "csv" else _rows_from_arff(text)
    records = []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise IngestError(f"row {i + 1}: expected {len(header)} fields, got {len(row)}")
        if schema.timestamp_source == RECORD_INDEX:
            timestamp = i
        else:
            timestamp = _reference_timestamp(row[header.index(schema.timestamp_source)], i + 1)
        records.append((timestamp, tuple(
            _reference_cell(row[header.index(a.name)], a, i + 1) for a in schema.attributes)))
    records.sort(key=lambda rec: rec[0])
    return tuple(records)


def reference_fit(schema, records):
    if not records:
        raise DiscretizationError("cannot fit a discretizer on an empty dataset")
    cut_points, label_codes = {}, {}
    for j, attr in enumerate(schema.attributes):
        observed = [values[j] for _, values in records if values[j] is not None]
        if not observed:
            raise DiscretizationError(f"attribute {attr.name!r} has no non-missing values")
        if attr.kind == NUMERIC:
            cut_points[attr.name] = _equal_frequency_cuts(np.asarray(observed, float), BINS)
        else:
            labels = list(attr.declared_domain) if attr.declared_domain else []
            for v in observed:
                if v not in labels:
                    labels.append(v)
            label_codes[attr.name] = {label: code for code, label in enumerate(labels)}
    return Discretizer(schema, BINS, cut_points, label_codes)


def reference_apply(schema, records, discretizer):
    codes, overflow_counts = [], {name: 0 for name in discretizer.label_codes}
    for _, values in records:
        row = []
        for attr, value in zip(schema.attributes, values):
            code = discretizer.encode_value(attr.name, value)
            if (value is not None and attr.kind == CATEGORICAL
                    and code == discretizer.overflow_code(attr.name)):
                overflow_counts[attr.name] += 1
            row.append(code)
        codes.append(row)
    return codes, overflow_counts


# --- generated inputs --------------------------------------------------------

def _cells(*good):
    """One draw per cell: a good cell, padded or not."""
    return st.sampled_from([pad + cell + end for cell in good
                            for pad, end in (("", ""), ("  ", " "))])


NUMERIC_CELLS = _cells("1", "7", "-3", "0.5", "2.25", "-1.0", "1e1", "+3", "1_0", "?", "")
LABEL_CELLS = _cells("a", "b", "c", "'a'", "'c'", '"b"', "'", "?", "")
TIMESTAMP_CELLS = _cells("0", "1", "2", "3", "4", "5", "6", "5.0", "2e0")
BAD_NUMERIC = st.sampled_from(["nan", "x", " inf", "-Infinity "])
BAD_TIMESTAMP = st.sampled_from(["1.9", "x", "inf ", "-1e30"])


@st.composite
def schemas(draw):
    attrs = [Attribute(f"n{i}", NUMERIC) for i in range(draw(st.integers(0, 2)))]
    domain = draw(st.sampled_from([None, ("b",), ("c", "a", "z")]))
    attrs += [Attribute("label", CATEGORICAL, declared_domain=domain)]
    if draw(st.booleans()):
        attrs.append(Attribute("kind", CATEGORICAL))
    attrs = draw(st.permutations(attrs))
    source = draw(st.sampled_from([RECORD_INDEX, "t"]))
    return AttributeSchema(attributes=tuple(attrs), class_attribute="label",
                           timestamp_source=source)


@st.composite
def texts(draw, schema, fmt):
    """Input text for ``schema`` with an extra column the schema leaves out."""
    columns = list(schema.attribute_names) + ["noise"]
    if schema.timestamp_source != RECORD_INDEX:
        columns.append(schema.timestamp_source)
    columns = draw(st.permutations(columns))
    cell_strategy = {name: LABEL_CELLS for name in columns}
    cell_strategy.update({a.name: NUMERIC_CELLS for a in schema.attributes
                          if a.kind == NUMERIC})
    cell_strategy["t"] = TIMESTAMP_CELLS
    rows = [[draw(cell_strategy[name]) for name in columns]
            for _ in range(draw(st.integers(0, 10)))]
    bad_cells = {a.name: BAD_NUMERIC for a in schema.attributes if a.kind == NUMERIC}
    bad_cells["t"] = BAD_TIMESTAMP
    bad_columns = [j for j, name in enumerate(columns) if name in bad_cells]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows and bad_columns else 0):
        row, j = draw(st.integers(0, len(rows) - 1)), draw(st.sampled_from(bad_columns))
        rows[row][j] = draw(bad_cells[columns[j]])
    if rows and draw(st.integers(0, 5)) == 0:  # a row of the wrong arity
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            row.append("1")
        else:
            row.pop()
    lines = [",".join(row) for row in rows]
    if fmt == "csv":
        return "\n".join([",".join(columns)] + lines) + "\n"
    head = ["@relation r"] + [f"@attribute {name} string" for name in columns] + ["@data"]
    return "\n".join(head + lines) + "\n"


@st.composite
def cases(draw):
    schema = draw(schemas())
    fmt = draw(st.sampled_from(["csv", "arff"]))
    return schema, fmt, draw(texts(schema, fmt)), draw(texts(schema, fmt))


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (IngestError, DiscretizationError) as exc:
        return None, (type(exc), str(exc))


_TIMED = AttributeSchema(
    attributes=(Attribute("n0", NUMERIC), Attribute("n1", NUMERIC),
                Attribute("label", CATEGORICAL)),
    class_attribute="label", timestamp_source="t")
_GOOD = "t,n0,n1,label\n1,1,1,a\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
# which error wins when there are several: the earliest row, and in one row
# the arity, then the timestamp, then the attributes in schema order
@example((_TIMED, "csv", "t,n0,n1,label\n1,2,x,a\n1.9,x,3,b\n", _GOOD))
@example((_TIMED, "csv", "t,n0,n1,label\n1,2,3,a\n1.9,3,x,b\n", _GOOD))
@example((_TIMED, "csv", "t,n0,n1,label\n1,2,inf,a\n2,3\n", _GOOD))
def test_columnar_pipeline_matches_row_by_row_reference(case):
    """Fit on the first text, apply to the second."""
    schema, fmt, fit_text, apply_text = case
    raw, error = _outcome(ingest_records, fit_text, fmt, schema)
    want, want_error = _outcome(reference_ingest, fit_text, fmt, schema)
    assert error == want_error
    if error:
        return
    assert raw.records == want
    assert len(raw) == len(want)

    discretizer, error = _outcome(fit_discretizer, raw, BINS)
    want_discretizer, want_error = _outcome(reference_fit, schema, want)
    assert error == want_error
    if error:
        return
    assert discretizer.to_json() == want_discretizer.to_json()

    other, error = _outcome(ingest_records, apply_text, fmt, schema)
    other_want, want_error = _outcome(reference_ingest, apply_text, fmt, schema)
    assert error == want_error
    if error:
        return
    assert other.records == other_want
    encoded = apply_discretizer(other, discretizer)
    codes, overflow_counts = reference_apply(schema, other_want, discretizer)
    assert encoded.codes.tolist() == codes
    assert encoded.timestamps.tolist() == [ts for ts, _ in other_want]
    assert encoded.overflow_counts == overflow_counts
