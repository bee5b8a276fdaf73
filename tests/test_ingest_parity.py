"""Columnar ingest, fit and apply against a row-by-row reference.

The reference parses one row at a time, cell by cell, the way a plain
loop over records does, and fits and applies the discretizer from those
records value by value. Generated CSV and ARFF inputs carry padding
whitespace, missing markers, quoted labels, duplicate and unsorted
timestamps, excluded columns, and bad cells and rows; the library must
return the same records, discretizer, codes and overflow counts, or raise
the same error.

A clean CSV is read in one ``np.loadtxt`` pass (``schema._clean_csv``),
everything else row by row (``schema._ingest_rows``). The cases where
``float()``, ``Decimal`` and ``csv.reader`` disagree with ``loadtxt`` are
pinned to the row-by-row result, and on generated clean and dirty CSVs
the one-pass read either gives up or returns the row-by-row dataset bit
for bit.
"""

import math
import sys
from decimal import Decimal, InvalidOperation

import numpy as np
import pytest
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
    RawDataset,
    _clean_csv,
    _ingest_rows,
    _rows_from_arff,
    _rows_from_csv,
    ingest_records,
    parse_schema,
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
    header, rows = _rows_from_csv(text) if fmt == "csv" else _rows_from_arff(text)
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


# --- the one-pass CSV read ---------------------------------------------------

_XY = AttributeSchema(attributes=(Attribute("x", NUMERIC), Attribute("y", CATEGORICAL)),
                      class_attribute="y")
_TXY = AttributeSchema(attributes=_XY.attributes, class_attribute="y", timestamp_source="t")
_XY_NOISE = AttributeSchema(attributes=_XY.attributes, class_attribute="y",
                            excluded=("noise",))


def _one(x, y, ts=0):
    return ((ts, (x, y)),)


def _finite(cell):
    return f"row 1: cannot parse {cell!r} as a finite number for attribute 'x'"


# the row-by-row result of each input, as records or as the error message
EDGES = {
    "underscore": (_XY, "x,y\n1_0,a\n", _one(10.0, "a")),
    "non-ascii-digit": (_XY, "x,y\n\u0661,a\n", _one(1.0, "a")),
    "hex": (_XY, "x,y\n0x1p3,a\n", _finite("0x1p3")),
    "padded": (_XY, "x,y\n 1.5 , a \n", _one(1.5, "a")),
    "plus-exponent": (_XY, "x,y\n+1e3,a\n", _one(1000.0, "a")),
    "underflow": (_XY, "x,y\n2e-400,a\n", _one(0.0, "a")),
    "overflow": (_XY, "x,y\n1e400,a\n", _finite("1e400")),
    "nan": (_XY, "x,y\nnan,a\n", _finite("nan")),
    "inf": (_XY, "x,y\ninf,a\n", _finite("inf")),
    "quoted-number": (_XY, 'x,y\n"1.5",a\n', _one(1.5, "a")),
    "quote-after-padding": (_XY, 'x,y\n1, "UP"\n', _one(1.0, "UP")),
    "single-quoted-label": (_XY, "x,y\n1,'UP'\n", _one(1.0, "UP")),
    "quoted-comma": (_XY, 'x,y\n1,"a,b"\n', _one(1.0, "a,b")),
    "quoted-newline": (_XY, 'x,y\n1,"a\nb"\n', _one(1.0, "a\nb")),
    "doubled-quote": (_XY, 'x,y\n1,"a""b"\n', _one(1.0, 'a"b')),
    "hash-in-label": (_XY, "x,y\n1,a#b\n", _one(1.0, "a#b")),
    "hash-in-number": (_XY, "x,y\n1#,a\n", _finite("1#")),
    "missing-markers": (_XY, "x,y\n?,a\n1,\n", ((0, (None, "a")), (1, (1.0, None)))),
    "blank-lines": (_XY, "x,y\n\n1,a\n\n\n2,b\n\n", ((0, (1.0, "a")), (1, (2.0, "b")))),
    "whitespace-line": (_XY, "x,y\n1,a\n  \n2,b\n", "row 2: expected 2 fields, got 1"),
    "leading-blank-lines": (_XY, "\n\r\nx,y\n1,a\n", _one(1.0, "a")),
    "quoted-header": (_XY, '"x",y\n1,a\n', _one(1.0, "a")),
    "crlf": (_XY, "x,y\r\n1,a\r\n\r\n2,b\r\n", ((0, (1.0, "a")), (1, (2.0, "b")))),
    "extra-and-excluded": (_XY_NOISE, "noise,x,extra,y\nz,1,q,a\n", _one(1.0, "a")),
    "short-row": (_XY_NOISE, "noise,x,extra,y\nz,1,q\n", "row 1: expected 4 fields, got 3"),
    "timestamp-decimal": (_TXY, "t,x,y\n5.0,1,a\n1e3,2,b\n",
                          ((5, (1.0, "a")), (1000, (2.0, "b")))),
    "timestamp-int64-min": (_TXY, "t,x,y\n-9223372036854775808,1,a\n",
                            "row 1: timestamp '-9223372036854775808' is not an int64 tick"),
    "timestamp-int64-max": (_TXY, "t,x,y\n9223372036854775807,1,a\n",
                            _one(1.0, "a", 2**63 - 1)),
}


def _bits(dataset: RawDataset):
    """Everything a dataset holds, down to the bytes of its arrays."""
    def array(values):
        return values.dtype.str, values.shape, values.tobytes()
    labels = {name: [(type(v), v) for v in values] for name, values in dataset.labels.items()}
    return (dataset.schema, array(dataset.timestamps), [array(c) for c in dataset.columns],
            labels)


def _row_by_row(text, schema):
    return _ingest_rows(*_rows_from_csv(text), schema)


@pytest.mark.parametrize("schema, text, expected", EDGES.values(), ids=EDGES.keys())
def test_semantic_edges_keep_the_row_by_row_result(schema, text, expected):
    raw, error = _outcome(ingest_records, text, "csv", schema)
    if isinstance(expected, str):
        assert error == (IngestError, expected)
    else:
        assert error is None
        assert raw.records == expected
    fast = _clean_csv(text, schema)
    if fast is not None:
        assert error is None
        assert _bits(fast) == _bits(_row_by_row(text, schema))


# cells that parse the same either way, and cells on which the two parsers
# may disagree or the input is rejected
CLEAN_NUMBERS = st.sampled_from(["1", "7", "-3", "0.5", "2.25", "-1.0", "1e1", "+3", "-0",
                                 "1e-320", "0.1", "123456789.123456789"])
CLEAN_LABELS = st.sampled_from(["a", "b", "UP", "DOWN", "a b", "x'y"])
CLEAN_TICKS = st.integers(-5, 9).map(str)
DIRTY_CELLS = st.one_of(
    st.sampled_from(['"1.5"', " 1.5 ", "1_0", "\u0661", "0x1p3", "nan", "-inf", "1e400",
                     "2e-400", "?", "", '"a,b"', '"a\nb"', ' "UP"', "'a'", '"\'a\'"', "a#b",
                     '"a""b"', '"open', 'a"b', "\xa01\xa0", "-9223372036854775808",
                     "9223372036854775808", "5.0", "1e3", "a\rb", "a\x00b", "  ", '"?"']),
    st.text(alphabet=',"\n\r a1.?#\'\xa0\u0661e+-_x', max_size=5))


@st.composite
def csv_cases(draw):
    """(schema, CSV text, whether the text is clean)."""
    schema = draw(schemas())
    columns = list(schema.attribute_names) + ["noise"]
    if schema.timestamp_source != RECORD_INDEX:
        columns.append(schema.timestamp_source)
    columns = draw(st.permutations(columns))
    clean_cells = {name: CLEAN_LABELS for name in columns}
    clean_cells.update({a.name: CLEAN_NUMBERS for a in schema.attributes if a.kind == NUMERIC})
    clean_cells["t"] = CLEAN_TICKS
    rows = [[draw(clean_cells[name]) for name in columns]
            for _ in range(draw(st.integers(1, 8)))]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    clean = draw(st.booleans())
    if not clean:
        for _ in range(draw(st.integers(1, 3))):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            kind = draw(st.integers(0, 3))
            if kind == 0:
                row[draw(st.integers(0, len(row) - 1))] = draw(DIRTY_CELLS)
            elif kind == 1:
                row.append(draw(DIRTY_CELLS))
            elif kind == 2:
                row[:] = [draw(DIRTY_CELLS)]  # a short, blank or whitespace line
            else:
                row[-1] += draw(st.sampled_from(["\r", "\n", "\r\n", "\r\r\n"]))
    lines = [",".join(columns)] + [",".join(row) for row in rows]
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return schema, text, clean


@settings(max_examples=400, deadline=None, derandomize=True)
@given(csv_cases())
# csv.reader carries the open quote on to the next line, loadtxt does not
@example((_XY, 'x,y\n1,"1\n\n1,1\n', False))
def test_one_pass_read_gives_up_or_matches_row_by_row(case):
    schema, text, clean = case
    fast = _clean_csv(text, schema)
    if fast is None:
        assert not clean, "a clean CSV fell back to the row-by-row path"
        return
    assert _bits(fast) == _bits(_row_by_row(text, schema))


def _stream_text(rows: int, timestamps: bool, labels) -> tuple[str, AttributeSchema]:
    """A CSV shaped like the benchmark stream: five numeric covariates with
    six decimals and a class drawn from the cells ``labels``, optionally
    after an int tick column."""
    rng = np.random.default_rng(0)
    values = rng.random((rows, 5))
    labels = np.asarray(labels)[rng.integers(0, len(labels), rows)]
    names = ["nswprice", "nswdemand", "vicprice", "vicdemand", "transfer"]
    head = (["t"] if timestamps else []) + names + ["class"]
    lines = [",".join(head)]
    for i in range(rows):
        cells = [f"{v:.6f}" for v in values[i]] + [labels[i]]
        lines.append(",".join(([str(1000 - i % 997)] if timestamps else []) + cells))
    config = {"attributes": [{"name": n, "kind": NUMERIC} for n in names]
              + [{"name": "class", "kind": CATEGORICAL, "domain": ["DOWN", "UP"]}],
              "class": "class"}
    if timestamps:
        config["timestamp"] = {"source": "t"}
    return "\n".join(lines) + "\n", parse_schema(config)


@pytest.mark.parametrize("timestamps, labels", [
    (False, ["UP", "DOWN"]),
    (True, ["UP", "DOWN"]),
    (True, ["UP", " UP", '"UP"', "'UP'", "DOWN ", "'DOWN'", "?", ""]),
], ids=["record-index", "tick-column", "padded-quoted-missing-labels"])
def test_clean_stream_never_reaches_the_row_by_row_path(monkeypatch, timestamps, labels):
    text, schema = _stream_text(10_000, timestamps, labels)
    want = _row_by_row(text, schema)

    def refuse(text):
        raise AssertionError("clean CSV took the row-by-row path")

    monkeypatch.setattr(sys.modules[_clean_csv.__module__], "_rows_from_csv", refuse)
    raw = ingest_records(text.encode(), "csv", schema)
    assert len(raw) == 10_000
    assert set(raw.labels["class"]) <= {"UP", "DOWN", None}
    assert _bits(raw) == _bits(want)
