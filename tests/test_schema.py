import warnings

import pytest

from driftmap.schema import (
    AttributeSchema,
    Attribute,
    IngestError,
    SchemaError,
    ingest_records,
    parse_schema,
)

ELECTRICITY_CONFIG = """
attributes:
  - {name: nswprice, kind: numeric}
  - {name: nswdemand, kind: numeric}
  - {name: vicprice, kind: numeric}
  - {name: vicdemand, kind: numeric}
  - {name: transfer, kind: numeric}
  - {name: class, kind: categorical}
class: class
timestamp:
  source: record-index
  ticks_per_day: 48
  epoch: "1996-05-07"
"""


def test_parse_schema_electricity_style():
    schema = parse_schema(ELECTRICITY_CONFIG)
    assert schema.covariate_names == (
        "nswprice", "nswdemand", "vicprice", "vicdemand", "transfer")
    assert schema.class_attribute == "class"
    assert all(schema.attribute(n).kind == "numeric" for n in schema.covariate_names)
    assert schema.ticks_per_day == 48


def test_parse_schema_class_only_is_legal():
    schema = parse_schema({
        "attributes": [{"name": "label", "kind": "categorical"}],
        "class": "label",
    })
    assert schema.covariate_names == ()


def test_numeric_class_rejected():
    with pytest.raises(SchemaError):
        parse_schema({
            "attributes": [{"name": "x", "kind": "numeric"}],
            "class": "x",
        })


def test_duplicate_attribute_rejected():
    with pytest.raises(SchemaError):
        parse_schema({
            "attributes": [
                {"name": "x", "kind": "numeric"},
                {"name": "x", "kind": "numeric"},
                {"name": "y", "kind": "categorical"},
            ],
            "class": "y",
        })


def test_excluded_overlap_rejected():
    with pytest.raises(SchemaError):
        parse_schema({
            "attributes": [
                {"name": "x", "kind": "numeric"},
                {"name": "y", "kind": "categorical"},
            ],
            "class": "y",
            "exclude": ["x"],
        })


@pytest.fixture
def tiny_schema():
    return parse_schema({
        "attributes": [
            {"name": "x", "kind": "numeric"},
            {"name": "y", "kind": "categorical"},
        ],
        "class": "y",
    })


def test_csv_record_index_timestamps(tiny_schema):
    data = "x,y\n1.5,a\n2.5,b\n3.5,a\n"
    ds = ingest_records(data, "csv", tiny_schema)
    assert len(ds) == 3
    assert [ts for ts, _ in ds.records] == [0, 1, 2]
    assert ds.column("y") == ["a", "b", "a"]


def test_csv_timestamp_column_sorts_stably():
    schema = parse_schema({
        "attributes": [{"name": "y", "kind": "categorical"}],
        "class": "y",
        "timestamp": {"source": "t"},
    })
    data = "t,y\n5,c\n1,a\n5,b\n"
    ds = ingest_records(data, "csv", schema)
    assert [ts for ts, _ in ds.records] == [1, 5, 5]
    # equal timestamps keep input order
    assert ds.column("y") == ["a", "c", "b"]


def test_csv_bad_numeric_cell_names_row_and_column(tiny_schema):
    data = "x,y\n1.5,a\nbogus,b\n"
    with pytest.raises(IngestError, match=r"row 2.*'x'"):
        ingest_records(data, "csv", tiny_schema)


def test_csv_row_arity_mismatch(tiny_schema):
    data = "x,y\n1.5,a,extra\n"
    with pytest.raises(IngestError, match="row 1"):
        ingest_records(data, "csv", tiny_schema)


def test_missing_markers_become_none(tiny_schema):
    data = "x,y\n?,a\n,b\n1.0,?\n"
    ds = ingest_records(data, "csv", tiny_schema)
    assert ds.column("x") == [None, None, 1.0]
    assert ds.column("y") == ["a", "b", None]


def test_excluded_column_dropped():
    schema = parse_schema({
        "attributes": [
            {"name": "x", "kind": "numeric"},
            {"name": "y", "kind": "categorical"},
        ],
        "class": "y",
        "exclude": ["noise"],
    })
    data = "x,noise,y\n1.0,zzz,a\n"
    ds = ingest_records(data, "csv", schema)
    assert ds.schema.attribute_names == ("x", "y")
    assert ds.records[0][1] == (1.0, "a")


ARFF_SAMPLE = """\
% comment line
@relation demo
@attribute x numeric
@attribute 'y label' {a,b}
@data
0.25,a
0.75,b
0.5,a
"""


def test_arff_subset_parsing():
    schema = parse_schema({
        "attributes": [
            {"name": "x", "kind": "numeric"},
            {"name": "y label", "kind": "categorical"},
        ],
        "class": "y label",
    })
    ds = ingest_records(ARFF_SAMPLE, "arff", schema)
    assert len(ds) == 3
    assert ds.column("y label") == ["a", "b", "a"]


def test_arff_without_data_section_errors(tiny_schema):
    with pytest.raises(IngestError, match="@data"):
        ingest_records("@relation demo\n@attribute x numeric\n", "arff", tiny_schema)


def test_sparse_arff_rejected(tiny_schema):
    text = "@attribute x numeric\n@attribute y {a}\n@data\n{0 1.0}\n"
    with pytest.raises(IngestError, match="sparse"):
        ingest_records(text, "arff", tiny_schema)


def test_csv_round_trip(tiny_schema):
    data = "x,y\n1.5,a\n?,b\n3.25,a\n"
    ds = ingest_records(data, "csv", tiny_schema)
    serialized = ds.to_csv()

    round_schema = AttributeSchema(
        attributes=tiny_schema.attributes,
        class_attribute=tiny_schema.class_attribute,
        timestamp_source="__timestamp__",
    )
    again = ingest_records(serialized, "csv", round_schema)
    assert again.records == ds.records
    # and serializing once more is a fixed point
    assert again.to_csv() == serialized


def test_no_silent_drops(tiny_schema):
    rows = "\n".join(f"{i}.0,a" for i in range(57))
    ds = ingest_records("x,y\n" + rows + "\n", "csv", tiny_schema)
    assert len(ds) == 57


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_csv_non_finite_numeric_cell_names_row_and_column(tiny_schema, cell):
    data = f"x,y\n1.5,a\n{cell},b\n"
    with pytest.raises(IngestError, match=r"row 2.*'x'"):
        ingest_records(data, "csv", tiny_schema)


@pytest.mark.parametrize("data", ["x,y\n", "x,y", "x,y\n\n\n", "x,y\r\n\r\n"],
                         ids=["header-only", "no-newline", "blank-lines", "crlf-blank-lines"])
def test_header_without_data_gives_no_records_and_no_warning(tiny_schema, data):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = ingest_records(data, "csv", tiny_schema)
    assert len(ds) == 0
    assert caught == []


@pytest.mark.parametrize("data", [b"\xef\xbb\xbfx,y\n1.5,a\n", "\ufeffx,y\n1.5,a\n"],
                         ids=["bytes", "str"])
def test_leading_byte_order_mark_is_dropped(tiny_schema, data):
    assert ingest_records(data, "csv", tiny_schema).records == ((0, (1.5, "a")),)


@pytest.mark.parametrize("data, where", [
    ("x,y\r1.5,a\r2.5,b\r", "header"),
    ("x,y\n1.5,a\n2.5,b\r3.5,a\n", "row 2"),
], ids=["cr-only", "cr-in-row"])
def test_lone_carriage_return_is_an_ingest_error_naming_the_row(tiny_schema, data, where):
    with pytest.raises(IngestError) as info:
        ingest_records(data, "csv", tiny_schema)
    assert str(info.value) == (f"{where}: carriage return inside an unquoted field; "
                               "lines must end in \\n or \\r\\n")


def test_field_beyond_the_csv_limit_is_an_ingest_error(tiny_schema):
    data = "x,y\n1.5,a\n2.5," + "b" * 140_000 + "\n"
    with pytest.raises(IngestError, match=r"^row 2: field larger than field limit"):
        ingest_records(data, "csv", tiny_schema)


def _ingest_timestamps(*ticks):
    schema = parse_schema({
        "attributes": [{"name": "y", "kind": "categorical"}],
        "class": "y",
        "timestamp": {"source": "t"},
    })
    data = "t,y\n" + "".join(f"{t},a\n" for t in ticks)
    return [ts for ts, _ in ingest_records(data, "csv", schema).records]


def test_fractional_timestamp_is_rejected():
    with pytest.raises(IngestError, match=r"row 2.*'1\.9'"):
        _ingest_timestamps("1", "1.9")


def test_large_integer_timestamp_is_exact():
    assert _ingest_timestamps("9007199254740993") == [2**53 + 1]


@pytest.mark.parametrize("tick", ["inf", "-inf", "nan", "1e30"])
def test_non_finite_or_out_of_range_timestamp_is_an_ingest_error(tick):
    with pytest.raises(IngestError, match="row 1"):
        _ingest_timestamps(tick)


def test_integral_decimal_timestamp_is_accepted():
    assert _ingest_timestamps("5.0", "2", "1e1") == [2, 5, 10]


@pytest.mark.parametrize("data, fmt, schema_extra, message", [
    ("x\n1.0\n", "csv", {}, "columns declared in schema but absent from data: ['y']"),
    ("x,y\n1.0,a\n", "csv", {"timestamp": {"source": "ts"}},
     "timestamp column 'ts' absent from data"),
    ("", "csv", {}, "empty CSV input"),
    ("x,y\n1.0,a\n", "json", {}, "unknown input format 'json'"),
    ("@relation r\n@attribute\n@attribute y {a}\n@data\n", "arff", {},
     "line 2: @attribute without a name"),
    ("% comment\n\n@attribute 'x numeric\n@data\n", "arff", {},
     "line 3: attribute name \"'x numeric\" lacks its closing quote"),
], ids=["absent-column", "absent-timestamp", "empty-csv", "format-json",
        "arff-attribute-without-name", "arff-unclosed-quote"])
def test_ingest_fails_loudly(data, fmt, schema_extra, message):
    schema = parse_schema({
        "attributes": [
            {"name": "x", "kind": "numeric"},
            {"name": "y", "kind": "categorical"},
        ],
        "class": "y",
        **schema_extra,
    })
    with pytest.raises(IngestError) as info:
        ingest_records(data, fmt, schema)
    assert str(info.value) == message


@pytest.mark.parametrize("config, message", [
    ({"attributes": [{"name": "x", "kind": "text"}, {"name": "y", "kind": "categorical"}],
      "class": "y"}, "unknown attribute kind 'text' for 'x'"),
    ({"attributes": [{"name": "y", "kind": "categorical"}], "class": "z"},
     "class attribute 'z' not declared"),
    ("- x\n- y\n", "schema config must be a mapping"),
    ({"class": "y"}, "schema config missing required key: 'attributes'"),
    ({"attributes": [{"name": "y", "kind": "categorical"}], "class": "y", "timestamp": 5},
     "timestamp must be a mapping"),
    ({"attributes": None, "class": "y"},
     "attributes must be a list of attribute entries, got None"),
    ({"attributes": [{"name": "y", "kind": "categorical"}, {"kind": "numeric"}], "class": "y"},
     "attribute entry 2 has no name: {'kind': 'numeric'}"),
    ("attributes:\n  - {name: y, kind: categorical}\n  -\nclass: y\n",
     "attribute entry 2 has no name: {}"),
], ids=["kind-text", "undeclared-class", "not-a-mapping", "no-attributes", "timestamp-5",
        "attributes-null", "entry-without-name", "empty-entry"])
def test_bad_config_fails_loudly(config, message):
    with pytest.raises(SchemaError) as info:
        parse_schema(config)
    assert str(info.value) == message
