"""The one table writer, ``measures.table_csv`` / ``table_json``, against
``csv`` and ``json.dumps`` over rows: on any table, on map grids, on
measurement rows and on the encoded stream."""

import csv
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmap import cli
from driftmap.estimate import AttributeSubset, TimeInterval
from driftmap.maps import MAP_FIELDS, HeatMapGrid
from driftmap.measures import (
    MEASUREMENT_FIELDS,
    STATUS_INSUFFICIENT,
    DriftMeasurement,
    table_csv,
    table_json,
)

from test_columnar_series import MAGNITUDES, NAMES

EXAMPLES = settings(max_examples=200, deadline=None, derandomize=True)


def reference_csv(fields, rows) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def reference_json(doc, key, rows) -> str:
    return json.dumps({**doc, key: rows}, indent=2, sort_keys=True)


def columns_of(rows, fields) -> list:
    return [[row[name] for row in rows] for name in fields]


# a key set by extra: any of NAMES, or a key the writer's own document sets too
EXTRA = st.dictionaries(st.one_of(NAMES, st.sampled_from(["cells", "class", "status"])),
                        st.one_of(NAMES, st.integers(), MAGNITUDES, st.none(),
                                  st.lists(st.integers())), max_size=4)
CELLS = st.one_of(NAMES, st.integers(-10 ** 20, 10 ** 20), st.floats(allow_nan=False),
                  st.none(), st.booleans(), st.sampled_from([0.0, -0.0, 1, 1.0, "1", "1.0"]))


@st.composite
def tables(draw):
    """Fields and columns of every kind the writer takes, with the rows they stand for."""
    fields = draw(st.lists(NAMES, min_size=2, max_size=5, unique=True))
    n = draw(st.integers(0, 6))
    columns, values = [], []
    for _ in fields:
        kind = draw(st.sampled_from(["int", "float", "any"]))
        if kind == "int":
            column = np.array(draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                            min_size=n, max_size=n)), dtype=np.int64)
            cells = column.tolist()
        elif kind == "float":
            column = np.array(draw(st.lists(MAGNITUDES, min_size=n, max_size=n)), dtype=float)
            cells = [None if math.isnan(v) else v for v in column.tolist()]
        else:
            column = cells = draw(st.lists(CELLS, min_size=n, max_size=n))
        columns.append(column)
        values.append(cells)
    return fields, columns, [dict(zip(fields, row)) for row in zip(*values)]


@EXAMPLES
@given(tables(), NAMES, EXTRA)
def test_any_table_matches_csv_and_json(table, key, extra):
    fields, columns, rows = table
    assert table_csv(fields, columns) == reference_csv(fields, rows)
    assert table_json(extra, key, fields, columns) == reference_json(extra, key, rows)


def test_repeated_field_names_keep_every_csv_column():
    columns = [np.array([1, 2]), np.array([3, 4]), ["x", "y,z"]]
    assert table_csv(("t", "t", "u"), columns) == 't,t,u\n1,3,x\n2,4,"y,z"\n'


@st.composite
def grids(draw):
    rows = tuple(draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)))
    cols = tuple(draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)))
    cell = st.one_of(st.none(), MAGNITUDES.filter(lambda v: not math.isnan(v)))
    values = tuple(tuple(draw(st.lists(cell, min_size=len(cols), max_size=len(cols))))
                   for _ in rows)
    start = draw(st.integers(-100, 100))
    return HeatMapGrid(
        map_kind=draw(st.sampled_from(["pairwise_joint", "conditioned_pairwise"])),
        row_labels=rows, col_labels=cols, values=values,
        window_a=TimeInterval(start, start + 5), window_b=TimeInterval(start + 5, start + 9),
        distance_kind=draw(st.sampled_from(["total_variation", "hellinger"])),
        class_label=draw(st.one_of(st.none(), NAMES)))


@EXAMPLES
@given(grids(), EXTRA)
def test_map_grid_writers_match_the_row_references(grid, extra):
    rows = grid.to_rows()
    doc = {"map_kind": grid.map_kind, "distance_kind": grid.distance_kind,
           "class": grid.class_label,
           "window_a": [grid.window_a.start, grid.window_a.end],
           "window_b": [grid.window_b.start, grid.window_b.end]}
    assert grid.to_csv() == reference_csv(MAP_FIELDS, rows)
    assert grid.to_json() == reference_json(doc, "cells", rows)
    assert grid.to_json(extra) == reference_json({**extra, **doc}, "cells", rows)


@st.composite
def measurements(draw):
    magnitude = draw(st.one_of(st.none(), MAGNITUDES.filter(lambda v: not math.isnan(v))))
    start = draw(st.integers(-100, 100))
    return DriftMeasurement(
        measure_kind=draw(NAMES), distance_kind=draw(NAMES),
        subset=AttributeSubset.covariates(draw(st.lists(NAMES, min_size=1, max_size=3,
                                                        unique=True))),
        window_a=TimeInterval(start, start + 3), window_b=TimeInterval(start + 3, start + 7),
        magnitude=magnitude,
        sample_sizes=(draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 10 ** 6))),
        status="ok" if magnitude is not None else STATUS_INSUFFICIENT)


@EXAMPLES
@given(st.lists(measurements(), min_size=1, max_size=5), EXTRA)
def test_measurement_rows_match_the_row_references(results, extra):
    rows = [m.to_row() for m in results]
    columns = columns_of(rows, MEASUREMENT_FIELDS)
    assert table_csv(MEASUREMENT_FIELDS, columns) == reference_csv(MEASUREMENT_FIELDS, rows)
    assert (table_json(extra, "measurements", MEASUREMENT_FIELDS, columns)
            == reference_json(extra, "measurements", rows))


def encoded_reference(names, timestamps, codes) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("timestamp",) + tuple(names))
    writer.writerows(zip(timestamps.tolist(), *codes.T.tolist()))
    return out.getvalue()


@EXAMPLES
@given(st.lists(st.one_of(NAMES, st.just("timestamp")), min_size=1, max_size=4),
       st.integers(0, 8), st.data())
def test_encoded_table_matches_csv_writer(names, n, data):
    timestamps = np.array(sorted(data.draw(st.lists(st.integers(-2 ** 62, 2 ** 62),
                                                    min_size=n, max_size=n))), dtype=np.int64)
    codes = np.array(data.draw(st.lists(st.lists(st.integers(-1, 9), min_size=len(names),
                                                 max_size=len(names)),
                                        min_size=n, max_size=n)),
                     dtype=np.int64).reshape(n, len(names))
    assert (table_csv(("timestamp", *names), [timestamps, *codes.T])
            == encoded_reference(names, timestamps, codes))


CONFIG = """\
attributes:
  - {name: "x, one", kind: numeric}
  - {name: timestamp, kind: categorical}
  - {name: label, kind: categorical}
class: label
"""


def test_encode_command_writes_the_csv_writer_bytes(tmp_path):
    rng = np.random.default_rng(5)
    lines = ['"x, one",timestamp,label'] + [
        f"{rng.normal():.3f},{'?' if i % 7 == 0 else 'a%d' % rng.integers(0, 3)},"
        f"{'UP' if rng.random() < 0.5 else 'DOWN'}" for i in range(60)]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "config.yaml").write_text(CONFIG)
    args = cli.build_parser().parse_args(
        ["encode", "--config", str(tmp_path / "config.yaml"),
         "--data", str(tmp_path / "data.csv")])
    [written] = [content for name, content in cli.cmd_encode(args).items()
                 if name.startswith("encoded_")]
    encoded, _ = cli._load_data(args, cli._load_config(args))
    assert (encoded.codes == -1).any()
    assert written() == encoded_reference(encoded.attribute_names, encoded.timestamps,
                                          encoded.codes)
