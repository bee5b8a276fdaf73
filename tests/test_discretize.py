import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftmap.cli import run_cli
from driftmap.discretize import (
    MISSING_CODE,
    DiscretizationError,
    Discretizer,
    _equal_frequency_cuts,
    apply_discretizer,
    fit_discretizer,
)
from driftmap.schema import ingest_records, parse_schema


def make_raw(xs, labels=None):
    labels = labels or ["a"] * len(xs)
    schema = parse_schema({
        "attributes": [
            {"name": "x", "kind": "numeric"},
            {"name": "y", "kind": "categorical"},
        ],
        "class": "y",
    })
    rows = "\n".join(f"{'?' if x is None else x},{l}" for x, l in zip(xs, labels))
    return ingest_records("x,y\n" + rows + "\n", "csv", schema)


def test_equal_ranks_one_to_ten():
    raw = make_raw(list(range(1, 11)))
    d = fit_discretizer(raw, bin_count=5)
    assert d.cut_points["x"] == (2.0, 4.0, 6.0, 8.0)

    encoded = apply_discretizer(raw, d)
    col = encoded.codes[:, 0]
    # each bin holds exactly two of the ten values
    assert np.bincount(col).tolist() == [2, 2, 2, 2, 2]


def test_constant_attribute_single_bin():
    raw = make_raw([0.0] * 6)
    d = fit_discretizer(raw, bin_count=5)
    assert d.cut_points["x"] == ()
    assert d.domain_size("x") == 1


def test_tie_coalescing():
    # ideal 5-way split of {1,1,1,1,2,3} collapses onto distinct-value
    # boundaries only
    raw = make_raw([1, 1, 1, 1, 2, 3])
    d = fit_discretizer(raw, bin_count=5)
    assert d.cut_points["x"] == (1.0, 2.0)


def test_boundary_value_falls_in_lower_bin():
    raw = make_raw(list(range(1, 11)))
    d = fit_discretizer(raw, bin_count=5)
    c1 = d.cut_points["x"][0]
    assert d.encode_value("x", c1) == 0
    assert d.encode_value("x", c1 + 1e-9) == 1


def test_extreme_values_clip_to_end_bins():
    raw = make_raw(list(range(1, 11)))
    d = fit_discretizer(raw, bin_count=5)
    assert d.encode_value("x", -100.0) == 0
    assert d.encode_value("x", 100.0) == 4


def test_monotone_encoding(rng):
    values = rng.normal(size=200).tolist()
    raw = make_raw(values)
    d = fit_discretizer(raw, bin_count=5)
    ordered = sorted(values)
    codes = [d.encode_value("x", v) for v in ordered]
    assert codes == sorted(codes)


def test_equal_frequency_on_tie_free_divisible_data(rng):
    # N divisible by k and no ties: every bin gets exactly N/k values
    values = rng.permutation(np.linspace(0, 1, 100)).tolist()
    raw = make_raw(values)
    d = fit_discretizer(raw, bin_count=5)
    encoded = apply_discretizer(raw, d)
    assert np.bincount(encoded.codes[:, 0]).tolist() == [20] * 5


def test_deterministic_fit(rng):
    values = rng.normal(size=300).tolist()
    d1 = fit_discretizer(make_raw(values), bin_count=5)
    d2 = fit_discretizer(make_raw(values), bin_count=5)
    assert d1.cut_points == d2.cut_points


def test_categorical_dictionary_and_overflow():
    raw = make_raw([1, 2, 3], labels=["a", "b", "a"])
    d = fit_discretizer(raw, bin_count=5)
    assert d.label_codes["y"] == {"a": 0, "b": 1}
    assert d.labels_for("y") == ["a", "b"]

    # apply to data containing an unseen label
    raw2 = make_raw([1, 2, 3], labels=["a", "zzz", "b"])
    encoded = apply_discretizer(raw2, d)
    assert encoded.codes[1, 1] == d.overflow_code("y") == 2
    assert encoded.overflow_counts["y"] == 1
    assert encoded.cardinality("y") == 3  # overflow slot counted when seen


def test_missing_values_encode_to_missing_code():
    raw = make_raw([1.0, None, 3.0])
    d = fit_discretizer(raw, bin_count=2)
    encoded = apply_discretizer(raw, d)
    assert encoded.codes[1, 0] == MISSING_CODE


def test_fit_rejects_bad_inputs():
    raw = make_raw([1.0, 2.0])
    with pytest.raises(DiscretizationError):
        fit_discretizer(raw, bin_count=1)
    all_missing = make_raw([None, None])
    with pytest.raises(DiscretizationError, match="'x'"):
        fit_discretizer(all_missing, bin_count=2)


def test_sidecar_round_trip(rng):
    raw = make_raw(rng.normal(size=50).tolist(), labels=["a", "b"] * 25)
    d = fit_discretizer(raw, bin_count=5)
    restored = Discretizer.from_json(d.to_json(), raw.schema)
    assert restored.cut_points == d.cut_points
    assert restored.label_codes == d.label_codes
    assert restored.bin_count == d.bin_count


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["cut_points"].pop("x"), "cut_points lacks attribute 'x'"),
    (lambda doc: doc["label_codes"].pop("y"), "label_codes lacks attribute 'y'"),
    (lambda doc: doc["cut_points"].update(z=[1.0]),
     "cut_points has an unexpected entry for attribute 'z'"),
    (lambda doc: doc["cut_points"].update(x=[0.5, 0.1]), "'x' must be finite and strictly"),
    (lambda doc: doc["cut_points"].update(x=[0.5, 0.5]), "'x' must be finite and strictly"),
    (lambda doc: doc["cut_points"].update(x=[0.5, float("inf")]), "'x' must be finite"),
    (lambda doc: doc["label_codes"].update(y={"a": 0, "b": 2}), "'y' must be 0..1"),
    (lambda doc: doc.pop("cut_points"), "sidecar lacks the 'cut_points' section"),
    (lambda doc: doc.pop("label_codes"), "sidecar lacks the 'label_codes' section"),
    (lambda doc: doc.pop("bin_count"), "sidecar lacks the 'bin_count' section"),
    (lambda doc: doc["cut_points"].update(x=0.5),
     "^discretizer sidecar cut_points of attribute 'x' must be a list of numbers, got 0.5$"),
    (lambda doc: doc["cut_points"].update(x=["q"]),
     "cut_points of attribute 'x' must be a list of numbers, got \\['q'\\]$"),
    (lambda doc: doc["cut_points"].update(x=[[0.5]]), "cut_points of attribute 'x' must be"),
    (lambda doc: doc.update(cut_points=[0.5]), "cut_points must be an object of attributes"),
    (lambda doc: doc["label_codes"].update(y=["a"]),
     "label_codes of attribute 'y' must be an object of integer codes, got \\['a'\\]$"),
    (lambda doc: doc["label_codes"].update(y={"a": "zero"}), "label_codes of attribute 'y'"),
    (lambda doc: doc.update(bin_count="x"), "^discretizer sidecar bin_count must be an "
                                            "integer, got 'x'$"),
    (lambda doc: doc["cut_points"].update(x=["1.5"]),
     "^discretizer sidecar cut_points of attribute 'x' must be a list of numbers, "
     "got \\['1.5'\\]$"),
    (lambda doc: doc["cut_points"].update(x=[0.5, True]),
     "cut_points of attribute 'x' must be a list of numbers, got \\[0.5, True\\]$"),
    (lambda doc: doc["label_codes"].update(y={"a": 0.9, "b": 1}),
     "^discretizer sidecar label_codes of attribute 'y' must be an object of integer codes, "
     "got {'a': 0.9, 'b': 1}$"),
    (lambda doc: doc["label_codes"].update(y={"a": "0", "b": 1}),
     "label_codes of attribute 'y' must be an object of integer codes"),
    (lambda doc: doc.update(bin_count=5.7), "^discretizer sidecar bin_count must be an "
                                            "integer, got 5.7$"),
    (lambda doc: doc.update(bin_count="5"), "bin_count must be an integer, got '5'$"),
], ids=["missing-numeric", "missing-categorical", "extra", "decreasing", "repeated",
        "infinite", "code-gap", "no-cut-points", "no-label-codes", "no-bin-count",
        "cut-points-a-number", "cut-point-text", "cut-points-nested", "cut-points-a-list",
        "label-codes-a-list", "label-code-text", "bin-count-text", "cut-point-numeric-text",
        "cut-point-bool", "label-code-fraction", "label-code-numeric-text",
        "bin-count-fraction", "bin-count-numeric-text"])
def test_sidecar_checked_against_schema(edit, message):
    raw = make_raw([1.0, 2.0, 3.0, 4.0], ["a", "b", "a", "b"])
    doc = json.loads(fit_discretizer(raw, bin_count=3).to_json())
    edit(doc)
    with pytest.raises(DiscretizationError, match=message):
        Discretizer.from_json(json.dumps(doc), raw.schema)


def test_sidecar_takes_integral_numbers_as_integers():
    raw = make_raw([1.0, 2.0, 3.0, 4.0], ["a", "b", "a", "b"])
    fitted = fit_discretizer(raw, bin_count=3)
    doc = json.loads(fitted.to_json())
    doc.update(bin_count=3.0, label_codes={"y": {"a": 0.0, "b": 1}})
    restored = Discretizer.from_json(json.dumps(doc), raw.schema)
    assert restored.bin_count == 3 and type(restored.bin_count) is int
    assert restored.label_codes == {"y": {"a": 0, "b": 1}}
    assert all(type(c) is int for c in restored.label_codes["y"].values())
    assert restored.to_json() == fitted.to_json()


def test_sidecar_must_be_an_object():
    raw = make_raw([1.0, 2.0, 3.0, 4.0], ["a", "b", "a", "b"])
    with pytest.raises(DiscretizationError, match="sidecar must be a JSON object"):
        Discretizer.from_json("5", raw.schema)


def test_record_order_preserved(rng):
    values = rng.normal(size=40).tolist()
    raw = make_raw(values)
    encoded = apply_discretizer(raw, fit_discretizer(raw, 5))
    assert encoded.timestamps.tolist() == [ts for ts, _ in raw.records]
    recoded = [encoded.discretizer.encode_value("x", v) for v in values]
    assert encoded.codes[:, 0].tolist() == recoded


def test_dataset_arrays_are_read_only():
    raw = make_raw([1.0, None, 3.0], labels=["a", "b", "a"])
    encoded = apply_discretizer(raw, fit_discretizer(raw, 2))
    assert np.shares_memory(raw.timestamps, encoded.timestamps)
    for array in (raw.timestamps, *raw.columns, encoded.timestamps, encoded.codes):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert raw.column("x") == [1.0, None, 3.0]
    assert encoded.timestamps.tolist() == [0, 1, 2]


def _scanned_cuts(values, bin_count):
    """The cut search as a plain scan: the sorted values' runs of equal
    values and, per ideal rank split, the run end nearest to it (the first,
    so the lower, on a tie); the cut is the first value of the run below."""
    ordered = np.sort(np.asarray(values, dtype=float)).tolist()
    firsts = [i for i in range(len(ordered)) if i == 0 or ordered[i] != ordered[i - 1]]
    ends = firsts[1:]
    if not ends:
        return ()
    cuts = []
    for i in range(1, bin_count):
        ideal = i * len(ordered) / bin_count
        best = min(range(len(ends)), key=lambda k: abs(ends[k] - ideal))
        if ordered[firsts[best]] not in cuts:
            cuts.append(ordered[firsts[best]])
    return tuple(sorted(cuts))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 3.0, 1e300]), min_size=1,
                max_size=60), st.integers(2, 12), st.integers(0, 400))
def test_equal_frequency_cuts_match_a_plain_scan(values, bin_count, tie_length):
    """Long ties, one distinct value and runs mixing -0.0 and 0.0, whose cut
    keeps the sign of the run's first element: compared as ``float.hex``."""
    values = values + [values[0]] * tie_length
    got = _equal_frequency_cuts(np.asarray(values), bin_count)
    assert [c.hex() for c in got] == [c.hex() for c in _scanned_cuts(values, bin_count)]
    assert all(type(c) is float for c in got)


def test_equal_frequency_cuts_of_one_distinct_value():
    for values in ([4.0], [0.0, -0.0, 0.0] * 5):
        assert _equal_frequency_cuts(np.asarray(values), 7) == ()


def test_apply_puts_nan_in_the_missing_code_and_a_cut_value_in_the_lower_bin():
    d = fit_discretizer(make_raw([1, 2, 3, 4, 5, 6]), bin_count=3)
    assert d.cut_points["x"] == (2.0, 4.0)
    raw = make_raw([None, 2, 4, 1.9999999, 2.0000001, 4.0000001, -7, 9, None, -0.0])
    codes = apply_discretizer(raw, d).codes[:, 0].tolist()
    assert codes == [MISSING_CODE, 0, 1, 0, 1, 2, 0, 2, MISSING_CODE, 0]


def test_encode_writes_the_sidecar_of_the_scanned_cuts(tmp_path, capsys):
    """The sidecar ``encode`` writes, byte for byte, for data with ties,
    signed zeros and missing cells."""
    rng = np.random.default_rng(8)
    xs = rng.choice([-1.5, -0.0, 0.0, 0.0, 2.0, 7.25], size=300).tolist()
    lines = ["x,y"] + [f"{'' if i % 17 == 0 else x},{'ab'[i % 3 == 0]}" for i, x in
                       enumerate(xs)]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "config.yaml").write_text(
        "attributes:\n  - {name: x, kind: numeric}\n  - {name: y, kind: categorical}\n"
        "class: y\ntimestamp:\n  source: record-index\n")
    for bins in (2, 3, 5, 12):
        assert run_cli(["encode", "--config", str(tmp_path / "config.yaml"),
                        "--data", str(tmp_path / "data.csv"), "--bins", str(bins),
                        "--out", str(tmp_path / "out")]) == 0
        sidecar = next(p for p in capsys.readouterr().out.split() if "discretizer_" in p)
        observed = [x for i, x in enumerate(xs) if i % 17]
        want = Discretizer(schema=None, bin_count=bins,
                           cut_points={"x": _scanned_cuts(observed, bins)},
                           label_codes={"y": {"b": 0, "a": 1}})
        assert Path(sidecar).read_text() == want.to_json() + "\n"
