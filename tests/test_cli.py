import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from driftmap.cli import run_cli

CONFIG = """\
attributes:
  - {name: x1, kind: numeric}
  - {name: x2, kind: numeric}
  - {name: x3, kind: categorical}
  - {name: label, kind: categorical}
class: label
timestamp:
  source: record-index
  ticks_per_day: 10
discretization:
  bins: 3
"""


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(42)
    lines = ["x1,x2,x3,label"]
    for i in range(400):
        shift = 2.0 if i >= 200 else 0.0
        lines.append(
            f"{rng.normal() + shift:.4f},{rng.normal():.4f},"
            f"c{rng.integers(0, 3)},{'pos' if rng.random() < 0.5 else 'neg'}")
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "config.yaml").write_text(CONFIG)
    return tmp_path


def base_args(ws, *extra):
    return ["--config", str(ws / "config.yaml"),
            "--data", str(ws / "data.csv"),
            "--out", str(ws / "out"), *extra]


def test_encode_writes_artifacts(workspace, capsys):
    rc = run_cli(["encode", *base_args(workspace)])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    names = [Path(p).name for p in printed]
    assert any(n.startswith("encoded_") for n in names)
    assert any(n.startswith("discretizer_") for n in names)
    prov = next(p for p in printed if "provenance_" in p)
    doc = json.loads(Path(prov).read_text())
    assert doc["records"] == 400
    assert doc["command"] == "encode"


def test_measure_identical_windows_zero(workspace, capsys):
    rc = run_cli(["measure", *base_args(workspace),
                  "--window-a", "0:100", "--window-b", "0:100"])
    assert rc == 0
    out_files = capsys.readouterr().out.splitlines()
    doc = json.loads(Path(next(f for f in out_files if f.endswith(".json"))).read_text())
    assert len(doc["measurements"]) == 5
    for m in doc["measurements"]:
        assert m["magnitude"] == 0.0


def test_measure_detects_injected_shift(workspace, capsys):
    rc = run_cli(["measure", *base_args(workspace),
                  "--window-a", "0:200", "--window-b", "200:400",
                  "--measure", "covariate:x1", "--measure", "covariate:x2"])
    assert rc == 0
    out_files = capsys.readouterr().out.splitlines()
    doc = json.loads(Path(next(f for f in out_files if f.endswith(".json"))).read_text())
    by_subset = {m["subset"]: m["magnitude"] for m in doc["measurements"]}
    assert by_subset["x1"] > 0.5  # mean-shifted attribute
    assert by_subset["x2"] < 0.3  # stationary attribute


def test_series_with_calendar_spans_and_svg(workspace, capsys):
    rc = run_cli(["series", *base_args(workspace),
                  "--step", "1d", "--span", "2d",
                  "--measure", "covariate", "--measure", "class",
                  "--format-out", "csv,json,svg"])
    assert rc == 0
    files = capsys.readouterr().out.splitlines()
    suffixes = {Path(f).suffix for f in files}
    assert suffixes == {".csv", ".json", ".svg"}
    csv_text = Path(next(f for f in files if f.endswith(".csv"))).read_text()
    # two measures per evaluation point
    assert csv_text.count("\ncovariate,") == csv_text.count("\nclass,")


def test_map_pairwise_joint_against_oracle(workspace, capsys):
    rc = run_cli(["map", *base_args(workspace),
                  "--kind", "pairwise-joint",
                  "--window-a", "0:200", "--window-b", "200:400",
                  "--format-out", "csv,json"])
    assert rc == 0
    files = capsys.readouterr().out.splitlines()
    doc = json.loads(Path(next(f for f in files if f.endswith(".json"))).read_text())
    cells = {(c["row"], c["column"]): c["magnitude"] for c in doc["cells"]}
    assert len(cells) == 9

    # independently recompute one cell through the library pipeline
    import oracles
    from driftmap.discretize import apply_discretizer, fit_discretizer
    from driftmap.schema import ingest_records, parse_schema

    schema = parse_schema((workspace / "config.yaml").read_text())
    raw = ingest_records((workspace / "data.csv").read_bytes(), "csv", schema)
    encoded = apply_discretizer(raw, fit_discretizer(raw, 3))
    rows_a = encoded.codes[:200].tolist()
    rows_b = encoded.codes[200:].tolist()
    want = oracles.marginal_drift_oracle(rows_a, rows_b, [0, 1],
                                         encoded.cardinalities)
    assert cells[("x1", "x2")] == pytest.approx(want, abs=1e-9)


def test_map_conditioned_pairwise_emits_one_grid_per_class(workspace, capsys):
    rc = run_cli(["map", *base_args(workspace),
                  "--kind", "conditioned-pairwise",
                  "--window-a", "0:200", "--window-b", "200:400",
                  "--format-out", "csv"])
    assert rc == 0
    files = capsys.readouterr().out.splitlines()
    assert len(files) == 2  # classes pos and neg


def test_unknown_measure_fails_nonzero_without_partial_outputs(workspace, capsys):
    rc = run_cli(["measure", *base_args(workspace),
                  "--window-a", "0:100", "--window-b", "100:200",
                  "--measure", "bogus"])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    out_dir = workspace / "out"
    assert not out_dir.exists() or not list(out_dir.iterdir())


def test_calendar_span_without_ticks_per_day_errors(tmp_path, capsys):
    config = CONFIG.replace("  ticks_per_day: 10\n", "")
    (tmp_path / "config.yaml").write_text(config)
    (tmp_path / "data.csv").write_text(
        "x1,x2,x3,label\n" + "\n".join("1.0,1.0,c0,pos" for _ in range(20)) + "\n")
    rc = run_cli(["series", "--config", str(tmp_path / "config.yaml"),
                  "--data", str(tmp_path / "data.csv"),
                  "--out", str(tmp_path / "out"),
                  "--span", "1d", "--measure", "class"])
    assert rc == 1
    assert "ticks_per_day" in capsys.readouterr().err


def test_reuse_discretizer_sidecar(workspace, capsys):
    rc = run_cli(["encode", *base_args(workspace)])
    assert rc == 0
    sidecar = next(f for f in capsys.readouterr().out.splitlines()
                   if Path(f).name.startswith("discretizer_"))
    rc = run_cli(["measure", *base_args(workspace),
                  "--discretizer", sidecar,
                  "--window-a", "0:100", "--window-b", "100:200"])
    assert rc == 0


def test_byte_identical_reruns(workspace, tmp_path, capsys):
    args = ["series", "--config", str(workspace / "config.yaml"),
            "--data", str(workspace / "data.csv"),
            "--step", "5", "--span", "50",
            "--measure", "covariate", "--measure", "posterior",
            "--format-out", "csv,json,svg"]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli([*args, "--out", str(out1)]) == 0
    assert run_cli([*args, "--out", str(out2)]) == 0
    capsys.readouterr()
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("distance", ["Hellinger", "tvd", "l1"])
def test_unknown_config_distance_fails_nonzero(workspace, capsys, distance):
    config = CONFIG + f"analysis:\n  distance: {distance}\n"
    (workspace / "config.yaml").write_text(config)
    rc = run_cli(["measure", *base_args(workspace),
                  "--window-a", "0:100", "--window-b", "100:200"])
    assert rc == 1
    err = capsys.readouterr().err
    assert distance in err and "total_variation" in err and "hellinger" in err


@pytest.mark.parametrize("bins", ["0", "1"])
def test_bins_below_two_fail_nonzero(workspace, capsys, bins):
    rc = run_cli(["encode", *base_args(workspace), "--bins", bins])
    assert rc == 1
    assert "bin_count must be at least 2" in capsys.readouterr().err


def test_non_finite_numeric_cell_fails_nonzero(workspace, capsys):
    data = workspace / "data.csv"
    lines = data.read_text().splitlines()
    lines[3] = "nan," + lines[3].split(",", 1)[1]
    data.write_text("\n".join(lines) + "\n")
    rc = run_cli(["encode", *base_args(workspace)])
    assert rc == 1
    assert "row 3" in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_csv_with_a_byte_order_mark_loads(workspace, capsys):
    data = workspace / "data.csv"
    data.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    rc = run_cli(["encode", *base_args(workspace)])
    assert rc == 0
    prov = next(p for p in capsys.readouterr().out.splitlines() if "provenance_" in p)
    assert json.loads(Path(prov).read_text())["records"] == 400


def test_lone_carriage_returns_fail_nonzero_naming_the_row(workspace, capsys):
    data = workspace / "data.csv"
    data.write_bytes(data.read_bytes().replace(b"\n", b"\r"))
    rc = run_cli(["encode", *base_args(workspace)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == ("driftmap: error: header: carriage return inside an unquoted field; "
                   "lines must end in \\n or \\r\\n\n")
    assert not (workspace / "out").exists()


def test_failed_render_leaves_no_outputs(workspace, capsys, monkeypatch):
    def broken_render(grid):
        raise RuntimeError("render failed")

    monkeypatch.setattr("driftmap.cli.render_heatmap", broken_render)
    rc = run_cli(["map", *base_args(workspace), "--kind", "pairwise-joint",
                  "--window-a", "0:200", "--window-b", "200:400",
                  "--format-out", "csv,json,svg"])
    assert rc == 1
    assert "render failed" in capsys.readouterr().err
    out_dir = workspace / "out"
    assert not out_dir.exists() or not list(out_dir.iterdir())


def test_failed_second_write_removes_the_first(workspace, capsys, monkeypatch):
    write_text = Path.write_text
    calls = []

    def failing_write(path, content, *args, **kwargs):
        calls.append(path)
        if len(calls) == 2:
            write_text(path, content[:10], *args, **kwargs)  # a partial file
            raise OSError("disk full")
        return write_text(path, content, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write)
    rc = run_cli(["encode", *base_args(workspace)])
    assert rc == 1
    assert "disk full" in capsys.readouterr().err
    assert len(calls) == 2
    assert not list((workspace / "out").iterdir())


@pytest.mark.parametrize("out, existing", [
    ("out", False), ("out/nested/deeper", False), ("out", True), ("out/nested", True),
], ids=["new", "new-nested", "existing", "existing-parent"])
def test_failed_first_write_removes_the_directories_it_made(workspace, capsys, monkeypatch,
                                                            out, existing):
    if existing:
        (workspace / "out").mkdir()

    def failing_write(path, content, *args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", failing_write)
    rc = run_cli(["encode", *base_args(workspace)[:-1], str(workspace / out)])
    assert rc == 1
    assert "disk full" in capsys.readouterr().err
    if existing:
        assert not list((workspace / "out").iterdir())
    else:
        assert not (workspace / "out").exists()


@pytest.mark.parametrize("old, new, key", [
    ("timestamp:\n", "timestmp:\n", "timestmp"),
    ("{name: x3, kind: categorical}", "{name: x3, kind: categorical, domian: [c0]}", "domian"),
    ("  source: record-index\n", "  sourc: record-index\n", "sourc"),
    ("  bins: 3\n", "  bin: 3\n", "bin"),
    ("discretization:", "analysis:\n  distanse: hellinger\ndiscretization:", "distanse"),
], ids=["top-level", "attribute", "timestamp", "discretization", "analysis"])
def test_unknown_config_key_fails_nonzero(workspace, capsys, old, new, key):
    assert old in CONFIG
    (workspace / "config.yaml").write_text(CONFIG.replace(old, new))
    rc = run_cli(["encode", *base_args(workspace)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"unknown key {key!r}" in err and "allowed keys" in err
    assert not (workspace / "out").exists()


def test_non_list_exclude_fails_nonzero(workspace, capsys):
    (workspace / "config.yaml").write_text(CONFIG + "exclude: ab\n")
    rc = run_cli(["encode", *base_args(workspace)])
    assert rc == 1
    assert "exclude must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("formats", ["png", "csv,jsn", ",", "", "svg"])
def test_unknown_or_empty_format_out_fails_nonzero(workspace, capsys, formats):
    rc = run_cli(["measure", *base_args(workspace), "--format-out", formats,
                  "--window-a", "0:100", "--window-b", "100:200"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "csv" in err and "json" in err and "svg" in err
    assert not (workspace / "out").exists()


def test_class_measure_with_attributes_fails_nonzero(workspace, capsys):
    rc = run_cli(["measure", *base_args(workspace), "--measure", "class:x1",
                  "--window-a", "0:100", "--window-b", "100:200"])
    assert rc == 1
    assert "'class:x1'" in capsys.readouterr().err
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("value", ['"10"', "2.5", "true", "0", "-3"])
def test_ticks_per_day_must_be_a_positive_integer(workspace, capsys, value):
    config = CONFIG.replace("  ticks_per_day: 10\n", f"  ticks_per_day: {value}\n")
    (workspace / "config.yaml").write_text(config)
    rc = run_cli(["series", *base_args(workspace), "--span", "2d", "--measure", "class"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ticks_per_day must be a positive integer" in err
    assert value.strip('"').lower() in err.lower()
    assert not (workspace / "out").exists()


def test_repeated_series_measure_fails_nonzero(workspace, capsys):
    rc = run_cli(["series", *base_args(workspace), "--span", "50",
                  "--measure", "covariate", "--measure", "covariate"])
    assert rc == 1
    assert "repeated" in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_encode_honours_format_out(workspace, capsys):
    rc = run_cli(["encode", *base_args(workspace), "--format-out", "json"])
    assert rc == 0
    names = sorted(Path(p).name.split("_")[0] for p in capsys.readouterr().out.split())
    assert names == ["discretizer", "provenance"]
    assert sorted(p.suffix for p in (workspace / "out").iterdir()) == [".json", ".json"]


def test_encode_format_out_svg_fails_nonzero(workspace, capsys):
    rc = run_cli(["encode", *base_args(workspace), "--format-out", "svg"])
    assert rc == 1
    assert "encode writes no svg" in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_encode_rejects_distance(workspace, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["encode", *base_args(workspace), "--distance", "tvd"])
    assert exit_info.value.code != 0
    assert "--distance" in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_repeated_measure_fails_nonzero(workspace, capsys):
    rc = run_cli(["measure", *base_args(workspace), "--window-a", "0:100",
                  "--window-b", "100:200", "--measure", "covariate", "--measure", "covariate"])
    assert rc == 1
    assert "repeated" in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_classes_on_map_needs_pairwise_joint(workspace, capsys):
    rc = run_cli(["map", *base_args(workspace), "--kind", "posterior-pairwise",
                  "--classes-on-map", "--window-a", "0:200", "--window-b", "200:400"])
    assert rc == 1
    assert "--classes-on-map" in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_classes_on_map_with_subset(workspace, capsys):
    rc = run_cli(["map", *base_args(workspace), "--kind", "pairwise-joint",
                  "--subset", "x1,x2", "--classes-on-map", "--format-out", "json",
                  "--window-a", "0:200", "--window-b", "200:400"])
    assert rc == 0
    doc = json.loads(Path(capsys.readouterr().out.strip()).read_text())
    assert {c["row"] for c in doc["cells"]} == {"x1", "x2", "label"}


def test_discretizer_sidecar_enters_provenance_hash(workspace, capsys):
    window = ["--window-a", "0:100", "--window-b", "100:200"]
    assert run_cli(["encode", *base_args(workspace)]) == 0
    sidecar = next(Path(f) for f in capsys.readouterr().out.split()
                   if Path(f).name.startswith("discretizer_"))
    doc = json.loads(sidecar.read_text())
    doc["cut_points"]["x1"] = [-1.0, 1.0]
    other = workspace / "other.json"
    other.write_text(json.dumps(doc))

    outputs = {}
    for name, extra in (("fitted", []), ("sidecar", ["--discretizer", str(sidecar)]),
                        ("other", ["--discretizer", str(other)])):
        assert run_cli(["measure", *base_args(workspace), *window, *extra]) == 0
        outputs[name] = {Path(f).name for f in capsys.readouterr().out.split()}
    assert len(outputs["fitted"] | outputs["sidecar"] | outputs["other"]) == 6


@pytest.mark.parametrize("command, message", [
    (["series", "--span", "5x"], "unparseable span '5x'"),
    (["series", "--span", "0"], "span/step must be positive"),
    (["series", "--span", "1.5d"], "unparseable span '1.5d'"),
    (["measure", "--window-a", "5", "--window-b", "100:200"],
     "window must be START:END ticks, got '5'"),
    (["measure", "--window-a", "0:10", "--window-b", "10:5"],
     "--window-b: empty interval [10, 5)"),
    (["map", "--kind", "pairwise-joint", "--window-a", "5:5", "--window-b", "0:10"],
     "--window-a: empty interval [5, 5)"),
], ids=["span-5x", "span-0", "span-1.5d", "window-a-5", "window-b-reversed", "window-a-empty"])
def test_bad_span_or_window_fails_nonzero(workspace, capsys, command, message):
    rc = run_cli([command[0], *base_args(workspace), *command[1:]])
    assert rc == 1
    assert capsys.readouterr().err == f"driftmap: error: {message}\n"
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("command, analysis, message", [
    (["measure", "--window-a", "0:10", "--window-b", "10:5"], "",
     "--window-b: empty interval [10, 5)"),
    (["map", "--kind", "posterior-pairwise", "--window-a", "0:x", "--window-b", "10:20"], "",
     "window must be START:END ticks, got '0:x'"),
    (["series", "--span", "5x"], "", "unparseable span '5x'"),
    (["series", "--measure", "nope"], "", "unknown measure kind 'nope'"),
    (["series"], "analysis: {alignment: sideways}\n", "unknown alignment 'sideways'"),
    (["measure", "--window-a", "0:10", "--window-b", "10:20"], "analysis: {distance: tvd}\n",
     "unknown analysis.distance 'tvd'; expected 'total_variation' or 'hellinger'"),
    (["map", "--kind", "pairwise-joint", "--window-a", "0:10", "--window-b", "10:20",
      "--subset", "a,,b"], "",
     "--subset needs a comma list of attribute names, got 'a,,b'"),
    (["measure", "--window-a", "0:10", "--window-b", "10:20", "--measure", "covariate:zz"], "",
     "unknown attributes in subset: ['zz']"),
    (["series", "--measure", "covariate:x1,zz"], "", "unknown attributes in subset: ['zz']"),
    (["map", "--kind", "conditioned-univariate", "--window-a", "0:10", "--window-b", "10:20",
      "--subset", "zz"], "", "unknown attributes in subset: ['zz']"),
], ids=["measure", "map", "series-span", "series-measure", "alignment", "distance", "subset",
        "measure-unknown-attribute", "series-unknown-attribute", "map-unknown-subset"])
def test_bad_window_fails_before_the_data_is_read(workspace, capsys, monkeypatch, command,
                                                  analysis, message):
    (workspace / "config.yaml").write_text(CONFIG + analysis)
    monkeypatch.setattr("driftmap.cli.ingest_records", None)  # reading would fail
    assert run_cli([command[0], *base_args(workspace), *command[1:]]) == 1
    assert capsys.readouterr().err == f"driftmap: error: {message}\n"


BEYOND_INT64 = "99999999999999999999"


@pytest.mark.parametrize("command, analysis, message", [
    (["measure", "--window-a", f"0:{BEYOND_INT64}", "--window-b", "0:10"], "",
     f"--window-a: tick {BEYOND_INT64} is outside the int64 range"),
    (["measure", "--window-a", "0:10", f"--window-b=-{BEYOND_INT64}:10"], "",
     f"--window-b: tick -{BEYOND_INT64} is outside the int64 range"),
    (["map", "--kind", "posterior-pairwise", "--window-a", "0:10",
      "--window-b", f"10:{2 ** 63}"], "",
     f"--window-b: tick {2 ** 63} is outside the int64 range"),
    (["series", "--span", BEYOND_INT64], "",
     f"--span: '{BEYOND_INT64}' exceeds the int64 tick range"),
    (["series", "--step", f"{BEYOND_INT64}w"], "",
     f"--step: '{BEYOND_INT64}w' exceeds the int64 tick range"),
    (["series"], f"analysis: {{span: {BEYOND_INT64}}}\n",
     f"analysis.span: '{BEYOND_INT64}' exceeds the int64 tick range"),
    (["series", "--span", "1"], f"analysis: {{step: {2 ** 63}}}\n",
     f"analysis.step: '{2 ** 63}' exceeds the int64 tick range"),
], ids=["measure-window-a", "measure-window-b", "map-window-b", "series-span", "series-step",
        "config-span", "config-step"])
def test_a_tick_past_int64_fails_naming_its_flag_before_the_data_is_read(
        workspace, capsys, monkeypatch, command, analysis, message):
    (workspace / "config.yaml").write_text(CONFIG + analysis)
    monkeypatch.setattr("driftmap.cli.ingest_records", None)  # reading would fail
    assert run_cli([command[0], *base_args(workspace), *command[1:]]) == 1
    assert capsys.readouterr().err == f"driftmap: error: {message}\n"


def test_the_longest_int64_span_gives_an_empty_series(workspace, capsys):
    for alignment in ("adjacent-before-after", "consecutive"):
        assert run_cli(["series", *base_args(workspace), "--span", str(2 ** 63 - 1),
                        "--alignment", alignment]) == 0
        path = next(p for p in capsys.readouterr().out.split() if p.endswith(".json"))
        assert json.loads(Path(path).read_text())["points"] == []


def test_series_rejects_a_non_integer_marker(workspace, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["series", *base_args(workspace), "--marker", "x"])
    assert exit_info.value.code != 0
    assert "--marker" in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_bins_leave_the_hash_when_a_sidecar_fixes_them(workspace, capsys):
    assert run_cli(["encode", *base_args(workspace)]) == 0
    sidecar = next(f for f in capsys.readouterr().out.split()
                   if Path(f).name.startswith("discretizer_"))
    outputs = []
    for bins in ("3", "7"):
        assert run_cli(["measure", *base_args(workspace), "--discretizer", sidecar,
                        "--bins", bins, "--window-a", "0:100", "--window-b", "100:200"]) == 0
        outputs.append({Path(f).name for f in capsys.readouterr().out.split()})
    assert outputs[0] == outputs[1]


def test_python_dash_m_driftmap_cli_runs_without_a_warning():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-m", "driftmap.cli", "--help"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stderr == ""
    assert "usage: driftmap" in result.stdout


def test_python_dash_m_driftmap_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-m", "driftmap", "--help"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stderr == ""
    assert "usage: driftmap" in result.stdout


@pytest.mark.parametrize("argv, flag, value", [
    (["map", "--kind", "pairwise-joint", "--subset", ""], "--subset", ""),
    (["map", "--kind", "pairwise-joint", "--subset", "x1,,x2"], "--subset", "x1,,x2"),
    (["map", "--kind", "posterior-pairwise", "--subset", "x1,"], "--subset", "x1,"),
    (["measure", "--measure", "covariate:"], "--measure 'covariate:'", ""),
    (["measure", "--measure", "covariate:x1,,x2"], "--measure 'covariate:x1,,x2'", "x1,,x2"),
    (["measure", "--measure", "joint: "], "--measure 'joint: '", " "),
], ids=["subset-empty", "subset-empty-item", "subset-trailing-comma",
        "measure-empty", "measure-empty-item", "measure-blank"])
def test_empty_attribute_list_or_name_fails_nonzero(workspace, capsys, argv, flag, value):
    rc = run_cli([argv[0], *base_args(workspace), *argv[1:],
                  "--window-a", "0:200", "--window-b", "200:400"])
    assert rc == 1
    assert capsys.readouterr().err == (f"driftmap: error: {flag} needs a comma list of "
                                       f"attribute names, got {value!r}\n")
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("subset", ["x1,x1", "x1,label,label"])
def test_map_subset_with_a_repeated_name_fails_nonzero(workspace, capsys, subset):
    rc = run_cli(["map", *base_args(workspace), "--kind", "pairwise-joint",
                  "--subset", subset, "--window-a", "0:200", "--window-b", "200:400"])
    assert rc == 1
    assert "duplicate attributes in subset" in capsys.readouterr().err
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("section, message", [
    ("analysis:\n  measures: []\n", "analysis.measures must be a non-empty list of "
                                    "measures, got []"),
    ("analysis:\n  measures:\n", "analysis.measures must be a non-empty list of "
                                  "measures, got None"),
    ("analysis:\n  measures: covariate\n", "analysis.measures must be a non-empty list "
                                            "of measures, got 'covariate'"),
    ("analysis:\n  measures: [1]\n", "analysis.measures must be a non-empty list of "
                                     "measures, got [1]"),
], ids=["empty", "null", "string", "not-a-string"])
def test_bad_config_measures_fail_nonzero(workspace, capsys, section, message):
    (workspace / "config.yaml").write_text(CONFIG + section)
    rc = run_cli(["series", *base_args(workspace), "--span", "50"])
    assert rc == 1
    assert capsys.readouterr().err == f"driftmap: error: {message}\n"
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("section, shown", [
    ("analysis:\n  measures: []\n", "[]"),
    ("analysis:\n  measures:\n", "None"),
    ("analysis:\n  measures: covariate\n", "'covariate'"),
    ("analysis:\n  measures: [1]\n", "[1]"),
], ids=["empty", "null", "string", "not-a-string"])
def test_bad_config_measures_fail_nonzero_for_measure(workspace, capsys, section, shown):
    (workspace / "config.yaml").write_text(CONFIG + section)
    rc = run_cli(["measure", *base_args(workspace), "--window-a", "0:200",
                  "--window-b", "200:400"])
    assert rc == 1
    assert capsys.readouterr().err == ("driftmap: error: analysis.measures must be a "
                                       f"non-empty list of measures, got {shown}\n")
    assert not (workspace / "out").exists()


def _csv_rows(path):
    return list(csv.DictReader(Path(path).read_text().splitlines()))


def test_config_measures_list_is_read_by_measure(workspace, capsys):
    (workspace / "config.yaml").write_text(CONFIG + "analysis:\n  measures: [class]\n")
    assert run_cli(["measure", *base_args(workspace), "--window-a", "0:200",
                    "--window-b", "200:400", "--format-out", "csv"]) == 0
    rows = _csv_rows(capsys.readouterr().out.strip())
    assert [r["measure_kind"] for r in rows] == ["class"]


def test_config_measures_list_is_read(workspace, capsys):
    (workspace / "config.yaml").write_text(CONFIG + "analysis:\n  measures: [class]\n")
    assert run_cli(["series", *base_args(workspace), "--span", "50",
                    "--format-out", "csv"]) == 0
    rows = _csv_rows(capsys.readouterr().out.strip())
    assert rows and {r["measure_kind"] for r in rows} == {"class"}


@pytest.mark.parametrize("value", ["", " null", ' "3"', " true"],
                         ids=["empty", "null", "string", "bool"])
@pytest.mark.parametrize("extra", [[], ["--bins", "4"]], ids=["config", "with-bins-flag"])
def test_bad_config_bins_fail_nonzero(workspace, capsys, value, extra):
    (workspace / "config.yaml").write_text(CONFIG.replace("  bins: 3\n", f"  bins:{value}\n"))
    rc = run_cli(["encode", *base_args(workspace), *extra])
    assert rc == 1
    assert "discretization.bins must be an integer, got" in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_series_consecutive_alignment_windows_end_at_the_point(workspace, capsys):
    span = 50
    rc = run_cli(["series", *base_args(workspace), "--span", str(span), "--step", "25",
                  "--alignment", "consecutive", "--format-out", "csv"])
    assert rc == 0
    rows = _csv_rows(capsys.readouterr().out.strip())
    assert rows
    for row in rows:
        time = int(row["time"])
        assert int(row["window_b_end"]) == time
        assert int(row["window_a_end"]) == time - span


def test_format_arff_overrides_the_file_extension(workspace, capsys):
    lines = (workspace / "data.csv").read_text().splitlines()[1:]
    arff = "\n".join(["@relation stream", "@attribute x1 numeric", "@attribute x2 numeric",
                      "@attribute x3 {c0,c1,c2}", "@attribute label {neg,pos}", "@data",
                      *lines]) + "\n"
    (workspace / "data.arff").write_text(arff)
    (workspace / "data.txt").write_text(arff)
    window = ["--window-a", "0:200", "--window-b", "200:400", "--format-out", "csv"]
    outputs = []
    for name, extra in (("data.arff", []), ("data.txt", ["--format", "arff"])):
        out = workspace / f"out_{name}"
        rc = run_cli(["measure", "--config", str(workspace / "config.yaml"),
                      "--data", str(workspace / name), "--out", str(out), *window, *extra])
        assert rc == 0
        outputs.append(Path(capsys.readouterr().out.strip()).read_text())
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 6  # header + the five measures


def test_class_labels_become_one_file_name_part_each(workspace, capsys):
    # "a/b" once failed as a path into a missing directory, and "a%2Fb" must
    # not take the name its escape gives
    text = (workspace / "data.csv").read_text().replace(",pos\n", ",a/b\n", 50)
    (workspace / "data.csv").write_text(text.replace(",neg\n", ",a%2Fb\n", 50))
    rc = run_cli(["map", *base_args(workspace), "--kind", "conditioned-pairwise",
                  "--window-a", "0:200", "--window-b", "200:400", "--format-out", "csv"])
    assert rc == 0, capsys.readouterr().err
    files = [Path(p) for p in capsys.readouterr().out.splitlines()]
    assert all(p.parent == workspace / "out" for p in files)
    suffixes = sorted(p.stem.rsplit("_", 1)[1] for p in files)
    assert suffixes == ["a%252Fb", "a%2Fb", "neg", "pos"]
    classes = {p.stem.rsplit("_", 1)[1]: _csv_rows(p)[0]["class"] for p in files}
    assert classes == {"a%252Fb": "a%2Fb", "a%2Fb": "a/b", "neg": "neg", "pos": "pos"}


def test_long_class_labels_are_cut_to_names_of_their_own(workspace, capsys):
    # each name would pass the 255-byte file-name limit; the two labels share
    # all but their last character
    long_a, long_b = "L" * 250, "L" * 249 + "M"
    text = (workspace / "data.csv").read_text().replace(",pos\n", f",{long_a}\n", 50)
    (workspace / "data.csv").write_text(text.replace(",neg\n", f",{long_b}\n", 50))
    rc = run_cli(["map", *base_args(workspace), "--kind", "conditioned-pairwise",
                  "--window-a", "0:200", "--window-b", "200:400",
                  "--format-out", "csv,json,svg"])
    assert rc == 0, capsys.readouterr().err
    files = [Path(p) for p in capsys.readouterr().out.splitlines()]
    assert len(set(files)) == len(files) == 12
    assert max(len(p.name.encode()) for p in files) == 255  # the longest, .json
    classes = {p.stem.split("_", 3)[3]: json.loads(p.read_text())["class"]
               for p in files if p.suffix == ".json"}
    # the stem before the label is 38 bytes, so a cut label keeps 194 of its characters
    cut = {"L" * 194 + "%-" + hashlib.sha256(label.encode()).hexdigest()[:16]: label
           for label in (long_a, long_b)}
    assert classes == {"neg": "neg", "pos": "pos", **cut}
