"""Every demo script runs to completion and writes its artifacts."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("0*.py"))

# output files (globs, relative to the demo's own directory) each demo must leave
EXPECTED = {
    "01_regime_change_series.py": ["output/regime_series.csv", "output/regime_series.svg"],
    "02_measures_tour.py": [],
    "03_subspace_heatmaps.py": [
        "output/pairwise_joint.svg", "output/conditioned_univariate.svg",
        "output/conditioned_pairwise_corn.svg", "output/conditioned_pairwise_wheat.svg",
        "output/posterior_pairwise.svg",
    ],
    "04_cli_pipeline.py": [
        "output/cli/encoded_*.csv", "output/cli/discretizer_*.json",
        "output/cli/provenance_*.json", "output/cli/measure_*.csv",
        "output/cli/measure_*.json", "output/cli/series_*.csv",
        "output/cli/series_*.json", "output/cli/series_*.svg",
        "output/cli/map_pairwise-joint_*.csv", "output/cli/map_pairwise-joint_*.json",
        "output/cli/map_pairwise-joint_*.svg",
    ],
}


def test_every_demo_has_expectations():
    assert sorted(EXPECTED) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for pattern in EXPECTED[demo.name]:
        assert list(tmp_path.glob(pattern)), f"{demo.name} wrote no {pattern}"


def test_cli_demo_stops_at_a_failed_command(tmp_path):
    demo = REPO / "demos" / "04_cli_pipeline.py"
    script = tmp_path / demo.name
    text = demo.read_text()
    bad = text.replace('"--window-a", "0:600"', '"--window-a", "bad"', 1)
    assert bad != text
    script.write_text(bad)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert "window must be START:END" in result.stderr
    assert not list(tmp_path.glob("output/cli/series_*"))  # later commands never ran
