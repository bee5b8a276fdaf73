"""CLI artifact bytes pinned across changes.

Runs a fixed command set on a small generated stream and compares the
sha256 of every artifact with a recorded digest. A refactor that claims
byte-identical output must keep this file passing unchanged; a change
that means to alter the artifacts re-records the table by running

    PYTHONPATH=src python tests/test_cli_golden.py

The provenance JSON embeds the ``--config`` and ``--data`` paths as given,
so every command runs from a fresh directory with relative paths.
"""

import contextlib
import hashlib
import io
import os
import tempfile
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

BASE = ["--config", "config.yaml", "--data", "data.csv", "--out", "out"]
WINDOWS = ["--window-a", "0:200", "--window-b", "200:400"]
ALL_FORMATS = ["--format-out", "csv,json,svg"]

COMMANDS = {
    "encode": ["encode"],
    "measure-tvd": ["measure", *WINDOWS],
    "measure-hellinger": ["measure", *WINDOWS, "--distance", "hellinger"],
    "series": ["series", "--step", "5", "--span", "50", "--measure", "covariate",
               "--measure", "posterior", "--marker", "200", *ALL_FORMATS],
    "map-pairwise-joint": ["map", "--kind", "pairwise-joint", *WINDOWS, *ALL_FORMATS],
    "map-conditioned-univariate": ["map", "--kind", "conditioned-univariate",
                                   *WINDOWS, *ALL_FORMATS],
    "map-conditioned-pairwise": ["map", "--kind", "conditioned-pairwise",
                                 *WINDOWS, *ALL_FORMATS],
    "map-posterior-pairwise": ["map", "--kind", "posterior-pairwise", *WINDOWS, *ALL_FORMATS],
    "map-classes-on-map": ["map", "--kind", "pairwise-joint", "--classes-on-map",
                           *WINDOWS, *ALL_FORMATS],
    "series-hellinger-consecutive": [
        "series", "--step", "5", "--span", "50", "--distance", "hellinger",
        "--alignment", "consecutive", "--measure", "joint", "--measure", "covariate",
        "--measure", "class", "--measure", "conditioned-covariate", "--measure", "posterior",
        *ALL_FORMATS],
    "map-conditioned-univariate-hellinger": ["map", "--kind", "conditioned-univariate",
                                             "--distance", "hellinger", *WINDOWS, *ALL_FORMATS],
}

# {command id: {artifact name: sha256}}
DIGESTS = {
    'encode': {
        'discretizer_9d6ed4368820.json':
            'ff1a0b5b34652f6cd7154464da503c7dff86b0ec061b87b1602deb456c367da1',
        'encoded_9d6ed4368820.csv':
            '61f1fed57ef9154afb9d06ad6a1ecf6612958be61e29d1500651c677753e4a63',
        'provenance_9d6ed4368820.json':
            '1338cd613c90de3ff6e814b31dcae1e2749e679280cf5c6b63eddae5d66ab7bb',
    },
    'map-classes-on-map': {
        'map_pairwise-joint_10da1da47e77.csv':
            'b2d021fef9c30c95fea34f39c08ec9705e22c9aeab9ddfb5cee660727d2e1830',
        'map_pairwise-joint_10da1da47e77.json':
            'ee960be1f7c0746ef37812cfebedd0edf355725c38f3b4ac811d0899563654bf',
        'map_pairwise-joint_10da1da47e77.svg':
            '84034647a73cc2b027c54a678f4d23ef58eeb2a29d556ef04bad4f787384110c',
    },
    'map-conditioned-pairwise': {
        'map_conditioned-pairwise_ec3968ce0df5_neg.csv':
            'a87cfa485663cb61aaf709055e2f4533d9119c95b5c2726a6cf4e14f71dc5ac8',
        'map_conditioned-pairwise_ec3968ce0df5_neg.json':
            'b2186e052f5eca1d6c757f75d6316adb0df1780949443e66f0dadb658204b8ac',
        'map_conditioned-pairwise_ec3968ce0df5_neg.svg':
            '6f6b0c2ebc8ccce337ec57f7f5870567ae8aaefa33b5e490c8c4768666c52d1c',
        'map_conditioned-pairwise_ec3968ce0df5_pos.csv':
            '1ddd7e6173ccb4767040158b9aa7c39e77060f81f8e23537ab3731622a2bb9aa',
        'map_conditioned-pairwise_ec3968ce0df5_pos.json':
            '140a9352502ecbff12ba3b2222e48a85cfbcd1df0bdf45a847d35f091587a115',
        'map_conditioned-pairwise_ec3968ce0df5_pos.svg':
            '7b1a607788e927058a7b3a973bfd55de380066cb8fc3df21dd87774a55504d75',
    },
    'map-conditioned-univariate': {
        'map_conditioned-univariate_aa447fab7646.csv':
            'bd2e19ea2a20986b784b178d78a1f3e40d1ad7643f29da64f4d419eca205289b',
        'map_conditioned-univariate_aa447fab7646.json':
            'bd15249192edd043b31b6da7a3895a64201587678b5c80839d3dcd1a37de4210',
        'map_conditioned-univariate_aa447fab7646.svg':
            'dc2182a62440337c2b816a8390684e638cb1c4784b46048767e5cae1f4583123',
    },
    'map-conditioned-univariate-hellinger': {
        'map_conditioned-univariate_86e7b0efa8c0.csv':
            '6b1d8c01f79d6678fe89370d7b367714e9205b25218fd41baab59b2812b751c0',
        'map_conditioned-univariate_86e7b0efa8c0.json':
            '511af76a95ed7d38e6977b2c9b857e2039a61c3bd305154469ef267796a1b524',
        'map_conditioned-univariate_86e7b0efa8c0.svg':
            'd75da1286c17a425db996052441ab76720ac12c8c067bbd42ec7b65a7e6c7eea',
    },
    'map-pairwise-joint': {
        'map_pairwise-joint_0533887c810e.csv':
            '31a59174df35f970dceb60538f997d5fc5d355337ee4f9f76f503988c28aca0a',
        'map_pairwise-joint_0533887c810e.json':
            '42055edfcec6c593b029e670b032b9f5b7ce0d92b8f6e07e49cf1460dbcad64f',
        'map_pairwise-joint_0533887c810e.svg':
            'e3292b8504357174401c970c62e6a23f2430054267810387857369e9d93188a0',
    },
    'map-posterior-pairwise': {
        'map_posterior-pairwise_e34743fb510e.csv':
            'a2ae40a019c052d8b2e8b06712d80a9f3bc6a51ffafdf83e4deef646f441a371',
        'map_posterior-pairwise_e34743fb510e.json':
            '42e0caa9c2937e2722a257f8e673e1ebeea1246af5f7a51cff9e030d4cb90bce',
        'map_posterior-pairwise_e34743fb510e.svg':
            'b153ff87800b98de59b42745a340daf4d2b955755c311f04dd244987235892dc',
    },
    'measure-hellinger': {
        'measure_475e57d5abeb.csv':
            '95277b2b28f26d0f9fd613bee6bfd6daff97981c74addf0860e401f3828db4de',
        'measure_475e57d5abeb.json':
            'f96c33ae33ba5c22403aa9572a8da56bcdf8a0b4c389095f61e092a56ef25c6c',
    },
    'measure-tvd': {
        'measure_a0ce768a7c5f.csv':
            '0e850d4fb691a65a0d8ea10301014f269aac3f812e601b665c9b347a6c6c5976',
        'measure_a0ce768a7c5f.json':
            'd791f66151027266868c9f91c3fb7dc51cee92ae2a79ab7a6b47496fd60f2c76',
    },
    'series': {
        'series_ff2daf911c71.csv':
            '4bf98b6d75a4733ec4357d03e456f7af01862c8a0f13126fad831b22d9bf11c0',
        'series_ff2daf911c71.json':
            'f7c7a39db69aeec8763b0ccdfdaef6f5d8bc7aad9685c00ba85f1a973733655d',
        'series_ff2daf911c71.svg':
            'fa2113915ac2879e86a86636a092c35ea33b8ad8ee7568a78c105ab18cc80977',
    },
    'series-hellinger-consecutive': {
        'series_9c8a2712f7fb.csv':
            '69dadfb74ef918c5a2c52ab74dde9d8d457c6e87ea504f3749354e3ffe46fc24',
        'series_9c8a2712f7fb.json':
            'a8e9b716f2623acb757cd7f7efb1b5a6d6612c9f5f4ecbe03251c3d47fd751f5',
        'series_9c8a2712f7fb.svg':
            '2e626e86ff9cba0f9954cf9b3fd9a4af333e00aa08fb91c5e2ac1ff54f054295',
    },
}


def write_inputs(directory: Path) -> None:
    rng = np.random.default_rng(42)
    lines = ["x1,x2,x3,label"]
    for i in range(400):
        shift = 2.0 if i >= 200 else 0.0
        lines.append(
            f"{rng.normal() + shift:.4f},{rng.normal():.4f},"
            f"c{rng.integers(0, 3)},{'pos' if rng.random() < 0.5 else 'neg'}")
    (directory / "data.csv").write_text("\n".join(lines) + "\n")
    (directory / "config.yaml").write_text(CONFIG)


def artifact_digests(command: list[str]) -> dict[str, str]:
    """Run one command from the current directory; {artifact name: sha256}."""
    assert run_cli([command[0], *BASE, *command[1:]]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path("out").iterdir())}


@pytest.mark.parametrize("command_id", sorted(COMMANDS))
def test_artifact_bytes_match_recorded_digests(tmp_path, monkeypatch, capsys, command_id):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    assert artifact_digests(COMMANDS[command_id]) == DIGESTS[command_id]
    capsys.readouterr()


if __name__ == "__main__":
    recorded, home = {}, os.getcwd()
    for command_id, command in sorted(COMMANDS.items()):
        with tempfile.TemporaryDirectory() as directory, \
                contextlib.redirect_stdout(io.StringIO()):
            os.chdir(directory)
            write_inputs(Path(directory))
            recorded[command_id] = artifact_digests(command)
            os.chdir(home)
    print("DIGESTS = {")
    for command_id, digests in recorded.items():
        print(f"    {command_id!r}: {{")
        for name, digest in digests.items():
            print(f"        {name!r}:\n            {digest!r},")
        print("    },")
    print("}")
