"""Byte-exact golden artifacts of the two JSON subcommands built with
``dataclasses.asdict``: ``noise`` and ``solve-device`` on the shipped device.

Both computations use only + - * / and sqrt, which IEEE 754 rounds
exactly, so the files hold on every platform.  The comparison drops the
two run-dependent provenance lines, ``command`` and ``generated``.

To regenerate the files, run from the repository root:

    qpmcascade noise --total 142 --dark 135 --det-eff 0.72 --bw-ghz 4 \\
        --transmission 0.1457 -o tests/golden/noise.json
    qpmcascade solve-device --device src/qpmcascade/devices/reference_device.json \\
        -o tests/golden/solved.json
"""

from pathlib import Path

import pytest

from qpmcascade.cli import main
from qpmcascade.device import reference_device_path

GOLDEN = Path(__file__).parent / "golden"

ARGV = {
    "noise.json": ["noise", "--total", "142", "--dark", "135", "--det-eff", "0.72",
                   "--bw-ghz", "4", "--transmission", "0.1457"],
    "solved.json": ["solve-device", "--device", str(reference_device_path())],
}


def stable_lines(text: str) -> list[str]:
    return [line for line in text.splitlines(keepends=True)
            if not line.lstrip().startswith(('"command":', '"generated":'))]


@pytest.mark.parametrize("name", sorted(ARGV))
def test_artifact_matches_its_golden_file(tmp_path, name):
    out = tmp_path / name
    assert main([*ARGV[name], "-o", str(out)]) == 0
    assert stable_lines(out.read_text(encoding="utf-8")) == stable_lines(
        (GOLDEN / name).read_text(encoding="utf-8")
    )
