"""Golden artifacts of every subcommand: each run below goes through
``cli.main`` in-process, and its artifacts are compared with the files in
``tests/golden/``.  Both sides drop the two run-dependent provenance lines,
``command`` and ``generated``.

``noise`` and ``solve-device`` use only + - * / and sqrt, which IEEE 754
rounds exactly, so they must match text-exactly (bound ``None``).  Every
other artifact also goes through libm (sin, exp) or LAPACK/ARPACK, whose
last bits may differ between platforms and numpy wheels.  Its text with
each number replaced by a placeholder must match exactly, and its numbers
must match within the file's bound ``(rtol, atol)``:
``|new - golden| <= atol + rtol * |golden|``.  The map bound is tight
enough that a one-ulp change to any of the shipped lithium niobate's a1-a6
fails it.  A fit's bound is wider: its stop rule ends the iteration at a
point that a one-ulp change of one data sample already moves by 2e-9
relative.  The two large artifacts, the map and the field dump, are stored
gzip-compressed as ``<name>.gz``.

The inputs in ``tests/golden/inputs/`` are fixed files, not regenerated:

- ``nv_spectrum.csv``: CI's NV line, exp(-(x - 637.2)^2 / 0.5) on 481
  samples from 636.0 to 638.4 nm;
- ``sinc2_scan.csv``: a step-1 pump scan, sinc^2(10 (x - 2152.93)) + 0.02
  plus normal noise of sigma 0.005 (numpy seed 29), 201 samples from
  2151.9 to 2153.9 nm;
- ``thermal_line.csv``: CI's noiseless ``lineshape_eq2`` line, parameters
  (1, 0, 0, 1557, 1, 0), 51 samples from 1551 to 1563 nm.

After a deliberate change of output, ``python tests/golden/regen.py``
rewrites the golden files and prints the largest change per file.
"""

import gzip
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qpmcascade.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DEVICE = "src/qpmcascade/devices/reference_device.json"
INPUTS = "tests/golden/inputs"

# Each run's argv, with paths relative to the repository root; "{out}" is
# the directory the artifacts go to.
RUNS = {
    "map": ["map", "--device", DEVICE, "--t", "40:100:61", "--pump", "2100:2200:101",
            "-o", "{out}/map.csv"],
    "tune": ["tune", "--device", DEVICE, "--dt=-6:5:23", "-o", "{out}/tune.csv"],
    "efficiency": ["efficiency", "--device", DEVICE, "--eta-nor1", "0.006", "--eta-nor2", "0.006",
                   "--pump-w", "0:0.25:51", "-o", "{out}/efficiency.csv"],
    "noise": ["noise", "--total", "142", "--dark", "135", "--det-eff", "0.72", "--bw-ghz", "4",
              "--transmission", "0.1457", "-o", "{out}/noise.json"],
    "lineshape": ["lineshape", "--device", DEVICE, "--grid", "1540:1575:351",
                  "-o", "{out}/line.csv"],
    "lineshape-analytic": ["lineshape", "--device", DEVICE, "--grid", "1540:1575:351", "--analytic",
                           "-o", "{out}/line_analytic.csv"],
    "lineshape-planck": ["lineshape", "--device", DEVICE, "--grid", "1540:1575:351",
                         "--weights", "1,0.5", "--planck-K", "332", "-o", "{out}/line_planck.csv"],
    "convert-spectrum": ["convert-spectrum", "--device", DEVICE,
                         "--input", f"{INPUTS}/nv_spectrum.csv", "-o", "{out}/converted.csv"],
    "fit-sinc2": ["fit", "--model", "sinc2_scan", "--data", f"{INPUTS}/sinc2_scan.csv",
                  "-o", "{out}/fit_sinc2.json"],
    "fit-eq2": ["fit", "--model", "lineshape_eq2", "--data", f"{INPUTS}/thermal_line.csv",
                "-o", "{out}/fit_eq2.json"],
    "solve-device": ["solve-device", "--device", DEVICE, "-o", "{out}/solved.json"],
    "modes": ["modes", "--device", DEVICE, "--lam", "1561.62", "--t", "59.26", "--count", "2",
              "-o", "{out}/modes.json", "--field-dump", "{out}/field.csv"],
}

# Bound of each artifact: None is text-exact, (rtol, atol) compares numbers.
BOUNDS = {
    "map.csv": (1e-13, 0.0),
    "tune.csv": (1e-13, 0.0),
    "efficiency.csv": (1e-14, 0.0),
    "noise.json": None,
    "line.csv": (1e-12, 0.0),
    "line_analytic.csv": (1e-12, 0.0),
    "line_planck.csv": (1e-12, 0.0),
    "converted.csv": (1e-13, 0.0),
    "fit_sinc2.json": (1e-6, 1e-12),
    "fit_eq2.json": (1e-6, 1e-12),
    "solved.json": None,
    "modes.json": (1e-10, 1e-9),
    "field.csv": (1e-7, 1e-9),
}
COMPRESSED = {"map.csv", "field.csv"}

PROVENANCE = re.compile(r'\s*(# )?"?(command|generated)"?:')
NUMBER = re.compile(r"(?<![\w.])-?(\d+(\.\d*)?(e[-+]?\d+)?|nan|inf|NaN|Infinity)(?![\w.])")


def artifacts(run: str) -> list[str]:
    """Names of the files a run writes."""
    return [arg.removeprefix("{out}/") for arg in RUNS[run] if arg.startswith("{out}/")]


def run_argv(run: str, out: str) -> list[str]:
    return [arg.replace("{out}", out) for arg in RUNS[run]]


def golden_path(name: str) -> Path:
    return GOLDEN / (f"{name}.gz" if name in COMPRESSED else name)


def read_golden(name: str) -> str:
    data = golden_path(name).read_bytes()
    return (gzip.decompress(data) if name in COMPRESSED else data).decode("utf-8")


def stable(text: str) -> str:
    """The artifact without its ``command`` and ``generated`` lines."""
    return "".join(line for line in text.splitlines(keepends=True) if not PROVENANCE.match(line))


def split_numbers(text: str) -> tuple[str, np.ndarray]:
    """The text with every number literal replaced by ``#``, and the numbers."""
    numbers = [float(m.group().replace("NaN", "nan").replace("Infinity", "inf"))
               for m in NUMBER.finditer(text)]
    return NUMBER.sub("#", text), np.array(numbers)


def assert_matches(name: str, text: str, golden: str) -> None:
    bound = BOUNDS[name]
    new, old = stable(text), stable(golden)
    if bound is None:
        assert new == old
        return
    (new_layout, new_numbers), (old_layout, old_numbers) = split_numbers(new), split_numbers(old)
    assert new_layout == old_layout
    rtol, atol = bound
    np.testing.assert_allclose(new_numbers, old_numbers, rtol=rtol, atol=atol, equal_nan=True)


def test_every_artifact_has_a_bound_and_every_subcommand_a_run():
    assert sorted(BOUNDS) == sorted(name for run in RUNS for name in artifacts(run))
    assert {argv[0] for argv in RUNS.values()} == {
        "map", "tune", "efficiency", "noise", "lineshape", "convert-spectrum", "fit",
        "solve-device", "modes"}


@pytest.mark.parametrize("run", list(RUNS))
def test_artifacts_match_their_golden_files(tmp_path, monkeypatch, run):
    monkeypatch.chdir(ROOT)
    assert main(run_argv(run, str(tmp_path))) == 0
    for name in artifacts(run):
        assert_matches(name, (tmp_path / name).read_text(encoding="utf-8"), read_golden(name))


def test_device_without_its_default_valued_keys_gives_the_golden_artifacts(tmp_path):
    """The shipped device less every optional key that holds its default
    gives the same ``solve-device`` and ``map`` artifacts, apart from the
    device hash."""
    reference = ROOT / DEVICE
    doc = json.loads(reference.read_text(encoding="utf-8"))
    for section in doc["sections"]:
        del section["qpm_order"]
    for key in ("superstrate_index", "grid_nx", "grid_ny", "window_width_um", "window_height_um"):
        del doc["geometry"][key]
    minimal = tmp_path / "minimal_device.json"
    minimal.write_text(json.dumps(doc), encoding="utf-8")
    hashes = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (minimal, reference)]
    for run in ("solve-device", "map"):
        argv = [str(minimal) if arg == DEVICE else arg for arg in run_argv(run, str(tmp_path))]
        assert main(argv) == 0
        for name in artifacts(run):
            text = (tmp_path / name).read_text(encoding="utf-8").replace(*hashes)
            assert_matches(name, text, read_golden(name))
