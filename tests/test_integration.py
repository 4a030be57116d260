"""Cross-module paths: mode-solver-backed dispersion inside a device,
the reference window's truncation error, and the remaining CLI option
surfaces."""

import json
import os
from dataclasses import replace
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpmcascade
from qpmcascade.cli import main
from qpmcascade.device import device_from_dict, reference_device_path
from qpmcascade.modesolver import solve_modes
from qpmcascade.qpm import ProcessSpec, phase_mismatch
from qpmcascade.spectral import Wavelength

DEVICE = str(reference_device_path())


def test_reference_window_does_not_truncate_the_mode(reference_device):
    """Enlarging the window by 1.25 at the same cell size (64^2 over
    30 x 24 um -> 80^2 over 37.5 x 30 um) moves the fundamental n_eff by
    less than 1e-8 at each wavelength of the chain; a fixed cell count
    would measure grid error instead."""
    geometry = reference_device.geometry
    wider = replace(geometry, window_width_um=37.5, window_height_um=30.0, grid_nx=80, grid_ny=80)
    assert wider.window_width_um / wider.grid_nx == geometry.window_width_um / geometry.grid_nx
    assert wider.window_height_um / wider.grid_ny == geometry.window_height_um / geometry.grid_ny
    for lam_nm in (905.08, 1561.62, 2152.9):
        base, = solve_modes(geometry, Wavelength(lam_nm), 59.26, count=1)
        enlarged, = solve_modes(wider, Wavelength(lam_nm), 59.26, count=1)
        assert abs(enlarged.n_eff - base.n_eff) < 1e-8, lam_nm


def test_device_with_modesolver_provider(tmp_path):
    doc = json.loads(reference_device_path().read_text())
    for section in doc["sections"]:
        section["index_provider"] = {"kind": "modesolver", "mode": 1}
    device = device_from_dict(doc, tmp_path)
    # period solved against guided-mode indices: below-bulk n_eff shifts it
    assert device.step1.poling_period_um != pytest.approx(12.9613, abs=1e-3)
    assert 1.0 < device.step1.poling_period_um < 50.0
    assert abs(phase_mismatch(ProcessSpec.dfg(device.signal, device.pump, device.step1))) < 1e-9


def test_cli_lineshape_weights_and_planck(tmp_path):
    out_flat = tmp_path / "flat.csv"
    out_planck = tmp_path / "planck.csv"
    base = ["lineshape", "--device", DEVICE, "--grid", "1552:1562:21",
            "--weights", "1,0,0"]
    assert main(base + ["-o", str(out_flat)]) == 0
    assert main(base + ["--planck-K", "332", "-o", str(out_planck)]) == 0
    flat = np.array([[float(v) for v in l.split(",")]
                     for l in out_flat.read_text().splitlines()
                     if l and not l.startswith("#") and not l[0].isalpha()])
    planck = np.array([[float(v) for v in l.split(",")]
                       for l in out_planck.read_text().splitlines()
                       if l and not l.startswith("#") and not l[0].isalpha()])
    assert flat.shape == planck.shape == (21, 2)
    assert not np.allclose(flat[:, 1], planck[:, 1])


def test_cli_fit_with_explicit_initial(tmp_path):
    from qpmcascade.fitting import registry_model

    model = registry_model("sinc2_scan")
    x = np.linspace(2151.9, 2153.9, 201)
    y = model.evaluate(np.array([1.0, 2152.9, 20.0, 0.0]), x)
    data = tmp_path / "scan.csv"
    data.write_text(
        "wavelength_nm,intensity\n"
        + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y))
        + "\n"
    )
    out = tmp_path / "fit.json"
    code = main([
        "fit", "--model", "sinc2_scan", "--data", str(data),
        "--initial", "amplitude=0.9,center=2152.8,effective_length=18,offset=0",
        "-o", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["parameters"]["center"] == pytest.approx(2152.9, abs=1e-6)


def test_import_defers_scipy():
    """Only eigen-solves need scipy.sparse; nothing needs scipy.optimize."""
    src = str(Path(qpmcascade.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, qpmcascade; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.optimize'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
