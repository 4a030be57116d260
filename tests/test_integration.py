"""Cross-module paths: mode-solver-backed dispersion inside a device,
window convergence checking, and the remaining CLI option surfaces."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpmcascade
from qpmcascade.cli import main
from qpmcascade.device import device_from_dict, reference_device_path
from qpmcascade.modesolver import window_convergence_check
from qpmcascade.qpm import phase_mismatch
from qpmcascade.spectral import Wavelength

DEVICE = str(reference_device_path())


def test_window_convergence_check_small(reference_device):
    drift = window_convergence_check(
        reference_device.geometry, Wavelength(1561.62), 59.26, factor=1.25
    )
    assert drift < 5e-4


def test_device_with_modesolver_provider(tmp_path):
    doc = json.loads(reference_device_path().read_text())
    for section in doc["sections"]:
        section["index_provider"] = {"kind": "modesolver", "mode": 1}
    device = device_from_dict(doc, tmp_path)
    # period solved against guided-mode indices: below-bulk n_eff shifts it
    assert device.step1.poling_period_um != pytest.approx(12.9613, abs=1e-3)
    assert 1.0 < device.step1.poling_period_um < 50.0
    assert abs(phase_mismatch(device.step1_process())) < 1e-9


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
