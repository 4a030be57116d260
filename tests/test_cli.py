import argparse
import contextlib
import copy
import io
import itertools
import json
import math
import os
import re
import stat
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpmcascade import __version__
from qpmcascade.cli import build_parser, main
from qpmcascade.conversion import (
    Spectrum,
    StepEfficiencyModel,
    budget_transmission,
    convert_spectrum,
    csv_rows,
    step_efficiency,
)
from qpmcascade.device import load_device, reference_device_path
from qpmcascade.dispersion import builtin_material, builtin_material_names, material_to_json
from qpmcascade.errors import ConverterError, RangeError
from qpmcascade.fitting import registry_model
from qpmcascade.modesolver import solve_modes
from qpmcascade.noisemodel import lineshape_analytic, thermal_sfg_lineshape, thermal_sfg_mismatch
from qpmcascade.qpm import grid_mismatch, phasematch_map, tuning_curve
from qpmcascade.spectral import Wavelength

DEVICE = str(reference_device_path())


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith("# generated:") and '"generated"' not in line
    )


def assert_rows(path, header: str, rows: list[str]) -> None:
    """The artifact's body below its column header is exactly ``rows``."""
    body = path.read_text().split(f"\n{header}\n", 1)[1]
    assert body == "".join(f"{row}\n" for row in rows)


def read_csv_rows(path) -> list[list[float]]:
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line or line[0].isalpha():
            continue
        rows.append([float(v) for v in line.split(",")])
    return rows


class TestMapCommand:
    def test_grid_shape_and_columns(self, tmp_path):
        out = tmp_path / "map.csv"
        code = main(
            ["map", "--device", DEVICE, "--t", "55:65:11", "--pump", "2145:2160:16",
             "-o", str(out)]
        )
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 11 * 16
        assert all(len(r) == 4 for r in rows)
        header = [l for l in out.read_text().splitlines() if l[0].isalpha()][0]
        assert header == "temperature_C,pump_nm,transfer_step1,transfer_step2"

    def test_solve_point_has_unit_transfer(self, tmp_path):
        out = tmp_path / "map.csv"
        main(["map", "--device", DEVICE, "--t", "59.26:59.26:1",
              "--pump", "2152.9:2152.9:1", "-o", str(out)])
        row = read_csv_rows(out)[0]
        # both periods are solved on the exact chain at this (T, pump)
        assert row[2] >= 1 - 1e-12
        assert row[3] >= 1 - 1e-12

    def test_byte_identical_modulo_timestamp(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        argv = ["map", "--device", DEVICE, "--t", "55:65:5", "--pump", "2150:2156:7"]
        main(argv + ["-o", str(first)])
        main(argv + ["-o", str(second)])
        text_a = first.read_text().replace(str(first), "OUT")
        text_b = second.read_text().replace(str(second), "OUT")
        assert strip_timestamp(text_a) == strip_timestamp(text_b)


    def test_masked_cells_line(self, tmp_path):
        out = tmp_path / "map.csv"
        assert main(["map", "--device", DEVICE, "--t", "240:260:3", "--pump", "2150:2156:4",
                     "-o", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if l.startswith("# masked_cells=")]
        assert len(lines) == 1
        counts = json.loads(lines[0].removeprefix("# masked_cells="))
        # the 260 C row is beyond the material's 250 C limit, in both steps
        assert counts == {
            "step1": {"lithium_niobate_e temperature_C": 4},
            "step2": {"lithium_niobate_e temperature_C": 4},
        }

    @pytest.mark.parametrize("t, pump", [("40:100:13", "2100:2200:21"), ("200:300:11", "2100:2200:9")])
    def test_rows_are_the_per_element_rows(self, tmp_path, t, pump):
        out = tmp_path / "map.csv"
        assert main(["map", "--device", DEVICE, "--t", t, "--pump", pump, "-o", str(out)]) == 0
        device = load_device(DEVICE)
        temps, pumps = (np.linspace(*map(float, spec.split(":")[:2]), int(spec.split(":")[2]))
                        for spec in (t, pump))
        pm = phasematch_map(device.step1, device.step2, device.signal, temps, pumps)
        # Reference: one f-string per cell, temperature outer and pump inner.
        cells = itertools.product(pm.temperature_C.tolist(), pm.pump_nm.tolist())
        rows = [
            f"{temp!r},{p!r},{t1!r},{t2!r}"
            for (temp, p), t1, t2 in zip(cells, map(float, pm.step1.flat), map(float, pm.step2.flat))
        ]
        assert_rows(out, "temperature_C,pump_nm,transfer_step1,transfer_step2", rows)


class TestTuneCommand:
    def test_tuning_direction(self, tmp_path):
        out = tmp_path / "tune.csv"
        assert main(["tune", "--device", DEVICE, "--dt=-6:5:12", "-o", str(out)]) == 0
        rows = read_csv_rows(out)
        targets = [r[1] for r in rows]
        assert all(b < a for a, b in zip(targets, targets[1:]))

    def test_rows_are_the_per_element_rows(self, tmp_path):
        out = tmp_path / "tune.csv"
        assert main(["tune", "--device", DEVICE, "--dt=-6:5:23", "-o", str(out)]) == 0
        device = load_device(DEVICE)
        points = tuning_curve(device.step1, device.step2, device.signal, device.pump,
                              np.linspace(-6.0, 5.0, 23))
        rows = [f"{p.dT_C!r},{p.target_nm!r},{p.transfer!r}" for p in points]
        assert_rows(out, "dT_C,target_nm,transfer", rows)

    @pytest.mark.parametrize("dt, missing", [
        ("-6:5:23", {}),
        ("-30:60:10", {"no root in 1480.0-1620.0 nm": 8}),
    ])
    def test_missing_targets_line(self, tmp_path, dt, missing):
        out = tmp_path / "tune.csv"
        assert main(["tune", "--device", DEVICE, f"--dt={dt}", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        found = [i for i, l in enumerate(lines) if l.startswith("# missing_targets=")]
        assert len(found) == 1
        assert lines[found[0] + 1].startswith("# generated: ")
        assert json.loads(lines[found[0]].removeprefix("# missing_targets=")) == missing
        nan_rows = sum(np.isnan(r[1]) for r in read_csv_rows(out))
        assert nan_rows == sum(missing.values())

    def test_out_of_range_offset_exits_with_scalar_error(self, tmp_path, capsys):
        out = tmp_path / "tune.csv"
        assert main(["tune", "--device", DEVICE, "--dt=-6:250:23", "-o", str(out)]) == 3
        assert capsys.readouterr().err == (
            "code=range_error, msg=lithium_niobate_e temperature_C=251.0781818181818 "
            "outside valid range [20.0, 250.0]\n"
        )
        assert not out.exists()


class TestNoiseCommand:
    def test_reported_densities(self, tmp_path):
        out = tmp_path / "noise.json"
        code = main(
            ["noise", "--total", "142", "--dark", "135", "--det-eff", "0.72",
             "--bw-ghz", "4", "--transmission", "0.1457", "-o", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["external_nsd_cps_per_GHz"] == pytest.approx(2.43, abs=0.01)
        assert doc["internal_nsd_cps_per_GHz"] == pytest.approx(16.7, abs=0.1)
        assert doc["inputs"]["total_cps"] == 142.0


class TestEfficiencyCommand:
    def test_cascade_column_is_product(self, tmp_path):
        out = tmp_path / "eff.csv"
        main(["efficiency", "--device", DEVICE, "--eta-nor1", "0.006",
              "--eta-nor2", "0.006", "--pump-w", "0:0.225:10", "-o", str(out)])
        for pump_w, eta1, eta2, total, external in read_csv_rows(out):
            assert total == pytest.approx(eta1 * eta2, rel=1e-12)
            assert external == pytest.approx(total * 0.14568415416799999, rel=1e-12)

    def test_rows_are_the_per_element_rows(self, tmp_path):
        out = tmp_path / "eff.csv"
        assert main(["efficiency", "--device", DEVICE, "--eta-nor1", "0.06", "--eta-nor2", "0.03",
                     "--eta-max1", "0.9", "--pump-w", "0:2.5:37", "-o", str(out)]) == 0
        device = load_device(DEVICE)
        model1 = StepEfficiencyModel(0.06, device.step1.length_mm, 0.9)
        model2 = StepEfficiencyModel(0.03, device.step2.length_mm, 1.0)
        transmission = budget_transmission(device.loss_budget)
        rows = []
        for power in np.linspace(0.0, 2.5, 37):
            eta1 = step_efficiency(model1, power)
            eta2 = step_efficiency(model2, power)
            total = eta1 * eta2
            rows.append(f"{float(power)!r},{eta1!r},{eta2!r},{total!r},{total * transmission!r}")
        assert_rows(out, "pump_W,eta_step1,eta_step2,eta_internal,eta_external", rows)


class TestLineshapeCommand:
    def test_weighted_and_analytic_share_peak_location(self, tmp_path):
        weighted = tmp_path / "w.csv"
        analytic = tmp_path / "a.csv"
        main(["lineshape", "--device", DEVICE, "--grid", "1548:1568:201", "-o", str(weighted)])
        main(["lineshape", "--device", DEVICE, "--grid", "1548:1568:201", "--analytic",
              "-o", str(analytic)])
        rows_w = np.array(read_csv_rows(weighted))
        rows_a = np.array(read_csv_rows(analytic))
        peak_w = rows_w[np.argmax(rows_w[:, 1]), 0]
        peak_a = rows_a[np.argmax(rows_a[:, 1]), 0]
        assert abs(peak_w - peak_a) < 0.5

    @pytest.mark.parametrize("extra", [["--weights", "1,0.5"], ["--analytic"]])
    def test_rows_are_the_per_element_rows(self, tmp_path, extra):
        out = tmp_path / "line.csv"
        assert main(["lineshape", "--device", DEVICE, "--grid", "1540:1575:351", *extra,
                     "-o", str(out)]) == 0
        device = load_device(DEVICE)
        grid = np.linspace(1540.0, 1575.0, 351)
        if extra == ["--analytic"]:
            dk = grid_mismatch(lambda lam: thermal_sfg_mismatch(device.step2, device.pump, lam), grid)
            x, y = grid, lineshape_analytic(dk, device.step2.length_mm)
        else:
            spec = thermal_sfg_lineshape(device.step2, device.pump, grid, weights=(1.0, 0.5))
            x, y = spec.wavelength_nm, spec.intensity
        rows = [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
        assert_rows(out, "wavelength_nm,intensity", rows)

    def test_analytic_refuses_weights_and_planck(self, tmp_path, capsys):
        for extra in (["--weights", "1,2", "--planck-K", "300"], ["--weights", "1,2"],
                      ["--planck-K", "300"]):
            out = tmp_path / "line.csv"
            assert main(["lineshape", "--device", DEVICE, "--grid", "1548:1568:21", "--analytic",
                         *extra, "-o", str(out)]) == 3
            assert capsys.readouterr().err == (
                "code=domain_error, msg=--analytic is the flat-seed closed form; "
                "it takes no --weights or --planck-K\n"
            )
            assert not out.exists()

    def test_non_finite_planck_temperature_exits_three_by_name(self, tmp_path, capsys, recwarn):
        out = tmp_path / "line.csv"
        assert main(["lineshape", "--device", DEVICE, "--grid", "1540:1575:351",
                     "--planck-K", "inf", "-o", str(out)]) == 3
        assert capsys.readouterr().err == (
            "code=domain_error, msg=Planck temperature must be finite and positive kelvin, got inf\n"
        )
        assert not recwarn.list
        assert not out.exists()

    def test_decreasing_grid_exits_three_on_both_paths(self, tmp_path, capsys):
        for extra in ([], ["--analytic"]):
            out = tmp_path / "line.csv"
            assert main(["lineshape", "--device", DEVICE, "--grid", "1575:1540:5", *extra,
                         "-o", str(out)]) == 3
            assert capsys.readouterr().err == (
                "code=domain_error, msg=wavelength grid must be strictly increasing\n"
            )
            assert not out.exists()


class TestConvertSpectrumCommand:
    def test_round_trip(self, tmp_path):
        lam = np.linspace(636.0, 638.4, 481)
        intensity = np.exp(-((lam - 637.2) ** 2) / (2.0 * 0.5**2))
        source = tmp_path / "input.csv"
        write_spectrum(source, lam, intensity)
        out = tmp_path / "converted.csv"
        code = main(["convert-spectrum", "--device", DEVICE, "--input", str(source),
                     "-o", str(out)])
        assert code == 0
        rows = np.array(read_csv_rows(out))
        # output abscissa mapped into the telecom band
        assert 1540.0 < rows[:, 0].min() < rows[:, 0].max() < 1580.0
        assert np.all(np.diff(rows[:, 0]) > 0)

    def test_masked_samples_name_each_dropped_sample_error(self, tmp_path):
        lam = np.linspace(300.0, 2500.0, 401)
        source = tmp_path / "input.csv"
        write_spectrum(source, lam, np.ones_like(lam))
        out = tmp_path / "converted.csv"
        assert main(["convert-spectrum", "--device", DEVICE, "--input", str(source),
                     "-o", str(out)]) == 0
        header = {
            key: value
            for key, _, value in (
                l.removeprefix("# ").partition("=") for l in out.read_text().splitlines()
                if l.startswith(("# dropped_samples=", "# masked_samples="))
            )
        }
        masked = json.loads(header["masked_samples"])
        transfer = load_device(DEVICE).cascade_transfer()
        raised = Counter()
        for lam_nm in lam.tolist():
            try:
                transfer(lam_nm)
            except ConverterError as exc:
                raised[exc.quantity if isinstance(exc, RangeError) else exc.code] += 1
        assert masked == dict(raised)
        assert masked == {"domain_error": 163, "lithium_niobate_e wavelength_um": 143}
        assert int(header["dropped_samples"]) == sum(masked.values()) == 306
        assert len(read_csv_rows(out)) == 401 - 306

    def test_rows_are_the_per_element_rows(self, tmp_path):
        lam = np.linspace(600.0, 950.0, 401)
        intensity = 1.0 / (1.0 + ((lam - 637.2) / 0.8) ** 2) + 0.3 * np.exp(-0.5 * ((lam - 690.0) / 35.0) ** 2)
        source = tmp_path / "input.csv"
        write_spectrum(source, lam, intensity)
        out = tmp_path / "converted.csv"
        assert main(["convert-spectrum", "--device", DEVICE, "--input", str(source),
                     "-o", str(out)]) == 0
        device = load_device(DEVICE)
        converted, _ = convert_spectrum(Spectrum(lam, intensity), device.cascade_transfer(),
                                        device.map_to_target)
        rows = [f"{float(a)!r},{float(b)!r}"
                for a, b in zip(converted.wavelength_nm, converted.intensity)]
        assert_rows(out, "wavelength_nm,intensity", rows)


class TestFitCommand:
    def test_saturation_round_trip(self, tmp_path):
        model = registry_model("saturation", length_mm=20.0)
        x = np.linspace(1e-4, 0.225, 150)
        y = model.evaluate(np.array([0.95, 0.04]), x)
        data = tmp_path / "eff.csv"
        data.write_text(
            "wavelength_nm,intensity\n"
            + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y))
            + "\n"
        )
        out = tmp_path / "fit.json"
        code = main(["fit", "--model", "saturation", "--data", str(data),
                     "--fixed", "L=20", "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["parameters"]["eta_nor"] == pytest.approx(0.04, rel=0.01)
        assert doc["converged"] is True
        assert doc["constants"] == {"length_mm": 20.0}

    def test_noisy_scan_with_negative_samples_fits(self, tmp_path):
        """A measured scan whose noisy wings dip below zero is data, not a
        spectrum: it fits instead of exiting 3."""
        rng = np.random.default_rng(3)
        x = np.linspace(2151.9, 2153.9, 201)
        y = np.sinc(0.5 * 20.0 * (x - 2152.93) / np.pi) ** 2 + rng.normal(0.0, 0.01, x.size)
        assert np.any(y < 0.0)
        data = tmp_path / "scan.csv"
        data.write_text("\n".join(f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())) + "\n")
        out = tmp_path / "fit.json"
        assert main(["fit", "--model", "sinc2_scan", "--data", str(data), "--fixed", "L=20",
                     "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["rms"] <= 1.5 * 0.01
        assert doc["parameters"]["center"] == pytest.approx(2152.93, abs=0.01)

    def test_non_finite_data_exits_three(self, tmp_path, capsys):
        data = tmp_path / "scan.csv"
        data.write_text("2152.0,0.5\n2152.5,nan\n2153.0,0.4\n2153.5,0.1\n2154.0,0.0\n")
        out = tmp_path / "fit.json"
        assert main(["fit", "--model", "sinc2_scan", "--data", str(data), "-o", str(out)]) == 3
        assert capsys.readouterr().err.startswith("code=domain_error, msg=")
        assert not out.exists()

    @pytest.mark.parametrize("initial", [[], ["--initial", "amplitude=1,center=2153,effective_length=20,offset=0"]])
    def test_non_finite_data_is_named_by_column_and_row(self, tmp_path, capsys, initial):
        """With or without --initial (auto_initial or fit reads the data
        first), the refusal names the column and the row."""
        data = tmp_path / "scan.csv"
        data.write_text("2152.0,0.5\n2152.5,0.7\n2153.0,0.4\n2153.5,0.1\n2154.0,0.0\ninf,0.0\n")
        out = tmp_path / "fit.json"
        assert main(["fit", "--model", "sinc2_scan", "--data", str(data), *initial, "-o", str(out)]) == 3
        assert capsys.readouterr().err == "code=domain_error, msg=data x must be finite, got inf at index 5\n"
        assert not out.exists()

    def test_non_finite_initial_exits_three_naming_the_parameter(self, tmp_path, capsys):
        data = tmp_path / "scan.csv"
        x = np.linspace(2151.9, 2153.9, 41)
        data.write_text("\n".join(f"{a!r},{b!r}" for a, b in zip(x.tolist(), np.sinc(x - 2152.9).tolist())))
        out = tmp_path / "fit.json"
        code = main(["fit", "--model", "sinc2_scan", "--data", str(data), "--initial",
                     "amplitude=nan,center=2152.9,effective_length=20,offset=0", "-o", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "code=domain_error, msg=initial parameter 'amplitude' must be finite, got nan\n"
        )
        assert not out.exists()

    def test_data_file_of_any_name_gives_the_same_artifact(self, tmp_path):
        x = np.linspace(2151.9, 2153.9, 41)
        text = "\n".join(f"{a!r},{b!r}" for a, b in zip(x.tolist(), np.sinc(x - 2152.9).tolist()))
        artifacts = []
        for name in ("scan.csv", "scan.txt"):
            (tmp_path / name).write_text(text)
            out = tmp_path / f"{name}.json"
            assert main(["fit", "--model", "sinc2_scan", "--data", str(tmp_path / name), "-o", str(out)]) == 0
            artifacts.append([line for line in strip_timestamp(out.read_text()).splitlines()
                              if '"command"' not in line])
        assert artifacts[0] == artifacts[1]

    def test_rms_is_the_root_mean_square_of_the_fit_residual_norm(self, tmp_path):
        x = np.linspace(2151.9, 2153.9, 41)
        y = np.sinc(x - 2152.9) ** 2 + 0.01 * np.cos(7.0 * x)
        data = tmp_path / "scan.csv"
        data.write_text("\n".join(f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())))
        out = tmp_path / "fit.json"
        assert main(["fit", "--model", "sinc2_scan", "--data", str(data), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rms"] > 0.0
        assert doc["rms"] == math.sqrt(doc["residual_norm"] / x.size)
        residuals = y - registry_model("sinc2_scan").evaluate(list(doc["parameters"].values()), x)
        assert doc["rms"] == math.sqrt(residuals @ residuals / x.size)

    def test_data_outside_the_center_bounds_fits_from_the_automatic_guess(self, tmp_path):
        # x on 50-70 lies below sinc2_scan's centre bounds (100, 20e3); the
        # automatic guess keeps its centres inside them, so fit() takes it
        data = tmp_path / "scan.csv"
        x = np.linspace(50.0, 70.0, 41)
        data.write_text("\n".join(f"{a!r},{b!r}" for a, b in zip(x.tolist(), np.sinc(x - 60.0).tolist())))
        out = tmp_path / "fit.json"
        assert main(["fit", "--model", "sinc2_scan", "--data", str(data), "-o", str(out)]) == 0
        assert 100.0 <= json.loads(out.read_text())["parameters"]["center"] <= 20e3


class TestSolveDeviceCommand:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "solved.json"
        assert main(["solve-device", "--device", DEVICE, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["target_nm"] == pytest.approx(1561.56, abs=0.01)
        kinds = {p["kind"] for p in doc["parasitics"]}
        assert "SHG_pump" in kinds
        assert doc["provenance"]["device_sha256"]


class TestModesCommand:
    def test_modes_report(self, tmp_path):
        out = tmp_path / "modes.json"
        dump = tmp_path / "field.csv"
        code = main(["modes", "--device", DEVICE, "--lam", "1561.62", "--t", "59.26",
                     "--count", "2", "--field-dump", str(dump), "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["found"] == 2
        assert doc["modes"][0]["n_eff"] > doc["modes"][1]["n_eff"]
        assert dump.read_text().startswith("x_um,y_um,amplitude")

    @pytest.mark.parametrize("grid_nx, grid_ny", [(64, 64), (96, 128)])
    def test_field_dump_is_the_per_element_rows(self, tmp_path, grid_nx, grid_ny):
        doc = json.loads(reference_device_path().read_text())
        doc["geometry"].update(grid_nx=grid_nx, grid_ny=grid_ny)
        device_path = tmp_path / "device.json"
        device_path.write_text(json.dumps(doc))
        dump = tmp_path / "field.csv"
        assert main(["modes", "--device", str(device_path), "--lam", "1561.62", "--t", "59.26",
                     "--field-dump", str(dump), "-o", str(tmp_path / "modes.json")]) == 0
        sol = solve_modes(load_device(device_path).geometry, Wavelength(1561.62), 59.26, count=2)[0]
        assert sol.field.shape == (grid_ny, grid_nx)
        # Reference: one f-string per field element, y outer and x inner.
        rows = ["x_um,y_um,amplitude"]
        for j, yv in enumerate(sol.y_um):
            for i, xv in enumerate(sol.x_um):
                rows.append(f"{float(xv)!r},{float(yv)!r},{float(sol.field[j, i])!r}")
        assert dump.read_bytes() == ("\n".join(rows) + "\n").encode()


NOISE_ARGV = ["noise", "--total", "142", "--dark", "135", "--det-eff", "0.72",
              "--bw-ghz", "4", "--transmission", "0.1457"]


def write_spectrum(path, x, y) -> str:
    path.write_text("\n".join(["wavelength_nm,intensity", *csv_rows(x, y)]) + "\n", encoding="utf-8")
    return str(path)


def saturation_data(directory) -> str:
    """A noiseless 20-point saturation curve (eta_max 0.9, eta_nor 0.04, L 20 mm)."""
    x = np.linspace(1e-3, 0.225, 20)
    return write_spectrum(directory / "eff.csv", x, 0.9 * np.sin(np.sqrt(0.04 * x) * 20.0) ** 2)


# One run of each subcommand: its argv (without -o) given a scratch
# directory, and the count entries its provenance carries.
PROVENANCE_RUNS = {
    "map": (lambda d: ["map", "--device", DEVICE, "--t", "240:260:3", "--pump", "2150:2156:4"],
            ["masked_cells"]),
    "tune": (lambda d: ["tune", "--device", DEVICE, "--dt=-30:60:10"], ["missing_targets"]),
    "efficiency": (lambda d: ["efficiency", "--device", DEVICE, "--eta-nor1", "0.006",
                              "--eta-nor2", "0.006", "--pump-w", "0:0.25:6"], []),
    "noise": (lambda d: NOISE_ARGV, []),
    "lineshape": (lambda d: ["lineshape", "--device", DEVICE, "--grid", "1548:1568:21"], []),
    "convert-spectrum": (
        lambda d: ["convert-spectrum", "--device", DEVICE, "--input",
                   write_spectrum(d / "in.csv", np.linspace(300.0, 2500.0, 41), np.ones(41))],
        ["dropped_samples", "masked_samples"],
    ),
    "fit": (lambda d: ["fit", "--model", "saturation", "--fixed", "L=20",
                       "--data", saturation_data(d)], []),
    "solve-device": (lambda d: ["solve-device", "--device", DEVICE], []),
    "modes": (lambda d: ["modes", "--device", DEVICE, "--lam", "1561.62", "--t", "59.26",
                         "--count", "1"], []),
}


# Every file-valued option of every subcommand.
FILE_OPTIONS = [(sub, "--device") for sub in PROVENANCE_RUNS if sub not in ("noise", "fit")] + [
    ("convert-spectrum", "--input"), ("fit", "--data")]


@pytest.mark.parametrize("kind", ["missing", "directory", "not UTF-8"])
@pytest.mark.parametrize("sub, option", FILE_OPTIONS)
def test_unreadable_input_file_exits_three(tmp_path, capsys, sub, option, kind):
    """A file option naming a missing path, a directory or a file that is
    not UTF-8 (here UTF-16, as spreadsheets may export) exits 3 with one
    ``code=..., msg=...`` line naming the file, and writes no artifact."""
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    argv = PROVENANCE_RUNS[sub][0](inputs)
    bad = inputs / ("bad.json" if option == "--device" else "bad.csv")
    if kind == "directory":
        bad.mkdir()
    elif kind == "not UTF-8":
        bad.write_bytes("\ufeffwavelength_nm,intensity\n600.0,1.0\n".encode("utf-16-le"))
    argv[argv.index(option) + 1] = str(bad)
    code = main(argv + ["-o", str(outputs / "artifact")])
    err = capsys.readouterr().err
    if kind != "not UTF-8":
        expected = "io_error"
    else:
        expected = "device_file_error" if option == "--device" else "domain_error"
    assert code == 3
    assert re.fullmatch(f"code={expected}, msg=[^\n]*{re.escape(repr(str(bad)))}[^\n]*\n", err), err
    assert list(outputs.iterdir()) == []


class TestProvenance:
    @pytest.mark.parametrize("sub", list(PROVENANCE_RUNS))
    def test_entries_in_order(self, tmp_path, sub):
        make_argv, counts = PROVENANCE_RUNS[sub]
        argv = make_argv(tmp_path)
        device = ["device_sha256"] if "--device" in argv else []
        out = tmp_path / "artifact"
        assert main(argv + ["-o", str(out)]) == 0
        text = out.read_text()
        if text.startswith("{"):
            prov = json.loads(text)["provenance"]
            assert list(prov) == ["tool", "version", "subcommand", "command", *device, *counts,
                                  "generated"]
            assert prov["tool"] == "qpmcascade"
            assert (prov["version"], prov["subcommand"]) == (__version__, sub)
            return
        lines = text.splitlines()
        n = next(i for i, line in enumerate(lines) if not line.startswith("# "))
        assert lines[0] == f"# qpmcascade {sub} v{__version__}"
        keys = [re.match(r"# (\w+(: |=))", line).group(1) for line in lines[1:n]]
        assert keys == ["command: ", *(f"{k}=" for k in device + counts), "generated: "]
        assert lines[1].startswith(f"# command: qpmcascade {sub} ")
        assert lines[n][0].isalpha()

    def test_modes_writes_no_field_dump_when_its_report_fails(self, tmp_path, capsys):
        out = tmp_path / "missing" / "modes.json"
        dump = tmp_path / "field.csv"
        assert main(["modes", "--device", DEVICE, "--lam", "1561.62", "--t", "59.26",
                     "--count", "1", "--field-dump", str(dump), "-o", str(out)]) == 3
        assert capsys.readouterr().err.startswith("code=io_error, msg=")
        assert list(tmp_path.iterdir()) == []


class TestArtifactFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_artifact_gets_the_mode_of_a_new_file(self, tmp_path, umask):
        """A written and then an overwritten artifact both have mode 0o666
        less the umask, the mode ``touch`` gives a new file."""
        out = tmp_path / "noise.json"
        previous = os.umask(umask)
        try:
            for _ in range(2):
                assert main([*NOISE_ARGV, "-o", str(out)]) == 0
                assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
        finally:
            os.umask(previous)

    def test_failed_field_dump_leaves_the_artifact_path_as_it_was(self, tmp_path, capsys):
        out = tmp_path / "modes.json"
        dump = tmp_path / "missing" / "field.csv"
        argv = ["modes", "--device", DEVICE, "--lam", "1561.62", "--t", "59.26", "--count", "1",
                "--field-dump", str(dump), "-o", str(out)]
        error = f"code=io_error, msg=[Errno 2] No such file or directory: {str(dump)!r}\n"
        assert main(argv) == 3
        assert capsys.readouterr().err == error
        assert list(tmp_path.iterdir()) == []
        out.write_text("earlier artifact\n")
        assert main(argv) == 3
        assert capsys.readouterr().err == error
        assert out.read_text() == "earlier artifact\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_io_error_names_the_requested_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "map.csv"
        assert main(["map", "--device", DEVICE, "--t", "50:60:2", "--pump", "2150:2156:2",
                     "-o", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"code=io_error, msg=[Errno 2] No such file or directory: {str(out)!r}\n"
        )


@pytest.mark.parametrize("weights", ["1e308,1e308,1e308", "1e308,-1e308,1e308", "1e308"])
def test_overflowing_weights_exit_three_with_one_line_and_no_warning(tmp_path, capsys, recwarn,
                                                                     weights):
    out = tmp_path / "line.csv"
    code = main(["lineshape", "--device", DEVICE, "--grid", "1550:1565:31",
                 f"--weights={weights}", "-o", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        "code=domain_error, msg=spectrum intensities must be finite and non-negative\n"
    )
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


@pytest.fixture
def fresh_parser():
    """Drop the cached argument parser before and after the test."""
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


class TestParserReuse:
    def test_parser_is_built_once(self, tmp_path, monkeypatch, fresh_parser):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(NOISE_ARGV + ["-o", str(tmp_path / "noise.json")]) == 0
        once = len(built)
        assert once > 1  # the top-level parser and its subcommand parsers
        for _ in range(4):
            assert main(NOISE_ARGV + ["-o", str(tmp_path / "noise.json")]) == 0
        assert len(built) == once

    @staticmethod
    def artifact(argv, out) -> str:
        assert main(argv + ["-o", str(out)]) == 0
        return strip_timestamp(out.read_text())

    def test_lineshape_weights_do_not_leak(self, tmp_path, fresh_parser):
        plain = ["lineshape", "--device", DEVICE, "--grid", "1548:1568:41"]
        out = tmp_path / "line.csv"
        first = self.artifact(plain, out)
        build_parser.cache_clear()
        self.artifact(plain + ["--weights", "1,0.5"], out)
        assert self.artifact(plain, out) == first

    def test_fit_initial_does_not_leak(self, tmp_path, fresh_parser):
        data = tmp_path / "eff.csv"
        x = np.linspace(1e-3, 0.225, 40)
        write_spectrum(data, x, 0.9 * np.sin(np.sqrt(0.04 * x) * 20.0) ** 2)
        plain = ["fit", "--model", "saturation", "--data", str(data), "--fixed", "L=20"]
        out = tmp_path / "fit.json"
        first = self.artifact(plain, out)
        build_parser.cache_clear()
        self.artifact(plain + ["--initial", "eta_max=0.5,eta_nor=0.01"], out)
        assert self.artifact(plain, out) == first

    def test_usage_error_after_a_successful_call(self, tmp_path, fresh_parser):
        out = tmp_path / "noise.json"
        assert main(NOISE_ARGV + ["-o", str(out)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["map", "--device", DEVICE, "-o", str(tmp_path / "map.csv")])
        assert exc.value.code == 2
        assert main(NOISE_ARGV + ["-o", str(out)]) == 0


class TestErrorHandling:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["map", "--device", DEVICE, "-o", "x.csv"])  # missing --t/--pump
        assert exc.value.code == 2

    def test_bad_range_spec_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["map", "--device", DEVICE, "--t", "nonsense", "--pump", "1:2:3",
                  "-o", "x.csv"])
        assert exc.value.code == 2

    def test_missing_device_exits_three(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        code = main(["map", "--device", str(tmp_path / "nope.json"), "--t", "55:60:2",
                     "--pump", "2150:2152:2", "-o", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("code=")
        assert "msg=" in err
        assert not out.exists()

    def test_domain_error_exits_three(self, tmp_path, capsys):
        out = tmp_path / "noise.json"
        code = main(["noise", "--total", "100", "--dark", "150", "--det-eff", "0.72",
                     "--bw-ghz", "4", "--transmission", "0.2", "-o", str(out)])
        assert code == 3
        assert "code=domain_error" in capsys.readouterr().err
        assert not out.exists()

    def test_count_no_block_can_hold_exits_three(self, tmp_path, capsys):
        out = tmp_path / "modes.json"
        code = main(["modes", "--device", DEVICE, "--lam", "1561.62", "--t", "59.26",
                     "--count", "100000000", "-o", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("code=domain_error, msg=count must be >= 1 and <= 2046")
        assert not out.exists()

    def test_malformed_number_in_data_exits_three(self, tmp_path, capsys):
        data = tmp_path / "scan.csv"
        data.write_text("wavelength_nm,intensity\n2152.0,0.5\n2152.5,0.9x\n2153.0,0.4\n")
        for argv in (
            ["fit", "--model", "sinc2_scan", "--data", str(data)],
            ["convert-spectrum", "--device", DEVICE, "--input", str(data)],
        ):
            out = tmp_path / "out"
            assert main(argv + ["-o", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("code=domain_error, msg=")
            assert "0.9x" in err
            assert not out.exists()

    def test_malformed_fit_data_row_is_named_by_line(self, tmp_path, capsys):
        data = tmp_path / "scan.csv"
        data.write_text("# pump scan\nwavelength_nm,intensity\n2152.0,0.5\n2152.5,abc\n")
        out = tmp_path / "fit.json"
        assert main(["fit", "--model", "sinc2_scan", "--data", str(data), "-o", str(out)]) == 3
        assert capsys.readouterr().err == (
            "code=domain_error, msg=line 4 is not two numbers: '2152.5,abc'\n")
        assert not out.exists()

    def test_initial_missing_a_parameter_exits_three(self, tmp_path, capsys):
        data = tmp_path / "eff.csv"
        x = np.linspace(1e-3, 0.225, 20)
        write_spectrum(data, x, 0.9 * np.sin(np.sqrt(0.04 * x) * 20.0) ** 2)
        out = tmp_path / "fit.json"
        code = main(["fit", "--model", "saturation", "--data", str(data),
                     "--initial", "eta_max=0.9", "-o", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("code=domain_error, msg=")
        assert "eta_nor" in err
        assert not out.exists()

    def test_empty_initial_exits_three(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(["fit", "--model", "saturation", "--data", saturation_data(tmp_path),
                     "--initial", "", "-o", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "code=domain_error, msg=--initial omits parameter(s) eta_max, eta_nor "
            "of model 'saturation'\n")
        assert not out.exists()

    @pytest.mark.parametrize("extra, name", [
        (["--fixed", "foo=3"], "foo"),
        (["--fixed", "length_mm=20"], "length_mm"),
        (["--initial", "eta_max=0.9,eta_nor=0.04,bogus=7"], "bogus"),
    ])
    def test_fit_unknown_name_exits_three(self, tmp_path, capsys, extra, name):
        data = tmp_path / "eff.csv"
        x = np.linspace(1e-3, 0.225, 20)
        write_spectrum(data, x, 0.9 * np.sin(np.sqrt(0.04 * x) * 20.0) ** 2)
        out = tmp_path / "fit.json"
        code = main(["fit", "--model", "saturation", "--data", str(data), *extra, "-o", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("code=domain_error, msg=") and err.count("\n") == 1
        assert name in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--fixed", "L=20,L=30"),
        ("--initial", "eta_max=0.9,eta_nor=0.04,eta_max=0.5"),
    ])
    def test_repeated_assignment_exits_two(self, tmp_path, capsys, flag, value):
        out = tmp_path / "fit.json"
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--model", "saturation", "--data", str(tmp_path / "eff.csv"),
                  flag, value, "-o", str(out)])
        assert exc.value.code == 2
        name = value.split(",")[-1].split("=")[0]
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [
            f"qpmcascade fit: error: argument {flag}: {name!r} assigned more than once in {value!r}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("signal_nm", "abc", "signal_nm must be a number, got 'abc'"),
        ("solve_at", 59.26, "sections[0].solve_at must be a JSON object, got 59.26"),
    ])
    def test_device_value_of_wrong_json_type_exits_three(self, tmp_path, capsys, key, value, message):
        doc = json.loads(reference_device_path().read_text())
        if key == "solve_at":
            doc["sections"][0]["solve_at"] = value
        else:
            doc[key] = value
        device_path = tmp_path / "device.json"
        device_path.write_text(json.dumps(doc))
        out = tmp_path / "solved.json"
        assert main(["solve-device", "--device", str(device_path), "-o", str(out)]) == 3
        assert capsys.readouterr().err == f"code=device_file_error, msg={message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("window", ["1000:1620:1", "1000:1620:3"])
    def test_window_other_than_two_edges_exits_two(self, tmp_path, capsys, window):
        out = tmp_path / "solved.json"
        with pytest.raises(SystemExit) as exc:
            main(["solve-device", "--device", DEVICE, "--window", window, "-o", str(out)])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [
            f"qpmcascade solve-device: error: argument --window: expected lo:hi:2, got '{window}'"
        ]
        assert not out.exists()

    def test_lineshape_sample_outside_material_range_exits_three(self, tmp_path, capsys):
        # near the 2152.9 nm pump the thermal driver lies beyond LiNbO3's 6.6 um
        for extra in ([], ["--analytic"]):
            out = tmp_path / "line.csv"
            code = main(["lineshape", "--device", DEVICE, "--grid", "2100:2200:11", *extra,
                         "-o", str(out)])
            assert code == 3
            err = capsys.readouterr().err
            assert err.startswith("code=range_error, msg=lithium_niobate_e wavelength_um=85.46")
            assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["efficiency", "--device", DEVICE, "--eta-nor1", "inf", "--eta-nor2", "0.006",
          "--pump-w", "0:0.25:6"], "eta_nor must be finite and non-negative"),
        (["efficiency", "--device", DEVICE, "--eta-nor1", "nan", "--eta-nor2", "0.006",
          "--pump-w", "0:0.25:6"], "eta_nor must be finite and non-negative"),
        (["efficiency", "--device", DEVICE, "--eta-nor1", "1e308", "--eta-nor2", "0.006",
          "--pump-w", "0:10:3"],
         "efficiency is not finite: eta_nor * pump power overflows or the mismatch is not finite"),
        (["noise", "--total", "inf", "--dark", "135", "--det-eff", "0.72", "--bw-ghz", "4",
          "--transmission", "0.1457"], "count rates must be finite"),
        (["noise", "--total", "142", "--dark", "nan", "--det-eff", "0.72", "--bw-ghz", "4",
          "--transmission", "0.1457"], "count rates must be finite"),
        *((["fit", "--model", "saturation", "--fixed", f"L={length}"],
           f"section length must be finite and positive, got {float(length)!r}")
          for length in ("nan", "inf", "-20", "0")),
    ])
    def test_non_finite_or_non_positive_number_exits_three(self, tmp_path, capsys, argv, message):
        if argv[0] == "fit":
            argv = argv + ["--data", saturation_data(tmp_path)]
        out = tmp_path / "artifact"
        assert main(argv + ["-o", str(out)]) == 3
        assert capsys.readouterr().err == f"code=domain_error, msg={message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["efficiency", "--device", DEVICE, "--eta-nor1", "0.006", "--eta-nor2", "0.006",
         "--pump-w", "nan:1:3"],
        ["efficiency", "--device", DEVICE, "--eta-nor1", "0.006", "--eta-nor2", "0.006",
         "--pump-w", "0:inf:3"],
        ["map", "--device", DEVICE, "--t", "55:60:2", "--pump=-inf:2152:2"],
        ["lineshape", "--device", DEVICE, "--grid", "1548:nan:5"],
    ])
    def test_non_finite_grid_edge_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "artifact.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-o", str(out)])
        assert exc.value.code == 2
        assert "with finite lo, hi and count >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_leaves_no_partial_artifact(self, tmp_path):
        target = tmp_path / "artifact.csv"
        code = main(["convert-spectrum", "--device", DEVICE,
                     "--input", str(tmp_path / "missing.csv"), "-o", str(target)])
        assert code == 3
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


# --- device and material files through the CLI ----------------------------------

def leaf_paths(doc, prefix=()) -> list[tuple]:
    """Key/index path of every non-container value of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [prefix]
    return [path for key, value in items for path in leaf_paths(value, (*prefix, key))]


def with_leaf(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def solve_device_on(directory, device: dict, material=None) -> tuple[int, str, bool]:
    """Run ``solve-device`` on ``device``; with ``material`` (a document or
    raw bytes) the device's first material is that file.  Returns the exit
    code, stderr and whether an artifact was written (then removed)."""
    if material is not None:
        path = directory / "material.json"
        path.write_bytes(material if isinstance(material, bytes) else json.dumps(material).encode())
        device = with_leaf(device, ("materials", 0), path.name)
    device_path = directory / "device.json"
    device_path.write_text(json.dumps(device))
    out = directory / "solved.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["solve-device", "--device", str(device_path), "-o", str(out)])
    written = out.exists()
    if written:
        out.unlink()
    return code, err.getvalue(), written


DEVICE_DOC = json.loads(reference_device_path().read_text())
MATERIAL_DOC = json.loads(material_to_json(builtin_material("lithium_niobate_e")))
JSON_KINDS = ["x", True, None, [1.0], {"k": 1.0}, math.nan, math.inf]


class TestInputFileRefusals:
    @pytest.mark.parametrize("path, value, message", [
        (("wavelength_range_um",), ["a", "b"], "material.wavelength_range_um[0] must be a number, got 'a'"),
        (("wavelength_range_um",), [0.3, "5"], "material.wavelength_range_um[1] must be a number, got '5'"),
        (("name",), 5, "material.name must be a string, got 5"),
        (("mid_ir_absorptive",), "false", "material.mid_ir_absorptive must be a boolean, got 'false'"),
        (("notes",), 7, "material.notes must be a string, got 7"),
        (("coefficients", "a1"), True, "material.coefficients.a1 must be a number, got True"),
        (("coefficients", "a1"), math.inf, "material.coefficients.a1 must be a finite number, got inf"),
        (("coefficients", "b1"), math.nan, "material.coefficients.b1 must be a finite number, got nan"),
        (("temperature_range_C",), [20.0], "material.temperature_range_C must be a [low, high] pair"),
    ])
    def test_material_value_exits_three(self, tmp_path, path, value, message):
        code, err, written = solve_device_on(tmp_path, DEVICE_DOC, with_leaf(MATERIAL_DOC, path, value))
        assert (code, written) == (3, False)
        assert err.startswith(f"code=material_file_error, msg={message}")
        assert err.count("\n") == 1

    def test_second_material_file_is_named_in_its_error(self, tmp_path):
        good, bad = tmp_path / "niobate.json", tmp_path / "tantalate.json"
        good.write_text(json.dumps(MATERIAL_DOC))
        tantalate = json.loads(material_to_json(builtin_material("lithium_tantalate_e")))
        bad.write_text(json.dumps(with_leaf(tantalate, ("name",), 5)))
        device = with_leaf(DEVICE_DOC, ("materials",), [good.name, bad.name])
        code, err, written = solve_device_on(tmp_path, device)
        assert (code, written) == (3, False)
        assert err == (f"code=material_file_error, msg=material.name must be a string, got 5 "
                       f"(in {str(bad)!r})\n")

    def test_repeated_material_name_exits_three_naming_both_entries(self, tmp_path):
        """A material file that reuses a loaded name would replace that
        material in every section that names it."""
        (tmp_path / "other_ln.json").write_text(json.dumps(with_leaf(MATERIAL_DOC, ("coefficients", "a1"), 5.0)))
        device = with_leaf(DEVICE_DOC, ("materials",), [*DEVICE_DOC["materials"], "other_ln.json"])
        code, err, written = solve_device_on(tmp_path, device)
        assert (code, written) == (3, False)
        assert err == (
            "code=device_file_error, msg=materials[0] and materials[2] are both named 'lithium_niobate_e'\n"
        )

    @pytest.mark.parametrize("escape", ["../devices/reference_device", "ABSOLUTE"])
    def test_builtin_name_outside_the_shipped_list_exits_three(self, tmp_path, escape):
        if escape == "ABSOLUTE":
            (tmp_path / "lithium_niobate_e.json").write_text(json.dumps(MATERIAL_DOC))
            escape = str(tmp_path / "lithium_niobate_e")
        device = with_leaf(DEVICE_DOC, ("materials", 0), f"builtin:{escape}")
        code, err, written = solve_device_on(tmp_path, device)
        assert (code, written) == (3, False)
        assert err == (f"code=material_file_error, msg=no built-in material {escape!r}; "
                       f"available: {builtin_material_names()}\n")

    def test_undecodable_material_exits_three(self, tmp_path):
        code, err, written = solve_device_on(tmp_path, DEVICE_DOC, b'{"name": "\xff\xfe"}')
        assert (code, written) == (3, False)
        path = str(tmp_path / "material.json")
        assert err.startswith(f"code=material_file_error, msg={path!r}: invalid JSON")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("path, value, error, message", [
        (("sections", 0, "index_provider", "mode"), 2, "device_file_error",
         "unknown key(s) ['mode'] in sections[0].index_provider"),
        (("sections", 0, "index_provider", "delta_n"), 0.5, "device_file_error",
         "unknown key(s) ['delta_n'] in sections[0].index_provider"),
        (("sections", 0, "index_provider", "kind"), ["bulk"], "device_file_error",
         "sections[0].index_provider.kind must be a string, got ['bulk']"),
        (("sections", 0, "length_mm"), math.inf, "device_file_error",
         "sections[0].length_mm must be a finite number, got inf"),
        (("pump_nm",), math.nan, "device_file_error", "pump_nm must be a finite number, got nan"),
        (("materials", 1), "bad\0name.json", "material_file_error",
         "name.json': invalid JSON: embedded null byte"),
        (("sections", 0, "index_provider", "kind"), "offset", "device_file_error",
         "sections[0].index_provider: unknown index_provider kind 'offset'"),
    ])
    def test_device_value_exits_three(self, tmp_path, path, value, error, message):
        code, err, written = solve_device_on(tmp_path, with_leaf(DEVICE_DOC, path, value))
        assert (code, written) == (3, False)
        assert err.startswith(f"code={error}, msg=") and message in err
        assert err.count("\n") == 1

    def test_provider_without_kind_is_a_missing_key(self, tmp_path):
        device = copy.deepcopy(DEVICE_DOC)
        del device["sections"][0]["index_provider"]["kind"]
        code, err, written = solve_device_on(tmp_path, device)
        assert (code, written) == (3, False)
        assert err == "code=device_file_error, msg=missing key(s) ['kind'] in sections[0].index_provider\n"

    def test_zero_thermal_expansion_factor_exits_three(self, tmp_path):
        # 1 + (-0.01 / C) * (125 C - 25 C) = 0 would divide the solved period by zero
        device = with_leaf(DEVICE_DOC, ("sections", 0, "expansion_per_C"), -0.01)
        device = with_leaf(device, ("sections", 0, "solve_at", "T_C"), 125.0)
        code, err, written = solve_device_on(tmp_path, device)
        assert (code, written) == (3, False)
        assert err == (
            "code=device_file_error, "
            "msg=sections[0]: expansion factor 0.0 at solve_at.T_C is not positive\n"
        )

    def test_every_leaf_is_visited(self):
        assert len(leaf_paths(DEVICE_DOC)) + len(leaf_paths(MATERIAL_DOC)) == 57


LEAVES = [("device", path) for path in leaf_paths(DEVICE_DOC)] + [
    ("material", path) for path in leaf_paths(MATERIAL_DOC)]


def _every_leaf_of_every_kind(test):
    """Explicit examples: each leaf of both files set to each of JSON_KINDS."""
    for leaf in LEAVES:
        for value in JSON_KINDS:
            test = example(leaf=leaf, value=value)(test)
    return test


json_values = st.one_of(
    st.text(max_size=6), st.booleans(), st.none(), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=100, deadline=None)
@_every_leaf_of_every_kind
@given(leaf=st.sampled_from(LEAVES), value=json_values)
def test_any_corrupted_leaf_exits_zero_or_three(tmp_path_factory, leaf, value):
    """Any leaf of the reference device or of its LiNbO3 file set to a
    JSON value of another type (or NaN, Infinity) loads or is refused with
    exit 3 and one ``code=`` line; ``main`` never raises."""
    directory = tmp_path_factory.getbasetemp() / "corrupted_leaf"
    directory.mkdir(exist_ok=True)
    doc, path = leaf
    if doc == "device":
        code, err, written = solve_device_on(directory, with_leaf(DEVICE_DOC, path, value))
    else:
        code, err, written = solve_device_on(directory, DEVICE_DOC, with_leaf(MATERIAL_DOC, path, value))
    assert code in (0, 3)
    assert written == (code == 0)
    if code == 3:
        assert err.startswith("code=") and err.count("\n") == 1
