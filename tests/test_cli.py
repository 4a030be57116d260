import json
from collections import Counter

import numpy as np
import pytest

from qpmcascade.cli import main
from qpmcascade.conversion import Spectrum
from qpmcascade.device import load_device, reference_device_path
from qpmcascade.errors import ConverterError, RangeError
from qpmcascade.modesolver import solve_modes
from qpmcascade.spectral import Wavelength

DEVICE = str(reference_device_path())


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith("# generated:") and '"generated"' not in line
    )


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


class TestTuneCommand:
    def test_tuning_direction(self, tmp_path):
        out = tmp_path / "tune.csv"
        assert main(["tune", "--device", DEVICE, "--dt=-6:5:12", "-o", str(out)]) == 0
        rows = read_csv_rows(out)
        targets = [r[1] for r in rows]
        assert all(b < a for a, b in zip(targets, targets[1:]))

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


class TestConvertSpectrumCommand:
    def test_round_trip(self, tmp_path):
        lam = np.linspace(636.0, 638.4, 481)
        intensity = np.exp(-((lam - 637.2) ** 2) / (2.0 * 0.5**2))
        source = tmp_path / "input.csv"
        Spectrum(lam, intensity).to_csv(source)
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
        Spectrum(lam, np.ones_like(lam)).to_csv(source)
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


class TestFitCommand:
    def test_saturation_round_trip(self, tmp_path):
        from qpmcascade.fitting import registry_model

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

    def test_initial_missing_a_parameter_exits_three(self, tmp_path, capsys):
        data = tmp_path / "eff.csv"
        x = np.linspace(1e-3, 0.225, 20)
        Spectrum(x, 0.9 * np.sin(np.sqrt(0.04 * x) * 20.0) ** 2).to_csv(data)
        out = tmp_path / "fit.json"
        code = main(["fit", "--model", "saturation", "--data", str(data),
                     "--initial", "eta_max=0.9", "-o", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("code=domain_error, msg=")
        assert "eta_nor" in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, name", [
        (["--fixed", "foo=3"], "foo"),
        (["--fixed", "length_mm=20"], "length_mm"),
        (["--initial", "eta_max=0.9,eta_nor=0.04,bogus=7"], "bogus"),
    ])
    def test_fit_unknown_name_exits_three(self, tmp_path, capsys, extra, name):
        data = tmp_path / "eff.csv"
        x = np.linspace(1e-3, 0.225, 20)
        Spectrum(x, 0.9 * np.sin(np.sqrt(0.04 * x) * 20.0) ** 2).to_csv(data)
        out = tmp_path / "fit.json"
        code = main(["fit", "--model", "saturation", "--data", str(data), *extra, "-o", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("code=domain_error, msg=") and err.count("\n") == 1
        assert name in err
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

    def test_failed_run_leaves_no_partial_artifact(self, tmp_path):
        target = tmp_path / "artifact.csv"
        code = main(["convert-spectrum", "--device", DEVICE,
                     "--input", str(tmp_path / "missing.csv"), "-o", str(target)])
        assert code == 3
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []
