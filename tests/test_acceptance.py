"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them inline).  Tolerances are fixed here, not calibrated elsewhere."""

import math
import time

import numpy as np
import pytest

from qpmcascade.cli import main as cli_main
from qpmcascade.conversion import (
    LossBudget,
    NoiseCounts,
    Spectrum,
    budget_transmission,
    convert_spectrum,
    external_from_internal,
    noise_report,
    spectrum_fwhm,
)
from qpmcascade.device import load_device, reference_device_path
from qpmcascade.dispersion import BulkIndexProvider, builtin_material, sellmeier_index
from qpmcascade.fitting import auto_initial, fit, registry_model
from qpmcascade.modesolver import WaveguideGeometry, solve_modes
from qpmcascade.noisemodel import (
    enumerate_parasitics,
    lineshape_analytic,
    solve_thermal_sfg_output,
    weighted_sinc2_sum,
)
from qpmcascade.qpm import (
    ProcessSpec,
    degenerate_operating_point,
    phase_mismatch,
    section_with_solved_period,
    solve_phasematched_pump,
    tuning_curve,
)
from qpmcascade.spectral import ProcessKind, Wavelength, dfg_target


def report(number: int, description: str, passed: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def device():
    return load_device(reference_device_path())


def test_criterion_01_energy_conservation_chain():
    start = time.perf_counter()
    first = dfg_target(Wavelength(637.2), Wavelength(2152.9)).nm
    second = dfg_target(Wavelength(905.1), Wavelength(2152.9)).nm
    elapsed = time.perf_counter() - start
    ok = abs(first - 905.08) <= 0.01 and abs(second - 1561.62) <= 0.01 and elapsed < 1e-3
    report(
        1,
        f"DFG chain 637.2->{first:.3f} nm, 905.1->{second:.3f} nm in {elapsed*1e6:.0f} us",
        ok,
    )


def test_criterion_02_loss_budget_arithmetic():
    budget = LossBudget(
        (("out_coupling", 0.922), ("free_space", 0.947), ("fiber", 0.826), ("filter", 0.202))
    )
    loss = 1.0 - budget_transmission(budget)
    external = external_from_internal(0.205, budget)
    ok = abs(loss - 0.854) <= 0.001 and abs(external - 0.030) <= 0.001
    report(2, f"total loss {loss*100:.2f}%, external efficiency {external*100:.2f}%", ok)


def test_criterion_03_noise_accounting():
    result = noise_report(NoiseCounts(142.0, 135.0, 0.72, 4.0, 0.1457))
    ok = (
        abs(result.external_nsd_cps_per_GHz - 2.4) <= 0.1
        and abs(result.internal_nsd_cps_per_GHz - 16.7) <= 0.5
    )
    report(
        3,
        f"external NSD {result.external_nsd_cps_per_GHz:.2f} cps/GHz, "
        f"internal {result.internal_nsd_cps_per_GHz:.2f} cps/GHz",
        ok,
    )


def test_criterion_04_parasitic_enumeration(device):
    found = enumerate_parasitics(device.step2, device.pump, (1000.0, 1200.0))
    shg = next(p for p in found if p.kind == "SHG_pump")
    driver_um = 1.0 / (1.0 / 1532.8 - 1.0 / 2152.9) * 1e-3
    separation = Wavelength(1532.8).thz - Wavelength(2152.9).thz
    ok = (
        abs(shg.output_nm - 1076.45) <= 0.1
        and abs(driver_um - 5.32) <= 0.05
        and abs(separation - 56.33) <= 0.1
    )
    report(
        4,
        f"SHG {shg.output_nm:.2f} nm, thermal driver {driver_um:.3f} um, "
        f"separation {separation:.3f} THz",
        ok,
    )


def test_criterion_05_analytic_lineshape_oracle():
    start = time.perf_counter()
    length = 20.0
    u = np.linspace(0.0, length, 100_001)
    u2_weight = u**2 / length
    worst = 0.0
    for dk in np.linspace(-10.0 / length, 10.0 / length, 201):
        # u^2/L sinc^2(dk u/2) = 4 sin^2(dk u/2) / (L dk^2) for dk != 0
        integrand = 4.0 * np.sin(0.5 * dk * u) ** 2 / (length * dk * dk) if dk else u2_weight
        quad = float(np.trapezoid(integrand, u))
        worst = max(worst, abs(lineshape_analytic(float(dk), length) - quad) / quad)
    zero_rel = abs(lineshape_analytic(0.0, length) - length**2 / 3.0) / (length**2 / 3.0)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and zero_rel < 1e-9 and elapsed < 1.0
    report(
        5,
        f"analytic vs quadrature worst {worst:.2e}, zero-limit {zero_rel:.2e}, "
        f"{elapsed:.2f} s",
        ok,
    )


def test_criterion_06_weighted_lineshape_identity():
    length = 20.0
    grid = np.linspace(1545.0, 1555.0, 101)
    intensity = weighted_sinc2_sum(0.2 * (grid - 1550.0), length, (length, -2.0, 1.0 / length))
    worst = max(
        abs(value - lineshape_analytic(0.2 * (lam - 1550.0), length))
        / lineshape_analytic(0.2 * (lam - 1550.0), length)
        for lam, value in zip(grid, intensity)
    )
    report(6, f"weighted (L-z)^2/L vs analytic worst relative {worst:.2e}", worst < 1e-3)


def test_criterion_07_fit_round_trips():
    start = time.perf_counter()
    saturation = registry_model("saturation", length_mm=20.0)
    powers = np.linspace(0.0, 0.225, 200)
    sat_truth = np.array([0.95, 0.04])
    sat_clean = saturation.evaluate(sat_truth, powers)
    sat_hits = 0
    for seed in range(30):
        rng = np.random.default_rng(2000 + seed)
        y = sat_clean + rng.normal(0.0, 0.01 * sat_clean.max(), powers.size)
        result = fit(saturation, powers, y, auto_initial(saturation, powers, y))
        if abs(result.parameters[1] - sat_truth[1]) / sat_truth[1] < 0.01:
            sat_hits += 1
    scan = registry_model("sinc2_scan")
    x = np.linspace(2151.9, 2153.9, 201)
    scan_truth = np.array([1.0, 2152.9, 20.0, 0.0])
    scan_clean = scan.evaluate(scan_truth, x)
    scan_hits = 0
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        y = scan_clean + rng.normal(0.0, 0.01, x.size)
        result = fit(scan, x, y, auto_initial(scan, x, y))
        if abs(result.parameters[1] - 2152.9) < 0.01:
            scan_hits += 1
    elapsed = time.perf_counter() - start
    ok = sat_hits >= 29 and scan_hits >= 29 and elapsed < 30.0
    report(
        7,
        f"saturation {sat_hits}/30, sinc2 center {scan_hits}/30 within "
        f"tolerance, {elapsed:.1f} s",
        ok,
    )


def test_criterion_08_qpm_solver_round_trips(device):
    provider = BulkIndexProvider(builtin_material("lithium_niobate_e"))
    rng = np.random.default_rng(321)
    worst_period = 0.0
    worst_pump = 0.0
    for _ in range(100):
        signal = Wavelength(float(rng.uniform(600.0, 950.0)))
        temp = float(rng.uniform(30.0, 90.0))
        pump_true = Wavelength(float(rng.uniform(2000.0, 2500.0)))
        section = section_with_solved_period(
            "step1", 20.0, provider, ProcessKind.DFG, signal, pump_true, temp
        )
        process = ProcessSpec.dfg(signal, pump_true, section)
        worst_period = max(worst_period, abs(phase_mismatch(process, temp_C=temp)))
        root = solve_phasematched_pump(section, ProcessKind.DFG, signal, temp_C=temp)
        worst_pump = max(
            worst_pump, abs(phase_mismatch(ProcessSpec.dfg(signal, root, section), temp_C=temp))
        )
    temp, pump_nm, t1, t2 = degenerate_operating_point(
        device.step1, device.step2, device.signal, (40.0, 100.0), (2100.0, 2200.0)
    )
    pump = Wavelength(pump_nm)
    worst_degenerate = max(
        abs(phase_mismatch(ProcessSpec.dfg(device.signal, pump, device.step1), temp_C=temp)),
        abs(phase_mismatch(
            ProcessSpec.dfg(dfg_target(device.signal, pump), pump, device.step2), temp_C=temp)),
    )
    ok = (worst_period < 1e-9 and worst_pump < 1e-9 and t1 > 0.99 and t2 > 0.99
          and worst_degenerate <= 1e-9)
    report(
        8,
        f"round-trip |dk| worst {max(worst_period, worst_pump):.2e} rad/mm; "
        f"degenerate point ({temp:.2f} C, {pump_nm:.1f} nm) transfers "
        f"({t1:.4f}, {t2:.4f}), |dk| worst {worst_degenerate:.2e} rad/mm",
        ok,
    )


def test_criterion_09_sign_level_tuning(device):
    offsets = np.linspace(-6.0, 5.0, 12)
    points = tuning_curve(device.step1, device.step2, device.signal, device.pump, offsets)
    targets = [p.target_nm for p in points]
    tuning_negative = all(b < a for a, b in zip(targets, targets[1:]))
    thermal_peaks = [
        solve_thermal_sfg_output(
            device.step2, device.pump, (1480.0, 1620.0),
            temp_C=device.step2.temperature_C + offset,
        )
        for offset in (0.0, 2.5, 5.0, 7.5, 10.0)
    ]
    thermal_negative = all(b < a for a, b in zip(thermal_peaks, thermal_peaks[1:]))
    slope = (targets[-1] - targets[0]) / (offsets[-1] - offsets[0])
    report(
        9,
        f"target slope {slope:.3f} nm/C (< 0), thermal peak slope "
        f"{(thermal_peaks[-1]-thermal_peaks[0])/10.0:.4f} nm/C (< 0)",
        tuning_negative and thermal_negative,
    )


def test_criterion_10_mode_solver():
    start = time.perf_counter()
    core = builtin_material("lithium_niobate_e")
    substrate = builtin_material("lithium_tantalate_e")
    lam, temp = Wavelength(1561.62), 59.26
    n_core = sellmeier_index(core, lam, temp)
    n_clad = sellmeier_index(substrate, lam, temp)
    slab_geometry = WaveguideGeometry(
        core_width_um=26.0, core_height_um=2.0, core_material=core,
        substrate_material=substrate, superstrate_index=n_clad,
        grid_nx=96, grid_ny=128, window_width_um=30.0, window_height_um=12.0,
    )
    k0 = 2.0 * math.pi / lam.um

    def defect(neff: float) -> float:
        beta = k0 * neff
        kappa = math.sqrt((k0 * n_core) ** 2 - beta * beta)
        gamma = math.sqrt(beta * beta - (k0 * n_clad) ** 2)
        return math.tan(kappa * 1.0) - gamma / kappa  # d/2 = 1 um

    lo = max(n_clad, math.sqrt(max(n_core**2 - (math.pi / (k0 * 2.0)) ** 2, 0.0))) + 1e-12
    hi = n_core - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if defect(lo) * defect(mid) <= 0:
            hi = mid
        else:
            lo = mid
    slab_oracle = 0.5 * (lo + hi)
    slab_fd = solve_modes(slab_geometry, lam, temp, count=1)[0].n_eff
    slab_err = abs(slab_fd - slab_oracle)

    default_geometry = WaveguideGeometry(
        core_width_um=10.0, core_height_um=8.0, core_material=core,
        substrate_material=substrate,
    )
    coarse = solve_modes(default_geometry, lam, temp, count=1)[0].n_eff
    fine = solve_modes(default_geometry.with_grid(128, 128), lam, temp, count=1)[0].n_eff
    refine_change = abs(fine - coarse)
    elapsed = time.perf_counter() - start
    ok = slab_err < 5e-4 and refine_change < 1e-4 and elapsed < 10.0
    report(
        10,
        f"slab error {slab_err:.2e}, refinement change {refine_change:.2e}, "
        f"{elapsed:.1f} s",
        ok,
    )


def test_criterion_11_spectrum_conversion_fwhm(device):
    lam_in = np.linspace(636.2, 638.2, 4001)
    broadband = np.exp(-((lam_in - 637.2) ** 2) / (2.0 * 10.0**2))
    transfer = device.cascade_transfer()
    converted, dropped = convert_spectrum(
        Spectrum(lam_in, broadband), transfer, device.map_to_target
    )
    mapped = np.array([device.map_to_target(l) for l in lam_in])
    curve = Spectrum(mapped, np.array([transfer(l) for l in lam_in]))
    out_fwhm = spectrum_fwhm(converted)
    curve_fwhm = spectrum_fwhm(curve)
    ok = dropped == 0 and abs(out_fwhm - curve_fwhm) / curve_fwhm < 0.05
    report(
        11,
        f"converted FWHM {out_fwhm:.4f} nm vs transfer FWHM {curve_fwhm:.4f} nm",
        ok,
    )


def test_criterion_12_cli_determinism(tmp_path):
    def strip(text: str) -> str:
        return "\n".join(
            line
            for line in text.splitlines()
            if not line.startswith("# generated:") and '"generated"' not in line
        )

    map_path = tmp_path / "map.csv"
    map_argv = [
        "map", "--device", str(reference_device_path()),
        "--t", "55:65:6", "--pump", "2148:2158:11", "-o", str(map_path),
    ]
    assert cli_main(map_argv) == 0
    first_map = map_path.read_text()
    assert cli_main(map_argv) == 0
    second_map = map_path.read_text()

    noise_path = tmp_path / "noise.json"
    noise_argv = [
        "noise", "--total", "142", "--dark", "135", "--det-eff", "0.72",
        "--bw-ghz", "4", "--transmission", "0.1457", "-o", str(noise_path),
    ]
    assert cli_main(noise_argv) == 0
    first_noise = noise_path.read_text()
    assert cli_main(noise_argv) == 0
    second_noise = noise_path.read_text()

    ok = strip(first_map) == strip(second_map) and strip(first_noise) == strip(second_noise)
    report(12, "map and noise artifacts byte-identical modulo timestamp line", ok)
