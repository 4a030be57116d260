"""The four benchmark workloads.

A workload turns the seed into inputs and hands out passes: a pass is the
workload's fixed list of ops (user requests), each with an output check.
Ops call the package through module attributes at call time, so the tracer's
rebinding sees them.  Checks never abort a run: a request that raises or
exits non-zero fails with ``OpError``, an answer that is wrong fails with
``CheckFailed``.  Checks may return observations (artifact bytes, fit
outcomes) that the runner sums per pass.

Some defects of the package are already on record, and the workloads hit
them on purpose.  Each is recognised by a narrow test and counted as an
observation named in ``KNOWN_DEFECTS`` instead of failing its op; any other
wrong answer or refusal of the same op still fails it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qpmcascade
from qpmcascade import cli, fitting, modesolver, noisemodel, qpm
from qpmcascade.dispersion import sellmeier_index
from qpmcascade.errors import RankDeficiencyError
from qpmcascade.spectral import ProcessKind, Wavelength, dfg_target

DK_TOL = 1e-9  # |delta k| at a solved root, rad/mm
ENERGY_TOL = 1e-12  # relative photon-energy mismatch of a wavelength triple
NEFF_TOL = 1e-9  # provider n_eff versus a direct solve_modes, absolute
FIT_RMS_LIMIT = 1.5  # a converged fit's rms may not exceed this many sigma
TRANSFER_AT_OPERATING_POINT = 0.999  # a map's grid cell at the device's operating point
DEGENERATE_TRANSFER = 0.99  # the acceptance level the package's own tests set for the search
NEGATIVE_SAMPLE_REFUSAL = "code=domain_error, msg=spectrum intensities must be finite and non-negative"
MODES_GRIDS = (64, 96, 128)
FIT_MODELS = ("saturation", "sinc2_scan", "lineshape_eq1", "two_mode_sinc2", "lineshape_eq2")
SUBCOMMANDS = ("map", "tune", "efficiency", "noise", "lineshape", "convert-spectrum", "fit",
               "solve-device", "modes")


KNOWN_DEFECTS = {
    "fit_false_convergence": "fit() reports converged=True with rms above 1.5 sigma",
    "fit_not_converged": "fit() stops at its iteration cap with converged=False",
    "fit_singular": "fit() raises RankDeficiencyError: the normal matrix is singular at its solution",
    "cli_fit_negative_samples": "the fit subcommand exits 3 on a measured scan with negative samples",
    "degenerate_shortfall": "degenerate_operating_point's coarse scan over the default pump window "
                            "misses the common point and stops at or below 0.99 on a step",
}


class OpError(Exception):
    """The program refused or could not complete the request."""


class CheckFailed(Exception):
    """The program answered, but the answer is wrong."""


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], dict | None]


def dfg_nm(lam_in: float, pump: float) -> float:
    return 1.0 / (1.0 / lam_in - 1.0 / pump)


def energy_mismatch(lam_out: float, inverse_expected: float) -> float:
    """Relative photon-energy error of ``lam_out`` against 1/lam expected."""
    return abs(1.0 / lam_out - inverse_expected) * lam_out


def stratified(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw in each of ``count`` equal strata of [lo, hi), shuffled."""
    points = lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count
    rng.shuffle(points)
    return points


def cladding_and_core(geometry, lam_nm: float, temp_C: float) -> tuple[float, float]:
    lam = Wavelength(lam_nm)
    n_core = sellmeier_index(geometry.core_material, lam, temp_C)
    n_sub = sellmeier_index(geometry.substrate_material, lam, temp_C)
    return max(n_sub, geometry.superstrate_index), n_core


# --- desk-cli -------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard error of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue().strip()


def without_timestamp(text: str) -> str:
    """Artifact text without its run-dependent ``generated`` timestamp line."""
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith("# generated: ") and not line.lstrip().startswith('"generated": ')
    )


def csv_table(text: str) -> np.ndarray:
    rows = [line for line in text.splitlines() if line and not line.startswith("#")][1:]
    return np.loadtxt(io.StringIO("\n".join(rows)), delimiter=",", ndmin=2)


class DeskCli:
    """The nine subcommands in-process at README sizes, plus one large map,
    one map whose T window crosses the material's upper limit, the analytic
    line shape and a degenerate-point search.  Inputs are fixed per seed, so
    every pass must write byte-identical artifacts."""

    name = "desk-cli"

    def __init__(self, seed: int, device_path: Path, workdir: Path):
        rng = np.random.default_rng([seed, 0])
        self.device = qpmcascade.load_device(device_path)
        dev = self.device
        self.out = workdir / "desk"
        self.out.mkdir(parents=True, exist_ok=True)
        self.t0, self.p0 = dev.step1.temperature_C, dev.pump.nm
        material = dev.step1.index_provider.model
        self.t_range = material.temperature_range_C
        self.lam_hi_nm = material.wavelength_range_um[1] * 1e3
        self.transmission = math.prod(t for _, t in dev.loss_budget.entries)
        self.digests: dict[str, str] = {}
        d = str(device_path)

        def grid(lo, step, count):
            return f"{lo:.4f}:{lo + step * (count - 1):.4f}:{count}"

        t_lo = self.t0 - int(rng.integers(15, 26))
        p_lo = self.p0 - int(rng.integers(40, 61))
        tl_lo = self.t0 - 0.5 * int(rng.integers(30, 71))
        pl_lo = self.p0 - 0.5 * int(rng.integers(60, 101))
        tm_lo = 200.0 + rng.uniform(0.0, 10.0)
        dt_lo, dt_hi = -6.0 + rng.uniform(-0.5, 0.5), 5.0 + rng.uniform(-0.5, 0.5)
        eta1, eta2 = rng.uniform(0.004, 0.008, size=2)
        dark = rng.uniform(120.0, 150.0)
        noise = {
            "total": dark + rng.uniform(3.0, 15.0), "dark": dark,
            "det_eff": rng.uniform(0.6, 0.8), "bw": rng.uniform(2.0, 6.0),
            "transmission": rng.uniform(0.1, 0.2),
        }
        self.noise_in = n = {key: round(float(v), 6) for key, v in noise.items()}
        ls_lo = 1540.0 + rng.uniform(-1.0, 1.0)
        self.modes_at = (round(1561.62 + rng.uniform(-1.0, 1.0), 4),
                         round(self.t0 + rng.uniform(-1.0, 1.0), 4))
        self.degenerate_window = (self.t0 - rng.uniform(15.0, 25.0), self.t0 + rng.uniform(15.0, 25.0))
        self.spectrum_in = self._write_spectrum(rng)
        self.scan_sigma = 0.01
        self._write_scan(rng)

        o = self.out
        self._ops = [
            self._cli("map", ["map", "--device", d, f"--t={grid(t_lo, 1.0, 61)}",
                              f"--pump={grid(p_lo, 1.0, 101)}", "-o", str(o / "map.csv")],
                      lambda text: self._check_map(text, True)),
            self._cli("map-large", ["map", "--device", d, f"--t={grid(tl_lo, 0.5, 101)}",
                                    f"--pump={grid(pl_lo, 0.5, 161)}", "-o", str(o / "map_large.csv")],
                      lambda text: self._check_map(text, True)),
            self._cli("map-masked", ["map", "--device", d, f"--t={grid(tm_lo, 100.0 / 60, 61)}",
                                     f"--pump={grid(p_lo, 1.0, 101)}", "-o", str(o / "map_masked.csv")],
                      lambda text: self._check_map(text, False)),
            self._cli("tune", ["tune", "--device", d, f"--dt={dt_lo:.4f}:{dt_hi:.4f}:23",
                               "-o", str(o / "tune.csv")], self._check_tune),
            self._cli("efficiency", ["efficiency", "--device", d, "--eta-nor1", f"{eta1:.6f}",
                                     "--eta-nor2", f"{eta2:.6f}", "--pump-w", "0:0.25:51",
                                     "-o", str(o / "efficiency.csv")], self._check_efficiency),
            self._cli("noise", ["noise", "--total", str(n["total"]), "--dark", str(n["dark"]),
                                "--det-eff", str(n["det_eff"]), "--bw-ghz", str(n["bw"]),
                                "--transmission", str(n["transmission"]), "-o", str(o / "noise.json")],
                      self._check_noise),
            self._cli("lineshape", ["lineshape", "--device", d, f"--grid={grid(ls_lo, 0.1, 351)}",
                                    "-o", str(o / "line.csv")], self._check_lineshape),
            self._cli("lineshape-analytic", ["lineshape", "--device", d, "--analytic",
                                             f"--grid={grid(ls_lo, 0.1, 351)}",
                                             "-o", str(o / "line_analytic.csv")],
                      self._check_lineshape_analytic),
            self._cli("convert-spectrum", ["convert-spectrum", "--device", d, "--input",
                                           str(o / "nv_spectrum.csv"), "-o", str(o / "converted.csv")],
                      self._check_convert),
            self._cli("fit", ["fit", "--model", "sinc2_scan", "--data", str(o / "scan.csv"),
                              "--fixed", "L=20", "-o", str(o / "fit.json")], self._check_fit,
                      self._fit_refused),
            self._cli("solve-device", ["solve-device", "--device", d, "--window", "1000:1620:2",
                                       "-o", str(o / "solved.json")], self._check_solve_device),
            self._cli("modes", ["modes", "--device", d, "--lam", str(self.modes_at[0]),
                                "--t", str(self.modes_at[1]), "--count", "2",
                                "-o", str(o / "modes.json")], self._check_modes),
            Op("degenerate", self._degenerate, self._check_degenerate),
        ]
        self.modes_bounds = cladding_and_core(dev.geometry, *self.modes_at)

    def ops(self, k: int) -> list[Op]:
        return self._ops

    # inputs

    def _write_spectrum(self, rng) -> np.ndarray:
        """NV-centre-like emission: zero-phonon line plus phonon sideband."""
        lam = np.linspace(600.0, 950.0, 401)
        zpl = 1.0 / (1.0 + ((lam - 637.2) / 0.8) ** 2)
        sideband = 0.3 * np.exp(-0.5 * ((lam - 690.0 - rng.uniform(-5, 5)) / 35.0) ** 2)
        inten = np.abs(zpl + sideband + rng.normal(0.0, 0.005, lam.size))
        rows = [f"{float(a)!r},{float(b)!r}" for a, b in zip(lam, inten)]
        (self.out / "nv_spectrum.csv").write_text(
            "wavelength_nm,intensity\n" + "\n".join(rows) + "\n", encoding="utf-8")
        return np.column_stack([lam, inten])

    def _write_scan(self, rng) -> None:
        """A measured pump scan of step 1 with 1 % noise; wings dip below zero."""
        x = np.linspace(2151.9, 2153.9, 201)
        center = self.p0 + rng.uniform(-0.1, 0.1)
        y = np.sinc(0.5 * 20.0 * (x - center) / math.pi) ** 2
        y = y + rng.normal(0.0, self.scan_sigma, x.size)
        self.scan_has_negative_samples = bool(np.any(y < 0.0))
        rows = [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
        (self.out / "scan.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    # ops

    def _cli(self, kind: str, argv: list[str], check_text: Callable[[str], None],
             refused: Callable[[int, str], dict] | None = None) -> Op:
        path = Path(argv[argv.index("-o") + 1])

        def check(result):
            code, err = result
            if code != 0:
                if refused is None:
                    raise OpError(f"exit {code}: {err}")
                return refused(code, err)
            text = path.read_text(encoding="utf-8")
            stable = without_timestamp(text).encode()
            digest = hashlib.sha256(stable).hexdigest()
            if self.digests.setdefault(kind, digest) != digest:
                raise CheckFailed("artifact differs from the first pass with this seed")
            check_text(text)
            return {"artifact_bytes": len(stable)}

        return Op(kind, lambda: run_cli(argv), check)

    def _degenerate(self):
        dev = self.device
        return qpm.degenerate_operating_point(dev.step1, dev.step2, dev.signal, self.degenerate_window)

    # checks

    def _check_map(self, text: str, has_operating_cell: bool) -> None:
        table = csv_table(text)
        temps, pumps, values = table[:, 0], table[:, 1], table[:, 2:]
        missing = np.isnan(values)
        if np.any((values[~missing] < 0.0) | (values[~missing] > 1.0)):
            raise CheckFailed("map transfer outside [0, 1]")
        outside = ((temps < self.t_range[0]) | (temps > self.t_range[1]))[:, None]
        if np.any(missing & ~outside):
            raise CheckFailed("NaN cell inside the material temperature range")
        if np.any(~missing & outside):
            raise CheckFailed("value in a cell outside the material temperature range")
        if has_operating_cell:
            cell = (np.abs(temps - self.t0) < 1e-6) & (np.abs(pumps - self.p0) < 1e-6)
            if cell.sum() != 1:
                raise CheckFailed("operating point is not a grid cell")
            t1, t2 = values[cell][0]
            if not (t1 >= TRANSFER_AT_OPERATING_POINT and t2 >= TRANSFER_AT_OPERATING_POINT):
                raise CheckFailed(f"operating cell transfers {t1!r}, {t2!r} below 0.999")

    def _check_tune(self, text: str) -> None:
        dt, target, transfer = csv_table(text).T
        if dt.size != 23 or np.any(np.diff(dt) <= 0):
            raise CheckFailed("tune rows are not the 23 requested offsets")
        found = ~np.isnan(target)
        if np.any((target[found] < 1480.0) | (target[found] > 1620.0)):
            raise CheckFailed("tuned target outside the filter window")
        if np.any((transfer < 0.0) | (transfer > 1.0)):
            raise CheckFailed("tune transfer outside [0, 1]")

    def _check_efficiency(self, text: str) -> None:
        _, eta1, eta2, internal, external = effs = csv_table(text).T
        if np.any((effs[1:] < 0.0) | (effs[1:] > 1.0)):
            raise CheckFailed("efficiency outside [0, 1]")
        if not np.allclose(internal, eta1 * eta2, rtol=1e-12, atol=1e-300):
            raise CheckFailed("cascade efficiency is not the product of the steps")
        if not np.allclose(external, internal * self.transmission, rtol=1e-12, atol=1e-300):
            raise CheckFailed("external efficiency does not apply the loss budget")

    def _check_noise(self, text: str) -> None:
        doc = json.loads(text)
        n = self.noise_in
        induced = (n["total"] - n["dark"]) / n["det_eff"]
        expected = {
            "pump_induced_cps": induced,
            "external_nsd_cps_per_GHz": induced / n["bw"],
            "internal_nsd_cps_per_GHz": induced / n["bw"] / n["transmission"],
        }
        for key, value in expected.items():
            if not math.isclose(doc[key], value, rel_tol=1e-12):
                raise CheckFailed(f"noise {key} = {doc[key]!r}, expected {value!r}")

    def _check_lineshape(self, text: str) -> None:
        lam, inten = csv_table(text).T
        if lam.size != 351 or not np.all(np.isfinite(inten)) or np.any(inten < 0) or inten.max() <= 0:
            raise CheckFailed("line shape is not 351 finite non-negative samples with a peak")

    def _check_lineshape_analytic(self, text: str) -> None:
        _, inten = csv_table(text).T
        peak = self.device.step2.length_mm ** 2 / 3.0
        if inten.size != 351 or np.any(inten <= 0) or np.any(inten > peak * (1 + 1e-12)):
            raise CheckFailed("analytic line shape outside (0, L^2/3]")

    def _check_convert(self, text: str) -> None:
        lam_in, inten_in = self.spectrum_in.T
        # Samples whose target would lie beyond the material range are dropped.
        lam_max = 1.0 / (2.0 / self.p0 + 1.0 / self.lam_hi_nm)
        kept = lam_in <= lam_max
        dropped = [line for line in text.splitlines() if line.startswith("# dropped_samples=")]
        if dropped != [f"# dropped_samples={int((~kept).sum())}"]:
            raise CheckFailed(f"{dropped} but {int((~kept).sum())} samples lie beyond the range")
        lam_out, inten_out = csv_table(text).T
        expected = 1.0 / (1.0 / lam_in[kept] - 2.0 / self.p0)
        if lam_out.shape != expected.shape or not np.allclose(lam_out, expected, rtol=ENERGY_TOL, atol=0):
            raise CheckFailed("converted wavelengths violate energy conservation")
        if np.any(inten_out < 0) or np.any(inten_out > inten_in[kept] * (1 + 1e-12)):
            raise CheckFailed("converted intensity is not input times a transfer in [0, 1]")

    def _check_fit(self, text: str) -> dict | None:
        doc = json.loads(text)
        if not doc["converged"]:
            return {"fit_not_converged": 1}
        if doc["rms"] > FIT_RMS_LIMIT * self.scan_sigma:
            return {"fit_false_convergence": 1}
        return None

    def _fit_refused(self, code: int, err: str) -> dict:
        """The known refusal of a scan with negative samples; any other is a failure."""
        if code == 3 and NEGATIVE_SAMPLE_REFUSAL in err and self.scan_has_negative_samples:
            return {"cli_fit_negative_samples": 1}
        raise OpError(f"exit {code}: {err}")

    def _check_solve_device(self, text: str) -> None:
        doc = json.loads(text)
        sig, pump = doc["signal_nm"], doc["pump_nm"]
        mid, target = doc["intermediate_nm"], doc["target_nm"]
        if energy_mismatch(mid, 1 / sig - 1 / pump) > ENERGY_TOL or \
                energy_mismatch(target, 1 / mid - 1 / pump) > ENERGY_TOL:
            raise CheckFailed("operating chain violates energy conservation")
        if not math.isclose(doc["budget_transmission"], self.transmission, rel_tol=1e-12):
            raise CheckFailed("budget transmission is not the product of the entries")
        kinds = {p["kind"]: p for p in doc["parasitics"]}
        if set(kinds) != {"SHG_pump", "thermal_SFG"}:
            raise CheckFailed(f"parasitics {sorted(kinds)}, expected pump SHG and thermal SFG")
        for p in doc["parasitics"]:
            if not 1000.0 <= p["output_nm"] <= 1620.0:
                raise CheckFailed(f"{p['kind']} output outside the detection window")
            if energy_mismatch(p["output_nm"], sum(1 / d for d in p["drivers_nm"])) > ENERGY_TOL:
                raise CheckFailed(f"{p['kind']} violates energy conservation")

    def _check_modes(self, text: str) -> None:
        doc = json.loads(text)
        n_clad, n_core = self.modes_bounds
        if doc["found"] != 2 or len(doc["modes"]) != 2:
            raise CheckFailed(f"found {doc['found']} of 2 modes")
        for mode in doc["modes"]:
            if not n_clad < mode["n_eff"] < n_core:
                raise CheckFailed(f"n_eff {mode['n_eff']} outside ({n_clad}, {n_core})")

    def _check_degenerate(self, result) -> dict | None:
        temp, pump, t1, t2 = result
        lo, hi = self.degenerate_window
        if not (lo <= temp <= hi and qpm.PUMP_WINDOW_NM[0] <= pump <= qpm.PUMP_WINDOW_NM[1]):
            raise CheckFailed("degenerate point outside the search window")
        dev = self.device
        cell = qpm.phasematch_map(dev.step1, dev.step2, dev.signal, [temp], [pump])
        if not all(math.isclose(a, float(b[0, 0]), rel_tol=1e-12, abs_tol=1e-15)
                   for a, b in ((t1, cell.step1), (t2, cell.step2))):
            raise CheckFailed("degenerate transfers differ from the map at the returned point")
        if not (t1 > DEGENERATE_TRANSFER and t2 > DEGENERATE_TRANSFER):
            return {"degenerate_shortfall": 1}
        return None


# --- point-solves ---------------------------------------------------------------


class PointSolves:
    """Scalar design queries at seeded operating points: pump and period
    solves, short tuning curves, parasitic-line searches and single-point
    cascade transfers.  Points are stratified so every pass covers the
    temperature and pump ranges evenly."""

    name = "point-solves"
    POINTS = 20
    WINDOW = (1000.0, 1620.0)

    def __init__(self, seed: int, device_path: Path, workdir: Path):
        self.seed = seed
        self.device = qpmcascade.load_device(device_path)

    def ops(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 1, k])
        dev, m = self.device, self.POINTS
        t0, p0, s0 = dev.step1.temperature_C, dev.pump.nm, dev.signal.nm
        pump_t = stratified(rng, m, 40.0, 90.0)
        signals = s0 + rng.uniform(-0.5, 0.5, m)
        period_t = stratified(rng, m, 40.0, 90.0)
        period_p = stratified(rng, m, p0 - 20.0, p0 + 20.0)
        tune_lo = stratified(rng, m, -6.0, -4.0)
        par_t = stratified(rng, m, 40.0, 90.0)
        par_p = stratified(rng, m, p0 - 10.0, p0 + 10.0)
        lam_in = stratified(rng, m, s0 - 0.3, s0 + 0.3)
        transfer_t = stratified(rng, m, t0 - 2.0, t0 + 2.0)
        ops = []
        for i in range(m):
            ops += [
                self._pump(signals[i], pump_t[i]),
                self._period(s0, period_p[i], period_t[i]),
                self._tune(tune_lo[i]),
                self._parasitics(par_p[i], par_t[i]),
                self._transfer(lam_in[i], transfer_t[i]),
            ]
        return ops

    def _pump(self, signal_nm: float, temp: float) -> Op:
        step1, signal = self.device.step1, Wavelength(signal_nm)

        def run():
            return qpm.solve_phasematched_pump(step1, ProcessKind.DFG, signal, temp_C=temp)

        def check(pump):
            process = qpm.ProcessSpec.dfg(signal, pump, step1)
            dk = qpm.phase_mismatch(process, temp_C=temp)
            if not abs(dk) < DK_TOL:
                raise CheckFailed(f"|delta k| = {abs(dk):.3g} rad/mm at the solved pump")
            if energy_mismatch(process.lam_out.nm, 1 / signal_nm - 1 / pump.nm) > ENERGY_TOL:
                raise CheckFailed("solved triple violates energy conservation")

        return Op("pump-solve", run, check)

    def _period(self, signal_nm: float, pump_nm: float, temp: float) -> Op:
        provider = self.device.step2.index_provider
        mid, pump = Wavelength(dfg_nm(signal_nm, pump_nm)), Wavelength(pump_nm)

        def run():
            return qpm.section_with_solved_period("step2", 20.0, provider, ProcessKind.DFG, mid, pump, temp)

        def check(section):
            process = qpm.ProcessSpec.dfg(mid, pump, section)
            dk = qpm.phase_mismatch(process, temp_C=temp)
            if not (section.poling_period_um > 0 and abs(dk) < DK_TOL):
                raise CheckFailed(f"|delta k| = {abs(dk):.3g} rad/mm at the solved period")
            if energy_mismatch(process.lam_out.nm, 1 / mid.nm - 1 / pump_nm) > ENERGY_TOL:
                raise CheckFailed("step-2 triple violates energy conservation")

        return Op("period-solve", run, check)

    def _tune(self, dt_lo: float) -> Op:
        dev = self.device
        offsets = dt_lo + np.arange(5) * 2.5
        mid = Wavelength(dfg_nm(dev.signal.nm, dev.pump.nm))

        def run():
            return qpm.tuning_curve(dev.step1, dev.step2, dev.signal, dev.pump, offsets)

        def check(points):
            if len(points) != offsets.size:
                raise CheckFailed("tuning curve lost offsets")
            for p in points:
                if not 0.0 <= p.transfer <= 1.0:
                    raise CheckFailed("tuning transfer outside [0, 1]")
                if math.isnan(p.target_nm):
                    continue
                if not (qpm.TARGET_WINDOW_NM[0] <= p.target_nm <= qpm.TARGET_WINDOW_NM[1]
                        and p.target_nm > mid.nm):
                    raise CheckFailed(f"tuned target {p.target_nm} outside the window")
                dk = qpm.step2_target_mismatch(dev.step2, mid, p.target_nm, dev.step2.temperature_C + p.dT_C)
                if not abs(dk) < DK_TOL:
                    raise CheckFailed(f"|delta k| = {abs(dk):.3g} rad/mm at a tuned target")

        return Op("tuning-curve", run, check)

    def _parasitics(self, pump_nm: float, temp: float) -> Op:
        step2, pump = self.device.step2, Wavelength(pump_nm)

        def run():
            return noisemodel.enumerate_parasitics(step2, pump, self.WINDOW, temp_C=temp)

        def check(found):
            kinds = {p.kind: p for p in found}
            if set(kinds) != {"SHG_pump", "thermal_SFG"}:
                raise CheckFailed(f"parasitics {sorted(kinds)}, expected pump SHG and thermal SFG")
            for p in found:
                if energy_mismatch(p.output_nm, sum(1 / d for d in p.drivers_nm)) > ENERGY_TOL:
                    raise CheckFailed(f"{p.kind} violates energy conservation")
            dk = noisemodel.thermal_sfg_mismatch(step2, pump, kinds["thermal_SFG"].output_nm, temp)
            if not abs(dk) < DK_TOL:
                raise CheckFailed(f"|delta k| = {abs(dk):.3g} rad/mm at the thermal-SFG line")

        return Op("parasitics", run, check)

    def _transfer(self, lam_nm: float, temp: float) -> Op:
        dev = self.device

        def run():
            return dev.cascade_transfer(temp, temp)(lam_nm), dev.map_to_target(lam_nm)

        def check(result):
            value, target = result
            if not 0.0 <= value <= 1.0:
                raise CheckFailed(f"cascade transfer {value!r} outside [0, 1]")
            if energy_mismatch(target, 1 / lam_nm - 2 / dev.pump.nm) > ENERGY_TOL:
                raise CheckFailed("mapped target violates energy conservation")

        return Op("transfer", run, check)


# --- modesolver -----------------------------------------------------------------


class ModeSolverWorkload:
    """Cells of a small (T, pump) map on the mode-solver device, plus direct
    solves at 64^2, 96^2 and 128^2.  One op is ``phasematch_map`` at one
    cell.  Each pass starts from fresh per-section providers, as a freshly
    loaded device has, and the cells of a row query them in turn, so each
    section's queries go to its own provider, exactly as a map over the row
    would send them, and a row's later cells hit step 1's cached signal."""

    name = "modesolver"
    ROWS = 2
    CELLS = 2

    def __init__(self, seed: int, device_path: Path, workdir: Path):
        self.seed = seed
        self.device = qpmcascade.load_device(device_path)
        self.geometry = self.device.geometry

    def ops(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 2, k])
        dev = self.device
        step1, step2 = (
            replace(s, index_provider=modesolver.ModeSolverIndexProvider(
                self.geometry, default_mode=s.index_provider.default_mode))
            for s in (dev.step1, dev.step2)
        )
        ops = []
        for temp in stratified(rng, self.ROWS, 50.0, 70.0):
            # The seeded subset: one provider query per row is re-solved directly.
            probe = int(rng.integers(0, 6))
            for j, pump in enumerate(stratified(rng, self.CELLS, dev.pump.nm - 10.0, dev.pump.nm + 10.0)):
                ops.append(self._cell(step1, step2, float(temp), float(pump), probe if j == 0 else None))
        return ops + [self._solve(grid, rng) for grid in MODES_GRIDS]

    def _cell(self, step1, step2, temp: float, pump_nm: float, probe: int | None) -> Op:
        signal, pump = self.device.signal, Wavelength(pump_nm)

        def run():
            return qpm.phasematch_map(step1, step2, signal, [temp], [pump_nm])

        def check(pm):
            t1, t2 = float(pm.step1[0, 0]), float(pm.step2[0, 0])
            if not (0.0 <= t1 <= 1.0 and 0.0 <= t2 <= 1.0):
                raise CheckFailed(f"cell transfers {t1!r}, {t2!r} not in [0, 1]")
            # The wavelengths each section's provider was asked for; re-asking
            # reads its cache.
            mid = dfg_target(signal, pump)
            queries = [(step1, lam) for lam in (signal, mid, pump)]
            queries += [(step2, lam) for lam in (mid, dfg_target(mid, pump), pump)]
            values = [section.index_provider.effective_index(lam, temp) for section, lam in queries]
            for (_, lam), n_eff in zip(queries, values):
                n_clad, n_core = cladding_and_core(self.geometry, lam.nm, temp)
                if not n_clad < n_eff < n_core:
                    raise CheckFailed(f"n_eff {n_eff} outside ({n_clad}, {n_core}) at {lam.nm:.3f} nm")
            if probe is None:
                return
            section, lam = queries[probe]
            mode = section.index_provider.default_mode
            direct = modesolver.solve_modes(self.geometry, lam, temp, count=mode)
            if abs(direct[mode - 1].n_eff - values[probe]) > NEFF_TOL:
                raise CheckFailed("provider n_eff disagrees with a direct solve")

        return Op("map-cell", run, check)

    def _solve(self, grid: int, rng) -> Op:
        geometry = self.geometry.with_grid(grid, grid)
        lam = 1561.62 + rng.uniform(-2.0, 2.0)
        temp = self.device.step1.temperature_C + rng.uniform(-2.0, 2.0)

        def run():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", modesolver.ModeShortfallWarning)
                return modesolver.solve_modes(geometry, Wavelength(lam), temp, count=2)

        def check(solutions):
            n_clad, n_core = cladding_and_core(geometry, lam, temp)
            if len(solutions) != 2:
                raise CheckFailed(f"found {len(solutions)} of 2 modes at {grid}^2")
            for s in solutions:
                if not (n_clad < s.n_eff < n_core and s.residual <= 1e-8):
                    raise CheckFailed(f"mode {s.mode_index} at {grid}^2 fails its bounds")

        return Op(f"solve-g{grid}", run, check)


# --- fit-lab --------------------------------------------------------------------


def fit_data(name: str, rng: np.random.Generator, length_mm: float):
    """Seeded noisy data for one registry model: (x, y, sigma).

    Sigma is 1 % of the clean curve's span.  Parameters are typical of the
    measured curve each model describes.
    """
    u = rng.uniform
    if name == "saturation":
        x = np.linspace(0.0, 0.225, 101)
        params = [u(0.85, 1.0), u(0.03, 0.05)]
    elif name == "sinc2_scan":
        c = 2152.9 + u(-0.2, 0.2)
        x = np.linspace(c - 1.0, c + 1.0, 101)
        params = [u(0.8, 1.2), c, u(18.0, 22.0), u(0.0, 0.05)]
    elif name == "lineshape_eq1":
        c = 1557.2 + u(-0.3, 0.3)
        x = np.linspace(c - 2.0, c + 2.0, 101)
        params = [u(100.0, 140.0), c, u(18.0, 22.0), u(0.0, 2.0)]
    elif name == "two_mode_sinc2":
        c = 2153.0 + u(-0.3, 0.3)
        x = np.linspace(c - 3.0, c + 9.0, 101)
        params = [u(0.9, 1.1), c, u(0.4, 0.6), c + 5.0 + u(-0.3, 0.3), u(14.0, 16.0), u(0.0, 0.02)]
    elif name == "lineshape_eq2":
        # A thermal noise line: uniform seed density along a short section.
        c = 1557.0 + u(-0.3, 0.3)
        x = np.linspace(c - 6.0, c + 6.0, 51)
        params = [u(0.8, 1.2), 0.0, 0.0, c, u(0.8, 1.2), 0.0]
    else:
        raise ValueError(name)
    clean = fitting.registry_model(name, length_mm=length_mm).evaluate(np.array(params), x)
    sigma = 0.01 * float(np.ptp(clean))
    return x, clean + rng.normal(0.0, sigma, x.size), sigma


class FitLab:
    """auto_initial plus fit on seeded noisy data, one op per registry model
    per pass, with fresh data every pass."""

    name = "fit-lab"

    def __init__(self, seed: int, device_path: Path, workdir: Path):
        self.seed = seed
        self.length_mm = qpmcascade.load_device(device_path).step1.length_mm

    def ops(self, k: int) -> list[Op]:
        return [self._fit(i, name, k) for i, name in enumerate(FIT_MODELS)]

    def _fit(self, index: int, name: str, k: int) -> Op:
        x, y, sigma = fit_data(name, np.random.default_rng([self.seed, 3, index, k]), self.length_mm)

        def run():
            model = fitting.registry_model(name, length_mm=self.length_mm)
            initial = fitting.auto_initial(model, x, y)
            try:
                return fitting.fit(model, x, y, initial)
            except RankDeficiencyError as exc:
                return exc

        def check(result):
            if isinstance(result, RankDeficiencyError):
                return {"fit_singular": 1}
            if not result.converged:
                return {"fit_not_converged": 1}
            if not np.all(np.isfinite(result.parameters)):
                raise CheckFailed(f"{name}: non-finite parameters")
            residual = y - result.model.evaluate(result.parameters, x)
            if not math.isclose(float(residual @ residual), result.residual_norm, rel_tol=1e-9):
                raise CheckFailed(f"{name}: reported residual norm is not that of the parameters")
            rms = math.sqrt(result.residual_norm / x.size)
            if rms > FIT_RMS_LIMIT * sigma:
                return {"converged_fits": 1, "fit_false_convergence": 1}
            return {"converged_fits": 1}

        return Op(name, run, check)


WORKLOADS = {w.name: w for w in (DeskCli, PointSolves, ModeSolverWorkload, FitLab)}
