"""Command-line front end.

Subcommands bind device, material and data files to the library and emit
CSV/JSON artifacts.  All numeric output is deterministic for fixed inputs;
every artifact starts with a provenance header (tool version, device file
hash, command line) whose timestamp line is the only run-dependent part.
Artifacts are written atomically (temp file + rename), so a failing run
never leaves a partial file.

Exit codes: 0 success, 2 usage error, 3 domain/range/file error (with a
single machine-parseable line ``code=<code>, msg=<text>`` on stderr).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shlex
import sys
import tempfile
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .conversion import (
    NoiseCounts,
    Spectrum,
    StepEfficiencyModel,
    budget_transmission,
    cascade_efficiency,
    convert_spectrum,
    noise_report,
    noise_report_to_dict,
    read_xy_csv,
    step_efficiency,
)
from .device import load_device
from .errors import ConverterError, DomainError, mask_counts, masked_cells
from .fitting import auto_initial, fit, goodness, registry_model
from .modesolver import ModeShortfallWarning, field_to_csv_rows, solve_modes
from .noisemodel import (
    enumerate_parasitics,
    lineshape_analytic,
    thermal_sfg_lineshape,
    thermal_sfg_mismatch,
)
from .qpm import grid_mismatch, phasematch_map, tuning_curve
from .spectral import Wavelength


def _range_spec(text: str) -> np.ndarray:
    """Parse 'lo:hi:count' into an inclusive linspace."""
    parts = text.split(":")
    try:
        if len(parts) != 3:
            raise ValueError
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:count with count >= 1, got {text!r}"
        ) from None
    return np.linspace(lo, hi, count)


def _window_spec(text: str) -> tuple[float, float]:
    """Parse 'lo:hi:2' into the (lo, hi) edges of a window."""
    edges = _range_spec(text)
    if edges.size != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi:2, got {text!r}")
    return float(edges[0]), float(edges[1])


def _assignments(text: str) -> dict[str, float]:
    """Parse 'name=value,name=value' pairs."""
    out: dict[str, float] = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad numeric value in {item!r}") from None
    return out


def _atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _provenance_lines(subcommand: str, argv: list[str], device_sha: str = "") -> list[str]:
    lines = [
        f"qpmcascade {subcommand} v{__version__}",
        f"command: qpmcascade {shlex.join(argv)}",
    ]
    if device_sha:
        lines.append(f"device_sha256={device_sha}")
    lines.append(f"generated: {datetime.now(timezone.utc).isoformat()}")
    return lines


def _write_csv(path: Path, header: str, rows: list[str], prov: list[str]) -> None:
    text = "\n".join([f"# {p}" for p in prov] + [header] + rows) + "\n"
    _atomic_write(path, text)


def _write_json(path: Path, doc: dict, subcommand: str, argv: list[str], device_sha: str = "") -> None:
    prov = {
        "tool": "qpmcascade",
        "version": __version__,
        "subcommand": subcommand,
        "command": f"qpmcascade {shlex.join(argv)}",
    }
    if device_sha:
        prov["device_sha256"] = device_sha
    prov["generated"] = datetime.now(timezone.utc).isoformat()
    _atomic_write(path, json.dumps({"provenance": prov, **doc}, indent=2) + "\n")


def _xy_rows(x: np.ndarray, y: np.ndarray) -> list[str]:
    """Two-column CSV rows, each value as its shortest round-trip repr."""
    return [f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())]


# --- subcommand implementations ------------------------------------------------


def _cmd_map(args, argv) -> int:
    device = load_device(args.device)
    pm = phasematch_map(device.step1, device.step2, device.signal, args.t, args.pump)
    cells = itertools.product(pm.temperature_C.tolist(), pm.pump_nm.tolist())
    rows = [
        f"{temp!r},{pump!r},{t1!r},{t2!r}"
        for (temp, pump), t1, t2 in zip(cells, map(float, pm.step1.flat), map(float, pm.step2.flat))
    ]
    prov = _provenance_lines("map", argv, device.source_sha256)
    prov.insert(len(prov) - 1, f"masked_cells={json.dumps(pm.masked, sort_keys=True)}")
    _write_csv(args.output, "temperature_C,pump_nm,transfer_step1,transfer_step2", rows, prov)
    return 0


def _cmd_tune(args, argv) -> int:
    device = load_device(args.device)
    points = tuning_curve(
        device.step1, device.step2, device.signal, device.pump, args.dt
    )
    rows = [f"{p.dT_C!r},{p.target_nm!r},{p.transfer!r}" for p in points]
    _write_csv(
        args.output,
        "dT_C,target_nm,transfer",
        rows,
        _provenance_lines("tune", argv, device.source_sha256),
    )
    return 0


def _cmd_efficiency(args, argv) -> int:
    device = load_device(args.device)
    model1 = StepEfficiencyModel(args.eta_nor1, device.step1.length_mm, args.eta_max1)
    model2 = StepEfficiencyModel(args.eta_nor2, device.step2.length_mm, args.eta_max2)
    transmission = budget_transmission(device.loss_budget)
    rows = []
    for power in args.pump_w:
        eta1 = step_efficiency(model1, power)
        eta2 = step_efficiency(model2, power)
        total = cascade_efficiency(model1, model2, power)
        rows.append(f"{float(power)!r},{eta1!r},{eta2!r},{total!r},{total * transmission!r}")
    _write_csv(
        args.output,
        "pump_W,eta_step1,eta_step2,eta_internal,eta_external",
        rows,
        _provenance_lines("efficiency", argv, device.source_sha256),
    )
    return 0


def _cmd_noise(args, argv) -> int:
    counts = NoiseCounts(
        total_cps=args.total,
        dark_cps=args.dark,
        detector_efficiency=args.det_eff,
        bandwidth_GHz=args.bw_ghz,
        external_transmission=args.transmission,
    )
    _write_json(args.output, noise_report_to_dict(noise_report(counts), counts), "noise", argv)
    return 0


def _cmd_lineshape(args, argv) -> int:
    device = load_device(args.device)
    if args.analytic:
        grid = np.asarray(args.grid)
        dk = grid_mismatch(lambda lam: thermal_sfg_mismatch(device.step2, device.pump, lam), grid)
        rows = _xy_rows(grid, lineshape_analytic(dk, device.step2.length_mm))
    else:
        spec = thermal_sfg_lineshape(
            device.step2,
            device.pump,
            args.grid,
            weights=tuple(args.weights) if args.weights else (1.0,),
            planck_temperature_K=args.planck_K,
        )
        rows = _xy_rows(spec.wavelength_nm, spec.intensity)
    _write_csv(
        args.output,
        "wavelength_nm,intensity",
        rows,
        _provenance_lines("lineshape", argv, device.source_sha256),
    )
    return 0


def _cmd_convert_spectrum(args, argv) -> int:
    device = load_device(args.device)
    spectrum = Spectrum.from_csv(args.input)
    with masked_cells() as why:
        converted, dropped = convert_spectrum(
            spectrum, device.cascade_transfer(), device.map_to_target
        )
    masked = mask_counts(why, spectrum.wavelength_nm.shape)
    prov = _provenance_lines("convert-spectrum", argv, device.source_sha256)
    prov[-1:-1] = [f"dropped_samples={dropped}", f"masked_samples={json.dumps(masked, sort_keys=True)}"]
    rows = _xy_rows(converted.wavelength_nm, converted.intensity)
    _write_csv(args.output, "wavelength_nm,intensity", rows, prov)
    return 0


def _cmd_fit(args, argv) -> int:
    fixed = args.fixed or {}
    unknown = sorted(set(fixed) - {"L"})
    if unknown:
        raise DomainError(f"--fixed accepts only L, got {', '.join(unknown)}")
    model = registry_model(args.model, length_mm=fixed.get("L", 20.0))
    if args.data.suffix != ".csv":
        raise DomainError("fit expects a CSV data file")
    x, y = read_xy_csv(args.data)
    if not np.all(np.isfinite(x) & np.isfinite(y)):
        raise DomainError(f"fit data in {args.data} holds a non-finite number")
    if args.initial:
        missing = [name for name in model.parameter_names if name not in args.initial]
        if missing:
            raise DomainError(
                f"--initial omits parameter(s) {', '.join(missing)} of model {model.name!r}"
            )
        unknown = sorted(set(args.initial) - set(model.parameter_names))
        if unknown:
            raise DomainError(
                f"--initial names unknown parameter(s) {', '.join(unknown)} of model {model.name!r}"
            )
        initial = [args.initial[name] for name in model.parameter_names]
    else:
        initial = auto_initial(model, x, y)
    result = fit(model, x, y, initial)
    report = result.as_dict()
    report["rms"] = goodness(result, x, y)["rms"]
    report["constants"] = dict(model.constants)
    _write_json(args.output, report, "fit", argv)
    return 0


def _cmd_solve_device(args, argv) -> int:
    device = load_device(args.device)
    parasitics = enumerate_parasitics(device.step2, device.pump, args.window)
    doc = {
        "signal_nm": device.signal.nm,
        "pump_nm": device.pump.nm,
        "intermediate_nm": device.intermediate.nm,
        "target_nm": device.target.nm,
        "sections": [
            {
                "role": s.role,
                "length_mm": s.length_mm,
                "poling_period_um": s.poling_period_um,
                "qpm_order": s.qpm_order,
                "temperature_C": s.temperature_C,
            }
            for s in (device.step1, device.step2)
        ],
        "coupling": dict(device.coupling),
        "budget_transmission": budget_transmission(device.loss_budget),
        "parasitics": [p.to_dict() for p in parasitics],
    }
    _write_json(args.output, doc, "solve-device", argv, device.source_sha256)
    return 0


def _cmd_modes(args, argv) -> int:
    device = load_device(args.device)
    if device.geometry is None:
        raise DomainError("device file has no geometry block; modes needs one")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ModeShortfallWarning)
        solutions = solve_modes(device.geometry, Wavelength(args.lam), args.t, count=args.count)
    doc = {
        "wavelength_nm": args.lam,
        "temperature_C": args.t,
        "requested": args.count,
        "found": len(solutions),
        "warnings": [str(w.message) for w in caught],
        "modes": [
            {"mode_index": s.mode_index, "n_eff": s.n_eff, "residual": s.residual}
            for s in solutions
        ],
    }
    _write_json(args.output, doc, "modes", argv, device.source_sha256)
    if args.field_dump and solutions:
        _atomic_write(Path(args.field_dump), "\n".join(field_to_csv_rows(solutions[0])) + "\n")
    return 0


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpmcascade",
        description="Two-section poled-waveguide cascaded DFG toolkit",
    )
    parser.add_argument("--version", action="version", version=f"qpmcascade {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, device=True):
        p.add_argument("-o", "--output", type=Path, required=True, help="artifact path")
        if device:
            p.add_argument("--device", type=Path, required=True, help="device JSON file")

    p = sub.add_parser("map", help="phase-matching heatmap over (T, pump)")
    add_common(p)
    p.add_argument("--t", type=_range_spec, required=True, help="temperature grid lo:hi:count (C)")
    p.add_argument("--pump", type=_range_spec, required=True, help="pump grid lo:hi:count (nm)")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("tune", help="target wavelength vs section-2 temperature offset")
    add_common(p)
    p.add_argument("--dt", type=_range_spec, required=True, help="offset grid lo:hi:count (C)")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("efficiency", help="step and cascade efficiency vs pump power")
    add_common(p)
    p.add_argument("--eta-nor1", type=float, required=True, help="step-1 eta_nor (/W/mm^2)")
    p.add_argument("--eta-nor2", type=float, required=True, help="step-2 eta_nor (/W/mm^2)")
    p.add_argument("--eta-max1", type=float, default=1.0)
    p.add_argument("--eta-max2", type=float, default=1.0)
    p.add_argument("--pump-w", type=_range_spec, required=True, help="pump power grid lo:hi:count (W)")
    p.set_defaults(func=_cmd_efficiency)

    p = sub.add_parser("noise", help="counts to noise spectral density report")
    add_common(p, device=False)
    p.add_argument("--total", type=float, required=True, help="total count rate (cps)")
    p.add_argument("--dark", type=float, required=True, help="dark count rate (cps)")
    p.add_argument("--det-eff", type=float, required=True, help="detector efficiency (0..1)")
    p.add_argument("--bw-ghz", type=float, required=True, help="detection bandwidth (GHz)")
    p.add_argument("--transmission", type=float, required=True, help="external transmission (0..1)")
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("lineshape", help="thermal-SFG noise line shape")
    add_common(p)
    p.add_argument("--grid", type=_range_spec, required=True, help="wavelength grid lo:hi:count (nm)")
    p.add_argument("--weights", type=lambda s: [float(v) for v in s.split(",")], default=None,
                   help="position polynomial a0,a1,... (default uniform)")
    p.add_argument("--analytic", action="store_true", help="use the closed-form shape")
    p.add_argument("--planck-K", type=float, default=None, help="Planck-weight seed at this kelvin")
    p.set_defaults(func=_cmd_lineshape)

    p = sub.add_parser("convert-spectrum", help="push a spectrum through the cascade")
    add_common(p)
    p.add_argument("--input", type=Path, required=True, help="input spectrum CSV")
    p.set_defaults(func=_cmd_convert_spectrum)

    p = sub.add_parser("fit", help="fit a registry model to CSV data")
    add_common(p, device=False)
    p.add_argument("--model", required=True, help="registry model name")
    p.add_argument("--data", type=Path, required=True, help="CSV with x,y columns")
    p.add_argument("--initial", type=_assignments, default=None, help="name=value,... start point")
    p.add_argument("--fixed", type=_assignments, default=None, help="fixed section length, L=20 (mm)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("solve-device", help="solve periods and report the operating point")
    add_common(p)
    p.add_argument("--window", type=_window_spec, default=(1000.0, 1620.0),
                   help="parasitic detection window lo:hi:2 (nm)")
    p.set_defaults(func=_cmd_solve_device)

    p = sub.add_parser("modes", help="waveguide eigenmodes at (lam, T)")
    add_common(p)
    p.add_argument("--lam", type=float, required=True, help="wavelength (nm)")
    p.add_argument("--t", type=float, required=True, help="temperature (C)")
    p.add_argument("--count", type=int, default=2)
    p.add_argument("--field-dump", type=Path, default=None, help="CSV dump of the fundamental field")
    p.set_defaults(func=_cmd_modes)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except ConverterError as exc:
        print(f"code={exc.code}, msg={exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"code=io_error, msg={exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
