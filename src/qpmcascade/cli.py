"""Command-line front end.

Subcommands bind device, material and data files to the library and emit
CSV/JSON artifacts.  All numeric output is deterministic for fixed inputs;
every artifact starts with a provenance header (tool version, device file
hash, command line) whose timestamp line is the only run-dependent part.
Artifacts are written atomically: every file of a run goes to a temp file
first, and the temp files are renamed over their paths only when all of
them are written, so a failing run never leaves a partial file and leaves
the ``-o`` path as it found it.

Exit codes: 0 success, 2 usage error, 3 domain/range/file error (with a
single machine-parseable line ``code=<code>, msg=<text>`` on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shlex
import sys
import tempfile
import warnings
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .conversion import (
    NoiseCounts,
    Spectrum,
    StepEfficiencyModel,
    budget_transmission,
    convert_spectrum,
    csv_rows,
    noise_report,
    read_xy_csv,
    step_efficiency,
)
from .device import load_device
from .errors import ConverterError, DomainError, mask_counts, masked_cells
from .fitting import auto_initial, fit, registry_model
from .modesolver import ModeShortfallWarning, ModeSolution, solve_modes
from .noisemodel import (
    _thermal_sfg_grid_mismatch,
    enumerate_parasitics,
    lineshape_analytic,
    thermal_sfg_lineshape,
)
from .qpm import TARGET_WINDOW_NM, phasematch_map, tuning_curve
from .spectral import Wavelength


def _range_spec(text: str) -> np.ndarray:
    """Parse 'lo:hi:count' (finite edges) into an inclusive linspace."""
    parts = text.split(":")
    try:
        if len(parts) != 3:
            raise ValueError
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:count with finite lo, hi and count >= 1, got {text!r}"
        ) from None
    return np.linspace(lo, hi, count)


def _window_spec(text: str) -> tuple[float, float]:
    """Parse 'lo:hi:2' into the (lo, hi) edges of a window."""
    edges = _range_spec(text)
    if edges.size != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi:2, got {text!r}")
    return float(edges[0]), float(edges[1])


def _assignments(text: str) -> dict[str, float]:
    """Parse 'name=value,name=value' pairs; a name may appear only once."""
    out: dict[str, float] = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        if name in out:
            raise argparse.ArgumentTypeError(f"{name!r} assigned more than once in {text!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad numeric value in {item!r}") from None
    return out


def _atomic_write(files: list[tuple[Path, str]]) -> None:
    """Write each ``(path, text)``: every text to a temp file beside its
    path, then the renames in list order.

    A temp file gets the mode a new file would, 0o666 less the umask,
    before its rename.  An OSError names the path, not its temp file.
    """
    umask = os.umask(0)
    os.umask(umask)
    temps = []
    try:
        for path, text in files:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            os.chmod(tmp, 0o666 & ~umask)
        for (path, _), tmp in zip(files, temps):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _write_artifact(args, argv: list[str], device, result: tuple) -> None:
    """Write a subcommand's result to ``args.output`` under its provenance.

    A CSV result is ``(header, rows, extras)`` and a JSON result ``(doc,
    extras[, dump])``.  ``extras`` is an ordered dict of deterministic
    provenance entries that follow the device hash; a CSV header renders
    each as ``name=<json>``.  ``dump``, a ``(path, rows)`` pair, is a plain
    CSV file; it is renamed into place before the artifact, so a run whose
    dump fails leaves the artifact path untouched.
    """
    command = f"qpmcascade {shlex.join(argv)}"
    sha = {"device_sha256": device.source_sha256} if device is not None else {}
    generated = datetime.now(timezone.utc).isoformat()
    dumps = ()
    if isinstance(result[0], str):
        header, rows, extras = result
        prov = [
            f"qpmcascade {args.subcommand} v{__version__}",
            f"command: {command}",
            *(f"{name}={value}" for name, value in sha.items()),
            *(f"{name}={json.dumps(value, sort_keys=True)}" for name, value in extras.items()),
            f"generated: {generated}",
        ]
        text = "\n".join([f"# {p}" for p in prov] + [header] + rows) + "\n"
    else:
        doc, extras, *dumps = result
        prov = {"tool": "qpmcascade", "version": __version__, "subcommand": args.subcommand,
                "command": command, **sha, **extras, "generated": generated}
        text = json.dumps({"provenance": prov, **doc}, indent=2) + "\n"
    _atomic_write([*((path, "\n".join(rows) + "\n") for path, rows in dumps), (args.output, text)])


# --- subcommand implementations ------------------------------------------------
#
# Each takes the parsed arguments and the loaded device (None for a
# subcommand without --device) and returns its result for _write_artifact.


def _cmd_map(args, device):
    pm = phasematch_map(device.step1, device.step2, device.signal, args.t, args.pump)
    rows = csv_rows(pm.temperature_C[:, None], pm.pump_nm[None, :], pm.step1, pm.step2)
    return "temperature_C,pump_nm,transfer_step1,transfer_step2", rows, {"masked_cells": pm.masked}


def _cmd_tune(args, device):
    points = tuning_curve(device.step1, device.step2, device.signal, device.pump, args.dt)
    dT, target, transfer = np.array([(p.dT_C, p.target_nm, p.transfer) for p in points]).T
    missing = int(np.isnan(target).sum())
    why = {"no root in {}-{} nm".format(*TARGET_WINDOW_NM): missing} if missing else {}
    return "dT_C,target_nm,transfer", csv_rows(dT, target, transfer), {"missing_targets": why}


def _cmd_efficiency(args, device):
    model1 = StepEfficiencyModel(args.eta_nor1, device.step1.length_mm, args.eta_max1)
    model2 = StepEfficiencyModel(args.eta_nor2, device.step2.length_mm, args.eta_max2)
    eta1, eta2 = step_efficiency(model1, args.pump_w), step_efficiency(model2, args.pump_w)
    total = eta1 * eta2
    rows = csv_rows(args.pump_w, eta1, eta2, total, total * budget_transmission(device.loss_budget))
    return "pump_W,eta_step1,eta_step2,eta_internal,eta_external", rows, {}


def _cmd_noise(args, device):
    counts = NoiseCounts(
        total_cps=args.total,
        dark_cps=args.dark,
        detector_efficiency=args.det_eff,
        bandwidth_GHz=args.bw_ghz,
        external_transmission=args.transmission,
    )
    return {**asdict(noise_report(counts)), "inputs": asdict(counts)}, {}


def _cmd_lineshape(args, device):
    if args.analytic:
        if args.weights is not None or args.planck_K is not None:
            raise DomainError(
                "--analytic is the flat-seed closed form; it takes no --weights or --planck-K"
            )
        lam, dk = _thermal_sfg_grid_mismatch(device.step2, device.pump, args.grid)
        rows = csv_rows(lam, lineshape_analytic(dk, device.step2.length_mm))
    else:
        spec = thermal_sfg_lineshape(
            device.step2,
            device.pump,
            args.grid,
            weights=tuple(args.weights) if args.weights else (1.0,),
            planck_temperature_K=args.planck_K,
        )
        rows = csv_rows(spec.wavelength_nm, spec.intensity)
    return "wavelength_nm,intensity", rows, {}


def _cmd_convert_spectrum(args, device):
    spectrum = Spectrum(*read_xy_csv(args.input))
    with masked_cells() as why:
        transfer = device.cascade_transfer()
        converted, dropped = convert_spectrum(spectrum, transfer, device.map_to_target)
    masked = mask_counts(why, spectrum.wavelength_nm.shape)
    rows = csv_rows(converted.wavelength_nm, converted.intensity)
    return "wavelength_nm,intensity", rows, {"dropped_samples": dropped, "masked_samples": masked}


def _cmd_fit(args, device):
    fixed = args.fixed or {}
    unknown = sorted(set(fixed) - {"L"})
    if unknown:
        raise DomainError(f"--fixed accepts only L, got {', '.join(unknown)}")
    model = registry_model(args.model, length_mm=fixed.get("L", 20.0))
    x, y = read_xy_csv(args.data)
    if args.initial is not None:
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
    report["rms"] = math.sqrt(result.residual_norm / x.size)
    report["constants"] = dict(model.constants)
    return report, {}


def _cmd_solve_device(args, device):
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
        "parasitics": [asdict(p) for p in parasitics],
    }
    return doc, {}


def _cmd_modes(args, device):
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
    if args.field_dump and solutions:
        return doc, {}, (args.field_dump, _field_rows(solutions[0]))
    return doc, {}


def _field_rows(solution: ModeSolution) -> list[str]:
    """A mode field as 'x_um,y_um,amplitude' rows (header included), y outer."""
    rows = csv_rows(solution.x_um[None, :], solution.y_um[:, None], solution.field)
    return ["x_um,y_um,amplitude"] + rows


# --- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Reuse is safe: ``parse_args`` returns a fresh namespace each time and
    every default is immutable.
    """
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
    p.add_argument("--fixed", type=_assignments, default=None,
                   help="fixed section length, L=20 (mm); only saturation reads it")
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
    args = build_parser().parse_args(argv)
    try:
        device = load_device(args.device) if "device" in args else None
        _write_artifact(args, argv, device, args.func(args, device))
        return 0
    except ConverterError as exc:
        print(f"code={exc.code}, msg={exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"code=io_error, msg={exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
