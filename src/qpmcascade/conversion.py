"""Undepleted-pump conversion efficiency, loss budgets, noise accounting
and broadband spectrum conversion.

The single-step efficiency is the standard undepleted-pump closed form
with detuning,

    eta = eta_max * kappa^2/(kappa^2 + (dk/2)^2)
                  * sin^2( sqrt(kappa^2 + (dk/2)^2) * L ),

with kappa^2 = eta_nor * P_pump.  At dk = 0 this reduces to
eta_max * sin^2(sqrt(eta_nor*P)*L); in the small-signal limit it reduces
to eta_nor * P * L^2 * sinc^2(dk*L/2).  The cascade efficiency is the
product of the two step efficiencies at the shared pump power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DomainError
from .qpm import _bracket_root, _brackets

# --- step and cascade efficiency -------------------------------------------


@dataclass(frozen=True)
class StepEfficiencyModel:
    """Saturating conversion law of one step.

    ``eta_nor_per_W_mm2`` is the normalized efficiency (per watt per
    millimeter squared), ``length_mm`` the interaction length and
    ``eta_max`` an optional saturation ceiling.
    """

    eta_nor_per_W_mm2: float
    length_mm: float
    eta_max: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.eta_nor_per_W_mm2) and self.eta_nor_per_W_mm2 >= 0):
            raise DomainError("eta_nor must be finite and non-negative")
        if not (math.isfinite(self.length_mm) and self.length_mm > 0):
            raise DomainError("length must be finite and positive")
        if not 0.0 < self.eta_max <= 1.0:
            raise DomainError("eta_max must be in (0, 1]")


def _saturating_efficiency(eta_max, eta_nor_per_W_mm2, length_mm, pump_W, delta_k_per_mm):
    """The module's conversion law, unchecked, over broadcast numpy arrays.

    ``eta_max * kappa^2/(kappa^2 + (dk/2)^2) * sin^2(sqrt(kappa^2 + (dk/2)^2) * L)``
    with ``kappa^2 = eta_nor * P``; 0 where ``kappa^2 = dk = 0``.  At dk = 0
    the first factor is exactly 1, so the law is bitwise
    ``eta_max * sin^2(sqrt(eta_nor * P) * L)``.
    """
    kappa2 = eta_nor_per_W_mm2 * pump_W
    half_dk = 0.5 * delta_k_per_mm
    total = kappa2 + half_dk * half_dk
    ratio = kappa2 / np.where(total > 0, total, 1.0)
    return eta_max * ratio * np.square(np.sin(np.sqrt(total) * length_mm))


def step_efficiency(model: StepEfficiencyModel, pump_W, delta_k_per_mm=0.0):
    """Internal conversion efficiency of one step at the given pump power(s).

    Pump power and mismatch broadcast as numpy arrays; scalar inputs give a
    float.  An input whose efficiency is not finite, such as a mismatch
    that is not finite or an eta_nor * P that overflows, raises
    :class:`DomainError`.
    """
    pump = np.asarray(pump_W, dtype=float)
    if not np.all(np.isfinite(pump) & (pump >= 0)):
        raise DomainError("pump power must be finite and non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        eta = _saturating_efficiency(
            model.eta_max, model.eta_nor_per_W_mm2, model.length_mm, pump, delta_k_per_mm
        )
    if not np.all(np.isfinite(eta)):
        raise DomainError(
            "efficiency is not finite: eta_nor * pump power overflows or the mismatch is not finite"
        )
    return float(eta) if eta.ndim == 0 else eta


# --- loss budget ------------------------------------------------------------


@dataclass(frozen=True)
class LossBudget:
    """Ordered multiplicative transmission ledger, one entry per element."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        checked = []
        for label, transmission in self.entries:
            t = float(transmission)
            if not 0.0 < t <= 1.0:
                raise DomainError(
                    f"budget entry {label!r}: transmission {transmission!r} outside (0, 1]"
                )
            checked.append((str(label), t))
        object.__setattr__(self, "entries", tuple(checked))


def budget_transmission(budget: LossBudget) -> float:
    """Product of all entry transmissions, in entry order; 1.0 for an empty budget."""
    return math.prod((t for _, t in budget.entries), start=1.0)


def external_from_internal(eta_internal: float, budget: LossBudget) -> float:
    """External efficiency after all out-coupling and filter losses."""
    if not 0.0 <= eta_internal <= 1.0:
        raise DomainError("internal efficiency must be in [0, 1]")
    return eta_internal * budget_transmission(budget)


def internal_from_external(eta_external: float, budget: LossBudget) -> float:
    """Inverse of :func:`external_from_internal`."""
    if eta_external < 0.0:
        raise DomainError("external efficiency must be non-negative")
    return eta_external / budget_transmission(budget)


# --- noise accounting --------------------------------------------------------


@dataclass(frozen=True)
class NoiseCounts:
    """Raw detector-side count figures of a noise measurement."""

    total_cps: float
    dark_cps: float
    detector_efficiency: float
    bandwidth_GHz: float
    external_transmission: float

    def __post_init__(self):
        if not (math.isfinite(self.total_cps) and math.isfinite(self.dark_cps)):
            raise DomainError("count rates must be finite")
        if self.dark_cps < 0 or self.total_cps < self.dark_cps:
            raise DomainError("need total_cps >= dark_cps >= 0")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise DomainError("detector efficiency must be in (0, 1]")
        if not (math.isfinite(self.bandwidth_GHz) and self.bandwidth_GHz > 0):
            raise DomainError("bandwidth must be finite and positive")
        if not 0.0 < self.external_transmission <= 1.0:
            raise DomainError("external transmission must be in (0, 1]")


@dataclass(frozen=True)
class NoiseReport:
    """Pump-induced rate and noise spectral densities derived from counts."""

    pump_induced_cps: float
    external_nsd_cps_per_GHz: float
    internal_nsd_cps_per_GHz: float


def noise_report(counts: NoiseCounts) -> NoiseReport:
    """Convert raw counts to pump-induced rate and external/internal NSD.

    pump_induced = (total - dark) / detector_efficiency;
    external NSD = pump_induced / bandwidth;
    internal NSD = external NSD / external_transmission.
    """
    pump_induced = (counts.total_cps - counts.dark_cps) / counts.detector_efficiency
    external = pump_induced / counts.bandwidth_GHz
    internal = external / counts.external_transmission
    return NoiseReport(
        pump_induced_cps=pump_induced,
        external_nsd_cps_per_GHz=external,
        internal_nsd_cps_per_GHz=internal,
    )


# --- spectra ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sampled intensity versus vacuum wavelength (nm, arbitrary linear units).

    Wavelengths must be strictly increasing; intensities non-negative and
    finite.
    """

    wavelength_nm: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.wavelength_nm, dtype=float)
        inten = np.asarray(self.intensity, dtype=float)
        if lam.ndim != 1 or lam.shape != inten.shape or lam.size == 0:
            raise DomainError("spectrum needs matching 1-D wavelength and intensity arrays")
        if not np.all(np.diff(lam) > 0):
            raise DomainError("spectrum wavelengths must be strictly increasing")
        if not (np.all(np.isfinite(inten)) and np.all(inten >= 0)):
            raise DomainError("spectrum intensities must be finite and non-negative")
        object.__setattr__(self, "wavelength_nm", lam)
        object.__setattr__(self, "intensity", inten)

    def __len__(self):
        return self.wavelength_nm.size


def read_xy_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """The two numeric columns of a CSV file, as (x, y) float arrays.

    The file is read as UTF-8, after a byte-order mark if it has one;
    bytes that do not decode raise :class:`DomainError` naming the file.
    Blank lines, ``#`` comments and a ``wavelength_nm,intensity`` header
    are skipped; a row that is not two numbers raises :class:`DomainError`
    naming its 1-based line number.  The values are not otherwise checked.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{str(path)!r}: not UTF-8 text: {exc}") from None
    xs: list[float] = []
    ys: list[float] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().replace(" ", "") == "wavelength_nm,intensity":
            continue
        try:
            x, y = map(float, line.split(","))  # a row of other than two fields fails to unpack
        except ValueError:
            raise DomainError(f"line {number} is not two numbers: {raw!r}") from None
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


def csv_rows(*columns) -> list[str]:
    """Comma-joined rows of numeric columns, the writer twin of :func:`read_xy_csv`.

    Each value is Python's shortest round-trip ``repr`` (``nan``, ``inf``
    and ``-0.0`` included), so a float64 column re-reads exactly.  The
    columns broadcast against each other like numpy arrays and the rows
    follow the broadcast shape in C order; each column is formatted once,
    at its own size, so an axis of a grid costs one ``repr`` per axis
    value.  Empty columns give no rows.
    """
    arrays = [np.asarray(col) for col in columns]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    texts = []
    for a in arrays:
        text = list(map(repr, a.ravel().tolist()))
        if a.shape != shape:
            cells = np.array(text, dtype=object).reshape(a.shape)
            text = np.broadcast_to(cells, shape).ravel().tolist()
        texts.append(text)
    return list(map(",".join, zip(*texts)))


def convert_spectrum(
    spectrum: Spectrum,
    transfer: Callable[[np.ndarray], np.ndarray],
    map_wavelength: Callable[[np.ndarray], np.ndarray],
) -> tuple[Spectrum, int]:
    """Push a spectrum through a device transfer curve.

    Output intensity is input intensity times ``transfer`` evaluated at the
    input wavelength; the output abscissa is ``map_wavelength`` of each
    input sample and must stay monotonic.  Both callables must be
    elementwise: each is called once, on the whole wavelength array, and
    an exception it raises propagates.  Samples where either returns a
    non-finite value (an array evaluation masks an invalid input with NaN)
    are dropped; the second return value counts them.
    """
    lam = spectrum.wavelength_nm
    eta, mapped = (
        np.broadcast_to(np.asarray(func(lam), dtype=float), lam.shape)
        for func in (transfer, map_wavelength)
    )
    kept = np.isfinite(eta) & np.isfinite(mapped)
    if not kept.any():
        raise DomainError("no spectrum samples survived the transfer")
    converted = Spectrum(wavelength_nm=mapped[kept], intensity=spectrum.intensity[kept] * eta[kept])
    return converted, int(lam.size - kept.sum())


def spectrum_fwhm(spectrum: Spectrum) -> float:
    """Full width at half maximum by linear interpolation of the crossings.

    Each side is read outward from the (first) peak sample, and its first
    half-maximum crossing is the first root bracket of that side
    (:func:`qpmcascade.qpm._brackets`), interpolated linearly.
    """
    lam = spectrum.wavelength_nm
    inten = spectrum.intensity
    peak_idx = int(np.argmax(inten))
    if inten[peak_idx] <= 0:
        raise DomainError("spectrum has no positive peak")
    half = inten[peak_idx] / 2.0
    left, right = (
        float(_bracket_root(*_brackets(lam[side], inten[side] - half)))
        for side in (np.s_[peak_idx::-1], np.s_[peak_idx:])
    )
    if math.isnan(left) or math.isnan(right):
        raise DomainError("half-maximum crossing not inside the sampled span")
    return abs(right - left)
