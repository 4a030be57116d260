"""Unit-safe wavelength/frequency arithmetic for three-wave mixing.

Conventions used throughout the package:

* wavelengths are vacuum wavelengths in nanometers,
* optical frequencies are in terahertz,
* the vacuum speed of light is the single constant ``C_NM_THZ``.

Energy conservation for the supported processes, written in inverse
wavelengths (proportional to photon energy):

* DFG:  1/lam_target = 1/lam_signal - 1/lam_pump
* SFG:  1/lam_out    = 1/lam_a + 1/lam_b
* SHG:  degenerate SFG with lam_a = lam_b
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, screen

# Vacuum speed of light expressed in nm * THz (exact, by definition of the meter).
C_NM_THZ = 299_792.458


@dataclass(frozen=True, order=True)
class Wavelength:
    """A vacuum wavelength in nanometers. Strictly positive and finite."""

    nm: float

    def __post_init__(self):
        value = float(self.nm)
        if not math.isfinite(value) or value <= 0.0:
            raise DomainError(f"wavelength must be a positive finite number, got {self.nm!r}")
        object.__setattr__(self, "nm", value)

    @property
    def um(self) -> float:
        return self.nm * 1e-3

    @property
    def thz(self) -> float:
        return C_NM_THZ / self.nm


@dataclass(frozen=True, order=True)
class Frequency:
    """An optical frequency in terahertz. Strictly positive and finite."""

    thz: float

    def __post_init__(self):
        value = float(self.thz)
        if not math.isfinite(value) or value <= 0.0:
            raise DomainError(f"frequency must be a positive finite number, got {self.thz!r}")
        object.__setattr__(self, "thz", value)

    @property
    def nm(self) -> float:
        return C_NM_THZ / self.thz


class ProcessKind(Enum):
    """Three-wave mixing process family. SHG is the degenerate SFG case."""

    DFG = "DFG"
    SFG = "SFG"
    SHG = "SHG"


def wavelength_to_frequency(lam: Wavelength) -> Frequency:
    """Convert a vacuum wavelength to optical frequency, f = c / lam."""
    return Frequency(C_NM_THZ / lam.nm)


def frequency_to_wavelength(freq: Frequency) -> Wavelength:
    """Convert an optical frequency to vacuum wavelength, lam = c / f."""
    return Wavelength(C_NM_THZ / freq.thz)


def output_nm(kind: ProcessKind, lam_in, lam_pump):
    """Energy-conserving output wavelength (nm) of a process; elementwise.

    ``lam_in`` must be positive and finite, as a :class:`Wavelength`;
    DFG needs lam_pump > lam_in (the signal); SFG sums its two inputs;
    SHG needs them equal.  See :func:`qpmcascade.errors.screen`.
    """
    lam_in = screen(
        lam_in, (lam_in > 0.0) & (lam_in < math.inf), DomainError.code,
        lambda: DomainError(f"wavelength must be a positive finite number, got {lam_in!r}"),
    )
    if kind is ProcessKind.DFG:
        lam_pump = screen(
            lam_pump, lam_pump > lam_in, DomainError.code,
            lambda: DomainError(
                f"DFG requires lam_pump > lam_signal, got signal {lam_in} nm, pump {lam_pump} nm"
            ),
        )
        return 1.0 / (1.0 / lam_in - 1.0 / lam_pump)
    if kind is ProcessKind.SHG:
        lam_pump = screen(
            lam_pump, lam_pump == lam_in, DomainError.code,
            lambda: DomainError(f"SHG inputs must be degenerate, got {lam_in} nm and {lam_pump} nm"),
        )
    elif kind is not ProcessKind.SFG:
        raise DomainError(f"unknown process kind {kind!r}")
    return 1.0 / (1.0 / lam_in + 1.0 / lam_pump)


def dfg_target(lam_signal: Wavelength, lam_pump: Wavelength) -> Wavelength:
    """Target wavelength of difference frequency generation; requires
    lam_pump > lam_signal, otherwise no difference frequency exists."""
    return Wavelength(output_nm(ProcessKind.DFG, lam_signal.nm, lam_pump.nm))


def sfg_output(lam_a: Wavelength, lam_b: Wavelength) -> Wavelength:
    """Output wavelength of sum frequency generation, symmetric in its inputs."""
    return Wavelength(output_nm(ProcessKind.SFG, lam_a.nm, lam_b.nm))


def shg_output(lam: Wavelength) -> Wavelength:
    """Second harmonic output; the degenerate SFG case."""
    return sfg_output(lam, lam)


def process_output(kind: ProcessKind, lam_in: Wavelength, lam_pump: Wavelength) -> Wavelength:
    """Energy-conserving output wavelength for a process of the given kind
    (see :func:`output_nm`)."""
    return Wavelength(output_nm(kind, lam_in.nm, lam_pump.nm))


def energy_residual(
    kind: ProcessKind, lam_in: Wavelength, lam_pump: Wavelength, lam_out: Wavelength
) -> float:
    """Relative energy-conservation violation of a wavelength triple.

    Returns |1/lam_out - 1/lam_expected| * lam_expected, i.e. the relative
    error in photon energy of the stated output.
    """
    expected = process_output(kind, lam_in, lam_pump)
    return abs(1.0 / lam_out.nm - 1.0 / expected.nm) * expected.nm
