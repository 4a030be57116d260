"""Unit-safe wavelength/frequency arithmetic for three-wave mixing.

Conventions used throughout the package:

* wavelengths are vacuum wavelengths in nanometers,
* optical frequencies are in terahertz,
* the vacuum speed of light is the single constant ``C_NM_THZ``.

Energy conservation for the supported processes, written in inverse
wavelengths (proportional to photon energy):

* DFG:  1/lam_target = 1/lam_signal - 1/lam_pump
* SFG:  1/lam_out    = 1/lam_a + 1/lam_b

SHG is the SFG of two equal inputs, lam_a = lam_b; it has no kind of its own.
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


class ProcessKind(Enum):
    """Three-wave mixing process family."""

    DFG = "DFG"
    SFG = "SFG"


def output_nm(kind: ProcessKind, lam_in, lam_pump):
    """Energy-conserving output wavelength (nm) of a process; elementwise.

    ``lam_in`` must be positive and finite, as a :class:`Wavelength`;
    DFG needs lam_pump > lam_in (the signal); SFG sums its two inputs.
    See :func:`qpmcascade.errors.screen`.
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
    if kind is not ProcessKind.SFG:
        raise DomainError(f"unknown process kind {kind!r}")
    return 1.0 / (1.0 / lam_in + 1.0 / lam_pump)


def dfg_target(lam_signal: Wavelength, lam_pump: Wavelength) -> Wavelength:
    """Target wavelength of difference frequency generation; requires
    lam_pump > lam_signal, otherwise no difference frequency exists."""
    return Wavelength(output_nm(ProcessKind.DFG, lam_signal.nm, lam_pump.nm))
