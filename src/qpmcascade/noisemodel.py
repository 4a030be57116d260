"""Background-noise physics: thermally seeded SFG line shapes and
parasitic-process enumeration.

Thermal mid-infrared photons generated along the second poled section are
sum-frequency converted by its grating.  A photon born at position z has
the remaining length L - z to convert, so with a uniform seed density the
total intensity is

    I(dk) ~ int_0^L ((L-z)^2 / L) sinc^2( dk (L-z) / 2 ) dz
          = (2 / dk^2) [ 1 - sinc(dk L) ],

with a removable dk -> 0 singularity of value L^2/3 (handled by series).
The weighted variant replaces the parabolic factor with a free position
polynomial sum_i a_i z^i (same kernel), evaluated as a fixed-panel
midpoint Riemann sum so that fits are reproducible.  With
a = coefficients of (L-z)^2/L the weighted sum reproduces the analytic
form up to discretization error.

Only the section owning the phase-matched grating generates thermal
noise: upstream sections are excluded because the core material absorbs
the mid-infrared seed (``mid_ir_absorptive`` flag on the material).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import spectral
from .conversion import Spectrum
from .errors import DomainError
from .qpm import SectionSpec, _first_roots, delta_k
from .spectral import ProcessKind, Wavelength, sfg_output, shg_output

# Second radiation constant h*c/kB in um*K.
C2_UM_K = 14387.7688


def lineshape_analytic(delta_k_per_mm: float, length_mm: float) -> float:
    """Distributed-source line shape (2/dk^2)(1 - sinc(dk L)), in mm^2.

    For |dk*L| < 1e-4 the removable singularity is evaluated by series:
    L^2/3 - dk^2 L^4/60 + dk^4 L^6/2520.
    """
    if not length_mm > 0:
        raise DomainError("length must be positive")
    x = delta_k_per_mm * length_mm
    if abs(x) < 1e-4:
        l2 = length_mm * length_mm
        return l2 / 3.0 - (x * x) * l2 / 60.0 + (x ** 4) * l2 / 2520.0
    return (2.0 / (delta_k_per_mm * delta_k_per_mm)) * (1.0 - math.sin(x) / x)


@dataclass(frozen=True)
class LineShapeParams:
    """Inputs of the weighted line-shape sum.

    ``weights`` are the coefficients a_0..a_n of the position polynomial;
    ``delta_k_of_lam`` maps an output wavelength in nm to rad/mm.
    """

    length_mm: float
    delta_k_of_lam: Callable[[float], float]
    weights: tuple[float, ...] = (1.0,)
    z_panels: int = 1024

    def __post_init__(self):
        if not self.length_mm > 0:
            raise DomainError("length must be positive")
        if len(self.weights) < 1:
            raise DomainError("need at least one weight coefficient")
        if self.z_panels < 256:
            raise DomainError("z discretization must use at least 256 panels")
        object.__setattr__(self, "weights", tuple(float(a) for a in self.weights))


def lineshape_weighted(params: LineShapeParams, lam_grid_nm: Sequence[float]) -> Spectrum:
    """Polynomial-weighted thermal line shape over a wavelength grid.

    I(lam) = sum_z w(z) sinc^2( dk(lam) (L-z)/2 ) dz  with
    w(z) = sum_i a_i z^i, midpoint panels, numpy pairwise summation.
    """
    lam = np.asarray(list(lam_grid_nm), dtype=float)
    if lam.size == 0:
        raise DomainError("wavelength grid is empty")
    if not np.all(np.diff(lam) > 0):
        raise DomainError("wavelength grid must be strictly increasing")
    length = params.length_mm
    dz = length / params.z_panels
    z = (np.arange(params.z_panels) + 0.5) * dz
    weight = np.zeros_like(z)
    for i, a in enumerate(params.weights):
        weight += a * z ** i
    remaining = length - z
    out = np.empty(lam.size)
    for idx, lam_nm in enumerate(lam):
        dk = params.delta_k_of_lam(float(lam_nm))
        kernel = np.sinc(0.5 * dk * remaining / math.pi) ** 2
        out[idx] = np.sum(weight * kernel) * dz
    return Spectrum(wavelength_nm=lam, intensity=out)


def planck_weight(lam: Wavelength, temperature_K: float, band_center: Wavelength) -> float:
    """Planck spectral radiance at ``lam`` normalized to 1 at ``band_center``.

    B_lam ~ lam^-5 / (exp(c2/(lam T)) - 1).  The flat approximation
    (weight identically 1) is the package default for thermal seeding;
    Planck weighting is opt-in via ``thermal_sfg_lineshape``.
    """
    if not temperature_K > 0:
        raise DomainError("temperature must be positive kelvin")

    def radiance(l_um: float) -> float:
        return l_um ** -5 / math.expm1(C2_UM_K / (l_um * temperature_K))

    return radiance(lam.um) / radiance(band_center.um)


def thermal_sfg_mismatch(section: SectionSpec, pump: Wavelength, output_nm, temp_C=None):
    """delta_k (rad/mm) of pump + thermal driver SFG on this grating.

    The mid-infrared driver wavelength is eliminated through energy
    conservation per output wavelength: 1/driver = 1/output - 1/pump, the
    DFG of output and pump, which requires output < pump.  Broadcasts like
    :func:`qpmcascade.qpm.delta_k`.
    """
    driver_nm = spectral.output_nm(ProcessKind.DFG, output_nm, pump.nm)
    temp = section.temperature_C if temp_C is None else temp_C
    return delta_k(ProcessKind.SFG, driver_nm, pump.nm, temp, section)


def solve_thermal_sfg_output(
    section: SectionSpec,
    pump: Wavelength,
    window_nm: tuple[float, float],
    temp_C: float | None = None,
    scan_points: int = 281,
) -> float | None:
    """Phase-matched thermal-SFG output wavelength inside the window, or None."""
    hi = min(window_nm[1], pump.nm * (1.0 - 1e-9))
    if hi <= window_nm[0]:
        return None
    root = float(
        _first_roots(
            lambda out_nm: thermal_sfg_mismatch(section, pump, out_nm, temp_C),
            np.linspace(window_nm[0], hi, scan_points),
        )
    )
    return None if math.isnan(root) else root


def thermal_sfg_lineshape(
    section: SectionSpec,
    pump: Wavelength,
    lam_grid_nm: Sequence[float],
    weights: tuple[float, ...] = (1.0,),
    temp_C: float | None = None,
    planck_temperature_K: float | None = None,
    z_panels: int = 1024,
) -> Spectrum:
    """Thermal-SFG noise line over a wavelength grid for one section.

    With ``planck_temperature_K`` set, the flat-seed assumption is replaced
    by Planck weighting of the mid-infrared driver, normalized at the
    driver of the central grid wavelength.
    """
    params = LineShapeParams(
        length_mm=section.length_mm,
        delta_k_of_lam=lambda out_nm: thermal_sfg_mismatch(section, pump, out_nm, temp_C),
        weights=weights,
        z_panels=z_panels,
    )
    spec = lineshape_weighted(params, lam_grid_nm)
    if planck_temperature_K is None:
        return spec
    center_nm = float(spec.wavelength_nm[spec.wavelength_nm.size // 2])
    center_driver = Wavelength(1.0 / (1.0 / center_nm - 1.0 / pump.nm))
    scale = np.array(
        [
            planck_weight(
                Wavelength(1.0 / (1.0 / float(lam) - 1.0 / pump.nm)),
                planck_temperature_K,
                center_driver,
            )
            for lam in spec.wavelength_nm
        ]
    )
    return Spectrum(wavelength_nm=spec.wavelength_nm, intensity=spec.intensity * scale)


@dataclass(frozen=True)
class ParasiticProcess:
    """One signal-independent process visible in the output spectrum.

    ``power_law`` is the exponent of the pump-power dependence (2 for
    pump SHG, 1 for thermally seeded SFG).
    """

    kind: str
    output_nm: float
    drivers_nm: tuple[float, ...]
    power_law: int

    def __post_init__(self):
        if self.kind not in ("SHG_pump", "thermal_SFG", "other"):
            raise DomainError(f"unknown parasitic kind {self.kind!r}")
        if self.kind != "other":
            inv = sum(1.0 / d for d in self.drivers_nm)
            if abs(1.0 / self.output_nm - inv) * self.output_nm > 1e-9:
                raise DomainError(
                    f"{self.kind}: output {self.output_nm} nm is not energy-consistent "
                    f"with drivers {self.drivers_nm}"
                )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "output_nm": self.output_nm,
            "drivers_nm": list(self.drivers_nm),
            "power_law": self.power_law,
        }


def enumerate_parasitics(
    step2: SectionSpec,
    pump: Wavelength,
    window_nm: tuple[float, float],
    temp_C: float | None = None,
) -> list[ParasiticProcess]:
    """Signal-independent processes with output inside the detection window.

    Includes pump SHG when lam_pump/2 falls in the window and the
    step-2-grating phase-matched thermal SFG when its solved output falls
    in the window.  Only the second section is consulted for thermal SFG;
    see the module docstring.
    """
    if window_nm[0] >= window_nm[1]:
        raise DomainError("detection window must be a non-empty [low, high] pair")
    found: list[ParasiticProcess] = []
    shg_nm = shg_output(pump).nm
    if window_nm[0] <= shg_nm <= window_nm[1]:
        found.append(
            ParasiticProcess(
                kind="SHG_pump",
                output_nm=shg_nm,
                drivers_nm=(pump.nm, pump.nm),
                power_law=2,
            )
        )
    thermal_nm = solve_thermal_sfg_output(step2, pump, window_nm, temp_C=temp_C)
    if thermal_nm is not None:
        driver_nm = 1.0 / (1.0 / thermal_nm - 1.0 / pump.nm)
        out = sfg_output(Wavelength(driver_nm), pump)
        found.append(
            ParasiticProcess(
                kind="thermal_SFG",
                output_nm=out.nm,
                drivers_nm=(driver_nm, pump.nm),
                power_law=1,
            )
        )
    return found
