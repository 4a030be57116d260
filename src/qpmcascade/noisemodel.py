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
polynomial sum_j a_j z^j (same kernel), evaluated as a fixed-panel
midpoint Riemann sum so that fits are reproducible.  With
a = coefficients of (L-z)^2/L the weighted sum reproduces the analytic
form up to discretization error.

:func:`weighted_sinc2_sum` evaluates that midpoint rule without one sine
per panel.  Panel m (counted from the output end) has L - z_m =
(2m-1) L/(2P), so its sinc^2 angle is (2m-1) phi with phi = dk L/(4P).
The panel count is fixed at P = q^2 = 1024, and writing m - 1 = q a + b
with q = 32 splits the angle into A_a + B_b.  Then sin^2(A+B) =
sin^2 A cos^2 B + 2 sin A cos A sin B cos B + cos^2 A sin^2 B turns the
sum for each polynomial degree into three bilinear forms against one
fixed q x q matrix.  The 2q angles take their sine and cosine from one
tangent of the half angle, t = tan(theta/2): sin theta = 2t/(1+t^2),
cos theta = (1-t^2)/(1+t^2).  That is 2q half-angle tangents per sample
instead of P sines.  It is the same sum, to rounding.

Only the section owning the phase-matched grating generates thermal
noise: :func:`enumerate_parasitics` checks step 2 by design, because the
core material absorbs the mid-infrared seed upstream.  The material's
``mid_ir_absorptive`` flag records that absorption; it is descriptive,
and no computation reads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import spectral
from .conversion import Spectrum
from .errors import DomainError, is_array
from .qpm import SectionSpec, _first_roots, delta_k, grid_mismatch
from .spectral import ProcessKind, Wavelength

# Second radiation constant h*c/kB in um*K.
C2_UM_K = 14387.7688

# Initial scan points of the thermal-SFG output root solve.
_THERMAL_SCAN_POINTS = 281


def lineshape_analytic(delta_k_per_mm, length_mm):
    """Distributed-source line shape (2/dk^2)(1 - sinc(dk L)), in mm^2.

    Elementwise on arrays of dk and L; a scalar call returns a float.
    For |dk*L| < 1e-4 the removable singularity is evaluated by series,
    on those elements only: L^2/3 - dk^2 L^4/60 + dk^4 L^6/2520.
    """
    if not np.all(np.asarray(length_mm) > 0):
        raise DomainError("length must be positive")
    dk = np.asarray(delta_k_per_mm, dtype=float)
    x = np.asarray(dk * length_mm)
    small = np.abs(x) < 1e-4
    dk_safe = np.where(small, 1.0, dk)
    exact = (2.0 / (dk_safe * dk_safe)) * (1.0 - np.sinc(np.where(small, 1.0, x) / math.pi))
    shape = np.asarray(exact)
    if small.any():
        xs = x[small]
        l2 = length_mm * length_mm
        if np.ndim(l2):
            l2 = np.broadcast_to(l2, x.shape)[small]
        shape[small] = l2 / 3.0 - (xs * xs) * l2 / 60.0 + (xs**4) * l2 / 2520.0
    return shape if is_array(delta_k_per_mm) or is_array(length_mm) else float(shape)


# Largest scratch array of weighted_sinc2_sum, in float64 elements (256 KB).
_BLOCK_ELEMENTS = 1 << 15
# Midpoint panels of weighted_sinc2_sum, P = q^2: fixed, so fits are reproducible.
_Q = 32
_PANELS = _Q * _Q


@functools.lru_cache(maxsize=16)
def _panel_split(degrees: tuple[int, ...]):
    """Fixed factors of the panel-split midpoint sum (module docstring).

    Returns the half-angle multipliers of A_a = 2qa phi and
    B_b = (2b+1) phi, that is qa and b + 1/2; one q x q matrix per degree,
    V_j[a, b] = (1 - u_m)^j / (2m-1)^2 with u_m = (2m-1)/(2P); and the
    phi = 0 limits sum_m (1 - u_m)^j.
    """
    odd = 2.0 * np.arange(1, _PANELS + 1) - 1.0
    base = 1.0 - odd / (2.0 * _PANELS)
    # Each degree's powers on their own: numpy's power over a column of
    # exponents rounds (1 - u)^2 differently with (0, 2) than with (0, 1, 2).
    powers = np.stack([base**j for j in degrees])
    forms = (powers / (odd * odd)).reshape(len(degrees), _Q, _Q)
    half_steps = np.concatenate([_Q * np.arange(_Q, dtype=float), np.arange(_Q) + 0.5])
    return half_steps, forms, powers.sum(axis=1)


def weighted_sinc2_sum(dk, length, weights: Sequence) -> np.ndarray:
    """Midpoint sum  sum_k w(z_k) sinc^2(dk (L - z_k)/2) dz  over P = 1024
    panels of dz = L/P, with w(z) = sum_j weights[j] z^j.

    ``dk`` (rad/mm), ``length`` (mm) and every weight coefficient
    broadcast; the result has their broadcast shape.  Evaluated by panel
    splitting (module docstring) in blocks that share one set of scratch
    arrays of at most 256 KB each; only ``dk`` is copied to the broadcast
    shape, and degrees whose coefficients are all zero are skipped.  Each
    degree is reduced on its own, so an element's result does not depend
    on which other degrees its batch holds: a batch row is bitwise the
    row called alone.  Each sample takes 2q = 64 half-angle tangents and
    no sine or cosine.  Whether numpy runs float64 ``tan`` as SIMD code
    depends on the host: with numpy 2.4 on an AVX-512 Xeon, ``tan`` over
    835k elements took 0.9 ms and ``sin`` or ``cos`` 12 ms each.  Where
    ``tan`` is scalar too, the saving is half the transcendental calls.
    At |phi| P < 1e-9 the sum takes its phi = 0 limit, which every sinc^2
    factor has reached to rounding.

    Every length must be positive.
    """
    if len(weights) == 0:
        raise DomainError("need at least one weight coefficient")
    operands = [np.asarray(v, dtype=float) for v in (dk, length, *weights)]
    if not np.all(operands[1] > 0):
        raise DomainError("length must be positive")
    shape = np.broadcast_shapes(*(v.shape for v in operands))
    degrees = tuple(j for j, a in enumerate(operands[2:]) if np.any(a != 0.0)) or (0,)
    dk = np.broadcast_to(operands[0], shape).ravel()
    # The length and the weights stay one element when they have one, and
    # are otherwise read a block at a time from their broadcast views.
    length, *coeffs = (
        v.reshape(1) if v.size == 1 else np.broadcast_to(v, shape) for v in operands[1:]
    )

    def part(v, block):
        return v if v.size == 1 else v.flat[block]

    q = _Q
    half_steps, forms, limits = _panel_split(degrees)
    out = np.empty(dk.size)
    rows = max(1, min(dk.size, _BLOCK_ELEMENTS // (3 * len(degrees) * q)))
    # One block's scratch, reused by every block.
    sin_buf, cos_buf = np.empty((rows, 2 * q)), np.empty((rows, 2 * q))
    left_buf, right_buf = np.empty((rows, 3, q)), np.empty((rows, 3, q))
    bilinear_buf = np.empty((3 * rows, q))
    sums = np.empty((len(degrees), rows))
    for lo in range(0, dk.size, rows):
        block = slice(lo, lo + rows)
        span = part(length, block)
        phi = dk[block] * span / (4.0 * _PANELS)
        limit = np.abs(phi) * _PANELS < 1e-9
        phi = np.where(limit, 1.0, phi)
        n = phi.size
        # With t = tan(angle/2) and r = 1/(1 + t^2): sin = 2tr, cos = 2r - 1.
        t = np.tan(np.multiply(phi[:, None], half_steps, out=sin_buf[:n]), out=sin_buf[:n])
        r = np.multiply(t, t, out=cos_buf[:n])
        r += 1.0
        np.reciprocal(r, out=r)
        sin = np.multiply(t, r, out=t)
        sin += sin
        cos = np.multiply(r, 2.0, out=r)
        cos -= 1.0
        sin_a, sin_b, cos_a, cos_b = sin[:, :q], sin[:, q:], cos[:, :q], cos[:, q:]
        left, right = left_buf[:n], right_buf[:n]
        np.multiply(sin_a, sin_a, out=left[:, 0])
        np.multiply(2.0, sin_a, out=left[:, 1])
        left[:, 1] *= cos_a
        np.multiply(cos_a, cos_a, out=left[:, 2])
        np.multiply(cos_b, cos_b, out=right[:, 0])
        np.multiply(sin_b, cos_b, out=right[:, 1])
        np.multiply(sin_b, sin_b, out=right[:, 2])
        for i, form in enumerate(forms):
            bilinear = np.matmul(left.reshape(-1, q), form, out=bilinear_buf[: 3 * n])
            np.einsum("nfb,nfb->n", bilinear.reshape(n, 3, q), right, out=sums[i, :n])
            sums[i, :n] /= phi * phi
            sums[i, :n][limit] = limits[i]
        # Weights near the float limit overflow here.  The inf or nan that
        # results is the answer (a Spectrum refuses it); numpy's warning
        # would only add lines to the CLI's one-line error.
        with np.errstate(over="ignore", invalid="ignore"):
            total = sum(part(coeffs[j], block) * span**j * sums[i, :n] for i, j in enumerate(degrees))
            out[block] = total * span / _PANELS
    return out.reshape(shape)


def planck_weight(lam, temperature_K: float, band_center: Wavelength):
    """Planck spectral radiance at ``lam`` normalized to 1 at ``band_center``.

    B_lam ~ lam^-5 / (exp(c2/(lam T)) - 1), elementwise on an array of
    wavelengths in nm.  The flat approximation (weight identically 1) is
    the package default for thermal seeding; Planck weighting is opt-in
    via ``thermal_sfg_lineshape``.
    """
    if not (math.isfinite(temperature_K) and temperature_K > 0):
        raise DomainError(
            f"Planck temperature must be finite and positive kelvin, got {temperature_K!r}"
        )

    def radiance(l_um):
        with np.errstate(over="ignore"):  # exp overflow: radiance underflows to 0
            return l_um**-5 / np.expm1(C2_UM_K / (l_um * temperature_K))

    reference = radiance(band_center.um)
    if not reference > 0:
        raise DomainError(
            f"Planck radiance at {band_center.nm} nm underflows at {temperature_K} K"
        )
    return radiance(np.asarray(lam, dtype=float) * 1e-3) / reference


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


def _thermal_sfg_grid_mismatch(section: SectionSpec, pump: Wavelength, lam_grid_nm, temp_C=None):
    """The grid as a float array and :func:`thermal_sfg_mismatch` on it,
    evaluated once (:func:`qpmcascade.qpm.grid_mismatch`).  The grid must
    be non-empty and strictly increasing."""
    lam = np.asarray(list(lam_grid_nm), dtype=float)
    if lam.size == 0:
        raise DomainError("wavelength grid is empty")
    if not np.all(np.diff(lam) > 0):
        raise DomainError("wavelength grid must be strictly increasing")
    return lam, grid_mismatch(lambda out_nm: thermal_sfg_mismatch(section, pump, out_nm, temp_C), lam)


def solve_thermal_sfg_output(
    section: SectionSpec,
    pump: Wavelength,
    window_nm: tuple[float, float],
    temp_C: float | None = None,
) -> float | None:
    """Phase-matched thermal-SFG output wavelength inside the window, or None."""
    hi = min(window_nm[1], pump.nm * (1.0 - 1e-9))
    if hi <= window_nm[0]:
        return None
    root = float(
        _first_roots(
            lambda out_nm: thermal_sfg_mismatch(section, pump, out_nm, temp_C),
            np.linspace(window_nm[0], hi, _THERMAL_SCAN_POINTS),
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
) -> Spectrum:
    """Thermal-SFG noise line over a wavelength grid for one section.

    I(lam) = sum_z w(z) sinc^2( dk(lam) (L-z)/2 ) dz  with
    w(z) = sum_j weights[j] z^j over 1024 midpoint panels
    (:func:`weighted_sinc2_sum`), where dk is :func:`thermal_sfg_mismatch`
    evaluated once on the whole grid (:func:`qpmcascade.qpm.grid_mismatch`).
    With ``planck_temperature_K`` set, the flat-seed assumption is replaced
    by Planck weighting of the mid-infrared driver, normalized at the
    driver of the central grid wavelength.

    The grid must be non-empty and strictly increasing.
    """
    lam, dk = _thermal_sfg_grid_mismatch(section, pump, lam_grid_nm, temp_C)
    intensity = weighted_sinc2_sum(dk, section.length_mm, weights)
    if planck_temperature_K is not None:
        driver_nm = spectral.output_nm(ProcessKind.DFG, lam, pump.nm)
        center_driver = Wavelength(driver_nm[driver_nm.size // 2])
        intensity = intensity * planck_weight(driver_nm, planck_temperature_K, center_driver)
    return Spectrum(wavelength_nm=lam, intensity=intensity)


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
        if self.kind not in ("SHG_pump", "thermal_SFG"):
            raise DomainError(f"unknown parasitic kind {self.kind!r}")


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
    shg_nm = spectral.output_nm(ProcessKind.SFG, pump.nm, pump.nm)
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
        driver_nm = spectral.output_nm(ProcessKind.DFG, thermal_nm, pump.nm)
        found.append(
            ParasiticProcess(
                kind="thermal_SFG",
                output_nm=spectral.output_nm(ProcessKind.SFG, driver_nm, pump.nm),
                drivers_nm=(driver_nm, pump.nm),
                power_law=1,
            )
        )
    return found
