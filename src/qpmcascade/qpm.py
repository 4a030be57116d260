"""Quasi-phase-matching engine.

Sign conventions (collinear, scalar, all quantities per millimeter):

* wavevector k(lam) = 2*pi*n_eff(lam, T) / lam, in rad/mm,
* grating vector G = 2*pi*m / period, with m the (odd) QPM order,
* DFG:        delta_k = k_in - k_out - k_pump - G,
* SFG:        delta_k = k_out - k_in - k_pump - G.

With normal dispersion both bulk mismatches are positive, so a positive
poling period always exists.  Conversion is proportional to
sinc^2(delta_k * L / 2) and peaks at delta_k = 0.

Every mismatch is one broadcast expression, :func:`delta_k`; maps and
root scans are array calls into it, scalar entry points scalar calls.
The root-bracket kernel (:func:`_brackets`, :func:`_first_roots`) also
serves the slab dispersion equation of
:func:`qpmcascade.modesolver.slab_kappa` and the half-maximum crossings of
:func:`qpmcascade.conversion.spectrum_fwhm`.

The degenerate operating point, one temperature and one pump at which
both steps phase-match, is solved by Newton's method from the best cell
of a coarse map to |dk| <= 1e-9 rad/mm on both steps
(:func:`degenerate_operating_point`); windows that hold no common point
raise :class:`NoSolutionError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DesignError, DomainError, NoSolutionError, is_array, mask_counts, masked_cells
from .spectral import ProcessKind, Wavelength, dfg_target, output_nm

TWO_PI = 2.0 * math.pi

# Pump wavelength search window (nm): the tuning range of the pump laser.
PUMP_WINDOW_NM = (1980.0, 2528.0)
# Target wavelength search window (nm): the tunable filter range.
TARGET_WINDOW_NM = (1480.0, 1620.0)

# Points of each bracket-narrowing scan of a root solve, and the relative
# bracket width at which the root is interpolated.
_ZOOM_POINTS = 33
_ROOT_RTOL = 1e-12
# Initial scan points of the pump and target root solves.
_PUMP_SCAN_POINTS = 257
_TARGET_SCAN_POINTS = 181
# Points per axis of the degenerate-point start map; the half-width of its
# Newton stencil (C in T, nm in pump), the mismatch (rad/mm) at which
# Newton stops, and the most stencil evaluations it may take.
_DEGENERATE_GRID = 81
_DEGENERATE_STEP = 1e-2
_DEGENERATE_DK_TOL = 1e-9
_DEGENERATE_STEPS = 8


@dataclass(frozen=True)
class SectionSpec:
    """One periodically poled section of the waveguide.

    ``expansion_per_C`` optionally applies a linear thermal expansion to the
    poling period relative to ``expansion_ref_C``; it is zero (off) by
    default.
    """

    role: str
    length_mm: float
    poling_period_um: float
    temperature_C: float
    index_provider: object
    qpm_order: int = 1
    expansion_per_C: float = 0.0
    expansion_ref_C: float = 25.0

    def __post_init__(self):
        if self.role not in ("step1", "step2"):
            raise DomainError(f"section role must be step1 or step2, got {self.role!r}")
        if not self.length_mm > 0:
            raise DomainError("section length must be positive")
        if not self.poling_period_um > 0:
            raise DomainError("poling period must be positive")
        if self.qpm_order < 1 or self.qpm_order % 2 == 0:
            raise DomainError(
                f"qpm_order must be an odd positive integer, got {self.qpm_order}"
            )

    def period_um_at(self, temp_C: float) -> float:
        return self.poling_period_um * (
            1.0 + self.expansion_per_C * (temp_C - self.expansion_ref_C)
        )


@dataclass(frozen=True)
class ProcessSpec:
    """A three-wave process bound to one section.

    ``lam_out`` is not an argument: it is the energy-conserving output
    :func:`~qpmcascade.spectral.output_nm` of (kind, lam_in,
    lam_pump), so a triple with no output (a DFG pump shorter than its
    signal) raises :class:`DomainError` here.  At the
    point :func:`degenerate_operating_point` returns, :func:`phase_mismatch`
    of each step's process is at most 1e-9 rad/mm.
    """

    kind: ProcessKind
    lam_in: Wavelength
    lam_pump: Wavelength
    section: SectionSpec
    lam_out: Wavelength = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "lam_out", Wavelength(output_nm(self.kind, self.lam_in.nm, self.lam_pump.nm))
        )

    @classmethod
    def dfg(cls, lam_signal: Wavelength, lam_pump: Wavelength, section: SectionSpec) -> "ProcessSpec":
        return cls(ProcessKind.DFG, lam_signal, lam_pump, section)


def delta_k(kind: ProcessKind, lam_in, lam_pump, temp_C, section: SectionSpec):
    """delta_k in rad/mm of a process on ``section``.

    ``lam_in`` and ``lam_pump`` are wavelengths in nm; they broadcast
    against ``temp_C``.  The output wavelength is recomputed from them, so
    the evaluated triple always conserves energy.  A scalar call returns a
    float and raises on an invalid input; an array call masks it (NaN).
    """
    if is_array(lam_in) or is_array(lam_pump) or is_array(temp_C):
        lam_in, lam_pump, temp_C = (np.asarray(v, dtype=float) for v in (lam_in, lam_pump, temp_C))
    lam_out = output_nm(kind, lam_in, lam_pump)
    n_eff = section.index_provider.effective_index
    k_in, k_out, k_pump = (
        TWO_PI * n_eff(lam, temp_C) * 1e6 / lam for lam in (lam_in, lam_out, lam_pump)
    )
    grating = TWO_PI * section.qpm_order * 1e3 / section.period_um_at(temp_C)
    if kind is ProcessKind.DFG:
        return k_in - k_out - k_pump - grating
    return k_out - k_in - k_pump - grating


def phase_mismatch(process: ProcessSpec, temp_C: float | None = None) -> float:
    """delta_k in rad/mm of the process at the given temperature (default:
    its section's)."""
    section = process.section
    temp = section.temperature_C if temp_C is None else temp_C
    return delta_k(process.kind, process.lam_in.nm, process.lam_pump.nm, temp, section)


def qpm_transfer(delta_k_per_mm, length_mm: float):
    """Normalized transfer sinc^2(delta_k * L / 2), with sinc(0) = 1.

    Elementwise on arrays of mismatches and lengths; NaN stays NaN.
    """
    if not np.all(np.asarray(length_mm) > 0):
        raise DomainError("length must be positive")
    s = np.sinc(0.5 * delta_k_per_mm * length_mm / math.pi)
    return s * s if is_array(s) else float(s * s)


def grid_mismatch(delta_k_of: Callable, grid: np.ndarray) -> np.ndarray:
    """``delta_k_of`` evaluated on a whole 1-D grid in one array call.

    Where the array call masks a point (non-finite dk), the scalar call
    at the first such point raises what it rejects.
    """
    dk = np.broadcast_to(np.asarray(delta_k_of(grid), dtype=float), grid.shape)
    masked = np.flatnonzero(~np.isfinite(dk))
    if masked.size:
        delta_k_of(float(grid[masked[0]]))
    return dk


def solve_poling_period(
    kind: ProcessKind,
    lam_in: Wavelength,
    lam_pump: Wavelength,
    temp_C: float,
    provider,
    qpm_order: int = 1,
) -> float:
    """Poling period (um) that phase-matches the process at (T, pump).

    The bulk mismatch is the delta_k of an unpoled section (infinite
    period, no grating vector).  Raises :class:`DesignError` when it has
    the wrong sign for a positive period.
    """
    unpoled = SectionSpec("step1", 1.0, math.inf, temp_C, provider)
    bulk = delta_k(kind, lam_in.nm, lam_pump.nm, temp_C, unpoled)
    if bulk <= 0.0:
        raise DesignError(
            f"bulk mismatch {bulk:.6g} rad/mm is not positive; "
            f"no positive poling period phase-matches this {kind.value} process"
        )
    return TWO_PI * qpm_order / bulk * 1e3


def section_with_solved_period(
    role: str,
    length_mm: float,
    provider,
    kind: ProcessKind,
    lam_in: Wavelength,
    lam_pump: Wavelength,
    temp_C: float,
    qpm_order: int = 1,
) -> SectionSpec:
    """Build a section whose period is solved at the given operating point."""
    period = solve_poling_period(kind, lam_in, lam_pump, temp_C, provider, qpm_order)
    return SectionSpec(
        role=role,
        length_mm=length_mm,
        poling_period_um=period,
        temperature_C=temp_C,
        index_provider=provider,
        qpm_order=qpm_order,
    )


def _brackets(x, f):
    """The first root bracket of each row of a scan: (lo, hi, f_lo, f_hi).

    A bracket is the first scan point where f is exactly zero (lo == hi)
    or the first pair of consecutive finite values of opposite sign.
    Rows without one get NaN.
    """
    finite = np.isfinite(f)
    event = f == 0.0
    event[..., 1:] |= finite[..., :-1] & finite[..., 1:] & ((f[..., :-1] < 0.0) != (f[..., 1:] < 0.0))
    hi = np.argmax(event, axis=-1)[..., None]
    lo = np.where(np.take_along_axis(f, hi, -1) == 0.0, hi, hi - 1)  # hi >= 1 at a sign change

    def pick(a, i):
        taken = np.take_along_axis(np.broadcast_to(a, f.shape), i, -1)[..., 0]
        return np.where(event.any(axis=-1), taken, np.nan)

    return pick(x, lo), pick(x, hi), pick(f, lo), pick(f, hi)


def _bracket_root(lo, hi, f_lo, f_hi):
    """The root inside brackets from :func:`_brackets`, by linear
    interpolation: ``lo`` where lo == hi, NaN where there is no bracket."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(lo == hi, lo, lo - f_lo * (hi - lo) / (f_hi - f_lo))


def _first_roots(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Lowest root of ``func`` on the scan ``x``, per row, NaN where none.

    ``func`` maps an array of abscissae to the mismatch, one row per
    problem (a 1-D scan is a single problem).  The first bracket of each
    row (see :func:`_brackets`) is narrowed by further array scans of
    ``func`` until it is ``_ROOT_RTOL`` relative wide, then the root is
    interpolated linearly inside it (:func:`_bracket_root`).
    """
    lo, hi, f_lo, f_hi = _brackets(x, func(x))
    while np.any(hi - lo > _ROOT_RTOL * np.abs(hi)):
        grid = np.linspace(lo, hi, _ZOOM_POINTS, axis=-1)
        lo, hi, f_lo, f_hi = _brackets(grid, func(grid))
    return _bracket_root(lo, hi, f_lo, f_hi)


def solve_phasematched_pump(
    section: SectionSpec,
    kind: ProcessKind,
    lam_in: Wavelength,
    temp_C: float | None = None,
    window_nm: tuple[float, float] = PUMP_WINDOW_NM,
) -> Wavelength:
    """Pump wavelength at which the process is phase-matched.

    Scans the window for a sign change of delta_k(pump) and refines the
    lowest-wavelength root.  Raises :class:`NoSolutionError` naming the
    window when no sign change exists.
    """
    temp = section.temperature_C if temp_C is None else temp_C
    root = float(
        _first_roots(
            lambda pump: delta_k(kind, lam_in.nm, pump, temp, section),
            np.linspace(window_nm[0], window_nm[1], _PUMP_SCAN_POINTS),
        )
    )
    if math.isnan(root):
        raise NoSolutionError(
            f"no phase-matched pump for {kind.value} of {lam_in.nm} nm at "
            f"{temp} C inside window [{window_nm[0]}, {window_nm[1]}] nm"
        )
    return Wavelength(root)


@dataclass(frozen=True, eq=False)
class PhaseMatchMap:
    """Cached transfer matrices of both steps over a (T, pump) grid.

    Entries are sinc^2 transfers in [0, 1]; cells where a provider range
    was violated hold NaN (missing) rather than aborting the map.
    ``masked`` counts those cells per step, keyed by the violated range
    quantity (or the error code of another invalid input).
    """

    temperature_C: np.ndarray
    pump_nm: np.ndarray
    step1: np.ndarray
    step2: np.ndarray
    masked: Mapping[str, Mapping[str, int]]

    def __post_init__(self):
        n_t, n_p = len(self.temperature_C), len(self.pump_nm)
        if self.step1.shape != (n_t, n_p) or self.step2.shape != (n_t, n_p):
            raise DomainError("map matrices must be shaped (len(T), len(pump))")


def phasematch_map(
    step1: SectionSpec,
    step2: SectionSpec,
    signal: Wavelength,
    temperatures_C: Sequence[float],
    pumps_nm: Sequence[float],
) -> PhaseMatchMap:
    """Transfer of both steps over a temperature x pump grid.

    The row temperature applies to each section independently (one section
    heated at a time); the step-2 input at each cell is the step-1 DFG
    output at that cell's pump.  Each step is one broadcast evaluation.
    """
    temps = np.asarray(list(temperatures_C), dtype=float)
    pumps = np.asarray(list(pumps_nm), dtype=float)
    if temps.size < 1 or pumps.size < 1:
        raise DomainError("map needs at least one temperature and one pump value")
    temp, pump = temps[:, None], pumps[None, :]
    with masked_cells() as why1:
        m1 = qpm_transfer(delta_k(ProcessKind.DFG, signal.nm, pump, temp, step1), step1.length_mm)
    with masked_cells() as why2:
        mid = output_nm(ProcessKind.DFG, signal.nm, pump)
        m2 = qpm_transfer(delta_k(ProcessKind.DFG, mid, pump, temp, step2), step2.length_mm)
    masked = {"step1": mask_counts(why1, m1.shape), "step2": mask_counts(why2, m2.shape)}
    return PhaseMatchMap(temperature_C=temps, pump_nm=pumps, step1=m1, step2=m2, masked=masked)


@dataclass(frozen=True)
class TuningPoint:
    """One tuning-curve sample; ``target_nm`` is NaN when no root exists."""

    dT_C: float
    target_nm: float
    transfer: float


def step2_target_mismatch(step2: SectionSpec, intermediate: Wavelength, target_nm, temp_C):
    """delta_k of step 2 versus its output wavelength at fixed input.

    The step-2 input is the intermediate wavelength pinned by the
    operating step-1 conditions; the pump that would produce the probed
    target is the DFG of input and target (1/pump = 1/in - 1/target,
    :func:`output_nm`), which requires target > intermediate.  Broadcasts
    like :func:`delta_k`.
    """
    pump_nm = output_nm(ProcessKind.DFG, intermediate.nm, target_nm)
    return delta_k(ProcessKind.DFG, intermediate.nm, pump_nm, temp_C, step2)


def tuning_curve(
    step1: SectionSpec,
    step2: SectionSpec,
    signal: Wavelength,
    pump: Wavelength,
    dT_values: Sequence[float],
    window_nm: tuple[float, float] = TARGET_WINDOW_NM,
) -> list[TuningPoint]:
    """Phase-matched step-2 output versus second-section temperature offset.

    Section-1 conditions stay at the operating point, so the step-2 input
    is the fixed intermediate wavelength; per offset the root of
    :func:`step2_target_mismatch` over the target wavelength is solved
    inside the filter window (the pump implied per candidate target), all
    offsets in one array solve.  When no root exists the point is marked
    missing (NaN).  ``transfer`` is the step-2 transfer of the unmoved
    operating chain at the shifted temperature, i.e. the efficiency
    penalty of detuning without retuning, for all offsets in one
    :func:`grid_mismatch` call (an invalid temperature raises).
    """
    mid = dfg_target(signal, pump)
    offsets = np.asarray(list(dT_values), dtype=float)
    temps = step2.temperature_C + offsets
    targets = _first_roots(
        lambda target_nm: step2_target_mismatch(step2, mid, target_nm, temps[:, None]),
        np.linspace(window_nm[0], window_nm[1], _TARGET_SCAN_POINTS),
    )
    dk = grid_mismatch(lambda temp: delta_k(ProcessKind.DFG, mid.nm, pump.nm, temp, step2), temps)
    transfers = qpm_transfer(dk, step2.length_mm)
    return [
        TuningPoint(dT_C=dT, target_nm=target_nm, transfer=transfer)
        for dT, target_nm, transfer in zip(offsets.tolist(), targets.tolist(), transfers.tolist())
    ]


def degenerate_operating_point(
    step1: SectionSpec,
    step2: SectionSpec,
    signal: Wavelength,
    t_window: tuple[float, float],
    pump_window: tuple[float, float] = PUMP_WINDOW_NM,
) -> tuple[float, float, float, float]:
    """Common (T, pump) where both steps are phase-matched at once.

    The best min(step1, step2) cell of an 81x81 :func:`phasematch_map`
    starts Newton's method on (dk1, dk2) = 0 with a central-difference
    Jacobian (Dennis & Schnabel, 1983, ch. 5).  Each step evaluates both
    mismatches on a 5-point (T, pump) stencil, one :func:`delta_k` call
    per section; it stops at max |dk| <= 1e-9 rad/mm.  An iterate outside
    either window, or no convergence in ``_DEGENERATE_STEPS`` evaluations,
    raises :class:`NoSolutionError` naming both windows.  Returns (T_C,
    pump_nm, transfer1, transfer2), the transfers from the last stencil's
    centre, bitwise the :func:`phasematch_map` cell at the solved point.
    """
    (t_lo, t_hi), (p_lo, p_hi) = t_window, pump_window
    axes = (np.linspace(t_lo, t_hi, _DEGENERATE_GRID), np.linspace(p_lo, p_hi, _DEGENERATE_GRID))
    pm = phasematch_map(step1, step2, signal, *axes)
    score = np.fmin(pm.step1, pm.step2)
    # An all-NaN map starts at a NaN cell, whose NaN step leaves the windows.
    i, j = np.unravel_index(np.argmax(np.where(np.isnan(score), -1.0, score)), score.shape)
    point = np.array([axes[0][i], axes[1][j]])
    offsets = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]]) * _DEGENERATE_STEP
    for _ in range(_DEGENERATE_STEPS):
        temp, pump = (point + offsets).T
        with masked_cells():
            mid = output_nm(ProcessKind.DFG, signal.nm, pump)
            dk = np.stack([delta_k(ProcessKind.DFG, signal.nm, pump, temp, step1),
                           delta_k(ProcessKind.DFG, mid, pump, temp, step2)])
        if np.max(np.abs(dk[:, 0])) <= _DEGENERATE_DK_TOL:
            transfer1, transfer2 = qpm_transfer(dk[:, 0], (step1.length_mm, step2.length_mm))
            return float(point[0]), float(point[1]), float(transfer1), float(transfer2)
        jacobian = (dk[:, 1::2] - dk[:, 2::2]) / (2.0 * _DEGENERATE_STEP)
        try:
            point = point - np.linalg.solve(jacobian, dk[:, 0])
        except np.linalg.LinAlgError:
            break
        if not (t_lo <= point[0] <= t_hi and p_lo <= point[1] <= p_hi):
            break
    raise NoSolutionError(
        f"no common phase-matched point of both steps inside T window [{t_lo}, {t_hi}] C "
        f"and pump window [{p_lo}, {p_hi}] nm"
    )
