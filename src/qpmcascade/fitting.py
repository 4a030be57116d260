"""Nonlinear least-squares engine with the registry of line-shape and
saturation models used for measured or synthetic curves.

The solver is a classic Levenberg-Marquardt descent with a numeric
Jacobian (central differences, relative step 1e-6), multiplicative
damping (start 1e-3, x10 on a rejected step, /10 on an accepted one) and
projection of every step onto the parameter bounds.  It stops and
reports convergence when the projected step norm drops below 1e-12, or
after three consecutive iterations each of which either lowered the cost
by less than 1e-10 relative or was rejected (did not lower it).  A
rejected step counts toward that limit, so three rejections in a row
end the fit as converged even where the cost is still far from a
minimum.  Everything is plain double-precision arithmetic in a fixed
order, so identical inputs give bitwise-identical results.

Every model evaluates a batch of parameter vectors in one call: given
``params`` as a sequence of n_par arrays that broadcast with one another
and with ``x``, ``evaluate`` returns the curves over their broadcast
shape.  :func:`auto_initial` passes its lattice as an open mesh, each
scanned parameter varying along its own axis and every other parameter a
scalar, so a model term is evaluated once per distinct combination of
the axes it depends on; a lattice whose points times samples exceed
2^15 is scored in slices along its last scanned axis, each call within
that budget.  :func:`fit` evaluates each Jacobian in one call, on all
2 n_par perturbed vectors as an (n_par, 2 n_par, 1) array, and each trial
step as one vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .conversion import _saturating_efficiency
from .errors import ConverterError, DomainError, RankDeficiencyError
from .noisemodel import lineshape_analytic, weighted_sinc2_sum
from .qpm import qpm_transfer

_REL_STEP = 1e-6
_STALL_LIMIT = 3
_REL_DECREASE = 1e-10
_STEP_NORM = 1e-12
_MAX_ITERATIONS = 500
# Most (lattice point, sample) pairs auto_initial scores in one evaluate call.
_LATTICE_BLOCK = 1 << 15


@dataclass(frozen=True)
class FitModel:
    """A named parametric curve y = evaluate(params, x).

    ``evaluate`` takes ``params`` of shape (n_par,) and returns one curve
    over ``x``.  Given a batch, a sequence of n_par arrays that broadcast
    with one another and with ``x`` (such as an (n_par, M, 1) array, or
    :func:`auto_initial`'s open mesh of (16, 1, ..., 1)-style axes and
    scalars, or :func:`fit`'s (n_par, 2 n_par, 1) Jacobian batch), it
    returns the curves over their broadcast shape.  A closure that
    unpacks ``params`` and uses numpy broadcasting does this without extra
    code.  Where each batch row is bitwise its vector evaluated alone, as
    for every registry model, fit's Jacobian is bitwise the one a
    vector-by-vector central difference gives.  ``bounds`` is one
    (low, high) pair per parameter; ``constants`` holds fixed non-fitted
    values the evaluate closure was built with (kept for reporting).
    """

    name: str
    parameter_names: tuple[str, ...]
    bounds: tuple[tuple[float, float], ...]
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constants: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.parameter_names) != len(self.bounds):
            raise DomainError("one bounds pair per parameter required")
        for name, (lo, hi) in zip(self.parameter_names, self.bounds):
            if not lo < hi:
                raise DomainError(f"parameter {name!r}: bounds ({lo}, {hi}) are empty")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit.

    ``converged`` is True when the stop rule of the module docstring fired,
    not when the cost is known to be at a minimum: the rule counts a
    rejected step as a stalled iteration.  On the noiseless 51-point
    thermal line that CI fits with ``lineshape_eq2`` it fires after 3
    iterations at rms 0.144.  ``converged`` is False after the cap of 500
    iterations.
    """

    model: FitModel
    parameters: np.ndarray
    standard_errors: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    cost_trace: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "model": self.model.name,
            "parameters": dict(zip(self.model.parameter_names, map(float, self.parameters))),
            "standard_errors": dict(
                zip(self.model.parameter_names, map(float, self.standard_errors))
            ),
            "residual_norm": float(self.residual_norm),
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _read_data(x: Sequence[float], y: Sequence[float], least: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) as float arrays: matched, ``least`` points or more, finite."""
    x = np.asarray(list(x), dtype=float)
    y = np.asarray(list(y), dtype=float)
    if x.size != y.size or x.size < least:
        raise DomainError(f"need {least} or more matched data points, got {x.size} x and {y.size} y")
    for label, data in (("x", x), ("y", y)):
        bad = np.flatnonzero(~np.isfinite(data))
        if bad.size:
            raise DomainError(f"data {label} must be finite, got {data[bad[0]]} at index {bad[0]}")
    return x, y


def _jacobian(
    func: Callable[[np.ndarray], np.ndarray],
    params: np.ndarray,
    base: np.ndarray,
    bounds: Sequence[tuple[float, float]],
    rel_step: float = _REL_STEP,
) -> np.ndarray:
    """Central-difference Jacobian, one-sided at parameter bounds.

    ``base`` is ``func(params)``, which the caller already holds.
    Per-parameter step h_i = rel_step * max(|p_i|, 1): relative above unit
    magnitude with an absolute floor so zero-valued parameters still move.
    ``func`` is called once, on the 2 n_par perturbed vectors as an
    (n_par, 2 n_par, 1) array, the up steps first and then the down steps,
    and returns one residual row per vector.
    Where p_i + h_i would pass its upper bound, the up row holds the point
    itself and column i is the backward difference against ``base``;
    otherwise, where p_i - h_i would pass its lower bound, the down row
    holds the point and column i is the forward difference.
    """
    n = params.size
    lows, highs = np.array(bounds, dtype=float).T
    h = rel_step * np.maximum(np.abs(params), 1.0)
    up, down = params + h, params - h
    up_ok = up <= highs
    forward = up_ok & (down < lows)
    batch = np.tile(params, (2 * n, 1))
    diag = np.arange(n)
    batch[diag, diag] = np.where(up_ok, up, params)
    batch[n + diag, diag] = np.where(forward, params, down)
    rows = func(batch.T[:, :, None])
    upper = np.where(up_ok[:, None], rows[:n], base)
    lower = np.where(forward[:, None], base, rows[n:])
    width = np.where(up_ok & ~forward, 2.0 * h, h)
    # C order: BLAS rounds the normal matrix jac.T @ jac differently for
    # a Fortran-ordered jac, which moves fitted parameters in the last bits.
    return np.ascontiguousarray(((upper - lower) / width[:, None]).T)


def fit(
    model: FitModel,
    x: Sequence[float],
    y: Sequence[float],
    initial: Sequence[float],
) -> FitResult:
    """Levenberg-Marquardt fit of ``model`` to (x, y).

    Requires matched finite data (a non-finite value is named by column
    and index) of at least max(3, n_parameters + 1) points and a finite
    initial guess inside the bounds.  The model must evaluate a batch of
    parameter vectors (:class:`FitModel`), as each Jacobian is one call on
    all of its perturbed vectors; one that does not raises
    :class:`DomainError`.  A singular normal matrix raises
    :class:`RankDeficiencyError`; hitting the cap of 500 iterations
    returns a result flagged not converged rather than raising.
    """
    p = np.asarray(list(initial), dtype=float)
    n_par = len(model.parameter_names)
    if p.size != n_par:
        raise DomainError(f"model {model.name!r} takes {n_par} parameters, got {p.size}")
    x, y = _read_data(x, y, max(3, n_par + 1))
    for name, value in zip(model.parameter_names, p):
        if not math.isfinite(value):
            raise DomainError(f"initial parameter {name!r} must be finite, got {value}")
    lows = np.array([b[0] for b in model.bounds])
    highs = np.array([b[1] for b in model.bounds])
    if np.any(p < lows) or np.any(p > highs):
        raise DomainError("initial parameters must lie inside the bounds")

    def residuals(params: np.ndarray) -> np.ndarray:
        return y - model.evaluate(params, x)

    def batch_residuals(batch: np.ndarray) -> np.ndarray:
        try:
            rows = residuals(batch)
            if rows.shape != (batch.shape[1], x.size):
                raise ValueError(f"{batch.shape[1]} vectors gave curves of shape {rows.shape}")
        except ConverterError:
            raise
        except ValueError as exc:
            raise DomainError(
                f"model {model.name!r} does not evaluate a batch of parameter vectors: {exc}"
            ) from exc
        return rows

    r = residuals(p)
    cost = float(r @ r)
    damping = 1e-3
    stall = 0
    converged = False
    iterations = 0
    trace = [cost]
    jac = _jacobian(batch_residuals, p, r, model.bounds)
    while iterations < _MAX_ITERATIONS:
        iterations += 1
        a_mat = jac.T @ jac
        grad = jac.T @ r
        # Floor the damped diagonal so a transiently flat parameter cannot
        # make the step solve singular; true rank deficiency still surfaces
        # when the undamped matrix is inverted for the covariance.
        diag = np.diag(a_mat)
        floor = 1e-14 * max(1.0, float(diag.max()) if diag.size else 1.0)
        m_mat = a_mat + damping * np.diag(np.maximum(diag, floor))
        try:
            step = np.linalg.solve(m_mat, -grad)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(
                f"normal matrix of model {model.name!r} is singular"
            ) from exc
        candidate = np.clip(p + step, lows, highs)
        step_norm = float(np.linalg.norm(candidate - p))
        if step_norm < _STEP_NORM:
            converged = True
            break
        r_new = residuals(candidate)
        cost_new = float(r_new @ r_new)
        if cost_new < cost:
            decrease = (cost - cost_new) / max(cost, np.finfo(float).tiny)
            p, r, cost = candidate, r_new, cost_new
            trace.append(cost)
            damping = max(damping / 10.0, 1e-12)
            jac = _jacobian(batch_residuals, p, r, model.bounds)
            stall = stall + 1 if decrease < _REL_DECREASE else 0
        else:
            damping = min(damping * 10.0, 1e12)
            stall += 1
        if stall >= _STALL_LIMIT:
            converged = True
            break

    errors = _standard_errors(model, jac, cost, x.size, n_par)
    return FitResult(
        model=model,
        parameters=p,
        standard_errors=errors,
        residual_norm=cost,
        converged=converged,
        iterations=iterations,
        cost_trace=tuple(trace),
    )


def _standard_errors(
    model: FitModel, jac: np.ndarray, cost: float, n_data: int, n_par: int
) -> np.ndarray:
    a_mat = jac.T @ jac
    try:
        cov = np.linalg.inv(a_mat) * (cost / (n_data - n_par))
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(
            f"normal matrix of model {model.name!r} is singular at the solution"
        ) from exc
    diag = np.clip(np.diag(cov), 0.0, None)
    return np.sqrt(diag)


# --- model registry -----------------------------------------------------------


def model_registry(length_mm: float = 20.0) -> list[FitModel]:
    """The built-in model families.

    ``length_mm`` fixes the interaction length of the saturation model
    (the one model where length is a constant, not a parameter).  The
    scan-type models express detuning as (x - center) in rad/mm per
    x-unit, so their length parameter is an effective width scale.
    """
    if not (math.isfinite(length_mm) and length_mm > 0):
        raise DomainError(f"section length must be finite and positive, got {length_mm!r}")

    def sinc2_scan(params, x):
        amplitude, center, eff_len, offset = params
        return amplitude * qpm_transfer(x - center, eff_len) + offset

    def saturation(params, x):
        eta_max, eta_nor = params
        return _saturating_efficiency(eta_max, eta_nor, length_mm, np.clip(x, 0.0, None), 0.0)

    def lineshape_eq1(params, x):
        amplitude, center, length, offset = params
        # the analytic line normalised to its dk -> 0 peak L^2/3
        return amplitude * (3.0 * lineshape_analytic(x - center, length) / (length * length)) + offset

    def lineshape_eq2(params, x):
        a0, a1, a2, center, length, offset = params
        return weighted_sinc2_sum(x - center, length, (a0, a1, a2)) + offset

    def two_mode_sinc2(params, x):
        amp1, center1, amp2, center2, eff_len, offset = params
        return (
            amp1 * qpm_transfer(x - center1, eff_len)
            + amp2 * qpm_transfer(x - center2, eff_len)
            + offset
        )

    wide = (-1e9, 1e9)
    positive = (0.0, 1e9)
    center_bounds = (100.0, 20e3)
    length_bounds = (1e-3, 1e3)
    return [
        FitModel(
            name="sinc2_scan",
            parameter_names=("amplitude", "center", "effective_length", "offset"),
            bounds=(positive, center_bounds, length_bounds, wide),
            evaluate=sinc2_scan,
        ),
        FitModel(
            name="saturation",
            parameter_names=("eta_max", "eta_nor"),
            bounds=((1e-12, 1.0), (0.0, 100.0)),
            evaluate=saturation,
            constants={"length_mm": length_mm},
        ),
        FitModel(
            name="lineshape_eq1",
            parameter_names=("amplitude", "center", "length", "offset"),
            bounds=(positive, center_bounds, length_bounds, wide),
            evaluate=lineshape_eq1,
        ),
        FitModel(
            name="lineshape_eq2",
            parameter_names=("a0", "a1", "a2", "center", "length", "offset"),
            bounds=(wide, wide, wide, center_bounds, length_bounds, wide),
            evaluate=lineshape_eq2,
        ),
        FitModel(
            name="two_mode_sinc2",
            parameter_names=(
                "amplitude1",
                "center1",
                "amplitude2",
                "center2",
                "effective_length",
                "offset",
            ),
            bounds=(positive, center_bounds, positive, center_bounds, length_bounds, wide),
            evaluate=two_mode_sinc2,
        ),
    ]


def registry_model(name: str, length_mm: float = 20.0) -> FitModel:
    for model in model_registry(length_mm=length_mm):
        if model.name == name:
            return model
    raise DomainError(
        f"unknown model {name!r}; available: {[m.name for m in model_registry()]}"
    )


def auto_initial(model: FitModel, x: Sequence[float], y: Sequence[float]) -> np.ndarray:
    """Deterministic grid-seeded initial guess.

    Heuristics fill amplitude/offset-like parameters from the data (read
    as :func:`fit` reads it, one point at least) and zero ``a`` plus
    digits (``lineshape_eq2``'s a1, a2); the remaining (most nonlinear)
    parameters, at most three, are scanned on a 16-level lattice and the
    lowest-SSE lattice point wins (the first one in C order over the
    scanned axes on a tie; the guesses if no point scores finite).
    Centres span the data's x range, lengths a geometric 0.1-1000 and
    ``eta_nor`` 1e-5-10, other parameters their bounds; each axis is
    confined to its parameter's bounds, so the guess always lies inside
    them.

    ``evaluate`` receives the lattice as an open mesh: scanned parameter
    d is an array varying along axis d only, shape (1, ..., 16, ..., 1, 1)
    in the style of ``np.ix_``, and every other parameter is its scalar
    guess.  When the lattice points times ``x.size`` exceed 2^15, the last
    scanned axis is scored in chunks of as many levels as fit that budget
    with the other axes whole.  When one level of it alone exceeds the
    budget, it goes one level per call and the axis before it is chunked
    instead, and so on, so every call's output stays within 2^15 elements
    while one lattice point does.  At 101 samples every registry model
    takes one call but ``two_mode_sinc2``, whose 16^3-point lattice takes
    16, one per ``effective_length`` level.
    """
    x, y = _read_data(x, y, 1)
    span = float(y.max() - y.min())
    guesses: list[float] = []
    lattice_axes: list[tuple[int, np.ndarray]] = []
    for i, name in enumerate(model.parameter_names):
        lo, hi = model.bounds[i]
        if "amplitude" in name or name.startswith("a0"):
            guesses.append(np.clip(span if span > 0 else 1.0, lo, hi))
        elif name == "offset":
            guesses.append(np.clip(float(y.min()), lo, hi))
        elif name[:1] == "a" and name[1:].isdigit():
            guesses.append(np.clip(0.0, lo, hi))
        elif name == "eta_max":
            guesses.append(np.clip(max(float(y.max()), 1e-6), lo, hi))
        else:
            guesses.append(0.5 * (lo + hi))
            space = np.linspace
            if "center" in name:
                ends = (float(x.min()), float(x.max()))
            elif "length" in name or name == "eta_nor":
                # scale parameters: geometric lattice
                ends = (0.1, 1e3) if "length" in name else (1e-5, 10.0)
                space = np.geomspace
            else:
                ends = (lo, hi)
            # confined to the bounds, so every lattice point is one fit() accepts
            axis_lo, axis_hi = (min(max(end, lo), hi) for end in ends)
            if axis_lo <= 0.0:  # a geometric lattice cannot reach zero
                space = np.linspace
            axis = space(axis_lo, axis_hi, 16).clip(lo, hi)
            if len(lattice_axes) < 3:
                lattice_axes.append((i, axis))
    if not lattice_axes:
        return np.array(guesses)
    levels = tuple(axis.size for _, axis in lattice_axes)
    # axes before `split` vary whole in every call, axis `split` in chunks
    # of `step` levels, and the axes after it one level per call
    split = len(levels) - 1
    while split and math.prod(levels[:split]) * x.size > _LATTICE_BLOCK:
        split -= 1
    step = max(1, _LATTICE_BLOCK // (math.prod(levels[:split]) * x.size))
    sse = np.empty(levels)
    trial: list = list(guesses)
    for d, (idx, axis) in enumerate(lattice_axes[:split]):
        trial[idx] = axis.reshape((1,) * d + (-1,) + (1,) * (split - d + 1))
    split_idx, split_axis = lattice_axes[split]
    for fixed in np.ndindex(*levels[split + 1 :]):
        for (idx, axis), level in zip(lattice_axes[split + 1 :], fixed):
            trial[idx] = axis[level]
        for lo in range(0, levels[split], step):
            chunk = split_axis[lo : lo + step]
            trial[split_idx] = chunk.reshape((1,) * split + (-1, 1))
            shape = levels[:split] + (chunk.size, x.size)
            resid = np.broadcast_to(y - model.evaluate(trial, x), shape).reshape(-1, x.size)
            sums = np.einsum("ij,ij->i", resid, resid)
            sse[(..., slice(lo, lo + step), *fixed)] = sums.reshape(shape[:-1])
    scored = sse < math.inf
    if not scored.any():
        return np.array(guesses)
    # argmin keeps the first of equal minima, as a strict-< scan would
    best = np.unravel_index(int(np.argmin(np.where(scored, sse, math.inf))), levels)
    for (idx, axis), level in zip(lattice_axes, best):
        guesses[idx] = axis[level]
    return np.array(guesses)
