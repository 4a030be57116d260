"""Per-layer tracing from outside the package.

``Tracer.install`` wraps public functions of each layer module
(``qpmcascade.dispersion``, ``qpm``, ``modesolver``, ...) and rebinds the
wrapper in every ``qpmcascade`` namespace that binds the original, so calls
made through ``from .qpm import phase_mismatch`` are seen too.  Each wrapper
records a span.  Work is counted in array elements, not in calls, so a
scalar call counts one and a broadcast call counts its size.  Spans and
counters are kept per thread and summed when the pass ends.

A tracer works in one of two modes:

- ``Tracer()`` wraps every public function (and the mode-solver provider's
  query).  It gives the counters and each layer's self time: the CPU time of
  the calling thread inside the layer's spans minus the spans they enclose,
  so a thread that waits on the CLI's map worker pool is not charged for the
  pool's work.  Self time includes the bookkeeping of the wrappers nested
  in it, so it overstates the untraced cost.
- ``Tracer(entry_points_only=True)`` wraps only the few entry points whose
  per-call latency is reported (map, root solve, line shape, conversion,
  eigen-solve, fit), so their wall-clock times carry no cost of nested
  wrappers.

Counters are kept apart from times: counters depend only on the inputs and
repeat exactly between runs of one seed, times do not.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

LAYERS = ("dispersion", "qpm", "modesolver", "noisemodel", "conversion", "fitting", "device", "cli")

DELTA_K = {("qpm", "phase_mismatch"), ("qpm", "bulk_mismatch")}
ROOT_SOLVERS = {
    ("qpm", "solve_phasematched_pump"),
    ("qpm", "tuning_curve"),
    ("noisemodel", "solve_thermal_sfg_output"),
}
# Line-shape grid functions and the position of their wavelength grid argument.
LINESHAPE_GRIDS = {("noisemodel", "thermal_sfg_lineshape"): 2, ("noisemodel", "lineshape_weighted"): 1}
PROVIDER_QUERY = ("modesolver", "ModeSolverIndexProvider.effective_index")
# Entry points whose wall-clock latency is reported.
ENTRY_POINTS = {
    ("qpm", "phasematch_map"), *ROOT_SOLVERS, *LINESHAPE_GRIDS, ("conversion", "convert_spectrum"),
    ("modesolver", "solve_modes"), ("fitting", "auto_initial"), ("fitting", "fit"),
}


def elements(args, kwargs) -> int:
    """Array elements a call works on: the largest array argument, else 1.

    Wavelength-like arguments count through their ``nm`` value.
    """
    n = 1
    for value in (*args, *kwargs.values()):
        value = getattr(value, "nm", value)
        if isinstance(value, np.ndarray):
            n = max(n, value.size)
    return n


class PassStats:
    """What one traced pass did."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.call_s: dict[str, list[float]] = defaultdict(list)

    def add(self, other: "PassStats") -> None:
        for mine, theirs in ((self.counts, other.counts), (self.self_s, other.self_s),
                             (self.total_s, other.total_s), (self.call_s, other.call_s)):
            for key, value in theirs.items():
                mine[key] += value


class ThreadState:
    """Open spans and statistics of one thread during one pass."""

    def __init__(self, generation: int):
        self.generation = generation
        self.stats = PassStats()
        self.frames: list[list] = []
        self.root_depth = 0
        self.line_depth = 0


class Tracer:
    def __init__(self, entry_points_only: bool = False):
        import qpmcascade
        from qpmcascade.errors import NoSolutionError, RangeError
        from qpmcascade.modesolver import ModeSolverIndexProvider

        self._range_error = RangeError
        self._no_solution = NoSolutionError
        self._provider_cls = ModeSolverIndexProvider
        self.active = False
        self._generation = 0
        self._local = threading.local()
        self._threads: list[ThreadState] = []
        self._lock = threading.Lock()
        self._patches = self._plan(qpmcascade, entry_points_only)

    def _plan(self, package, entry_points_only: bool) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every rebinding."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == package.__name__ or name.startswith(package.__name__ + ".")]
        patches = []
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for name, func in sorted(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != module.__name__
                        or (entry_points_only and (layer, name) not in ENTRY_POINTS)):
                    continue
                wrapper = self._wrap((layer, name), func)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is func:
                            patches.append((namespace, attr, func, wrapper))
        if entry_points_only:
            return patches
        method = self._provider_cls.effective_index
        patches.append((self._provider_cls, "effective_index", method,
                        self._wrap(PROVIDER_QUERY, method)))
        return patches

    def install(self) -> None:
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    @contextmanager
    def traced(self):
        """Trace one pass; yields a PassStats that is filled when it ends."""
        self._generation += 1
        self._threads = []
        stats = PassStats()
        self.install()
        try:
            yield stats
        finally:
            self.uninstall()
            for state in self._threads:
                stats.add(state.stats)

    def _state(self) -> ThreadState:
        state = getattr(self._local, "state", None)
        if state is None or state.generation != self._generation:
            state = self._local.state = ThreadState(self._generation)
            with self._lock:
                self._threads.append(state)
        return state

    @contextmanager
    def paused(self):
        """Run harness checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, key, func):
        tracer = self

        def traced_call(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            state = tracer._state()
            frame = tracer._enter(state, key)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer._leave(state, key, frame, args, kwargs, None, exc)
                raise
            return tracer._leave(state, key, frame, args, kwargs, result, None)

        traced_call.__wrapped__ = func
        traced_call.__name__ = getattr(func, "__name__", key[1])
        traced_call.__doc__ = func.__doc__
        return traced_call

    @staticmethod
    def _enter(state: ThreadState, key) -> list:
        if key in ROOT_SOLVERS:
            state.root_depth += 1
        if key in LINESHAPE_GRIDS:
            state.line_depth += 1
        # [enclosed CPU s, eigen-solves so far, CPU start, wall start]
        frame = [0.0, state.stats.counts["modesolver.eigen_solves"],
                 time.thread_time(), time.perf_counter()]
        state.frames.append(frame)
        return frame

    def _leave(self, state: ThreadState, key, frame, args, kwargs, result, error):
        elapsed = time.perf_counter() - frame[3]
        busy = time.thread_time() - frame[2]
        state.frames.pop()
        layer, name = key
        stats = state.stats
        stats.self_s[layer] += busy - frame[0]
        if state.frames:
            state.frames[-1][0] += busy
        counts = stats.counts

        if key == ("dispersion", "sellmeier_index"):
            counts["dispersion.index_evals"] += elements(args, kwargs)
            if isinstance(error, self._range_error):
                counts["dispersion.range_errors"] += 1
        elif key in DELTA_K:
            n = elements(args, kwargs)
            counts["qpm.delta_k_evals"] += n
            if state.root_depth:
                counts["qpm.root_delta_k_evals"] += n
        elif key == ("qpm", "phasematch_map") and error is None:
            counts["qpm.map_cells"] += result.step1.size
            counts["qpm.masked_cells"] += int(np.isnan(result.step1).sum() + np.isnan(result.step2).sum())
            stats.total_s["qpm.map"] += elapsed
        elif key in ROOT_SOLVERS:
            state.root_depth -= 1
            if name == "tuning_curve":
                solves = len(result) if error is None else 0
                misses = sum(np.isnan(p.target_nm) for p in result) if error is None else 0
            else:
                solves = 1
                misses = int(isinstance(error, self._no_solution) or (error is None and result is None))
            counts["qpm.root_solves"] += solves
            counts["qpm.bracket_misses"] += int(misses)
            stats.total_s["qpm.root_solve"] += elapsed
        elif key == ("modesolver", "solve_modes"):
            counts["modesolver.eigen_solves"] += 1
            geometry = args[0]
            if geometry.grid_nx == geometry.grid_ny:
                stats.call_s[f"modesolver.solve.g{geometry.grid_nx}"].append(elapsed)
        elif key == PROVIDER_QUERY:
            counts["modesolver.provider_queries"] += 1
            if error is None and counts["modesolver.eigen_solves"] == frame[1]:
                counts["modesolver.cache_hits"] += 1
        elif key in LINESHAPE_GRIDS:
            state.line_depth -= 1
            if state.line_depth == 0 and error is None:
                grid = args[LINESHAPE_GRIDS[key]] if len(args) > LINESHAPE_GRIDS[key] else kwargs["lam_grid_nm"]
                counts["noisemodel.lineshape_points"] += int(np.size(grid))
                counts["noisemodel.lineshape_calls"] += 1
                stats.total_s["noisemodel.lineshape"] += elapsed
        elif key == ("conversion", "convert_spectrum") and error is None:
            counts["conversion.samples"] += len(args[0])
            counts["conversion.dropped"] += int(result[1])
            counts["conversion.calls"] += 1
            stats.total_s["conversion.convert"] += elapsed
        elif key == ("fitting", "auto_initial"):
            stats.call_s[f"fitting.auto_initial.{args[0].name}"].append(elapsed)
        elif key == ("fitting", "fit"):
            stats.call_s[f"fitting.fit.{args[0].name}"].append(elapsed)
            if error is None:
                counts[f"fitting.iterations.{args[0].name}"] += result.iterations
        elif key == ("fitting", "registry_model") and error is None:
            return self._counted_model(result)
        elif key == ("fitting", "model_registry") and error is None:
            return [self._counted_model(model) for model in result]
        return result

    def _counted_model(self, model):
        """The model with an ``evaluate`` that counts evaluated points."""
        evaluate = model.evaluate
        key = f"fitting.evaluations.{model.name}"
        tracer = self

        def counted(params, x):
            if tracer.active:
                tracer._state().stats.counts[key] += int(np.size(x))
            return evaluate(params, x)

        return replace(model, evaluate=counted)
