"""Workload process: runs passes of one workload and prints one JSON line.

Started by ``bench/run.py`` with BLAS/OpenMP and the map's worker pool
pinned to one thread.  After one warm-up pass it repeats passes until
``--seconds`` of passes have elapsed.  An op's latency covers the call into
the package only; output checks run between ops and are not timed.
``wall_s`` is the median pass.

Set-up is timed in fresh interpreters (``setup_probe.py``) started between
passes and spread evenly over the run, so a slow or fast spell of the host
weighs on set-up as it does on the passes.  Probe time is not counted in
``--seconds``.

With ``--trace 1`` every untraced pass is followed by a traced pass on the
same inputs.  Counters and self times come from the traced passes, which
wrap every public function (counters from the first, self times as
medians).  Per-call latencies come from the untraced passes, in which only
the timed entry points are wrapped.  The tracing overhead is the difference
of the median traced and untraced pass times.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import qpmcascade
from tracer import Tracer
from workloads import (FIT_MODELS, KNOWN_DEFECTS, MODES_GRIDS, SUBCOMMANDS, WORKLOADS, CheckFailed,
                       OpError)

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 7  # timed probes per run, after one untimed probe that warms the caches
PROBE_TIMEOUT_S = 60.0


class PassRecord:
    def __init__(self):
        self.latencies: list[tuple[str, float]] = []
        self.errors = 0
        self.check_failures = 0
        self.failures: Counter[str] = Counter()  # by "<op kind>: <failure class>"
        self.examples: dict[str, str] = {}
        self.observed: dict[str, int] = defaultdict(int)

    def fail(self, kind: str, cause: str, message: str) -> None:
        key = f"{kind}: {cause}"
        self.failures[key] += 1
        self.examples.setdefault(key, message)

    @property
    def wall_s(self) -> float:
        return sum(t for _, t in self.latencies)


def run_pass(ops, tracer: Tracer | None = None) -> PassRecord:
    record = PassRecord()
    quiet = tracer.paused if tracer else contextlib.nullcontext
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed request is counted, the run goes on
            record.latencies.append((op.kind, time.perf_counter() - start))
            record.errors += 1
            cause = "request failed" if isinstance(exc, OpError) else type(exc).__name__
            record.fail(op.kind, cause, str(exc))
            continue
        record.latencies.append((op.kind, time.perf_counter() - start))
        observed = {}
        try:
            with quiet():
                observed = op.check(result) or {}
        except CheckFailed as exc:
            record.check_failures += 1
            record.fail(op.kind, "wrong output", str(exc))
        except OpError as exc:
            record.errors += 1
            record.fail(op.kind, "request failed", str(exc))
        for key, value in observed.items():
            record.observed[key] += value
    return record


def probe_setup(workload: str, device: Path) -> dict:
    """Time one fresh interpreter from spawn until the package and the
    workload's device are loaded; the probe reports its import and load
    times."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--workload", workload,
           "--device", str(device)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {err.strip()[-2000:]}")
    return {"setup_s": ready, **json.loads(line)}


def quantile_ms(latencies: list[float], decile: int) -> float:
    return statistics.quantiles(latencies, n=10, method="inclusive")[decile - 1] * 1e3


def end_to_end(records: list[PassRecord]) -> dict:
    latencies = [t for r in records for _, t in r.latencies]
    return {
        "wall_s": {"value": statistics.median(r.wall_s for r in records), "unit": "s"},
        "op_p50_ms": {"value": quantile_ms(latencies, 5), "unit": "ms"},
        "op_p90_ms": {"value": quantile_ms(latencies, 9), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def per_layer(stats, timings, plain: list[PassRecord], traced: list[PassRecord]) -> dict:
    """Counters and self times from the fully traced passes ``stats``;
    per-call latencies from the entry-point ``timings`` of the untraced
    passes."""
    first = stats[0].counts
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def ratio(num, den):
        return num / den if den else 0.0

    def median_over(passes, f):
        return statistics.median(f(s) for s in passes)

    def per_unit(total_key, count_key, scale):
        return median_over(timings, lambda s: ratio(s.total_s[total_key] * scale, s.counts[count_key]))

    def median_call_ms(key):
        calls = [t for s in timings for t in s.call_s[key]]
        return statistics.median(calls) * 1e3 if calls else 0.0

    put("dispersion.index_evals", first["dispersion.index_evals"], "count")
    put("dispersion.ns_per_eval", median_over(
        stats, lambda s: ratio(s.self_s["dispersion"] * 1e9, s.counts["dispersion.index_evals"])), "ns")
    put("dispersion.self_s", median_over(stats, lambda s: s.self_s["dispersion"]), "s")
    put("dispersion.range_errors", first["dispersion.range_errors"], "count")

    put("qpm.delta_k_evals", first["qpm.delta_k_evals"], "count")
    put("qpm.self_s", median_over(stats, lambda s: s.self_s["qpm"]), "s")
    put("qpm.map_cells", first["qpm.map_cells"], "count")
    put("qpm.map_us_per_cell", per_unit("qpm.map", "qpm.map_cells", 1e6), "us")
    put("qpm.masked_cell_ratio", ratio(first["qpm.masked_cells"], 2 * first["qpm.map_cells"]), "ratio")
    put("qpm.root_solves", first["qpm.root_solves"], "count")
    put("qpm.root_solve_ms", per_unit("qpm.root_solve", "qpm.root_solves", 1e3), "ms")
    put("qpm.evals_per_root", ratio(first["qpm.root_delta_k_evals"], first["qpm.root_solves"]), "count")
    put("qpm.bracket_miss_ratio", ratio(first["qpm.bracket_misses"], first["qpm.root_solves"]), "ratio")

    put("modesolver.eigen_solves", first["modesolver.eigen_solves"], "count")
    for grid in MODES_GRIDS:
        put(f"modesolver.solve_ms.g{grid}", median_call_ms(f"modesolver.solve.g{grid}"), "ms")
    put("modesolver.provider_queries", first["modesolver.provider_queries"], "count")
    put("modesolver.cache_hit_ratio",
        ratio(first["modesolver.cache_hits"], first["modesolver.provider_queries"]), "ratio")
    put("modesolver.self_s", median_over(stats, lambda s: s.self_s["modesolver"]), "s")

    put("noisemodel.lineshape_ms", per_unit("noisemodel.lineshape", "noisemodel.lineshape_calls", 1e3), "ms")
    put("noisemodel.us_per_point",
        per_unit("noisemodel.lineshape", "noisemodel.lineshape_points", 1e6), "us")
    put("conversion.convert_ms", per_unit("conversion.convert", "conversion.calls", 1e3), "ms")
    put("conversion.dropped_ratio", ratio(first["conversion.dropped"], first["conversion.samples"]), "ratio")

    for model in FIT_MODELS:
        put(f"fitting.auto_initial_ms.{model}", median_call_ms(f"fitting.auto_initial.{model}"), "ms")
        put(f"fitting.fit_ms.{model}", median_call_ms(f"fitting.fit.{model}"), "ms")
        put(f"fitting.iterations.{model}", first[f"fitting.iterations.{model}"], "count")
        put(f"fitting.evaluations.{model}", first[f"fitting.evaluations.{model}"], "count")
    observed = traced[0].observed
    put("fitting.false_convergence_ratio",
        ratio(observed["fit_false_convergence"], observed["converged_fits"]), "ratio")
    put("qpm.degenerate_shortfalls", observed["degenerate_shortfall"], "count")

    for sub in SUBCOMMANDS:
        calls = [t for r in plain for kind, t in r.latencies if kind == sub]
        put(f"cli.main_ms.{sub}", statistics.median(calls) * 1e3 if calls else 0.0, "ms")
    put("cli.artifact_bytes", observed["artifact_bytes"], "B")
    put("cli.fit_negative_sample_exits", observed["cli_fit_negative_samples"], "count")

    put("trace.overhead_s", statistics.median(r.wall_s for r in traced)
        - statistics.median(r.wall_s for r in plain), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--device", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    src = Path.cwd().resolve() / "src"
    if not Path(qpmcascade.__file__).resolve().is_relative_to(src):
        print(f"worker: imported {qpmcascade.__file__}, not the checkout's {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, args.device, args.workdir)
    tracer = Tracer() if args.trace else None
    timer = Tracer(entry_points_only=True) if args.trace else None
    probe_setup(args.workload, args.device)  # warms the byte-code and file caches, not counted
    run_pass(workload.ops(0), tracer)  # warm-up, not counted

    plain: list[PassRecord] = []
    traced: list[PassRecord] = []
    stats, timings, probes = [], [], []
    start = time.perf_counter()
    probe_s = 0.0
    for k in itertools.count():
        pass_start = time.perf_counter()
        if timer:
            with timer.traced() as pass_timing:
                plain.append(run_pass(workload.ops(k), timer))
            timings.append(pass_timing)
            with tracer.traced() as pass_stats:
                traced.append(run_pass(workload.ops(k), tracer))
            stats.append(pass_stats)
        else:
            plain.append(run_pass(workload.ops(k)))
        pass_s = time.perf_counter() - pass_start
        # Probe i is due once i / SETUP_PROBES of the measured time has passed.
        while len(probes) < SETUP_PROBES and \
                time.perf_counter() - start - probe_s >= len(probes) * args.seconds / SETUP_PROBES:
            probe_start = time.perf_counter()
            probes.append(probe_setup(args.workload, args.device))
            probe_s += time.perf_counter() - probe_start
        # Start another pass only if it should end within --seconds.
        if time.perf_counter() - start - probe_s + pass_s > args.seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args.workload, args.device))

    records = plain + traced
    failures = sum((r.failures for r in records), Counter())
    examples = {}
    for r in records:
        for key, message in r.examples.items():
            examples.setdefault(key, message)
    report = {
        "correct": not any(r.check_failures for r in records),
        "attempted": sum(len(r.latencies) for r in records),
        "failed": sum(r.errors + r.check_failures for r in records),
        "metrics": per_layer(stats, timings, plain, traced) if tracer else end_to_end(plain),
        "setup": {key: statistics.median(p[key] for p in probes)
                  for key in ("setup_s", "import_s", "load_s")},
        "failures": {key: {"count": n, "example": examples[key]} for key, n in failures.most_common()},
        "known_defects": {name: sum(r.observed[name] for r in plain) for name in KNOWN_DEFECTS},
        "samples": {
            "passes": len(plain),
            "traced_passes": len(traced),
            "ops": sum(len(r.latencies) for r in plain),
            "pass_s": [r.wall_s for r in plain],
            "setup_s": [p["setup_s"] for p in probes],
            "op_ms": {
                kind: [t * 1e3 for r in plain for k2, t in r.latencies if k2 == kind]
                for kind in dict.fromkeys(kind for kind, _ in plain[0].latencies)
            },
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
