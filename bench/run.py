"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It measures the package under
``src/`` (never an installed copy) and prints, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(set-up time, warm wall time, per-op latency percentiles, peak memory); with
``--trace 1`` they are the per-layer ones from a traced run.  The two lines
before it are a ``# meta`` JSON line recording the machine and the pinned
thread settings, and a ``# known_defects`` JSON line counting the ops of the
measured passes that showed one of the package's recorded defects (see
``bench/workloads.py``); those ops are not counted as failed.  A JSON record of the run, including the messages of failed ops,
is written to ``.bench_work/``.

Every workload process and every set-up probe runs with BLAS/OpenMP and the
CLI map's worker pool pinned to one thread, so eigen-solves and maps time
the same way on every run and on every host.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("desk-cli", "point-solves", "modesolver", "fit-lab")
REFERENCE_DEVICE = Path("src/qpmcascade/devices/reference_device.json")
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "QPMCASCADE_THREADS": "1",  # the map's worker pool, else sized by the CPU count
}
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot produce a result in this directory."""


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def child_env(root: Path, workdir: Path) -> dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


def workload_device(workload: str, root: Path, workdir: Path) -> Path:
    """Device file the workload loads at set-up.

    The modesolver workload uses the reference device with both sections
    on the mode-solver-backed index provider, written into the work dir.
    """
    reference = root / REFERENCE_DEVICE
    if workload != "modesolver":
        return reference
    doc = json.loads(reference.read_text(encoding="utf-8"))
    for section in doc["sections"]:
        section["index_provider"] = {"kind": "modesolver"}
    path = workdir / "modesolver_device.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def run_child(cmd: list[str], env: dict[str, str], cwd: Path) -> str:
    """Run one child to completion and return its last stdout line."""
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{cmd[1]} printed nothing")
    return lines[-1]


def machine_meta(root: Path) -> dict:
    import importlib.metadata as md

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()

    def version(dist: str) -> str:
        try:
            return md.version(dist)
        except md.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "pinned_threads": PINNED_THREADS,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "qpmcascade" / "__init__.py").is_file():
        print(f"bench: no src/qpmcascade under {root}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env(root, workdir)
    try:
        device = workload_device(args.workload, root, workdir)
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--device", str(device), "--workdir", str(workdir)]
        report = json.loads(run_child(cmd, env, root))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, setup = report["metrics"], report["setup"]
    if args.trace:
        metrics["import_s"] = {"value": setup["import_s"], "unit": "s"}
        metrics["device.load_ms"] = {"value": setup["load_s"] * 1e3, "unit": "ms"}
    else:
        metrics["setup_s"] = {"value": setup["setup_s"], "unit": "s"}
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": dict(sorted(metrics.items())),
    }
    meta = machine_meta(root)
    record = {"args": vars(args), "meta": meta, "setup": setup, "result": result,
              "failures": report["failures"], "known_defects": report["known_defects"],
              "samples": report["samples"]}
    (root / ".bench_work" / f"{workdir.name}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print("# known_defects " + json.dumps(report["known_defects"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
