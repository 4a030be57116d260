"""Rewrite the golden artifacts in this directory from the current code.

    python tests/golden/regen.py

Each run of ``tests/test_golden.py`` writes its artifacts here from the
repository root, so their ``command`` lines name repository paths.  For
each file the script prints the largest absolute and relative change of
its numbers against the file it replaces, or says that the text outside
the numbers changed.  A change that regenerates golden files states in
CHANGES.md which files moved, by how much and why.
"""

import gzip
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from test_golden import (  # noqa: E402
    COMPRESSED, RUNS, artifacts, golden_path, read_golden, run_argv, split_numbers, stable,
)

from qpmcascade.cli import main  # noqa: E402


def change(old: str, new: str) -> str:
    (old_layout, a), (new_layout, b) = split_numbers(stable(old)), split_numbers(stable(new))
    if old_layout != new_layout:
        return "text outside the numbers changed"
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = np.nan_to_num(np.where(same, 0.0, np.abs(a - b)), nan=np.inf)  # NaN on one side only
        rel = np.where(same, 0.0, diff / np.abs(a))
    return f"largest change {diff.max(initial=0.0):.3g} absolute, {rel.max(initial=0.0):.3g} relative"


def regenerate() -> int:
    os.chdir(ROOT)
    for run in RUNS:
        old = {name: read_golden(name) for name in artifacts(run) if golden_path(name).exists()}
        if main(run_argv(run, "tests/golden")) != 0:
            print(f"{run}: failed", file=sys.stderr)
            return 1
        for name in artifacts(run):
            written = golden_path(name).with_name(name)
            new = written.read_text(encoding="utf-8")
            if name in COMPRESSED:
                golden_path(name).write_bytes(gzip.compress(new.encode("utf-8"), mtime=0))
                written.unlink()
            print(f"{golden_path(name).name}: {change(old[name], new) if name in old else 'new'}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
