"""One set-up measurement: import the package and load the workload's device.

Started in a fresh interpreter by ``bench/run.py``.  Prints one JSON line
with the import and load times as soon as the package is ready, then exits.
"""

import argparse
import json
import sys
import time

START = time.perf_counter()
import qpmcascade  # noqa: E402

IMPORTED = time.perf_counter()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--device", required=True)
    args = parser.parse_args()
    start = time.perf_counter()
    device = qpmcascade.load_device(args.device)
    if args.workload == "fit-lab":
        qpmcascade.model_registry(length_mm=device.step1.length_mm)
    loaded = time.perf_counter()
    print(json.dumps({"import_s": IMPORTED - START, "load_s": loaded - start}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
