"""End-to-end benchmark of record for the sharded LCM key-value store.

Runs one workload in a fresh worker process (``bench.py``) with the
backend-selection environment variables removed, and passes its output
through; the last line is the run's JSON result.  Run it from the root
of a source checkout::

    python3 perfbench/run.py --workload ycsb-a-online --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all            # every workload, one after another

See perfbench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("ycsb-a-online", "txn-audit", "ycsb-b-large-state")
#: pin nothing from the caller's environment: the program must pick its
#: default (serial execution, compiled fastpath and serde) on its own
STRIPPED = ("REPRO_EXEC_BACKEND", "REPRO_FASTPATH", "REPRO_SERDE")
#: the first run in a fresh checkout also compiles the native modules
TIMEOUT_S = 870


def worker(args: list[str], *, capture: bool = False) -> subprocess.CompletedProcess:
    env = {name: value for name, value in os.environ.items() if name not in STRIPPED}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *args],
        cwd=ROOT,
        env=env,
        timeout=TIMEOUT_S,
        stdout=subprocess.PIPE if capture else None,
        text=True,
    )


def run_all(seed: int, seconds: int) -> int:
    status = 0
    for name in WORKLOADS:
        done = worker(
            ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture=True,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode or not lines:
            print(f"{name}: worker exited with {done.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(
            f"{name}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}"
        )
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<22} {entry['value']:>14.4f} {entry['unit']}")
        status |= not result["correct"] or result["failed"] > 0
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    done = worker(
        [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
    )
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
