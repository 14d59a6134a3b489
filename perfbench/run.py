#!/usr/bin/env python3
"""The repository benchmark: three workloads, checked answers, metrics by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-exact --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, from a run that times the
calls into each layer (see ``tracing.py``).  Human-readable lines start
with ``#``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when
any answer was wrong or failed, when a server process outlived the run,
or when the program under test is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, SRC, calibrate, hash_seed, host_line  # noqa: E402

WORKLOADS = ("cold-exact", "warm-http", "stream-window")


def _arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    args = _arguments(argv)
    if os.environ.get("PYTHONHASHSEED") != hash_seed(args.seed):
        # Same seed, same hash layout: re-run this process under the seed's
        # PYTHONHASHSEED (every server the run starts gets it too).
        env = dict(os.environ, PYTHONHASHSEED=hash_seed(args.seed))
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _terminate)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"error: cannot import the program under test: {error}", file=sys.stderr)
        return 2

    workload = importlib.import_module(args.workload.replace("-", "_"))

    calib_before = calibrate()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib_after = calibrate()

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# {host_line()}")
    print(f"# host.calib_ms before {calib_before:.2f}, after {calib_after:.2f}")
    for line in outcome.report:
        print(f"# {line}")
    for problem in outcome.problems:
        print(f"# FAILED: {problem}")
    outcome.put("host.calib_ms", (calib_before + calib_after) / 2, "ms")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        if args.trace:
            # A per-layer metric of a layer this workload bypasses reads 0.
            value, unit = outcome.metrics.get(entry["name"], (0.0, entry["unit"]))
        else:
            value, unit = outcome.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} is not {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
        if args.trace:
            print(f"#   {entry['name']:<42} {value:14.6f} {unit}")
    correct = outcome.failed == 0 and not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
