"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload broadcast_serial --seed 1 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics of a traced run, whose readable report goes to
standard error.  The program is imported from ``src/`` next to this
directory; without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("broadcast_serial", "beacon_sharded", "full_omission", "wire_beacon")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _report(name: str, result, trace: bool, units) -> None:
    """The readable report, on standard error."""
    kind = "per-layer (traced run)" if trace else "end-to-end"
    print(f"{name}: {kind} metrics, {result.attempted} operations attempted, "
          f"{result.failed} failed", file=sys.stderr)
    for metric, value in result.metrics.items():
        print(f"  {metric:<36} {value:>16.6g} {units[metric]}", file=sys.stderr)
    for metric, value in result.ungated.items():
        print(f"  {metric:<36} {value:>16.6g} {units[metric]} (not gated)",
              file=sys.stderr)
    for error in result.errors[:5]:
        print(f"  failed: {error}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    result = workloads.run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace),
    )
    _report(args.workload, result, bool(args.trace), workloads.UNITS)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": workloads.UNITS[name]}
            for name, value in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
