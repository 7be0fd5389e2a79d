"""Repeat one workload in fresh processes and print each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload full_omission --runs 10

Run ``i`` uses seed ``--first-seed + i``.  For every metric the table
gives the median, the quartiles (``statistics.quantiles(values, n=4)``),
the spread ``(q3 - q1) / median``, min and max, and, for end-to-end
metrics, the bound from ``BENCHMARK.json`` the spread must stay within.
Any workload ``run.py`` serves can be repeated, gated in
``BENCHMARK.json`` or not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_table(results: list, bounds: dict) -> list:
    """One row per metric: name, median, q1, q3, spread, min, max, bound."""
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        rows.append((name, median, q1, q3, spread, min(values), max(values),
                     bounds.get(name)))
    return rows


def main(argv=None) -> int:
    bench = _bench()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        results.append(run_once(args.workload, seed, args.seconds))
        r = results[-1]
        print(f"run {i + 1}/{args.runs} seed {seed}: correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']}", flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s, "
          f"seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':<36}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
          f"{'min':>12}{'max':>12}{'bound':>7}")
    for name, median, q1, q3, spread, low, high, bound in spread_table(
            results, bounds):
        mark = ""
        if bound is not None:
            mark = "  OVER" if spread > bound else (
                "  >1/3" if spread > bound / 3 else "")
        print(f"{name:<36}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}"
              f"{spread:>9.3f}{low:>12.6g}{high:>12.6g}"
              f"{'' if bound is None else f'{bound:>7.2f}'}{mark}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    ok = all(r["correct"] for r in results) and len(shares) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
