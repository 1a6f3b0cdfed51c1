"""Compare two sets of benchmark results, refusing across machines.

Usage::

    python3 perfbench/compare.py --base a1.json a2.json ... \
        --head b1.json b2.json ...

Each file is one ``perfbench/run.py --out`` result.  Every file must
carry the same machine fingerprint (``nproc``, CPU model, Python, numpy
and repro version); otherwise the comparison is refused as unresolved
and the exit code is 3.  For each workload and end-to-end metric the
verdict is ``regression`` when the head median is worse than the base
median by more than the metric's bound in ``BENCHMARK.json``,
``unresolved`` when the base's own quartile spread exceeds the bound
(unless every head run beats every base run), and ``ok`` otherwise.
The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _spread(values: Sequence[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: Sequence[float], head: Sequence[float], bound: float,
            lower_is_better: bool) -> str:
    """``ok``, ``regression`` or ``unresolved`` for one metric."""
    sign = 1 if lower_is_better else -1
    base_median, head_median = statistics.median(base), statistics.median(head)
    if sign * (head_median - base_median) > bound * base_median:
        return "regression"
    if _spread(base) > bound and not all(
            sign * (h - b) < 0 for h in head for b in base):
        return "unresolved"
    return "ok"


def compare(base: List[dict], head: List[dict], spec: dict) -> int:
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True)
                    for r in base + head}
    if len(fingerprints) != 1:
        print("unresolved: the results come from different machines")
        for fingerprint in sorted(fingerprints):
            print(f"  {fingerprint}")
        return 3
    regressed = False
    for workload in sorted({r["workload"] for r in base + head}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [[r["metrics"][name]["value"] for r in runs
                       if r["workload"] == workload and not r["trace"]]
                      for runs in (base, head)]
            if not all(values):
                continue
            result = verdict(values[0], values[1], metric["bound"],
                             metric["better"] == "lower")
            regressed |= result == "regression"
            print(f"{workload:16} {name:14} base "
                  f"{statistics.median(values[0]):.6g} head "
                  f"{statistics.median(values[1]):.6g} "
                  f"(bound {metric['bound']:.0%}): {result}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--head", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)

    def load(paths: List[Path]) -> List[Dict]:
        return [json.loads(path.read_text()) for path in paths]

    return compare(load(args.base), load(args.head),
                   json.loads(SPEC.read_text()))


if __name__ == "__main__":
    sys.exit(main())
