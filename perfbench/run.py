"""The repository's benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-serial --seed 1 \
        --seconds 20 --trace 0 [--out result.json]

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes a separate traced pass and reports the per-layer
metrics instead (see ``BENCHMARK.json`` and ``perfbench/interactions.json``
for what each should move).  Every run also applies the correctness
gate: health grade, records digest, and on serve the bodies and
statuses.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the machine fingerprint and run details.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metric units (the names are BENCHMARK.json's).
END_TO_END = {"setup_s": "s", "run_wall_s": "s", "peak_rss_mb": "MB",
              "step_p50_ms": "ms"}


def machine_fingerprint() -> dict:
    """What a result must share with another before the two compare."""
    import numpy
    from repro.version import __version__

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "repro": __version__}


def main(argv=None) -> int:
    from refclock import REFERENCE_MS
    from spans import PER_LAYER
    from workloads import WORKLOADS, Context

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the full result (fingerprint, "
                             "details) to this JSON file")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: repro imported from {repro.__file__}, "
              f"not {src}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    ctx = Context(root=ROOT, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace),
                  work=Path(tempfile.mkdtemp(dir=work_root)))
    try:
        values = WORKLOADS[args.workload](ctx)
    except Exception as exc:  # a crashed workload is a failed run
        ctx.attempt(args.workload, False, f"{type(exc).__name__}: {exc}")
        values = None
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    failed = len(ctx.problems)
    attempted = max(ctx.attempted, 1)
    units = PER_LAYER if ctx.trace else END_TO_END
    metrics = {}
    if values is not None:
        if ctx.trace:
            values["failed_frac"] = failed / attempted
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    for problem in ctx.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    record = {"correct": failed == 0 and values is not None,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    probes = ctx.clock.probes
    ctx.detail.update(
        reference_ms=REFERENCE_MS, raw_calls_s=ctx.clock.raw,
        probe_ms={"n": len(probes), "min": min(probes, default=0.0),
                  "median": statistics.median(probes) if probes else 0.0,
                  "max": max(probes, default=0.0)})
    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "fingerprint": machine_fingerprint(), "detail": ctx.detail}
    if args.out is not None:
        args.out.write_text(json.dumps({**context, **record}, indent=1))
    print(json.dumps(context))
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
