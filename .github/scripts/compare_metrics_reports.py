#!/usr/bin/env python3
"""Compare two atm.metrics.v1 reports for semantic equality.

Used by the resume-smoke CI job: a run that was killed partway and then
resumed from its checkpoint must produce the same report as one that was
never interrupted. Wall-clock fields can never match between two runs, so
they are stripped before comparing:

  * top-level `jobs` and `wall_seconds`
  * every `timers` object inside a metrics snapshot (fleet and per-box)
  * the top-level `transport` section of atm.serve-metrics.v1 reports
    (connection/rejection counts and queue high-water marks depend on
    client scheduling; the serve-chaos job compares the `engine` section,
    which is deterministic by contract)

Everything else — counters (including robust.retry.*), gauges, the
predict.ape histogram, per-box errors, and box ordering — must be equal.

Usage: compare_metrics_reports.py baseline.json candidate.json
"""

import json
import sys


def strip_volatile(doc):
    if isinstance(doc, dict):
        return {
            key: strip_volatile(value)
            for key, value in doc.items()
            if key not in ("jobs", "wall_seconds", "timers", "transport")
        }
    if isinstance(doc, list):
        return [strip_volatile(item) for item in doc]
    return doc


def diff(path, a, b, out):
    if type(a) is not type(b):
        out.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
    elif isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                out.append(f"{path}.{key}: only in candidate")
            elif key not in b:
                out.append(f"{path}.{key}: only in baseline")
            else:
                diff(f"{path}.{key}", a[key], b[key], out)
    elif isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(f"{path}[{i}]", x, y, out)
    elif a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        baseline = strip_volatile(json.load(f))
    with open(sys.argv[2]) as f:
        candidate = strip_volatile(json.load(f))
    problems = []
    diff("$", baseline, candidate, problems)
    if problems:
        print(f"reports differ ({len(problems)} fields):")
        for p in problems[:50]:
            print(f"  {p}")
        sys.exit(1)
    print("reports are equivalent")


if __name__ == "__main__":
    main()
