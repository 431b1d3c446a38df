#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fleet_cbc_mlp --seed 1 --seconds 30 --trace 0

Run from the repository root. The script builds `atm` and the harness from
this checkout's sources (CMake, RelWithDebInfo, into $CARGO_TARGET_DIR or
.bench_build), generates the workload's synthetic trace from --seed into
.bench_work, runs the harness, checks its deterministic outputs against
perfbench/goldens.json, and prints one JSON object as the last line of
stdout. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones (and writes the spans to .bench_work). Any output mismatch exits 1
without a result. --record stores the run's deterministic outputs as the
goldens for its (workload, seed, SIMD path).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")


def load_spec():
    """BENCHMARK.json: the workload names and every metric with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds only what the benchmark runs."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no repository sources next to perfbench/ (src/ is missing)")
    # Compiler temporaries go to the build directory, not the system temp.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", "atm", "perfbench_harness"],
        check=True, stdout=sys.stderr, env=env)
    return (os.path.join(build_dir, "perfbench_harness"),
            os.path.join(build_dir, "tools", "atm"))


def golden_key(workload, seed, result):
    return "%s|%d|%s" % (workload, seed, result["provenance"]["simd"])


def check_goldens(key, checks, record):
    """Returns a note for the provenance line; raises on a mismatch."""
    goldens = {}
    if os.path.isfile(GOLDENS):
        with open(GOLDENS) as f:
            goldens = json.load(f)
    recorded = goldens.get(key)
    if record:
        merged = dict(recorded or {})
        merged.update(checks)
        goldens[key] = dict(sorted(merged.items()))
        with open(GOLDENS, "w") as f:
            json.dump(dict(sorted(goldens.items())), f, indent=1)
            f.write("\n")
        return "recorded"
    if recorded is None:
        return "no golden for this seed; passes checked against each other"
    wrong = sorted(k for k in checks if k in recorded and recorded[k] != checks[k])
    if wrong:
        raise RuntimeError("outputs differ from the goldens for %s: %s" % (
            key, ", ".join("%s=%s (golden %s)" % (k, checks[k], recorded[k]) for k in wrong)))
    return "matched %d of %d checks" % (sum(k in recorded for k in checks), len(checks))


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's deterministic outputs as goldens")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    harness, atm = build(build_dir)

    work = ".bench_work"
    os.makedirs(work, exist_ok=True)
    trace_path = os.path.join(work, "%s-%d.bin" % (args.workload, args.seed))
    subprocess.run([harness, "gen", "--workload", args.workload, "--seed", str(args.seed),
                    "--out", trace_path], check=True)
    # Own process group, so a daemon the harness started cannot outlive it.
    proc = subprocess.Popen(
        [harness, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--input", trace_path, "--atm", atm, "--work", work],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=2 * args.seconds + 60)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        os.remove(trace_path)
    if proc.returncode != 0:
        raise RuntimeError("harness failed with exit code %d" % proc.returncode)
    result = json.loads(stdout.strip().splitlines()[-1])

    note = check_goldens(golden_key(args.workload, args.seed, result), result["checks"],
                         args.record)
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    raw = dict(result["metrics"])
    raw["ok_pct"] = 100.0 * (attempted - failed) / attempted
    if args.trace:
        # A layer the workload does not exercise reports 0.
        table = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        raw = {name: raw.get(name, 0.0) for name, _ in table}
    else:
        table = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        missing = [name for name, _ in table if name not in raw]
        if missing:
            raise RuntimeError("harness did not report: " + ", ".join(missing))

    print(json.dumps({"provenance": result["provenance"], "info": result["info"],
                      "checks": result["checks"], "golden": note}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": raw[name], "unit": unit} for name, unit in table},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log("error: %s" % e)
        sys.exit(1)
