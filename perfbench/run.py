#!/usr/bin/env python3
"""End-to-end benchmark of the Adrias library.

Builds the benchmark binary (perfbench/, linked against the library
built from src/ with the repository's own CMake options) into
.bench_build/, runs one workload in a process of its own, checks its
outputs, prints a report and ends with one JSON line:

    python3 perfbench/run.py --workload orchestrate --seed 11 \
        --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics BENCHMARK.json lists; --trace 1
adds a traced phase and reports its per-layer metrics.  See
perfbench/README.md for the workloads, the metrics and how to read the
attribution table.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("train", "orchestrate", "serve", "rack")

# Seed used when none is given (README.md, "Seeds").
DEFAULT_SEED = 11

# Every end-to-end metric the report prints, in order; a workload
# prints those that apply to it and "-" for the rest.  BENCHMARK.json
# gates the subset that applies to every workload.
REPORTED = (
    "setup_s", "peak_rss_mb", "wall_s", "failed_pct", "r2_state", "r2_be",
    "sim_s_per_host_s", "decisions_per_s", "decision_p50_us",
    "decision_p99_us", "be_exec_p50_s", "be_exec_p95_s", "offload_pct",
)

# The workload process must finish within this many seconds (the build
# before it, which only the first run in a checkout does, is not counted).
DEADLINE_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not (ROOT / "src" / "core" / "adrias.hh").is_file():
        fail(f"no Adrias sources under {ROOT / 'src'}")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (BUILD / "CMakeCache.txt").is_file():
        if subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                           "-DCMAKE_BUILD_TYPE=Release"], **quiet).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      **quiet).returncode:
        fail("build failed")
    return BUILD / "perfbench"


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")


def run_workload(binary, args):
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        command.append("--trace")
    if args.tiny:
        command.append("--tiny")
    # The library runs at its defaults: pool sized to the host, scalar
    # kernel tier, whatever the caller's environment says.
    env = {key: value for key, value in os.environ.items()
           if key not in ("ADRIAS_THREADS", "ADRIAS_KERNEL_TIER")}
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing")
    return json.loads(lines[-1])


def fmt(value):
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return f"{value:.4g}"


def table(title, rows):
    print(title)
    for row in rows:
        print("  " + "  ".join(f"{cell:<30}" if i == 0 else f"{cell:>14}"
                               for i, cell in enumerate(row)).rstrip())


def verify(result, spec, traced):
    """Every failed check, as text (empty when the run is correct)."""
    problems = [f"check failed: {name}"
                for name, ok in result["checks"].items() if not ok]
    if not result["checks"]:
        problems.append("the workload ran no correctness check")
    metrics = result["e2e"]
    for metric in spec["end_to_end"]:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{metric['name']} in {got['unit']}, "
                            f"expected {metric['unit']}")
        elif not got["value"] > 0:
            problems.append(f"{metric['name']} is {got['value']}")
    if traced:
        for metric in spec["per_layer"]:
            got = result["layers"].get(metric["name"])
            if got is not None and got["unit"] != metric["unit"]:
                problems.append(f"{metric['name']} in {got['unit']}, "
                                f"expected {metric['unit']}")
        rows = sum(seconds for _, seconds in result["attribution"])
        wall = result["attribution_wall_s"]
        if abs(rows - wall) > 1e-6 * max(wall, 1.0):
            problems.append(f"attribution rows sum to {rows}, wall {wall}")
        if result["layers"]["trace.dropped_spans"]["value"]:
            problems.append("spans dropped")
    return problems


def report(result, args):
    mode = "traced" if args.trace else "untraced"
    print(f"== perfbench {args.workload}: seed {args.seed}, "
          f"{args.seconds:g} s measured, {mode} ==")
    e2e, samples = result["e2e"], result["samples"]
    rows = []
    for name in REPORTED:
        metric = e2e.get(name)
        if metric is None:
            rows.append((name, "-", "", ""))
            continue
        count = samples.get(name)
        rows.append((name, fmt(metric["value"]), metric["unit"],
                     f"n={fmt(count['value'])} {count['unit']}"
                     if count else ""))
    threaded = result["threaded"]
    table("end-to-end (untraced phase%s)"
          % (", serial pool" if threaded else ""), rows)
    if threaded:
        table(f"end-to-end at default threads ({result['threads']} pool "
              "threads, not gated)",
              [(name, fmt(m["value"]), m["unit"])
               for name, m in threaded.items()])
    table("samples", [(name, fmt(m["value"]), m["unit"])
                      for name, m in samples.items()])
    table("traffic", [(name, fmt(m["value"]), m["unit"])
                      for name, m in result["traffic"].items()])
    table("checks", [(name, "ok" if ok else "FAILED")
                     for name, ok in result["checks"].items()])
    print(f"operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    if not args.trace:
        return
    wall = result["attribution_wall_s"]
    rows = [(name, fmt(seconds), f"{100 * seconds / wall:.1f}%")
            for name, seconds in result["attribution"]]
    rows.append(("sum of rows", fmt(sum(s for _, s in
                                        result["attribution"])), ""))
    rows.append(("traced wall clock", fmt(wall), "100.0%"))
    table("attribution: self time on the benchmark thread (s)", rows)
    table("per-layer (traced phase)",
          [(name, fmt(m["value"]), m["unit"])
           for name, m in result["layers"].items()])
    table("tracing overhead (traced minus untraced)",
          [(name, fmt(m["value"]), m["unit"])
           for name, m in result["overhead"].items()])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (see smoke_test.py)")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    result = run_workload(binary, args)
    problems = verify(result, spec, args.trace)

    report(result, args)
    for problem in problems:
        print(f"INCORRECT: {problem}")
    if args.trace:
        # A layer this workload does not exercise did no work: 0.
        chosen = {m["name"]: result["layers"].get(
                      m["name"], {"value": 0.0, "unit": m["unit"]})
                  for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: result["e2e"][m["name"]]
                  for m in spec["end_to_end"] if m["name"] in result["e2e"]}
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in chosen.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
