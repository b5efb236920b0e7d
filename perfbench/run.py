#!/usr/bin/env python3
"""Build the simulator benchmark and run one workload.

    python3 perfbench/run.py --workload pde_cold --seed 1 --seconds 32 --trace 0

Run from the repository root.  The first call configures and builds
perfbench/ (and the simulator sources it links) in .bench_build/; later
calls rebuild incrementally.  The workload runs under a watchdog: a run
that does not finish in WATCHDOG_S seconds is killed and reported as a
failed run, without a result line.

The last line of standard output is the result: one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list.  The exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WATCHDOG_S = 165
WORKLOADS = ("pde_cold", "kron_graph", "serve_restart")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT}/src")
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    cmake_dir = BUILD / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs,
                  "--target", "alr_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return cmake_dir / "alr_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(binary, args):
    work = BUILD / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / f"result-{args.seed}-{args.trace}.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work),
           "--result", str(result_path)]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-{args.seed}.json")]

    # Own process group, so the watchdog can stop everything it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WATCHDOG_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"watchdog: {args.workload} seed {args.seed} ran past "
             f"{WATCHDOG_S} s; counted as a failed run", code=3)
    sys.stdout.write(out)
    sys.stdout.flush()
    if not result_path.is_file():
        fail(f"{args.workload} exited with code {proc.returncode} and no "
             "result", code=proc.returncode or 1)
    return proc.returncode, json.loads(result_path.read_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    code, result = run(binary, args)
    names = expected_metrics(args.trace)
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(names):
        fail(f"metric set mismatch: missing {sorted(set(names) - set(got))},"
             f" unexpected {sorted(set(got) - set(names))}")
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(code)


if __name__ == "__main__":
    main()
