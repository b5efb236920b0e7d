#!/usr/bin/env python3
"""Self-test of the benchmark binary.

    python3 perfbench/tests/selftest.py --bin .bench_build/cmake/alr_perfbench

For every workload: two runs with the same seed give identical
modeled_cycles, input and output digests; a run with another seed
changes the generated inputs; and on pde_cold, two traced runs give the
same kernels.pcg_iterations and a well-formed span file.  Each run is a
one-job smoke run (--seconds 0).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("pde_cold", "kron_graph", "serve_restart")
SEED, OTHER_SEED = 3, 4


def run(binary, work, workload, seed, trace):
    work.mkdir(parents=True, exist_ok=True)
    result = work / f"{workload}-{seed}-{trace}.json"
    spans = work / f"{workload}-{seed}-spans.json"
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--work-dir", str(work),
           "--result", str(result), "--spans", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
    lines = dict(l.split(" ", 1) for l in proc.stdout.splitlines() if " " in l)
    doc = json.loads(result.read_text())
    return lines, doc, spans


def metric(doc, name):
    return doc["metrics"][name]["value"]


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    return cond


def check_spans(path):
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e.get("pid") == 100 and e["ph"] == "X"]
    ids = {e["args"]["id"] for e in spans}
    good = bool(spans)
    for e in spans:
        a = e["args"]
        good &= a["parent"] == -1 or a["parent"] in ids
        good &= a["self_us"] >= -1e-3 and e["dur"] >= 0
    return good


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True)
    ap.add_argument("--work-dir", default=".bench_build/selftest")
    args = ap.parse_args()
    work = Path(args.work_dir)

    ok = True
    for wl in WORKLOADS:
        a, da, _ = run(args.bin, work, wl, SEED, 0)
        b, db, _ = run(args.bin, work, wl, SEED, 0)
        c, _, _ = run(args.bin, work, wl, OTHER_SEED, 0)
        ok &= check(metric(da, "modeled_cycles") ==
                    metric(db, "modeled_cycles"),
                    f"{wl}: same seed, same modeled_cycles")
        ok &= check(a["output_digest"] == b["output_digest"],
                    f"{wl}: same seed, same output checksums")
        ok &= check(a["input_digest"] == b["input_digest"],
                    f"{wl}: same seed, same inputs")
        ok &= check(a["input_digest"] != c["input_digest"],
                    f"{wl}: another seed, other inputs")
        ok &= check(da["correct"] and da["failed"] == 0,
                    f"{wl}: every output check passed")

    _, ta, spans = run(args.bin, work, "pde_cold", SEED, 1)
    _, tb, _ = run(args.bin, work, "pde_cold", SEED, 1)
    ok &= check(metric(ta, "kernels.pcg_iterations") ==
                metric(tb, "kernels.pcg_iterations") > 0,
                "pde_cold: same seed, same kernels.pcg_iterations")
    ok &= check(check_spans(spans), "pde_cold: span file is well formed")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
