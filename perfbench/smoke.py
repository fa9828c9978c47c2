#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny-size run of every workload.

Run from the root of the repository:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs the tiny job set twice
untraced (seeds 1 and 2) and once traced, prints every metric by name
with its unit, and checks that

- every run exits 0, is correct and reports no failed operation;
- every end-to-end metric (untraced) and every per-layer metric (traced)
  prints by name with its unit;
- the exact counts (dyn_ckpts, sim_cycles, sim_cycles_intermittent,
  text_bytes, and campaign_boundary_pct in the traced run) are equal
  across two runs;
- the wario instruction counts of the emulate workload equal those of the
  cold-compile workload and, where BENCH_7.json records the program, the
  counts recorded there.

Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

EXACT = ["dyn_ckpts", "sim_cycles", "sim_cycles_intermittent", "text_bytes"]
WORK = os.path.join("perfbench", "_work")


def fail(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def run(workload, seed, trace):
    cmd = ["python3", os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), out.returncode,
                                     out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] != 0 \
            or result["attempted"] < 1:
        fail("%s seed %d trace %d: correct=%s attempted=%d failed=%d" % (
            workload, seed, trace, result["correct"], result["attempted"],
            result["failed"]))
    path = os.path.join(WORK, "result-%s-seed%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path) as f:
        details = json.load(f)
    return result["metrics"], details


def show(workload, trace, metrics):
    print("%s trace %d: %s" % (workload, trace, ", ".join(
        "%s=%.6g %s" % (name, m["value"], m["unit"])
        for name, m in metrics.items())))


def check_names(workload, metrics, specs):
    names = [s["name"] for s in specs]
    if sorted(metrics) != sorted(names):
        fail("%s: metrics differ from BENCHMARK.json: %s" % (
            workload, sorted(set(metrics) ^ set(names))))
    for s in specs:
        if metrics[s["name"]]["unit"] != s["unit"]:
            fail("%s: %s has unit %s, expected %s" % (
                workload, s["name"], metrics[s["name"]]["unit"], s["unit"]))


def wario_instrs(details):
    return {(r["program"], r["instrs"], r["instrs_intermittent"])
            for r in details["rows"] if r["env"] == "wario"}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    rows = {}
    for w in [w["name"] for w in bench["workloads"]]:
        first, details = run(w, 1, 0)
        second, _ = run(w, 2, 0)
        show(w, 0, first)
        check_names(w, first, bench["end_to_end"])
        check_names(w, second, bench["end_to_end"])
        for name in EXACT:
            if first[name]["value"] != second[name]["value"]:
                fail("%s: %s differs across runs: %s vs %s" % (
                    w, name, first[name]["value"], second[name]["value"]))
        traced, _ = run(w, 1, 1)
        show(w, 1, traced)
        check_names(w, traced, bench["per_layer"])
        if w == "campaign":
            again, _ = run(w, 1, 1)
            a = traced["campaign_boundary_pct"]["value"]
            b = again["campaign_boundary_pct"]["value"]
            if a != b or a < 95:
                fail("campaign_boundary_pct %s then %s" % (a, b))
        rows[w] = details
        print("smoke: %s ok" % w)
    emu = wario_instrs(rows["emulate"])
    cold = wario_instrs(rows["cold-compile"])
    shared = {p for p, _, _ in emu} & {p for p, _, _ in cold}
    if not shared or {r for r in emu if r[0] in shared} \
            != {r for r in cold if r[0] in shared}:
        fail("wario instruction counts differ: emulate %s, cold-compile %s"
             % (sorted(emu), sorted(cold)))
    if os.path.isfile("BENCH_7.json"):
        with open("BENCH_7.json") as f:
            recorded = {p["name"]: (p["continuous"]["instrs"],
                                    p["intermittent"]["instrs"])
                        for p in json.load(f)["programs"]}
        for prog, cont, inter in sorted(emu):
            if prog in recorded and recorded[prog] != (cont, inter):
                fail("%s wario instrs %s, BENCH_7.json records %s"
                     % (prog, (cont, inter), recorded[prog]))
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
