#!/usr/bin/env python3
"""Benchmark front end: builds perfbench from source, runs one workload (or
all of them), checks correctness and prints results.

Run from the repository root:

  python3 perfbench/run.py --workload query_mix --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --all [--seed 1] [--seconds 10]
  python3 perfbench/run.py --self-test

Single-workload mode prints a human-readable summary, then, as the last line
of stdout, one JSON object with the keys correct, attempted, failed and
metrics: the end_to_end metrics of BENCHMARK.json with --trace 0, its
per_layer metrics with --trace 1. --all runs every workload untraced and then
traced, prints each workload's end-to-end metrics under their own names with
the attempted/ok/missed/failed counts and the tracing overhead, and writes a
summary file. --self-test checks that the count metrics repeat exactly
across two runs with one seed. Every mode exits non-zero on any correctness
failure.

Build tree, reports and span files live under .bench_build/ in the
repository root; session state directories are deleted after each run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
RESULTS_DIR = BUILD_ROOT / "results"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170

# Count metrics that must repeat exactly across two runs with one seed.
EXACT_COUNTS = ["core.scalar_ops", "core.sets_built", "mqo.trie_nodes",
                "persist.wal_bytes_per_batch", "storage.decode_ops"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=880)


def run_binary(workload, seed, seconds, trace):
    """One perfbench process; returns (exit code, report dict or None)."""
    work = BUILD_ROOT / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", str(RESULTS_DIR), "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode, None
    report = json.loads(lines[-1])
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(RESULTS_DIR / f"{tag}.json", "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return proc.returncode, report


def describe(report, trace):
    """Human-readable lines for one report."""
    out = [f"== {report['workload']}  seed {report['info'].get('seed')}  "
           f"{'traced' if trace else 'untraced'}",
           f"   attempted {report['attempted']}  ok {report['ok']}  "
           f"missed {report['missed']}  failed {report['failed']}"]
    for name, m in sorted(report["end_to_end"].items()):
        out.append(f"   {name:<28} {m['value']:>14.4f} {m['unit']}")
    if trace:
        for name, m in sorted(report["per_layer"].items()):
            out.append(f"   {name:<44} {m['value']:>16.6g} {m['unit']}")
        for name, m in sorted(report["layer_time"].items()):
            out.append(f"   span {name:<39} {m['value']:>16.3f} {m['unit']}")
        for name, why in sorted(report["dropped"].items()):
            out.append(f"   dropped {name}: {why}")
    for msg in report["failures"]:
        out.append(f"   FAILURE {msg}")
    info = report["info"]
    out.append("   fingerprint: " + ", ".join(
        f"{k}={info[k]}" for k in ("nproc", "isa_active", "isa_supported",
                                   "build_type", "compiler", "state_fs",
                                   "fsync")
        if k in info))
    return out


def single(args, spec):
    code, report = run_binary(args.workload, args.seed, args.seconds,
                              args.trace)
    if report is None:
        log(f"perfbench exited {code} without a report")
        return 1
    print("\n".join(describe(report, args.trace)))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = report["per_layer"] if args.trace else report["gated"]
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            log(f"report lacks metric {m['name']}")
            return 1
        metrics[m["name"]] = {"value": source[m["name"]]["value"],
                              "unit": m["unit"]}
    correct = code == 0 and report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec):
    summary = {}
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        plain_code, plain = run_binary(w, args.seed, args.seconds, False)
        traced_code, traced = run_binary(w, args.seed, args.seconds, True)
        if plain is None or traced is None:
            log(f"{w}: perfbench exited without a report")
            return 1
        ok = ok and plain_code == 0 and traced_code == 0
        print("\n".join(describe(plain, False)))
        print("\n".join(describe(traced, True)))
        overhead = {}
        for name, m in plain["end_to_end"].items():
            t = traced["end_to_end"].get(name)
            if t is not None and m["value"] != 0:
                overhead[name] = t["value"] / m["value"] - 1.0
                print(f"   tracing overhead {name:<24} {overhead[name]:+.1%}")
        summary[w] = {"untraced": plain, "traced": traced,
                      "tracing_overhead": overhead}
    path = RESULTS_DIR / f"summary-seed{args.seed}.json"
    with open(path, "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    print(f"summary written to {path.relative_to(ROOT)}")
    return 0 if ok else 1


def self_test(args, spec):
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        runs = [run_binary(w, args.seed, args.seconds, True) for _ in range(2)]
        for code, report in runs:
            if report is None or code != 0:
                log(f"{w}: run failed (exit {code})")
                return 1
        for name in EXACT_COUNTS:
            a, b = (r["per_layer"][name]["value"] for _, r in runs)
            same = a == b
            ok = ok and same
            print(f"{'PASS' if same else 'FAIL'} {w:<16} {name:<30} {a} {b}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 2 if args.self_test else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if not (args.all or args.self_test) and args.workload not in names:
        p.error(f"--workload must be one of {', '.join(names)}")
    build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    if args.all:
        return run_all(args, spec)
    if args.self_test:
        return self_test(args, spec)
    return single(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
