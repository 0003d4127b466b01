#!/usr/bin/env python3
"""Layered campaign benchmark for the FERRUM reproduction.

Run from the root of a source tree:

    python3 perfbench/run.py --workload inject --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/layers.exe with dune, runs one workload in it and prints
its readable lines followed by one JSON result line (last line of
stdout).  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
with peak_rss_mb (the largest resident set of the benchmark process and
every process it forked) added here; --trace 1 runs the traced per-layer
sweep and reports the per-layer metrics.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("inject", "vulnmap", "toolchain", "serve")
EXE = os.path.join("_build", "default", "perfbench", "layers.exe")
CLI = os.path.join("_build", "default", "bin", "ferrum_cli.exe")
WORK = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 165


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(*targets):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of the source tree (no dune-project or lib/ here)")
    # No shared dune cache: the build reads and writes only this tree.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet"]
    cmd += ["./" + t for t in targets]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0:
        die("build failed")


def stop_group(pgid):
    """Kill whatever is left of the run's process group and wait for it."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_layers(args):
    """Run layers.exe; returns (exit code, stdout, peak RSS in MiB)."""
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(WORK, f"stdout-{os.getpid()}.txt")
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([EXE, *args, "--workdir", WORK], stdout=out,
                                start_new_session=True)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                stop_group(proc.pid)
                pid, status, usage = os.wait4(proc.pid, 0)
                status = None
                break
            time.sleep(0.05)
        proc.returncode = -1 if status is None else os.waitstatus_to_exitcode(status)
    stop_group(proc.pid)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    os.remove(out_path)
    if status is None:
        die(f"layers.exe {' '.join(args)} timed out after {RUN_TIMEOUT_S} s")
    # ru_maxrss of a reaped child covers its own reaped descendants too.
    return proc.returncode, text, usage.ru_maxrss / 1024.0


def declared():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(workload, seed, seconds, trace, quick=False):
    """One run: its readable lines and the result document."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        args.append("--quick")
    code, text, peak_mb = run_layers(args)
    lines = text.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(text)
        die(f"layers.exe {' '.join(args)} exited {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"last output line is not JSON: {lines[-1][:200]}")
    if trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MiB"}
        lines.insert(-1, f"{'peak_rss_mb':<34} {peak_mb:.6g} MiB")
    end_to_end, per_layer = declared()
    want = per_layer if trace else end_to_end
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        die(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
            f"or units differ")
    return lines[:-1], result


def self_test():
    """A tiny run of every workload: every declared metric present with its
    unit, every output check passing, simulated figures repeating exactly on
    the same seed, and a trace that `ferrum trace-export` accepts."""
    build(EXE, CLI)
    notes = {}
    for workload in WORKLOADS:
        for attempt in (1, 2):
            lines, result = measure(workload, 7, 1, 0, quick=True)
            if not result["correct"] or result["failed"]:
                die(f"self-test: {workload} failed its output checks")
            for line in lines:
                if line.startswith("# sdc_pct") or line.startswith("# overhead_pct"):
                    notes.setdefault((workload, line.split()[1]), set()).add(line)
        print(f"self-test: {workload} ok")
    for (workload, name), seen in notes.items():
        if len(seen) != 1:
            die(f"self-test: {workload} {name} differs between same-seed runs: {seen}")
    _, result = measure("inject", 7, 3, 1, quick=True)
    if not result["correct"] or result["failed"]:
        die("self-test: the traced run failed its output checks")
    trace = os.path.join(WORK, "trace-inject-7.jsonl")
    perfetto = os.path.join(WORK, "trace-inject-7.perfetto.json")
    done = subprocess.run([CLI, "trace-export", trace, "--perfetto", perfetto],
                          stdout=sys.stderr)
    if done.returncode != 0:
        die("self-test: ferrum trace-export rejected the benchmark trace")
    print("self-test: traced run ok, trace exports")
    print("self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if args.workload is None:
        die("--workload is required")
    build(EXE)
    lines, result = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
