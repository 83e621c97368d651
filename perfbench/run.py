#!/usr/bin/env python3
"""Builds and runs the xorator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload qs-resident --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first form builds perfbench/build/xo_perfbench (Release) from the
repository's sources if needed, runs one workload and prints its metrics; the
last line of standard output is the JSON result. --smoke runs every workload
at toy scale, traced and untraced, and checks that a wrong expected answer
makes a run fail: it is the benchmark's own test.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
OUT = HERE / "out"
BINARY = BUILD / "xo_perfbench"
WORKLOADS = ["qs-resident", "qg-spill", "load-append", "wire-short"]
# A measured run must end within 180 s; the build is not counted.
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("the engine sources (src/) are not next to perfbench/; nothing to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "xo_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                die("build failed (log: perfbench/build/build.log)", 1)


def source_id():
    """The git commit when this is a git checkout, else a hash of the sources."""
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0 and got.stdout.strip():
            return got.stdout.strip()
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha1-" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in json.loads(spec.read_text())[key]}


def run_once(workload, seed, seconds, trace, extra=(), echo=True):
    """Runs the binary; returns (exit code, last line, its parsed JSON or None)."""
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(OUT), "--commit", source_id(), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=None if echo else subprocess.DEVNULL,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    last = lines[-1] if lines else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    return proc.returncode, last, result


def smoke():
    failures = []
    for workload in WORKLOADS:
        for trace in (False, True):
            code, _, result = run_once(workload, 1, 1, trace, ["--smoke"],
                                       echo=False)
            names = declared_metrics(trace)
            ok = (code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0
                  and (names is None or set(result["metrics"]) == names))
            print(f"smoke {workload} trace={int(trace)}: {'ok' if ok else 'FAILED'}")
            if not ok:
                failures.append(f"{workload} trace={int(trace)}")
        code, _, result = run_once(workload, 1, 1, False,
                                   ["--smoke", "--corrupt-fingerprint"],
                                   echo=False)
        caught = code != 0 and result is not None and not result["correct"]
        print(f"smoke {workload} wrong fingerprint caught: {'ok' if caught else 'FAILED'}")
        if not caught:
            failures.append(f"{workload} wrong fingerprint not caught")
    if failures:
        die("smoke test failed: " + ", ".join(failures), 1)
    print("perfbench smoke: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-scale run of every workload (the benchmark's test)")
    parser.add_argument("--corrupt-fingerprint", action="store_true",
                        help="perturb one expected answer; the run must fail")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.smoke:
        smoke()
        return
    extra = ["--corrupt-fingerprint"] if args.corrupt_fingerprint else []
    code, last, result = run_once(args.workload, args.seed, args.seconds,
                                  bool(args.trace), extra)
    if result is None:
        die(f"{args.workload} printed no result (exit code {code})", code or 1)
    names = declared_metrics(bool(args.trace))
    if names is not None and set(result["metrics"]) != names:
        die(f"{args.workload} reported {sorted(set(result['metrics']) ^ names)} "
            "out of line with BENCHMARK.json", 1)
    print(last)
    sys.exit(code)


if __name__ == "__main__":
    main()
