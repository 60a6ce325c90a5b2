#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Builds bench_e2e from this checkout's sources into .bench_build/e2e
(configured once, then rebuilt incrementally), runs it from the
repository root and passes its output through.  The last stdout line is
the result object; before it is printed, its metric names and units are
checked against BENCHMARK.json: exactly the end_to_end metrics with
--trace 0, exactly the per_layer metrics with --trace 1.

Exits non-zero without printing a result when the checkout has no
library sources, the build fails or the result does not match
BENCHMARK.json.  Every child process is waited for, and killed with its
process group on timeout or interrupt.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def call(cmd, timeout, stdout):
    """Run cmd in its own process group; returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no library sources (CMakeLists.txt, src/) in {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            # Build output goes to stderr: stdout must end with the result.
            code, _ = call(cmd, BUILD_TIMEOUT_S, sys.stderr)
            if code != 0:
                sys.exit(f"run.py: {' '.join(cmd)} exited with {code}")
    return BUILD / "bench_e2e"


def check(line, trace):
    """Error message if the result line breaks the BENCHMARK.json contract."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not a JSON result"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        return f"metrics {got} do not match BENCHMARK.json {want}"
    return None


def main():
    # SIGTERM unwinds through call(), which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for result and trace files")
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--traced")
    if args.out:
        cmd += ["--out", args.out]
    code, out = call(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.rstrip("\n").split("\n")
    error = check(lines[-1], args.trace) if code == 0 else None
    if error:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit(f"run.py: {error}")
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
