#!/usr/bin/env python3
"""Build and run the serving benchmark.

One run (the form the benchmark contract uses):

    python3 servebench/run.py --workload ingest_local --seed 1 --seconds 20 --trace 0

Steadiness mode: repeat one workload over seeds and print, for every
end-to-end metric in the run's table (gated or only printed), the median,
the quartiles and the spread ((q3 - q1) / median), with nproc and the git
revision:

    python3 servebench/run.py --steady mixed_uniform --repeat 10 --seconds 20

Run from the repository root. The program is built from source with cargo
into $CARGO_TARGET_DIR (default .bench_build). The last line of a run's
standard output is its JSON result.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Build the benchmark binary; return its path or exit non-zero."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    try:
        res = subprocess.run(
            ["cargo", "build", "--release", "--quiet", "--manifest-path", MANIFEST],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(1)
    if res.returncode != 0:
        print("build failed", file=sys.stderr)
        sys.exit(1)
    return os.path.abspath(os.path.join(target, "release", "servebench"))


def run_once(exe, workload, seed, seconds, trace, echo=True):
    """Run one workload in its own process group; return (code, stdout)."""
    cmd = [exe, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        # Timeout or interruption: stop the generator and every system
        # process it started (they share its process group), then clear
        # the run directory the generator could not remove.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(".bench_run", ignore_errors=True)
        print(f"run of {workload} (seed {seed}) did not finish", file=sys.stderr)
        return 1, ""
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out


# A row of a run's end-to-end table: name, value, unit, gated|printed, n=.
TABLE_ROW = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)\s+(gated|printed)\s+n=")


def steady(exe, workload, repeat, seconds):
    values = {}
    shares = []
    for i in range(repeat):
        seed = i + 1
        t = time.time()
        code, out = run_once(exe, workload, seed, seconds, 0, echo=False)
        lines = out.splitlines()
        if code != 0 or not lines:
            print(f"seed {seed}: run failed (exit {code})")
            sys.exit(1)
        res = json.loads(lines[-1])
        shares.append(f"{res['failed']}/{res['attempted']}")
        for line in lines:
            m = TABLE_ROW.match(line)
            if m:
                name, value, unit, gated = m.groups()
                values.setdefault(name, (unit, gated, []))[2].append(float(value))
        print(f"seed {seed}: {time.time() - t:.1f}s failed {res['failed']}/{res['attempted']}",
              flush=True)
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                             capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    print(f"workload {workload}, {repeat} runs of {seconds}s, nproc {os.cpu_count()}, rev {rev}")
    print(f"failed/attempted per run: {' '.join(shares)}")
    print(f"{'metric':<16} {'unit':<9} {'':<7} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, (unit, gated, vals) in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<16} {unit:<9} {gated:<7} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", metavar="WORKLOAD")
    ap.add_argument("--repeat", type=int, default=10)
    args = ap.parse_args()
    if not args.workload and not args.steady:
        ap.error("give --workload or --steady")
    exe = build()
    if args.steady:
        steady(exe, args.steady, args.repeat, args.seconds)
        return 0
    code, _ = run_once(exe, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
