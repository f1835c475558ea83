#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-test

Run it from the root of a checkout. It builds benchmark/levbench.exe from
source with dune (build directory .bench_build, dune's shared cache off,
so nothing is written outside the checkout), runs it, adds peak_rss_mb to
the untraced metrics, and prints the result object as the last line of
standard output. Exits non-zero if the build fails, the run times out, or
any cell is wrong.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

WORKLOADS = ("spec-interp", "gen-build", "attack-campaign")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "benchmark", "levbench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("benchmark: " + msg, file=sys.stderr)
    sys.exit(code)


def run_child(argv, timeout, capture):
    """Run argv in its own process group, killing the group after
    [timeout] seconds. Returns (exit code, stdout bytes, peak RSS in KiB).
    The child is reaped with wait4, so its own peak RSS is known."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.Popen(argv, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        out = proc.stdout.read() if capture else b""
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        fail("%s timed out after %d s" % (argv[0], timeout), 3)
    return proc.returncode, out, usage.ru_maxrss


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run me from the root of a levee checkout "
             "(no dune-project or lib/ here)", 2)
    rc, _, _ = run_child(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--display", "quiet", "./benchmark/levbench.exe"],
        BUILD_TIMEOUT_S, capture=False)
    if rc != 0:
        fail("build failed", 3)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the program generator instead of measuring")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.self_test:
        rc, _, _ = run_child([EXE, "--self-test"], RUN_TIMEOUT_S, capture=False)
        sys.exit(rc)
    argv = [EXE, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        argv += ["--spans", os.path.join(spans_dir, args.workload + ".jsonl")]
    rc, out, rss_kib = run_child(argv, RUN_TIMEOUT_S, capture=True)
    lines = [l for l in out.decode(errors="replace").splitlines() if l.strip()]
    if not lines:
        fail("levbench printed no result (exit %d)" % rc, 1)
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": rss_kib * 1024 / 1e6,
                                            "unit": "MB"}
    print(json.dumps(result))
    sys.exit(rc)


if __name__ == "__main__":
    main()
