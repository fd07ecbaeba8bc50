#!/usr/bin/env python3
"""Builds and runs the Grade10 end-to-end benchmark (see README.md here).

    python3 bench/e2e/run.py --workload run-rmat18 --seed 1 --seconds 20 \\
        --trace 0

The first call configures and compiles the repository's sources together
with the harness into $CARGO_TARGET_DIR/e2e (default: .bench_build/e2e at
the repository root); later calls rebuild incrementally. The harness writes
its full record (provenance, every metric, failures) and, for traced runs,
its spans under .bench_out/e2e/. The last line of stdout is the result
object: correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("run-rmat18", "analyze-wide", "fleet-threads", "fleet-procs")
HARNESS_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no grade10 sources under " + ROOT + "; run from a checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2e")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", os.path.join("bench", "e2e")):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-" + digest.hexdigest()[:16]


def kill_session(sid):
    """SIGKILLs every process left in session `sid` and waits for them.

    The harness runs each operation in a process group of its own, and a
    supervised fleet starts more; all of them stay in the harness's
    session, so this reaches whatever a killed harness left behind.
    """
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        alive = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open("/proc/%s/stat" % entry) as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            # fields[0] is the state, fields[3] the session id.
            if int(fields[3]) == sid and fields[0] != "Z":
                alive.append(int(entry))
        if not alive:
            return
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is here."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = build()
    out_dir = os.path.join(ROOT, ".bench_out", "e2e", "%s-s%d-t%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    command = [os.path.join(build_dir, "g10_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir,
               "--ensemble-bin", os.path.join(build_dir, "g10_ensemble"),
               "--commit", source_id()]
    harness = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = harness.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_session(harness.pid)
        harness.communicate()
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    finally:
        kill_session(harness.pid)
    lines = stdout.rstrip("\n").split("\n")
    if harness.returncode != 0:
        sys.stderr.write(stdout)
        fail("harness exited with %d" % harness.returncode)

    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail("malformed result line")
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(result["metrics"]) ^ set(expected)))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
