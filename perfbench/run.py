#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload bulk-sz3qp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
perfbench package (perfbench/CMakeLists.txt, which builds the library
from ../src) in $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset; later calls only rebuild what changed. Build output
goes to stderr. On stdout the program prints a detail line (run
environment, and every measured metric with its sample count and notes)
and, last, the result line with the metrics BENCHMARK.json names. The
exit code is non-zero, and no result is printed, when the build or the
run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    exe = os.path.join(build_dir, "perfbench")
    return exe if os.path.exists(exe) else None


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def main(argv):
    root = os.getcwd()
    manifest_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(manifest_path):
        return fail(2, "run from the repository root (no BENCHMARK.json here)")
    with open(manifest_path) as f:
        manifest = json.load(f)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    exe = build(build_dir)
    if exe is None:
        return fail(3, "build failed")
    env = dict(os.environ)
    # The synthetic-data generator uses OpenMP during set-up; its idle
    # threads must sleep, not spin, while the host probe runs.
    env.setdefault("OMP_WAIT_POLICY", "PASSIVE")
    try:
        proc = subprocess.run([exe] + argv, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return fail(4, "run exceeded %d s" % RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        return fail(proc.returncode or 5, "run failed with code %d" % proc.returncode)
    if "--self-test" in argv:
        print(lines[-1])
        return 0

    out = json.loads(lines[-1])
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] != "0"
    wanted = manifest["per_layer" if traced else "end_to_end"]
    measured = {m["name"]: m for m in out["metrics"]}
    for w in wanted:
        m = measured.get(w["name"])
        if m is None or m["unit"] != w["unit"]:
            return fail(7, "%s: metric %s missing or in another unit" % (argv, w["name"]))
    names = [w["name"] for w in wanted]
    detail = dict(out["detail"])
    detail["metrics"] = [measured[n] for n in names]
    detail["detail_only"] = [m for m in out["metrics"] if m["name"] not in names]
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": measured[n]["value"], "unit": measured[n]["unit"]} for n in names},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
