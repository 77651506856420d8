#!/usr/bin/env python3
"""The gpx benchmark: one command per workload run.

    python3 perfbench/run.py --workload giab_batch --seed 1 --seconds 20 --trace 0

Run from the root of a gpx checkout. It builds perfbench/ (which builds
the gpx library from the checkout's sources) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, generates the workload from --seed,
measures it for --seconds and checks the outputs. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it is the full
report: host context, sample counts and percentiles, output digest and
any failed check. The exit code is 0 only when every check passed.

--tiny and --corrupt are test hooks (see test_perfbench.py).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("giab_batch", "err4_batch", "serve_clean")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(bdir):
    """Configure (once) and build gpx_perfbench; return its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no gpx source tree (CMakeLists.txt, src/) beside perfbench/")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "gpx_perfbench")


def binary_stamp(binary):
    st = os.stat(binary)
    return "%d:%d" % (st.st_size, st.st_mtime_ns)


def prepare(binary, bdir, args):
    """Generate the workload's files, or reuse them for the same seed."""
    name = args.workload + ("-tiny" if args.tiny else "")
    data = os.path.join(bdir, "data", name)
    key = {"seed": args.seed, "binary": binary_stamp(binary)}
    key_path = os.path.join(data, "key.json")
    try:
        with open(key_path) as f:
            if json.load(f) == key:
                return data
    except (OSError, ValueError):
        pass
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    cmd = [binary, "gen", "--workload", args.workload, "--seed",
           str(args.seed), "--dir", data] + (["--tiny"] if args.tiny else [])
    if subprocess.run(cmd, stdout=sys.stderr,
                      timeout=RUN_TIMEOUT_S).returncode != 0:
        fail("workload generation failed")
    with open(key_path, "w") as f:
        json.dump(key, f)
    return data


def check_digest(bdir, binary, args, report):
    """The output of one seed must be identical on every run."""
    path = os.path.join(bdir, "digests.json")
    stamp = binary_stamp(binary)
    try:
        with open(path) as f:
            store = json.load(f)
    except (OSError, ValueError):
        store = {}
    if store.get("binary") != stamp:
        store = {"binary": stamp, "digests": {}}
    key = "%s:%s:%s" % (args.workload, args.seed, int(args.tiny))
    seen = store["digests"].get(key)
    if seen is not None and seen != report["digest"]:
        report["failed"] += 1
        report["problems"].append(
            "output digest %s differs from an earlier run of this seed (%s)"
            % (report["digest"], seen))
    store["digests"][key] = report["digest"]
    with open(path, "w") as f:
        json.dump(store, f)


def check_names(args, report):
    """Every metric BENCHMARK.json names is printed, with its unit."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path) as f:
        spec = json.load(f)
    want = spec["per_layer" if args.trace else "end_to_end"]
    got = report["metrics"]
    expected = {m["name"]: m["unit"] for m in want}
    printed = {name: m["unit"] for name, m in got.items()}
    if expected != printed:
        report["failed"] += 1
        report["problems"].append(
            "metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(expected) - set(printed)),
               sorted(set(printed) - set(expected))))
    for name, m in got.items():
        if not isinstance(m["value"], (int, float)):
            report["failed"] += 1
            report["problems"].append("metric %s has no value" % name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="test hook: shrink the workload")
    ap.add_argument("--corrupt", choices=("sam", "reply"),
                    help="test hook: damage one output before checking")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    bdir = build_dir()
    binary = build(bdir)
    data = prepare(binary, bdir, args)
    # Start measuring with no writeback pending from generation or from
    # an earlier run's output.
    os.sync()
    cmd = [binary, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--dir", data, "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result (exit %d)" % proc.returncode, 1)
    report = json.loads(lines[-1])
    if proc.returncode != 0 and not report["problems"]:
        report["problems"].append("run exited %d" % proc.returncode)
    check_digest(bdir, binary, args, report)
    check_names(args, report)
    correct = not report["problems"] and report["failed"] == 0
    report["correct"] = correct
    for problem in report["problems"]:
        print("perfbench: check failed: " + problem, file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
