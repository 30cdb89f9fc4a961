#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fork_join|task_tree|rpc_kv \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script configures and builds
perfbench/ (an optimised CMake build of the runtime sources plus the
benchmark program) into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench
when that is set), strips LWT_*/GLT_* runtime knobs from the environment,
runs the program once and prints its output. The last line of standard
output is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
whose metric names are checked against BENCHMARK.json. Exit code 0 only when
the build, the run and every result check succeeded.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
WORKLOADS = ("fork_join", "task_tree", "rpc_kv")
# Environment prefixes of the runtime's own knobs (LWT_JOIN, LWT_BIND,
# LWT_METRICS, GLT_BACKEND, ...): any of them would change what is measured.
STRIPPED_PREFIXES = ("LWT_", "GLT_")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def clean_env(env):
    """Copy of `env` without the runtime's knobs; also returns what went."""
    kept = {k: v for k, v in env.items() if not k.startswith(STRIPPED_PREFIXES)}
    return kept, sorted(set(env) - set(kept))


def build(env):
    """Configure and build perfbench; returns the build directory or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no runtime sources at %s/src: run from a full source checkout" % ROOT)
        return None
    out = build_dir()
    # Keep the compiler's scratch files inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(env, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [
        configure,
        ["cmake", "--build", out, "-j", jobs, "--target", "lwt_perfbench", "perfbench_selftest"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            log("build step failed: " + " ".join(cmd))
            return None
    return out


def source_id():
    """The git commit when ROOT is a git work tree, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            if proc.returncode == 0 and proc.stdout.strip():
                return proc.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    """Metric name -> unit the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_result(line, expected=None):
    """Parse and check one result line; raises ValueError when malformed."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or tuple(obj) != RESULT_KEYS:
        raise ValueError("result keys must be exactly %s" % (RESULT_KEYS,))
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            raise ValueError(key + " must be a whole number")
    if obj["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict):
        raise ValueError("metrics must be an object")
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise ValueError("metric %s must have exactly value and unit" % name)
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise ValueError("metric %s has a non-numeric value" % name)
    if expected is not None:
        if set(metrics) != set(expected):
            raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
                sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))))
        for name, unit in expected.items():
            if metrics[name]["unit"] != unit:
                raise ValueError("metric %s has unit %r, expected %r" % (
                    name, metrics[name]["unit"], unit))
    return obj


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be 1..60")

    env, stripped = clean_env(os.environ)
    if stripped:
        log("ignoring runtime knobs in the environment: " + ", ".join(stripped))
    out = build(env)
    if out is None:
        return 3
    expected = expected_metrics(args.trace)
    results = os.path.join(out, "results")
    cmd = [os.path.join(out, "lwt_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", results, "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=2 * args.seconds + 100)
    except subprocess.TimeoutExpired:
        log("the benchmark program timed out (killed)")
        return 4
    lines = proc.stdout.splitlines()
    if not lines:
        log("the benchmark program printed nothing (exit %d)" % proc.returncode)
        return 4
    try:
        result = parse_result(lines[-1], expected)
    except ValueError as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("bad result line: %s" % e)
        return 4
    print("\n".join(lines), flush=True)
    if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
        log("results did not check out (exit %d, %d of %d failed)" % (
            proc.returncode, result["failed"], result["attempted"]))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
