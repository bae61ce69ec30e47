#!/usr/bin/env python3
"""The repository benchmark: build, generate inputs, measure one workload.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

Run from the root of a checkout. The harness (perfbench/harness.cc) is built
from source into $CARGO_TARGET_DIR (default .bench_build) with CMake; the
flash_durable_64 trace is generated from --seed with tools/gen_trace.py
before anything is timed. The harness's own lines are relayed, then a
machine descriptor line, and the last line of stdout is the JSON result:

  {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer split.
A failed correctness gate exits non-zero without a result line.

--smoke builds, runs every workload at a tiny size in both modes, checks
every metric name and unit against BENCHMARK.json, and checks that each
correctness gate fires on a deliberately broken input.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bds_uniform_256", "fds_line_256", "flash_durable_64")
HARNESS_TIMEOUT_S = 170

# The flash-crowd trace: a half-rate baseline with a 6x spike through the
# middle tenth, Zipf(1.2) homes and accounts around shard 0.
FLASH_TRACE = {"shards": 64, "accounts": 64, "rounds": 8000, "rate": 0.75,
               "theta": 1.2}
FLASH_TRACE_TINY = dict(FLASH_TRACE, rounds=800)


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure (once) and build the harness; returns its path or None."""
    out = build_dir()
    commands = [["cmake", "--build", out, "-j", "4"]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.insert(0, configure)
    for command in commands:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(command))
            return None
    return os.path.join(out, "perfbench_harness")


def generate_trace(seed, spec, path):
    """Write the flash trace for `seed`; returns its meta line."""
    command = [sys.executable, os.path.join(ROOT, "tools", "gen_trace.py"),
               "--shape=flash", "--seed=%d" % seed, "--out=" + path]
    command += ["--%s=%s" % (key, value) for key, value in spec.items()]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    with open(path) as trace:
        trace.readline()
        return trace.readline().strip()


def machine_descriptor(build_info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    descriptor = {"nproc": os.cpu_count(), "cpu_model": cpu,
                  "machine": platform.machine(), "git_commit": commit}
    descriptor.update(build_info)
    return descriptor


def run_harness(harness, args):
    """Run the harness; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([harness] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness timed out")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def workload_inputs(name, seed, tiny):
    """Harness arguments for the workload's generated inputs, or None."""
    if name != "flash_durable_64":
        return []
    inputs = os.path.join(build_dir(), "inputs")
    os.makedirs(inputs, exist_ok=True)
    path = os.path.join(inputs, "flash-%d%s.trace" % (seed,
                                                      "-tiny" if tiny else ""))
    meta = generate_trace(seed, FLASH_TRACE_TINY if tiny else FLASH_TRACE,
                          path)
    if meta is None:
        log("trace generation failed")
        return None
    print("input: %s (%s)" % (os.path.relpath(path, ROOT), meta))
    return ["--trace-file=" + path]


def measure(args):
    harness = build()
    if harness is None:
        return 1
    inputs = workload_inputs(args.workload, args.seed, tiny=False)
    if inputs is None:
        return 1
    code, lines = run_harness(harness, [
        "--workload=" + args.workload, "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds, "--trace=%d" % args.trace] + inputs)
    if code != 0 or not lines:
        print("\n".join(lines))
        log("harness failed (exit %d)" % code)
        return code or 1
    build_info = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("build: "):
            build_info = json.loads(line[len("build: "):])
    print("machine: " + json.dumps(machine_descriptor(build_info)))
    print(lines[-1], flush=True)
    return 0


def smoke():
    """Tiny sizes: names and units against BENCHMARK.json; gates fire."""
    harness = build()
    if harness is None:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    failures = []

    code, lines = run_harness(harness, ["--gate-self-test"])
    print("\n".join(lines))
    if code != 0:
        failures.append("gate self-test")

    for name in WORKLOADS:
        inputs = workload_inputs(name, 7, tiny=True)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_harness(harness, [
                "--workload=" + name, "--seed=7", "--seconds=0",
                "--trace=%d" % trace, "--tiny"] + (inputs or []))
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if code != 0 or result is None:
                failures.append("%s trace=%d: no result" % (name, trace))
                continue
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append("%s: result keys %s" % (name, sorted(result)))
            if not result["correct"] or want != got:
                failures.append("%s trace=%d: metrics differ from %s: "
                                "missing %s, unexpected %s" % (
                                    name, trace, section,
                                    sorted(set(want.items()) - set(got.items())),
                                    sorted(set(got.items()) - set(want.items()))))
            print("smoke %-18s trace=%d: %d metrics, attempted=%d" % (
                name, trace, len(got), result["attempted"]))

    # End to end, a corrupted input must fail the run without a result.
    inputs = workload_inputs("flash_durable_64", 7, tiny=True)
    path = inputs[0].split("=", 1)[1]
    with open(path) as trace_file:
        text = trace_file.read()
    with open(path, "w") as trace_file:
        trace_file.write(text[:-3])
    code, lines = run_harness(harness, [
        "--workload=flash_durable_64", "--seed=7", "--seconds=0",
        "--trace=0", "--tiny"] + inputs)
    fired = code != 0 and not any(line.startswith("{") for line in lines)
    print("smoke corrupted trace: %s" % ("refused" if fired else "ACCEPTED"))
    if not fired:
        failures.append("corrupted trace accepted")

    for failure in failures:
        log("smoke failure: " + failure)
    print("smoke: %s" % ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
