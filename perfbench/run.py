#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload serve_hot|serve_push|paper_month \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is built from source with CMake
into .bench_build/ (or $CARGO_TARGET_DIR when set). The last line of
standard output is the run's JSON result; everything above it is the
human-readable report (host fingerprint, input make-up, phases, every
metric by name and unit). A traced run (--trace 1) prints the per-layer
metrics and, when untraced runs of the same workload exist in the build
directory, the tracing overhead on each end-to-end metric.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hot", "serve_push", "paper_month")
RUN_TIMEOUT_S = 170
E2E = ("setup_s", "train_s", "single_p50_us", "single_p99_us", "many_p50_us",
       "many_p99_us", "preds_per_s", "push_p50_us", "push_p99_us", "peak_rss_mb")
# Only setup_s, train_s and peak_rss_mb are bounded; the rest are printed
# (README "Metrics").


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, path))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are not next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                fail("cmake configure failed; see " + log_path)
        jobs = str(max(1, os.cpu_count() or 1))
        rc = subprocess.call(["cmake", "--build", out, "-j", jobs, "--target", target],
                             stdout=log, stderr=subprocess.STDOUT)
        if rc != 0:
            fail("build failed; see " + log_path)
    return os.path.join(out, target)


def source_id():
    """'<commit>/src-<hash>': the git commit when there is one, and always a
    hash of the sources that are built (the commit does not change while
    the tree is edited, and a plain checkout has none)."""
    commit = "nogit"
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            commit = sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "%s/src-%s" % (commit, digest.hexdigest()[:12])


def run_binary(binary, args):
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        # The load generator is in the same session; make sure nothing is left.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def printed_metrics(text):
    """Parses the report's '  name = value unit' lines."""
    found = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[1] == "=" and line.startswith("  "):
            try:
                found[parts[0]] = float(parts[2])
            except ValueError:
                pass
    return found


def tracing_overhead(results_path, traced):
    if not os.path.isfile(results_path):
        return ["tracing overhead: no untraced run of this workload and source in "
                "this build directory yet"]
    runs = []
    with open(results_path) as f:
        for line in f:
            try:
                runs.append(json.loads(line))
            except ValueError:
                pass
    lines = ["tracing overhead (traced run vs median of %d untraced runs):" % len(runs)]
    for name in E2E:
        values = [r[name] for r in runs if name in r]
        if not values or name not in traced:
            continue
        base = statistics.median(values)
        share = (traced[name] - base) / base * 100.0 if base else 0.0
        lines.append("  trace.overhead.%s = %.6g %% (traced %.6g, untraced %.6g)"
                     % (name, share, traced[name], base))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the test of the correctness checks")
    args = parser.parse_args()

    if args.self_test:
        binary = build("rcbench_checks_test")
        sys.exit(subprocess.call([binary]))
    if args.workload is None:
        fail("--workload is required")

    binary = build("rcbench")
    run_dir = os.path.join(build_dir(), "runs", "%s-seed%d-trace%d"
                           % (args.workload, args.seed, args.trace))
    os.makedirs(run_dir, exist_ok=True)
    sid = source_id()
    code, out = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--run-dir", run_dir, "--source-id", sid])
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("the run printed no result (exit code %d)" % code)
    body = "\n".join(lines[:-1])
    print(body)
    results_path = os.path.join(build_dir(), "results",
                                "%s-%s.jsonl" % (args.workload, sid.split("/")[-1]))
    if args.trace == 0 and code == 0 and result.get("correct"):
        os.makedirs(os.path.dirname(results_path), exist_ok=True)
        with open(results_path, "a") as f:
            f.write(json.dumps({k: v["value"] for k, v in result["metrics"].items()}) + "\n")
    elif args.trace == 1:
        for line in tracing_overhead(results_path, printed_metrics(body)):
            print(line)
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
