#!/usr/bin/env python3
"""Builds and runs the CSD detector benchmark.

One run:
    python3 perfbench/run.py --workload csd-stream --seed 1 --seconds 30 --trace 0

Repeated runs (one seed each), with each metric's median and quartiles,
and with --traced the per-layer table and the tracing overhead:
    python3 perfbench/run.py repeat --workload csd-stream --runs 10 [--traced]

The program is compiled from the checkout's src/ into $CARGO_TARGET_DIR
(default .bench_build) on first use. The last line a run prints is its
JSON result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("csd-stream", "fleet-churn", "guarded-writes")
WEIGHTS = os.path.join(HERE, "deployed_weights.txt")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources at %s" % os.path.join(ROOT, "src"))
    out = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, **quiet)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, **quiet)
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs the binary once; returns (exit code, stdout lines)."""
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0", "--weights", WEIGHTS]
    if trace:
        command += ["--trace-out", os.path.join(build_dir(), "trace-%s.json" % workload)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def summarize(name, values, unit):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / q2 if q2 else float("nan")
    print("  %-34s median %14.6g  q1 %14.6g  q3 %14.6g  iqr/median %6.2f%%  %s"
          % (name, q2, q1, q3, 100 * spread, unit))
    print("  %-34s runs: %s" % ("", " ".join("%.4g" % v for v in values)))
    return q2


def repeat(argv):
    parser = argparse.ArgumentParser(prog="run.py repeat")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true",
                        help="also make traced runs: per-layer table and tracing overhead")
    args = parser.parse_args(argv)
    binary = build()

    def collect(trace):
        rows, traced_e2e, details = [], [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            code, lines = run_once(binary, args.workload, seed, args.seconds, trace, False)
            if code != 0 or not lines:
                sys.exit("run with seed %d failed (exit %d)" % (seed, code))
            result = json.loads(lines[-1])
            print("  seed %-4d correct %-5s attempted %-7d failed %d"
                  % (seed, result["correct"], result["attempted"], result["failed"]))
            rows.append(result)
            for line in lines:
                if line.startswith("traced-end-to-end "):
                    traced_e2e.append(json.loads(line.split(" ", 1)[1])["metrics"])
                elif line.startswith("detail "):
                    details.append(json.loads(line.split(" ", 1)[1])["metrics"])
        return rows, traced_e2e, details

    print("%s: %d untraced runs of %d s" % (args.workload, args.runs, args.seconds))
    untraced, _, details = collect(False)
    medians = {}
    for name in sorted(untraced[0]["metrics"]):
        unit = untraced[0]["metrics"][name]["unit"]
        medians[name] = summarize(name, [r["metrics"][name]["value"] for r in untraced], unit)
    shares = sorted({r["failed"] / r["attempted"] for r in untraced})
    print("  failed share per run: %s" % shares)
    print("detail (no bound):")
    for name in sorted(details[0]):
        summarize(name, [d[name]["value"] for d in details], details[0][name]["unit"])
    if not args.traced:
        return
    print("%s: %d traced runs" % (args.workload, args.runs))
    traced, traced_e2e, _ = collect(True)
    for name in sorted(traced[0]["metrics"]):
        unit = traced[0]["metrics"][name]["unit"]
        summarize(name, [r["metrics"][name]["value"] for r in traced], unit)
    print("tracing overhead (traced median vs untraced median):")
    for name in sorted(medians):
        value = statistics.median(m[name]["value"] for m in traced_e2e)
        print("  %-34s %+7.2f%%" % (name, 100 * (value - medians[name]) / medians[name]))


def main(argv):
    if argv and argv[0] == "repeat":
        return repeat(argv[1:])
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    binary = build()
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace == 1, True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
