#!/usr/bin/env python3
"""Runner of topkmon's end-to-end benchmark (bench_e2e).

Builds bench_e2e from source on first use (into $CARGO_TARGET_DIR, else
.bench_build, under the repository root), runs its analysis self-test,
and refuses to report when that fails. Three modes:

  One run of one workload; the last line of output is the result JSON:
    python3 e2ebench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

  A set: every workload, --runs fresh runs each,
  summarised per metric as median [min, max] with sample counts:
    python3 e2ebench/run.py --seed 1 [--runs 3] [--trace] [--out set.json]

  Compare two saved sets, one row per workload and metric (verdicts for
  the end-to-end metrics, which carry bounds):
    python3 e2ebench/run.py --compare base.json change.json
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds bench_e2e; returns its path."""
    out = os.path.join(build_dir(), "e2ebench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("run.py: configuring bench_e2e failed")
    cmd = ["cmake", "--build", out, "--target", "bench_e2e", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("run.py: building bench_e2e failed")
    return os.path.join(out, "bench_e2e")


def self_test(binary):
    proc = subprocess.run([binary, "--self-test"], capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit("run.py: bench_e2e --self-test failed; not reporting")


def run_dir():
    path = os.path.join(build_dir(), "e2e-runs")
    os.makedirs(path, exist_ok=True)
    return path


def run_once(binary, workload, seed, seconds, trace, echo):
    """One bench_e2e run; returns (exit code, result dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", run_dir()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    if proc.returncode == 0 and lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    if echo:
        sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode, result


def check_metrics(spec, result, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        sys.exit("run.py: metrics differ from BENCHMARK.json (missing %s, extra %s)"
                 % (missing, extra))


def single(args, spec):
    binary = build()
    self_test(binary)
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace == 1, echo=True)
    if code or result is None:
        sys.exit(code or 1)
    check_metrics(spec, result, args.trace == 1)
    sys.stdout.write(json.dumps(result) + "\n")


def report_path(workload, seed, trace):
    return os.path.join(run_dir(), "%s-seed%d-trace%d.json" % (workload, seed, 1 if trace else 0))


def run_set(args, spec):
    binary = build()
    self_test(binary)
    names = [w["name"] for w in spec["workloads"]]
    summary = {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
               "trace": args.trace_set, "workloads": {}}
    for name in names:
        per_metric = {}
        for i in range(args.runs):
            code, result = run_once(binary, name, args.seed, args.seconds,
                                    args.trace_set, echo=False)
            if code or result is None:
                sys.exit("run.py: %s run %d failed (exit %d)" % (name, i + 1, code))
            check_metrics(spec, result, args.trace_set)
            with open(report_path(name, args.seed, args.trace_set)) as f:
                report = json.load(f)
            summary["box"] = report["box"]
            for metric, m in report["metrics"].items():
                entry = per_metric.setdefault(metric, {"unit": m["unit"], "values": [], "samples": []})
                entry["values"].append(m["value"])
                entry["samples"].append(m["samples"])
            print("%s run %d/%d done" % (name, i + 1, args.runs), file=sys.stderr)
        for entry in per_metric.values():
            entry["median"] = statistics.median(entry["values"])
            entry["min"] = min(entry["values"])
            entry["max"] = max(entry["values"])
        summary["workloads"][name] = per_metric
    # Every metric the runs reported, in BENCHMARK.json's order: an
    # untraced set also carries the report-only end-to-end latencies.
    listed = spec["end_to_end"] + spec["per_layer"]
    print("box: %s" % json.dumps(summary.get("box", {})))
    print("%-9s %-36s %14s %14s %14s %-10s %s" % (
        "workload", "metric", "median", "min", "max", "unit", "samples"))
    for name, per_metric in summary["workloads"].items():
        for m in listed:
            e = per_metric.get(m["name"])
            if e is None:
                continue
            print("%-9s %-36s %14.6g %14.6g %14.6g %-10s n=%s" % (
                name, m["name"], e["median"], e["min"], e["max"], e["unit"],
                "/".join("%.0f" % s for s in e["samples"])))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


def compare(args, spec):
    """One row per workload and metric held by both sets. End-to-end
    metrics get a verdict against their bound; per-layer ones are
    reported only."""
    with open(args.compare[0]) as f:
        base = json.load(f)
    with open(args.compare[1]) as f:
        change = json.load(f)
    print("%-9s %-32s %12s %12s %9s %9s %7s  %s" % (
        "workload", "metric", "base", "change", "delta", "spread", "bound", "verdict"))
    worst = 0
    for name in base["workloads"]:
        if name not in change["workloads"]:
            continue
        for m in spec["end_to_end"] + spec["per_layer"]:
            a = base["workloads"][name].get(m["name"])
            b = change["workloads"][name].get(m["name"])
            if a is None or b is None:
                continue
            delta = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            worse = delta if m["better"] == "lower" else -delta
            spread = max((e["max"] - e["min"]) / e["median"] if e["median"] else 0.0
                         for e in (a, b))
            bound = m.get("bound")
            if bound is None:
                verdict = "report only"
            elif spread > bound:
                verdict = "unresolved (spread wider than bound)"
            elif worse > bound:
                verdict = "REGRESSION"
                worst = 1
            elif -worse > bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print("%-9s %-32s %12.6g %12.6g %+8.1f%% %8.1f%% %7s  %s" % (
                name, m["name"], a["median"], b["median"], 100 * delta,
                100 * spread, "-" if bound is None else "%.0f%%" % (100 * bound),
                verdict))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=None,
                        help="0|1 for one run; bare --trace for a traced set")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", help="write the set summary here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        sys.exit(compare(args, spec))
    if args.workload:
        if args.trace is None:
            args.trace = 0
        single(args, spec)
        return
    args.trace_set = bool(args.trace)
    run_set(args, spec)


if __name__ == "__main__":
    main()
