#!/usr/bin/env python3
"""Compares a fresh bench run against the committed baselines in
bench/results/ and fails on throughput regressions and changed byte
counts (run by the CI bench-smoke job after check_bench_json.py).

Matching: every fresh BENCH_<slug>.json is paired with a baseline of the
same slug AND the same "scale" field — baselines are searched recursively
under the baseline directory (bench/results/ keeps default-scale artifacts
at the top level and smoke-scale artifacts under smoke/), so a smoke CI
run is never compared against a paper-scale baseline. A fresh file with
no same-scale baseline is reported and skipped; it becomes a candidate
for committing as a new baseline.

Comparison: throughput-like metrics — names ending in "_per_s" — are
gated with a tolerance, because wall-clock seconds vary legitimately
with the host while a throughput collapse on identical config is the
regression signal this tool exists for. For each row label present in
both files, each shared *_per_s metric must not drop by more than
--max-drop (default 0.25, i.e. 25%) relative to the baseline. Rows or
metrics present on only one side are noted but do not fail: benches are
allowed to grow new rows.

Counts are gated at zero tolerance instead: metric names ending in
"_bytes_per_record" (bench_fig20_space's byte counts) are fixed by the
binary and the seed, so every fresh run must equal the baseline, and a
row or metric of the baseline that a fresh run lacks fails too. A change
that moves them re-records the baseline.

Throughput on shared CI hardware is noisy — a loaded runner can halve a
short smoke run's numbers without any code change — so both sides of the
gate are de-noised rather than the threshold widened:

  * --fresh may be given several times; per row and metric the BEST
    (max) fresh value is compared. CI runs each smoke bench a few times
    into separate directories, and only a regression that survives every
    attempt fails the gate.
  * committed baselines should be conservative: the per-metric MIN
    across repeated runs on the reference machine, so the gate measures
    "fresh best is >25% below the slowest blessed run" — catching
    collapses (a lock on a hot path, an accidental O(n^2)), not
    scheduler jitter.

Usage: compare_bench_json.py --baseline DIR --fresh DIR [--fresh DIR ...]
                             [--max-drop F]
Exits 1 on any gated regression, 2 on usage/IO errors, else 0.
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def index_baselines(root):
    """Maps (slug, scale) -> (path, doc) for every baseline under root."""
    baselines = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for base in sorted(filenames):
            if not (base.startswith("BENCH_") and base.endswith(".json")):
                continue
            path = os.path.join(dirpath, base)
            try:
                doc = load(path)
            except (OSError, json.JSONDecodeError) as err:
                print(f"COMPARE ERROR: {path}: unreadable baseline: {err}")
                return None
            key = (doc.get("name"), doc.get("scale"))
            if key in baselines:
                print(f"COMPARE ERROR: duplicate baseline for "
                      f"name={key[0]} scale={key[1]}: {path} and "
                      f"{baselines[key][0]}")
                return None
            baselines[key] = (path, doc)
    return baselines


def rows_by_label(doc):
    return {row["label"]: row.get("metrics", {}) for row in doc["rows"]}


def merge_best(docs):
    """Per row label and metric, the max value across repeated runs."""
    merged = {}
    for doc in docs:
        for label, metrics in rows_by_label(doc).items():
            best = merged.setdefault(label, {})
            for metric, value in metrics.items():
                if metric not in best or value > best[metric]:
                    best[metric] = value
    return merged


def compare(fresh_path, docs, base_path, base, max_drop, failures):
    """Returns the number of throughput metrics and of counts gated."""
    base_rows = rows_by_label(base)
    fresh_rows = merge_best(docs)
    runs = [rows_by_label(doc) for doc in docs]
    gated = counted = 0
    for label in sorted(base_rows):
        for metric, base_value in sorted(base_rows[label].items()):
            if not metric.endswith("_bytes_per_record"):
                continue
            counted += 1
            for run, rows in enumerate(runs):
                fresh_value = rows.get(label, {}).get(metric)
                if fresh_value != base_value:
                    failures.append(
                        f"{fresh_path} (run {run + 1}): row '{label}' "
                        f"metric '{metric}' is {fresh_value}, baseline "
                        f"{base_value} (a count: must be equal)")
        if label not in fresh_rows:
            print(f"  note: row '{label}' in baseline only "
                  f"({os.path.basename(base_path)})")
            continue
        for metric, base_value in sorted(base_rows[label].items()):
            if not metric.endswith("_per_s"):
                continue
            if metric not in fresh_rows[label]:
                print(f"  note: metric '{label}/{metric}' in baseline only")
                continue
            fresh_value = fresh_rows[label][metric]
            gated += 1
            if base_value <= 0:
                continue
            drop = 1.0 - fresh_value / base_value
            if drop > max_drop:
                failures.append(
                    f"{fresh_path}: row '{label}' metric '{metric}' "
                    f"dropped {drop:.1%} (baseline {base_value:.1f}, "
                    f"fresh {fresh_value:.1f}, allowed {max_drop:.0%})")
    return gated, counted


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--fresh", required=True, action="append",
                        help="directory of a just-produced BENCH_*.json set; "
                        "repeat for best-of-N de-noising")
    parser.add_argument("--max-drop", type=float, default=0.25,
                        help="maximum tolerated relative throughput drop")
    args = parser.parse_args(argv[1:])
    if not os.path.isdir(args.baseline) or not all(
            os.path.isdir(d) for d in args.fresh):
        print("compare_bench_json.py: --baseline and --fresh must be "
              "directories", file=sys.stderr)
        return 2

    baselines = index_baselines(args.baseline)
    if baselines is None:
        return 2
    fresh_files = sorted({
        f for d in args.fresh for f in os.listdir(d)
        if f.startswith("BENCH_") and f.endswith(".json")})
    if not fresh_files:
        print("compare_bench_json.py: no BENCH_*.json under "
              f"{', '.join(args.fresh)}", file=sys.stderr)
        return 2

    failures = []
    compared = 0
    gated = counted = 0
    for base_name in fresh_files:
        docs = []
        key = None
        for d in args.fresh:
            fresh_path = os.path.join(d, base_name)
            if not os.path.exists(fresh_path):
                continue
            try:
                fresh = load(fresh_path)
            except (OSError, json.JSONDecodeError) as err:
                print(f"COMPARE ERROR: {fresh_path}: {err}")
                return 2
            doc_key = (fresh.get("name"), fresh.get("scale"))
            if key is None:
                key = doc_key
            elif doc_key != key:
                print(f"COMPARE ERROR: {fresh_path}: name/scale {doc_key} "
                      f"disagrees with earlier run {key}")
                return 2
            docs.append(fresh)
        if key not in baselines:
            print(f"skip {base_name}: no scale={key[1]} baseline "
                  f"(candidate for committing)")
            continue
        base_path, base = baselines[key]
        print(f"compare {base_name} (scale={key[1]}, best of "
              f"{len(docs)} run(s)) vs {base_path}")
        file_gated, file_counted = compare(base_name, docs, base_path, base,
                                           args.max_drop, failures)
        gated += file_gated
        counted += file_counted
        compared += 1

    for failure in failures:
        print(f"BENCH REGRESSION: {failure}")
    if failures:
        print(f"{len(failures)} regression(s) in {compared} compared "
              f"file(s): throughput beyond {args.max_drop:.0%} or a changed "
              f"count")
        return 1
    print(f"bench compare OK: {compared} file(s), {gated} throughput "
          f"metric(s) within {args.max_drop:.0%} of baseline, {counted} "
          f"count(s) equal to it")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
