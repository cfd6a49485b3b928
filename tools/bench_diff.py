#!/usr/bin/env python3
"""Compare a benchmark JSON run against a committed baseline.

Two input schemas are understood, detected per file:

- google-benchmark JSON (the micro benches): a throughput
  (items_per_second) drop of more than --max-regression at any of the
  checked --threads counts fails with exit code 1.  Only those thread
  counts are gated (high-thread points on an oversubscribed CI box are too
  noisy); every benchmark present in both files is still printed.

- the scenario matrix ("schema": "gengc-scenario-matrix", written by
  bench/scenario_matrix --json): every cell is gated — a
  requests_per_second drop beyond --max-regression or a p99_usec growth
  beyond --max-p99-growth (a factor, not a fraction) fails, as does a
  missing cell.  The headline SLO ordering is also asserted on the current
  run: the generational collector's churn/base p99 must stay below the
  stop-the-world collector's.

Stdlib only — no pip installs.

`bench_diff.py --list` takes no JSON arguments: it scans bench/baselines/
and prints each committed baseline with its benchmarks and the CMake check
target that gates it (the bench-gate CTest label runs all of them).
"""

import argparse
import json
import os
import re
import sys


def load_throughputs(path):
    """benchmark name -> items_per_second for every real-time benchmark.

    When the run used --benchmark_repetitions, the median aggregate is
    preferred over the raw per-repetition samples (keyed by run_name so it
    diffs cleanly against a single-run baseline and vice versa)."""
    with open(path) as f:
        data = json.load(f)
    raw, medians = {}, {}
    for bench in data.get("benchmarks", []):
        ips = bench.get("items_per_second")
        if not ips:
            continue
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[bench["run_name"]] = float(ips)
        else:
            raw[bench.get("run_name", bench["name"])] = float(ips)
    raw.update(medians)
    return raw


def thread_count(name):
    m = re.search(r"/threads:(\d+)$", name)
    return int(m.group(1)) if m else 1


def load_json(path):
    with open(path) as f:
        return json.load(f)


def is_scenario_matrix(data):
    return data.get("schema") == "gengc-scenario-matrix"


def load_scenario_cells(data):
    """cell key "scenario/collector/config" -> cell dict."""
    cells = {}
    for cell in data.get("cells", []):
        key = "/".join((cell["scenario"], cell["collector"], cell["config"]))
        cells[key] = cell
    return cells


def diff_scenario_matrix(base_data, cur_data, args):
    """Gate the scenario matrix: throughput drops, p99 growth, the churn
    SLO ordering.  Returns the exit status."""
    base = load_scenario_cells(base_data)
    cur = load_scenario_cells(cur_data)
    if not base:
        print("bench_diff: no cells in the baseline matrix")
        return 1

    failures = []
    print(f"{'cell':28} {'rps base':>10} {'rps cur':>10} {'rps d':>8} "
          f"{'p99 base':>10} {'p99 cur':>10} {'p99 x':>7}")
    for key in sorted(base):
        if key not in cur:
            failures.append((key, "missing from current run"))
            print(f"{key:28} missing from current run  REGRESSION")
            continue
        b, c = base[key], cur[key]
        rps_b, rps_c = b["requests_per_second"], c["requests_per_second"]
        p99_b, p99_c = b["p99_usec"], c["p99_usec"]
        rps_delta = (rps_c - rps_b) / rps_b if rps_b else 0.0
        # Guard the division: an idle cell can legitimately record a tiny
        # p99; only gate growth against a >=1us baseline.
        p99_factor = p99_c / max(p99_b, 1.0)
        # A single OS preemption on a small shared box adds milliseconds to
        # the p99 of a cell whose baseline tail is a few hundred us, so the
        # growth factor alone is all noise there.  A cell fails only when
        # its p99 exceeds BOTH the growth bound and the absolute floor —
        # the gate catches order-of-magnitude tail regressions, not
        # scheduler jitter.
        p99_limit = max(p99_b * args.max_p99_growth, args.p99_floor_usec)
        marker = ""
        if rps_delta < -args.max_regression:
            failures.append((key, f"throughput {rps_delta:+.1%}"))
            marker = "  REGRESSION(rps)"
        if p99_c > p99_limit:
            failures.append((key, f"p99 grew {p99_factor:.1f}x to "
                                  f"{p99_c:.0f}us (limit {p99_limit:.0f}us)"))
            marker += "  REGRESSION(p99)"
        print(f"{key:28} {rps_b:10.0f} {rps_c:10.0f} {rps_delta:+7.1%} "
              f"{p99_b:10.1f} {p99_c:10.1f} {p99_factor:6.2f}x{marker}")

    # The matrix's reason to exist: the on-the-fly generational collector
    # must keep the churn-scenario tail below the stop-the-world one.
    gen = cur.get("churn/gen/base")
    stw = cur.get("churn/stw/base")
    if gen and stw and gen["p99_usec"] >= stw["p99_usec"]:
        failures.append(("churn/gen/base",
                         f"SLO ordering lost: gen p99 {gen['p99_usec']:.1f}us"
                         f" >= stw p99 {stw['p99_usec']:.1f}us"))

    if failures:
        print(f"\nbench_diff: FAIL — {len(failures)} scenario cell(s) "
              f"regressed (rps drop > {args.max_regression:.0%}, or p99 "
              f"beyond {args.max_p99_growth:.1f}x baseline and "
              f"{args.p99_floor_usec:.0f}us):")
        for key, why in failures:
            print(f"  {key}: {why}")
        return 1
    print(f"\nbench_diff: OK — no cell lost more than "
          f"{args.max_regression:.0%} throughput or blew the p99 bound "
          f"({args.max_p99_growth:.1f}x and {args.p99_floor_usec:.0f}us), "
          f"and gen holds the churn SLO ordering")
    return 0


# Committed baseline file -> the CMake target that re-runs and gates it.
# Baselines without an entry are listed with a warning instead of silently
# skipped, so a new baseline missing its gate is visible.
CHECK_TARGETS = {
    "BENCH_alloc_scale.json": "bench_alloc_scale_check",
    "BENCH_trace_scale.json": "bench_trace_check",
    "BENCH_scenario_matrix.json": "bench_scenario_check",
}


def list_baselines(baselines_dir):
    """Print every committed baseline, its benchmarks and its check target."""
    if not os.path.isdir(baselines_dir):
        print(f"bench_diff: no baselines directory at {baselines_dir}")
        return 1
    names = sorted(n for n in os.listdir(baselines_dir) if n.endswith(".json"))
    if not names:
        print(f"bench_diff: no baselines in {baselines_dir}")
        return 1
    status = 0
    for name in names:
        target = CHECK_TARGETS.get(name)
        if target is None:
            target = "NO CHECK TARGET (add one to CHECK_TARGETS and CMake)"
            status = 1
        print(f"{name}  ->  {target}")
        data = load_json(os.path.join(baselines_dir, name))
        if is_scenario_matrix(data):
            for key in sorted(load_scenario_cells(data)):
                print(f"    {key}")
        else:
            for bench in sorted(load_throughputs(os.path.join(baselines_dir,
                                                              name))):
                print(f"    {bench}")
    print("\nrun all gates: ctest -C bench -L bench-gate (or the individual "
          "CMake targets above)")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", help="committed baseline JSON")
    parser.add_argument("current", nargs="?", help="freshly produced JSON")
    parser.add_argument(
        "--list",
        action="store_true",
        help="list committed baselines and their check targets, then exit",
    )
    parser.add_argument(
        "--baselines-dir",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "bench", "baselines"),
        help="baselines directory for --list (default: ../bench/baselines)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.15,
        help="maximum fractional throughput drop before failing (default 0.15)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        nargs="+",
        default=[1, 8],
        help="thread counts whose regressions are gating (default: 1 8)",
    )
    parser.add_argument(
        "--max-p99-growth",
        type=float,
        default=4.0,
        help="scenario matrix only: maximum p99 growth factor per cell "
             "before failing (default 4.0)",
    )
    parser.add_argument(
        "--p99-floor-usec",
        type=float,
        default=10000.0,
        help="scenario matrix only: a cell's p99 must also exceed this "
             "absolute value (us) to fail the growth gate (default 10000)",
    )
    args = parser.parse_args()

    if args.list:
        return list_baselines(os.path.normpath(args.baselines_dir))
    if args.baseline is None or args.current is None:
        parser.error("baseline and current JSON files are required "
                     "(or use --list)")

    base_data = load_json(args.baseline)
    cur_data = load_json(args.current)
    if is_scenario_matrix(base_data) != is_scenario_matrix(cur_data):
        print("bench_diff: baseline and current use different schemas")
        return 1
    if is_scenario_matrix(base_data):
        return diff_scenario_matrix(base_data, cur_data, args)

    base = load_throughputs(args.baseline)
    cur = load_throughputs(args.current)
    if not base:
        print(f"bench_diff: no usable benchmarks in baseline {args.baseline}")
        return 1
    gated = set(args.threads)
    failures = []
    missing = sorted(set(base) - set(cur))

    print(f"{'benchmark':60} {'baseline':>14} {'current':>14} {'delta':>8}")
    for name in sorted(set(base) & set(cur)):
        b, c = base[name], cur[name]
        delta = (c - b) / b
        gating = thread_count(name) in gated
        marker = ""
        if gating and delta < -args.max_regression:
            failures.append((name, delta))
            marker = "  REGRESSION"
        elif not gating:
            marker = "  (not gated)"
        print(f"{name:60} {b:14.0f} {c:14.0f} {delta:+7.1%}{marker}")

    for name in missing:
        if thread_count(name) in gated:
            failures.append((name, None))
            print(f"{name:60} missing from current run  REGRESSION")

    if failures:
        print(
            f"\nbench_diff: FAIL — {len(failures)} gated benchmark(s) "
            f"regressed more than {args.max_regression:.0%} "
            f"(threads {sorted(gated)}):"
        )
        for name, delta in failures:
            print(f"  {name}: " + ("missing" if delta is None else f"{delta:+.1%}"))
        return 1
    print(
        f"\nbench_diff: OK — no gated regression beyond "
        f"{args.max_regression:.0%} at threads {sorted(gated)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
