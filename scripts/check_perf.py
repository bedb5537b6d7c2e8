#!/usr/bin/env python3
"""Compare kernel-benchmark ratios against a committed baseline.

Absolute cycles/sec numbers are machine-dependent, so CI compares
*ratios* per benchmark case against the ratios recorded in the
committed baseline JSON (BENCH_kernel.json / BENCH_router.json at the
repo root). Two schemes, told apart by the case's arg encoding:

- active/scan (args /1 vs /2): how much the activity-driven kernel
  buys over the step-everything kernel on the same host. A shrinking
  ratio means the hot path regressed relative to the scan reference.
- parallel/active (a /0 reference plus /N intra-job members, the
  BM_KernelParallel* family): the parallel kernel's speedup per job
  count. On a multi-core host this is the scaling curve; on a
  single-core runner it pins the sharding overhead near 1x either way.

Exit status: 0 when all ratios are within --warn of the baseline (or
better), 0 with warnings between --warn and --fail, 1 beyond --fail.

When the two files were measured against differently built Google
Benchmark libraries (context.library_build_type, e.g. a debug-library
dev box vs a release-library CI runner), ratios are not like-for-like:
regressions beyond --fail are reported as warnings instead of failing,
and the baseline should be refreshed from the CI job's uploaded
artifact to restore strict gating.

    scripts/check_perf.py BENCH_kernel.json build/BENCH_kernel.json
"""

from __future__ import annotations

import argparse
import json
import sys

ACTIVE_ARG = "/1"  # KernelKind::Active
SCAN_ARG = "/2"    # KernelKind::Scan

# The BM_KernelParallel* cases use a different arg encoding: the /0
# member is the active-kernel reference, every other member the
# parallel kernel at that intra-job count. A case family with such a
# reference is gated on the parallel/active ratio of each member
# instead of active/scan.
PARALLEL_REF_ARG = "/0"


def load_ratios(path):
    """(case -> active/scan items_per_second ratio, library build type).

    When the file was produced with --benchmark_repetitions, the
    median aggregate is used (stable against scheduler noise on
    shared runners); otherwise the single iteration row.

    Families are grouped by the bare case name (everything before the
    first '/'), so every member lands in the same family as its
    reference.
    """
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    build_type = data.get("context", {}).get("library_build_type", "")
    rates = {}
    medians = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[bench["run_name"]] = bench["items_per_second"]
            continue
        rates.setdefault(bench["name"], bench["items_per_second"])
    rates.update(medians)
    families = {}
    for name, rate in rates.items():
        families.setdefault(name.split("/")[0], {})[name] = rate
    ratios = {}
    for case, members in sorted(families.items()):
        ref_name = case + PARALLEL_REF_ARG
        if ref_name in members:
            # Parallel family: every non-reference member is gated on
            # its speedup over the active-kernel reference.
            for name, rate in sorted(members.items()):
                if name != ref_name:
                    ratios[name] = rate / members[ref_name]
        elif (case + ACTIVE_ARG in members
              and case + SCAN_ARG in members):
            ratios[case] = (members[case + ACTIVE_ARG]
                            / members[case + SCAN_ARG])
    if not ratios:
        raise SystemExit(f"{path}: no gateable benchmark pairs found")
    return ratios, build_type


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument("--warn", type=float, default=0.15,
                        help="warn when the ratio regresses by this "
                             "fraction (default 0.15)")
    parser.add_argument("--fail", type=float, default=0.40,
                        help="fail when the ratio regresses by this "
                             "fraction (default 0.40)")
    args = parser.parse_args(argv)

    baseline, base_build = load_ratios(args.baseline)
    current, cur_build = load_ratios(args.current)

    comparable = base_build == cur_build
    if not comparable:
        print(f"::warning::benchmark-library build types differ "
              f"(baseline: {base_build or '?'}, current: "
              f"{cur_build or '?'}); ratios are not like-for-like, "
              "reporting regressions as warnings only — refresh the "
              "committed baseline from this run's artifact")

    failed = False
    for case, base_ratio in sorted(baseline.items()):
        cur_ratio = current.get(case)
        if cur_ratio is None:
            # A silently vanished case would silently remove its gate;
            # dropping or renaming a benchmark must come with a
            # baseline refresh.
            print(f"::error::{case}: present in baseline but not in "
                  "the current run — regenerate the baselines if the "
                  "benchmark was renamed or removed")
            failed = True
            continue
        regression = (base_ratio - cur_ratio) / base_ratio
        line = (f"{case}: ratio {cur_ratio:.2f}x "
                f"(baseline {base_ratio:.2f}x, "
                f"{-regression:+.1%} vs baseline)")
        if regression >= args.fail and comparable:
            print(f"::error::{line}")
            failed = True
        elif regression >= args.warn or regression >= args.fail:
            print(f"::warning::{line}")
        else:
            print(line)
    for case in sorted(set(current) - set(baseline)):
        print(f"{case}: ratio {current[case]:.2f}x (no baseline)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
