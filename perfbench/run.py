#!/usr/bin/env python3
"""LAPSES benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program (perfbench/CMakeLists.txt) and the repository's
liblapses in .bench_build/, runs the named workload for S seconds,
checks every simulated result against the scan-kernel oracle, and
prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics. README.md describes the workloads and metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "perfbench"
PROGRAM = BUILD / "lapses_perfbench"
STORED_REFERENCES = HERE / "reference"
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 840
PROGRAM_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def child_env():
    # LAPSES_* variables select kernels, job counts and bench modes;
    # the workloads fix all of these themselves.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("LAPSES_")}


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        out.write("$ " + " ".join(map(str, cmd)) + "\n")
        out.flush()
        rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                            env=child_env(), timeout=timeout).returncode
    if rc != 0:
        tail = Path(log).read_text().splitlines()[-30:]
        raise BenchError("command failed (%d): %s\n%s"
                         % (rc, " ".join(map(str, cmd)), "\n".join(tail)))


def build():
    WORK.mkdir(exist_ok=True)
    log = WORK / "build.log"
    if not (BUILD / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", BUILD, "--target", "lapses_perfbench",
                "-j", "4"], log, BUILD_TIMEOUT_S)


def host_record():
    """Host and build facts printed with every result."""
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and ":" in key:
            cache[key.split(":")[0]] = value
    compiler = {"id": "unknown", "version": "unknown"}
    for path in glob.glob(str(BUILD / "CMakeFiles" / "*" /
                              "CMakeCXXCompiler.cmake")):
        for line in Path(path).read_text().splitlines():
            for field, key in (("CMAKE_CXX_COMPILER_ID ", "id"),
                               ("CMAKE_CXX_COMPILER_VERSION ", "version")):
                if line.startswith("set(" + field):
                    compiler[key] = line.split('"')[1]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": "%s %s" % (compiler["id"], compiler["version"]),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
    }


def run_program(workload, seed, mode, seconds=None, spans=None):
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if spans is not None:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=child_env(), timeout=PROGRAM_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("lapses_perfbench failed (%d): %s"
                         % (proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout)


def load_reference(workload, seed):
    """Scan-kernel records for (workload, seed): the stored file for
    the default seed, otherwise computed once and cached in the build
    directory, outside any timed region."""
    if seed == DEFAULT_SEED:
        path = STORED_REFERENCES / (workload + ".json")
    else:
        # Keyed by the benchmark binary: a rebuild against other library or
        # workload code computes its references afresh.
        build_id = hashlib.sha256(PROGRAM.read_bytes()).hexdigest()[:12]
        path = WORK / "refs" / build_id / ("%s-seed%d.json"
                                           % (workload, seed))
        if not path.exists():
            ref = run_program(workload, seed, "reference")
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(ref) + "\n")
            tmp.replace(path)
    ref = json.loads(path.read_text())
    if ref.get("workload") != workload or ref.get("seed") != seed:
        raise BenchError("reference %s is not for %s seed %d"
                         % (path, workload, seed))
    return ref


def digest(records):
    return hashlib.sha256("\n".join(records).encode()).hexdigest()[:16]


def count_failures(runs, ref):
    """Simulations attempted and failed over a list of workload
    executions (each a dict with "records" and "error"). A failure is
    a throw or a record that differs from the reference."""
    want = ref["records"]
    attempted = failed = 0
    for run in runs:
        attempted += len(want)
        got = run["records"]
        if run["error"] is not None or len(got) != len(want):
            failed += len(want)
        else:
            failed += sum(g != w for g, w in zip(got, want))
    return attempted, failed


def simulated_summary(records):
    """Simulated (not host) results of the first record: the model is
    unvalidated, so these are printed for inspection, not scored."""
    if not records:
        return "simulated: no records"
    first = json.loads(records[0])
    shown = ["%s %s" % (key, "n/a" if first.get(key) is None
                        else "%.6g" % first[key])
             for key in ("latency_mean", "latency_p99", "accepted_flit_rate",
                         "request_latency_p99", "request_goodput")]
    saturated = sum('"saturated":true' in r for r in records)
    return "simulated: %s (first of %d records, %d saturated)" % (
        ", ".join(shown), len(records), saturated)


def timed(workload, seed, seconds, ref):
    out = run_program(workload, seed, "timed", seconds)
    its = out["iterations"]
    ok = [it for it in its if it["error"] is None]
    node_cycles = sum(ref["node_cycles"])
    samples = {
        "wall_s": [it["setup_s"] + it["run_s"] for it in ok],
        "setup_s": out["setup_samples_s"],
        "node_cycles_per_s": [node_cycles / it["run_s"] for it in ok],
        "cpu_s": [it["cpu_s"] for it in ok],
        "peak_rss_mb": [out["peak_rss_mb"]],
    }
    values = {k: median(v) for k, v in samples.items() if v}
    lines = ["%-18s %14.6g  (median of %d, min %.6g, max %.6g)"
             % (k, values[k], len(v), min(v), max(v))
             for k, v in samples.items() if v]
    attempted, failed = count_failures(its, ref)
    lines.append("%-18s %14.6g  (%d of %d simulations)"
                 % ("run_fail_frac", failed / attempted, failed, attempted))
    lines.append(simulated_summary(its[0]["records"]))
    lines.append("digest %s (reference %s)"
                 % (digest(its[0]["records"]), digest(ref["records"])))
    return values, attempted, failed, [], lines


def traced(workload, seed, seconds, ref):
    spans = WORK / "traces" / ("%s-seed%d.spans.jsonl" % (workload, seed))
    spans.parent.mkdir(exist_ok=True)
    out = run_program(workload, seed, "traced", seconds, spans)
    runs = list(out["passes"])
    if out["campaign_iteration"] is not None:
        runs.append(out["campaign_iteration"])
    attempted, failed = count_failures(runs, ref)
    layers = out["layers"]
    lines = ["%-36s %16.6g" % (k, v) for k, v in layers.items()]
    lines.append("%-36s %16.6g  (%d of %d simulations)"
                 % ("run_fail_frac", failed / attempted, failed, attempted))
    lines.append("spans: %s" % spans)
    lines.append("digest %s (reference %s)"
                 % (digest(runs[0]["records"]), digest(ref["records"])))
    return layers, attempted, failed, out["layer_failures"], lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bench = spec()
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            raise BenchError("unknown workload %r" % args.workload)
        seconds = args.seconds or bench["run_seconds"]
        build()
        host = host_record()
        if host["build_type"] != "Release":
            raise BenchError("liblapses was built as %r; timings are only "
                             "reported from a Release build"
                             % host["build_type"])
        ref = load_reference(args.workload, args.seed)
        run = traced if args.trace else timed
        values, attempted, failed, problems, lines = run(
            args.workload, args.seed, seconds, ref)
        want = bench["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in want if m["name"] not in values]
        if missing:
            raise BenchError("metrics not produced: %s" % missing)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print("workload %s seed %d, %s run of %gs" % (
        args.workload, args.seed, "traced" if args.trace else "timed",
        seconds))
    print("host: " + json.dumps(host, sort_keys=True))
    for line in lines + ["problem: " + p for p in problems]:
        print("  " + line)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in want},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
