#!/usr/bin/env python3
"""End-to-end DSE-sweep benchmark: build, run, and report.

One run of one workload (the benchmark contract):

    python3 dsebench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

builds `dse_bench` from this directory and ../src (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs it, and prints one JSON object as
the last line of stdout: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end set of BENCHMARK.json, with
--trace 1 the per-layer set; a traced run also writes the Chrome trace and
prints the per-layer table (self ms, wall ms, spans) to stderr.

Other modes:

    python3 dsebench/run.py --all [--seconds S] [--seed N] [--trace 0|1]
        every workload; prints every metric by name with its unit and exits
        nonzero on any correctness mismatch.
    python3 dsebench/run.py --check-determinism [--seconds S] [--seed N]
        every workload twice on one seed and once on the next seed; the
        deterministic counts and quality metrics must repeat exactly, and
        the second seed may change only the seeded inputs.

Exit status: 0 on success, 1 on a correctness mismatch or a build/run
failure (then no result line is printed).
"""

import argparse
import bisect
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep-cold", "sweep-warm", "map-interactive"]
RUN_TIMEOUT_S = 160

# Per-layer self times come from the trace: one metric per layer, named
# after the span category the benchmark records around each public call.
LAYERS = ["exec", "mapper", "service", "codec", "validate", "power", "sim",
          "kernels", "other"]

# Counts that must repeat exactly for one seed, and (except the
# allocation counts, which follow the request stream) across seeds.
MAPPING_COUNTS = ["mapper.attempts", "mapper.attempts_failed",
                  "mapper.candidates", "router.searches",
                  "router.unbounded_reruns", "router.pruned_searches",
                  "sim.exec_cycles", "ii_mean", "mw_x_ii_geomean",
                  "sim_cycles_total"]
ALLOC_COUNTS = ["alloc.count", "alloc.bytes"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, base)), "dsebench")


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        # The repository's own default build type: the build users run.
        cmd = (["cmake", "-S", HERE, "-B", out,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "dse_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(out, "dse_bench")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace):
    """One dse_bench run: (exit code, result dict, context dict, trace path)."""
    out = build_dir()
    trace_path = os.path.join(out, "traces", f"{workload}.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", trace_path,
           "--work-dir", os.path.join(out, "work", workload)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{workload}: dse_bench exited {proc.returncode}")
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    return proc.returncode, result, context, trace_path


# ---------------------------------------------------------------------
# Trace analysis: spans -> per-layer self/wall time and the mapper's
# attempt split.
# ---------------------------------------------------------------------

def load_spans(path):
    """Balanced B/E events -> spans: dicts with cat, name, tid, start,
    end, parent (index or None)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    names, spans, stacks = {}, [], {}
    for e in events:
        ph = e["ph"]
        if ph == "M":
            if e["name"] == "thread_name":
                names[e["tid"]] = e["args"]["name"]
        elif ph == "B":
            stack = stacks.setdefault(e["tid"], [])
            spans.append({"cat": e["cat"], "name": e["name"], "tid": e["tid"],
                          "start": e["ts"], "end": None,
                          "parent": stack[-1] if stack else None})
            stack.append(len(spans) - 1)
        elif ph == "E":
            spans[stacks[e["tid"]].pop()]["end"] = e["ts"]
    for s in spans:  # a span still open when the session stopped
        if s["end"] is None:
            s["end"] = s["start"]
    return names, spans


def union_length(intervals, lo, hi):
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def analyze_trace(path, passes, mapped_per_pass):
    """Per-layer table and derived metrics of one traced run.

    Self time is a span's duration minus what its children cover. The
    benchmark's main track waits while other threads work (the runner's
    worker, a backend computing a miss), so a root span on another track
    counts as a child of the innermost main-track span around it.
    """
    names, spans = load_spans(path)
    main = next((t for t, n in names.items() if n == "bench/main"), None)
    children = {i: [] for i in range(len(spans))}
    main_spans = sorted((i for i, s in enumerate(spans) if s["tid"] == main),
                        key=lambda i: spans[i]["start"])
    main_starts = [spans[i]["start"] for i in main_spans]
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
        elif s["tid"] != main:
            # Main-track spans nest, so walking back from the latest one
            # that starts before the midpoint, the first that still covers
            # it is the innermost.
            mid = (s["start"] + s["end"]) / 2
            pos = bisect.bisect_right(main_starts, mid) - 1
            host = main_spans[pos] if pos >= 0 else None
            while host is not None and spans[host]["end"] < mid:
                host = spans[host]["parent"]
            if host is not None:
                children[host].append(i)

    pass_spans = [i for i in main_spans
                  if spans[i]["name"] == "pass" and spans[i]["cat"] == "bench"]
    traced_wall = sum(spans[i]["end"] - spans[i]["start"] for i in pass_spans)
    table = {layer: {"self": 0.0, "wall": 0.0, "count": 0}
             for layer in LAYERS}

    def visit(i, outer_layers):
        s = spans[i]
        layer = s["cat"] if s["cat"] in table else "other"
        kids = children[i]
        covered = union_length([(spans[k]["start"], spans[k]["end"])
                                for k in kids], s["start"], s["end"])
        row = table[layer]
        row["self"] += s["end"] - s["start"] - covered
        row["count"] += 1
        if layer not in outer_layers:
            row["wall"] += s["end"] - s["start"]
        for k in kids:
            visit(k, outer_layers | {layer})

    for i in pass_spans:
        visit(i, frozenset())

    # Attempt split: in the sequential scan the last attempt under a
    # mapped tryMap is the success; every grid cell maps, so every
    # tryMap is a mapped one (checked against the registry's count).
    ok_us = failed_us = 0.0
    try_maps = 0
    for i, s in enumerate(spans):
        if s["cat"] != "mapper" or s["name"] != "tryMap":
            continue
        try_maps += 1
        attempts = sorted((k for k in children[i]
                           if spans[k]["name"] == "attemptAtIi"),
                          key=lambda k: spans[k]["start"])
        for n, k in enumerate(attempts):
            dur = spans[k]["end"] - spans[k]["start"]
            if n == len(attempts) - 1:
                ok_us += dur
            else:
                failed_us += dur
    if passes and try_maps and round(try_maps / passes) != round(
            mapped_per_pass):
        log(f"trace: {try_maps} tryMap spans over {passes} passes, "
            f"registry says {mapped_per_pass} mapped attempts per pass")

    per_pass = max(passes, 1) * 1000.0  # us -> ms per pass
    metrics = {}
    for layer, row in table.items():
        metrics[f"layer.{layer}.self_ms"] = (row["self"] / per_pass, "ms")
    accounted = sum(row["self"] for layer, row in table.items()
                    if layer != "other")
    metrics["trace.coverage_pct"] = (
        100.0 * accounted / traced_wall if traced_wall else 0.0, "%")
    metrics["mapper.attempt_ok_ms"] = (ok_us / per_pass, "ms")
    metrics["mapper.attempt_failed_ms"] = (failed_us / per_pass, "ms")

    log(f"per-layer table ({passes} traced passes, per pass; "
        f"trace {os.path.relpath(path, ROOT)})")
    log(f"  {'layer':10s} {'self ms':>10s} {'wall ms':>10s} {'spans':>8s}")
    for layer, row in table.items():
        log(f"  {layer:10s} {row['self'] / per_pass:10.3f} "
            f"{row['wall'] / per_pass:10.3f} "
            f"{row['count'] / max(passes, 1):8.0f}")
    log(f"  traced wall {traced_wall / per_pass:.3f} ms per pass, "
        f"{metrics['trace.coverage_pct'][0]:.1f}% in named layers")
    return metrics


def measure(binary, workload, seed, seconds, trace):
    """One run: (exit code, result, context, metrics incl. trace-derived)."""
    code, result, context, trace_path = run_binary(
        binary, workload, seed, seconds, trace)
    metrics = {k: (v["value"], v["unit"])
               for k, v in result["metrics"].items()}
    if trace:
        metrics.update(analyze_trace(
            trace_path, int(context.get("traced_passes", 0)),
            metrics["mapper.attempts"][0]
            - metrics["mapper.attempts_failed"][0]))
    return code, result, context, metrics


def select(metrics, spec, trace):
    """The BENCHMARK.json metrics of one run, checked against it: every
    metric the run produced must be named there with the same unit, and
    every end-to-end metric must have been produced. A per-layer metric
    of a layer the workload does not exercise (the service counters on
    sweep-cold, say) reads 0."""
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (_, unit) in metrics.items():
        if declared.get(name) != unit:
            raise RuntimeError(f"metric {name} [{unit}] is not declared "
                               "with that unit in BENCHMARK.json")
    missing = [m["name"] for m in spec["end_to_end"]
               if m["name"] not in metrics]
    if missing:
        raise RuntimeError("metrics not produced: " + ", ".join(missing))
    wanted = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": metrics.get(m["name"], (0.0,))[0],
                        "unit": m["unit"]} for m in wanted}


def run_one(args):
    spec = benchmark_spec()
    binary = build()
    code, result, _, metrics = measure(binary, args.workload, args.seed,
                                       args.seconds, args.trace)
    result["metrics"] = select(metrics, spec, args.trace)
    print(json.dumps(result), flush=True)
    return code


def run_all(args):
    spec = benchmark_spec()
    binary = build()
    status = 0
    for workload in WORKLOADS:
        code, result, _, metrics = measure(binary, workload, args.seed,
                                           args.seconds, args.trace)
        status = max(status, code, 0 if result["correct"] else 1)
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, value in select(metrics, spec, args.trace).items():
            print(f"  {name:32s} {value['value']:14.6g} {value['unit']}")
        frac = result["failed"] / max(result["attempted"], 1)
        print(f"  {'failed_op_frac':32s} {frac:14.6g} ratio")
    return status


def check_determinism(args):
    """Two runs on one seed must agree on every deterministic count; a
    run on the next seed must change only the seeded inputs."""
    binary = build()
    status = 0
    for workload in WORKLOADS:
        runs = [measure(binary, workload, seed, args.seconds, True)
                for seed in (args.seed, args.seed, args.seed + 1)]
        (_, _, ctx_a, a), (_, _, ctx_b, b), (_, _, ctx_c, c) = runs
        problems = []
        # Lease sizes and steals follow measured latency, so the sharded
        # sweep's allocations are schedule-dependent; elsewhere exact.
        same_seed = MAPPING_COUNTS + (
            ALLOC_COUNTS if workload != "sweep-warm" else [])
        for name in same_seed:
            if a[name][0] != b[name][0]:
                problems.append(f"{name}: {a[name][0]} vs {b[name][0]} "
                                "on one seed")
        for name in MAPPING_COUNTS:
            if a[name][0] != c[name][0]:
                problems.append(f"{name}: {a[name][0]} vs {c[name][0]} "
                                "across seeds")
        for key in ("memory_digest", "stream_digest"):
            if key not in ctx_a:
                continue
            if ctx_a[key] != ctx_b[key]:
                problems.append(f"{key} differs on one seed")
            if ctx_a[key] == ctx_c[key]:
                problems.append(f"{key} unchanged by a new seed")
        for run in runs:
            if not run[1]["correct"]:
                problems.append("a run failed its correctness checks")
        print(f"{workload}: {'deterministic' if not problems else 'FAILED'}")
        for name in same_seed:
            print(f"  {name:28s} {a[name][0]!r:>20}")
        for p in problems:
            print(f"  problem: {p}")
        status = max(status, 1 if problems else 0)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args()
    try:
        if args.check_determinism:
            return check_determinism(args)
        if args.all:
            return run_all(args)
        if not args.workload:
            parser.error("--workload, --all or --check-determinism needed")
        return run_one(args)
    except (RuntimeError, OSError, ValueError, KeyError) as err:
        log(f"dsebench: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
