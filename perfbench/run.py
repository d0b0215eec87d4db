#!/usr/bin/env python3
"""gqzoo benchmark: builds the harness, runs one workload, prints metrics.

    python3 perfbench/run.py --workload wire_mixed --seed 7 --seconds 15 --trace 0

Run from the repository root. The harness (perfbench/harness, built by
perfbench/CMakeLists.txt into .bench_build/) drives gqzoo through its public
surfaces, checks every answer, and writes a summary record; with --trace 1
it also writes the spans it recorded around the layer entry points. This
script reduces those to the metrics named in BENCHMARK.json and prints, as
its last line, one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A failed correctness gate exits nonzero without printing metrics. Every run
is stamped (build type, cores, CPU model and MHz, git SHA, seed, flush
policy) and appended to .bench_build/records.jsonl, which
perfbench/compare.py reads.
"""

import argparse
import fcntl
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "gqzoo_perf")
RECORDS = os.path.join(ROOT, ".bench_build", "records.jsonl")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures and builds the harness (incremental after the first run)."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "gqzoo_perf", "-j", jobs])
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = f"{e}"
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                # A half-configured tree must not poison the next run.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                fail(f"build step failed ({rc}): {' '.join(step)}")


def host_stamp():
    model, mhz = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "cpu MHz":
                    mhz.append(float(value))
    except OSError:
        pass
    sha = "unknown"  # a checkout without git metadata
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this tree's own repository counts, not an enclosing one.
        if out.returncode == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_mhz": round(statistics.mean(mhz), 1) if mhz else 0.0,
        "git_sha": sha,
        "host": platform.node(),
    }


# --- reduction -----------------------------------------------------------------------


# Every median and percentile of the benchmark is computed here, from the
# raw samples the harness records.

# A ladder rung meets the service level when its read tail stays under this.
SLO_LIMIT_MS = 100.0


def quantile(values, q):
    """Linear interpolation between closest ranks."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_pct(n):
    """The highest percentile with at least ten samples above it, <= p99."""
    return min(0.99, max(0.5, 1.0 - 10.0 / n)) if n else 0.0


def tail(values):
    return quantile(values, tail_pct(len(values)))


def slo_qps(ladder):
    """The highest rung whose read tail meets the limit with no backlog and
    no failures."""
    met = [r["rate"] for r in ladder
           if tail(r["read_ms"]) < SLO_LIMIT_MS and not r["backlog"] and not r["failed"]]
    return max(met, default=0.0)


def summarize(record):
    """Replaces the raw samples of `record` with the figures derived from
    them, so the appended record stays small."""
    reads = record.pop("read_ms")
    record["setup_s"] = quantile(record.pop("setup_s"), 0.5)
    record["read_samples"] = len(reads)
    record["read_p50_ms"] = quantile(reads, 0.5)
    record["read_tail_ms"] = tail(reads)
    record["read_tail_pct"] = 100 * tail_pct(len(reads))
    record["by_tag"] = {tag: {"n": len(v), "p50_ms": quantile(v, 0.5), "tail_ms": tail(v),
                              "tail_pct": 100 * tail_pct(len(v)), "total_ms": sum(v)}
                        for tag, v in record["by_tag"].items()}
    if "write_ms" in record:
        writes = record.pop("write_ms")
        record["write_samples"] = len(writes)
        record["write_p50_ms"] = quantile(writes, 0.5)
        record["write_tail_ms"] = tail(writes)
        record["write_tail_pct"] = 100 * tail_pct(len(writes))
        record["lag_tail_ms"] = tail(record.pop("lag_ms"))
        record["slo_qps"] = slo_qps(record["ladder"])
        record["ladder"] = [{"rate": r["rate"], "read_p50_ms": quantile(r["read_ms"], 0.5),
                             "read_tail_ms": tail(r["read_ms"]), "drain_ms": r["drain_ms"],
                             "backlog": r["backlog"], "failed": r["failed"]}
                            for r in record["ladder"]]
    if "traced_read_ms" in record:
        record["traced_read_p50_ms"] = quantile(record.pop("traced_read_ms"), 0.5)


def end_to_end(record):
    return {
        "setup_s": record["setup_s"],
        "throughput_qps": record["throughput_qps"],
        "read_p50_ms": record["read_p50_ms"],
        "read_p99_ms": record["read_tail_ms"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(record, spans_path):
    """Reduces the span file to the per-layer metrics. A layer the workload
    does not exercise reports 0."""
    spans, counters = [], {}
    with open(spans_path) as f:
        for line in f:
            item = json.loads(line)
            if "span" in item:
                item["dur_us"] = (item["end_ns"] - item["start_ns"]) / 1e3
                spans.append(item)
            else:
                counters[item["counter"]] = item["value"]

    def durs(name):
        return [s["dur_us"] for s in spans if s["span"] == name]

    def ratio(num, den):
        return num / den if den else 0.0

    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    # Self time: a span's duration minus its paired child of the next layer.
    server_self = []
    for s in spans:
        if s["span"] == "server.roundtrip_paired":
            kids = [k for k in children.get(s["id"], []) if k["span"] == "engine.execute"]
            if kids:
                server_self.append(s["dur_us"] - kids[0]["dur_us"])
    evaluators = {"rpq.eval", "crpq.eval", "datatest.eval", "coregql.eval",
                  "coregql.group_eval", "pmr.build", "pmr.enum", "crpq.modes"}
    render = []
    for s in spans:
        if s["span"] == "engine.execute":
            work = sum(k["dur_us"] for k in children.get(s["id"], []) if k["span"] in evaluators)
            render.append(max(0.0, s["dur_us"] - work))
    submit_wait = [max(0.0, s["dur_us"] - s["exec_us"]) for s in spans if s["span"] == "engine.submit"]

    writes = counters.get("write_batches", 0)
    applies = [s for s in spans if s["span"] == "mutation.apply"]
    grown = [s for s in applies if s.get("wal_bytes", 0) > 0]
    wal_per_write = ratio(sum(s["wal_bytes"] for s in grown), len(grown))
    op_bytes = ratio(sum(s.get("op_bytes", 0) for s in applies), len(applies))
    compactions = counters.get("compactions_run", 0)
    write_amp = ratio(wal_per_write + ratio(compactions * counters.get("checkpoint_bytes", 0), writes),
                      op_bytes)
    enum = [s for s in spans if s["span"] == "pmr.enum" and s.get("paths", 0) > 0]
    crpq = [s for s in spans if s["span"] == "crpq.eval"]
    rpq = [s for s in spans if s["span"] == "rpq.eval"]
    hits, misses = counters.get("cache_hits", 0), counters.get("cache_misses", 0)
    open_loop = record["workload"] == "wire_mixed"
    if open_loop:
        overhead = 100.0 * (ratio(record["traced_read_p50_ms"], record["read_p50_ms"]) - 1.0)
    else:
        overhead = 100.0 * (ratio(record["throughput_qps"], record["traced_throughput_qps"]) - 1.0)

    def one(name):
        values = durs(name)
        return values[0] / 1e3 if values else 0.0

    per_1k = lambda key: 1000.0 * ratio(counters.get(key, 0), writes)
    return {
        "server.roundtrip_us.p50": quantile(durs("server.roundtrip"), 0.5),
        "server.roundtrip_us.p99": tail(durs("server.roundtrip")),
        "server.self_us.p50": quantile(server_self, 0.5),
        "server.self_us.p99": tail(server_self),
        "server.chunks_per_req": ratio(counters.get("server_stream_chunks", 0), counters.get("server_queries", 0)),
        "server.bytes_per_req": ratio(counters.get("server_stream_bytes", 0), counters.get("server_queries", 0)),
        "engine.execute_us.p50": quantile(durs("engine.execute"), 0.5),
        "engine.execute_us.p99": tail(durs("engine.execute")),
        "engine.submit_wait_us.p50": quantile(submit_wait, 0.5),
        "engine.render_us.p50": quantile(render, 0.5),
        "engine.plan_cache.hit_ratio": ratio(hits, hits + misses),
        "engine.shed": counters.get("overloaded_shed", 0),
        "engine.queue_high_water": counters.get("queue_high_water", 0),
        "planner.compile_us.p50": quantile(durs("planner.compile"), 0.5),
        "planner.stats_build_ms": one("planner.stats_build"),
        "graph.snapshot_build_ms": one("graph.snapshot_build"),
        "mutation.apply_us.p50": quantile(durs("mutation.apply"), 0.5),
        "mutation.apply_us.p99": tail(durs("mutation.apply")),
        "mutation.compact_ms": one("mutation.compact"),
        "mutation.compactions_per_1k_writes": per_1k("compactions_run"),
        "mutation.merged_view_builds_per_1k_writes": per_1k("merged_view_builds"),
        "mutation.plans_invalidated_per_1k_writes": per_1k("plans_invalidated"),
        "storage.wal_bytes_per_write": wal_per_write,
        "storage.write_amp": write_amp,
        "storage.recover_ms": one("storage.recover"),
        "rpq.eval_us.p50": quantile([s["dur_us"] for s in rpq], 0.5),
        "rpq.eval_us.p99": tail([s["dur_us"] for s in rpq]),
        "rpq.pairs_per_query": ratio(sum(s["pairs"] for s in rpq), len(rpq)),
        "pmr.build_us.p50": quantile(durs("pmr.build"), 0.5),
        "pmr.enum_us.p50": quantile(durs("pmr.enum"), 0.5),
        "pmr.edges_per_path": ratio(sum(s["pmr_edges"] for s in enum), sum(s["paths"] for s in enum)),
        "datatest.eval_us.p50": quantile(durs("datatest.eval"), 0.5),
        "crpq.eval_us.p50": quantile([s["dur_us"] for s in crpq], 0.5),
        "crpq.eval_us.p99": tail([s["dur_us"] for s in crpq]),
        "crpq.rows_per_query": ratio(sum(s["rows"] for s in crpq), len(crpq)),
        "crpq.modes_us.p50": quantile(durs("crpq.modes"), 0.5),
        "rel.peak_query_bytes": counters.get("peak_query_bytes", 0),
        "rel.wcoj_share": ratio(counters.get("wcoj_executions", 0), counters.get("conjunctive_queries", 0)),
        "coregql.eval_us.p50": quantile(durs("coregql.eval"), 0.5),
        "coregql.eval_us.p99": tail(durs("coregql.eval")),
        "coregql.group_eval_us.p50": quantile(durs("coregql.group_eval"), 0.5),
        "wire.write_p50_ms": record.get("write_p50_ms", 0.0),
        "wire.write_p99_ms": record.get("write_tail_ms", 0.0),
        "wire.slo_qps": record.get("slo_qps", 0.0),
        "loadgen.lag_p99_ms": record.get("lag_tail_ms", 0.0),
        "trace.overhead_pct": overhead,
    }


def report(record):
    """Human-readable lines: every applicable end-to-end metric by name."""
    lines = [
        f"template {tag:16s} n {t['n']:5d}  p50 {t['p50_ms']:9.3f} ms  p{t['tail_pct']:.0f} "
        f"{t['tail_ms']:9.3f} ms  total {t['total_ms']:8.1f} ms"
        for tag, t in sorted(record["by_tag"].items())
    ]
    lines += [
        f"ladder {r['rate']:6.0f} qps: read p50 {r['read_p50_ms']:.3f} ms, tail {r['read_tail_ms']:.3f} ms, "
        f"drain {r['drain_ms']:.1f} ms{' (backlog)' if r['backlog'] else ''}"
        for r in record.get("ladder", [])
    ]
    lines += [
        f"workload {record['workload']}  seed {record['seed']}  build {record['build_type']}  "
        f"nproc {record['nproc']}  cpu {record['cpu_model']} @ {record['cpu_mhz']} MHz  git {record['git_sha'][:12]}",
        f"loop: {record['loop']}  graph: {int(record['graph_nodes'])} nodes / {int(record['graph_edges'])} edges  "
        f"flush policy: {record['flush_policy']}",
        f"setup_s        {record['setup_s']:.4f} s",
        f"throughput_qps {record['throughput_qps']:.3f} 1/s",
        f"read_p50_ms    {record['read_p50_ms']:.4f} ms",
        f"read_p99_ms    {record['read_tail_ms']:.4f} ms  (p{record['read_tail_pct']:.1f} of "
        f"{int(record['read_samples'])} samples)",
    ]
    if "write_p50_ms" in record:
        lines += [
            f"write_p50_ms   {record['write_p50_ms']:.4f} ms",
            f"write_p99_ms   {record['write_tail_ms']:.4f} ms  (p{record['write_tail_pct']:.1f} of "
            f"{int(record['write_samples'])} samples)",
            f"slo_qps        {record['slo_qps']:.0f} 1/s  (read tail under {SLO_LIMIT_MS:.0f} ms, no backlog)",
        ]
    lines += [
        f"failed_ratio   {record['failed'] / max(1, record['attempted']):.6f}  "
        f"({int(record['failed'])} of {int(record['attempted'])})",
        f"peak_rss_mb    {record['peak_rss_mb']:.2f} MB",
    ]
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny graphs, for the benchmark's own tests")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one reference answer; the gate must fail")
    parser.add_argument("--records", default=RECORDS, help="JSON-lines file the run's record is appended to")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose one of {names}")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("gqzoo sources (src/) not found next to perfbench/")
    build()

    work = os.path.join(ROOT, ".bench_build", "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "record.json")
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work, "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail("harness timed out", 4)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not os.path.exists(out):
        shutil.rmtree(work, ignore_errors=True)
        fail(f"harness exited with {proc.returncode}; no metrics", 3)

    with open(out) as f:
        record = json.load(f)
    record.update(host_stamp())
    record["trace"] = args.trace
    record["smoke"] = args.smoke
    record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    summarize(record)
    if args.trace:
        values = per_layer(record, record["spans_file"])
        wanted = spec["per_layer"]
    else:
        values = end_to_end(record)
        wanted = spec["end_to_end"]
    shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    record.pop("spans_file", None)
    records = os.path.abspath(args.records)
    os.makedirs(os.path.dirname(records), exist_ok=True)
    with open(records, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    for line in report(record):
        print(line)
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
