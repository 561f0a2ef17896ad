#!/usr/bin/env python3
"""Fleet benchmark: host time and memory per fleet experiment, end to end
and layer by layer.

Usage:
  python3 fleetbench/run.py --workload churn_serial|crossed_4t|adversary_mixed
                            [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run builds the worker (this
directory's CMake package, against ../src) into $CARGO_TARGET_DIR/fleetbench
(default .bench_build/fleetbench). Each run then:

  1. computes the reference outputs for the seed, untimed (see README.md);
  2. runs iterations of the workload for --seconds, one worker process per
     iteration so each peak RSS belongs to one iteration;
  3. checks every iteration's outputs against the reference and against the
     workload's defined visit/churn counts;
  4. prints one JSON object as its last stdout line: the end-to-end metrics
     with --trace 0, the per-layer metrics with --trace 1.

Every end-to-end value is the median over the run's iterations; setup_s
is the median over every setup, as each iteration sets up five times. With
--trace 1 the first half of the time runs untraced iterations (per-call
timings and counts) and the second half traced ones (the program's own
self-profile); obs.trace_overhead_frac compares the two.

The default seed is 13; the documented held-out seed is 2027.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
DEFAULT_SEED = 13
HELD_OUT_SEED = 2027
# A run must exit within 180 s; stop starting iterations well before.
RUN_DEADLINE_S = 150.0
WORKER_TIMEOUT_S = 170.0

WORKLOADS = {
    "churn_serial": {"n": 256, "generations": 2, "visits_per_slot": 4},
    "crossed_4t": {"n": 256, "generations": 2, "visits_per_slot": 4},
    "adversary_mixed": {"n": 128, "generations": 3, "visits_per_slot": 12},
}

# Deterministic outputs each iteration must reproduce from the reference.
CHURN_FIELDS = ["events", "visits", "churns", "fleet_pages_sharing"]
CROSSED_FIELDS = ["events", "visits", "churns", "cloud_fetches", "fleet_pages_sharing"]
REPORT_FIELDS = [
    "events", "visits", "churns", "nym_instances", "entry_flows", "exit_flows",
    "tap_packets", "tap_bytes", "advantage", "linkage_probability", "anonymity_min",
    "anonymity_mean", "anonymity_samples", "flowcorr_accuracy", "flowcorr_matched_correct",
    "flowcorr_matched_wrong", "flowcorr_ambiguous", "flowcorr_unmatched",
]
# The clean fleet's adversary floor (tests/baselines/adversary_floor.json):
# best linkage advantage at most 0.1, mean anonymity set at least N/2.
ADVANTAGE_CEILING = 0.1


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "fleetbench")


def worker_path():
    return os.path.join(build_dir(), "fleetbench_worker")


def build():
    """Configures (once) and builds the worker; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("fleetbench: no simulator sources at %s/src" % ROOT)
        return False
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("fleetbench: build step failed: %s" % " ".join(step))
            return False
    return os.path.isfile(worker_path())


def run_worker(args):
    """Runs one worker process; returns its JSON record, or None if it failed."""
    cmd = [worker_path()] + args
    try:
        result = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("fleetbench: worker timed out: %s" % " ".join(cmd))
        return None
    if result.returncode != 0:
        log("fleetbench: worker exited %d: %s\n%s" % (result.returncode, " ".join(cmd),
                                                      result.stderr.strip()))
        return None
    try:
        return json.loads(result.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("fleetbench: worker printed no record: %s" % " ".join(cmd))
        return None


def checkpoint_path():
    return os.path.join(build_dir(), "work", "image.ckpt")


def workload_args(workload, seed, n, traced=False, extra=()):
    args = ["--workload=" + workload, "--seed=%d" % seed, "--n=%d" % n]
    if workload == "crossed_4t":
        args.append("--ckpt=" + checkpoint_path())
    if traced:
        args.append("--traced")
    return args + list(extra)


def prepare(workload):
    """Untimed preparation before the set: crossed_4t's image checkpoint."""
    if workload != "crossed_4t":
        return True
    os.makedirs(os.path.dirname(checkpoint_path()), exist_ok=True)
    result = subprocess.run([worker_path(), "--prepare-ckpt=" + checkpoint_path()],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def compute_reference(workload, seed, n):
    """The oracle run for a seed: churn_serial under the full-recompute
    reference paths, crossed_4t at threads=1, adversary_mixed at threads=4."""
    extra = {
        "churn_serial": ["--full-recompute"],
        "crossed_4t": ["--threads=1"],
        "adversary_mixed": ["--threads=4"],
    }[workload]
    return run_worker(workload_args(workload, seed, n, extra=extra))


def expected_work(workload, n, reference):
    """Operations the workload definition asks for: creates, visits, churns
    and (crossed) cloud fetches."""
    shape = WORKLOADS[workload]
    work = {"creates": n * shape["generations"], "churns": n * (shape["generations"] - 1),
            "visits": n * shape["visits_per_slot"]}
    if workload == "crossed_4t":
        # Crossed hosts draw a seeded visit multiplier in [1, 3], each visit
        # followed by a cloud fetch: the seed's counts come from its
        # reference run and never fall below the unmultiplied definition.
        reference = reference or {}
        work["cloud_fetches"] = max(work["visits"], reference.get("cloud_fetches", 0))
        work["visits"] = max(work["visits"], reference.get("visits", 0))
    return work


def output_problems(workload, n, record, reference):
    """Output-check failures of one iteration (empty list: correct)."""
    if reference is None:
        return ["no reference"]
    problems = []
    if workload == "churn_serial":
        fields = CHURN_FIELDS
    elif workload == "crossed_4t":
        fields = CROSSED_FIELDS
        # A traced iteration's trace carries wall-clock args, so only
        # untraced digests are comparable to the reference.
        if not record.get("traced"):
            fields = fields + ["digest"]
    else:
        fields = REPORT_FIELDS
        if record.get("advantage", 1.0) > ADVANTAGE_CEILING:
            problems.append("advantage %s above floor %s" %
                            (record.get("advantage"), ADVANTAGE_CEILING))
        if record.get("anonymity_mean", 0.0) < n / 2:
            problems.append("anonymity_mean %s below floor %s" %
                            (record.get("anonymity_mean"), n / 2))
    for field in fields:
        if record.get(field) != reference.get(field):
            problems.append("%s: got %r, reference %r" %
                            (field, record.get(field), reference.get(field)))
    return problems


def score(workload, n, record, reference):
    """(attempted, failed, problems) for one iteration. A crashed iteration
    or a failed output check counts every operation as failed."""
    work = expected_work(workload, n, reference)
    attempted = work["creates"] + work["visits"] + work.get("cloud_fetches", 0)
    if record is None:
        return attempted, attempted, ["worker failed"]
    problems = output_problems(workload, n, record, reference)
    if problems:
        return attempted, attempted, problems
    failed = (record.get("visit_failures", 0) + record.get("create_failures", 0) +
              record.get("slots_abandoned", 0))
    for key in ("visits", "churns", "cloud_fetches"):
        if key in work:
            failed += max(0, work[key] - record.get(key, 0))
    return attempted, min(failed, attempted), []


def median(values):
    return statistics.median(values) if values else 0.0


def per_call(metrics, name, values):
    """A per-call timing: median, the highest sample with at least ten
    samples beyond it (the maximum when there are fewer than eleven), and
    the sample count."""
    ordered = sorted(values)
    count = len(ordered)
    tail = ordered[count - 11] if count >= 11 else (ordered[-1] if ordered else 0.0)
    metrics[name] = (median(ordered), "ms")
    metrics[name + ".tail"] = (tail, "ms")
    metrics[name + ".n"] = (count, "count")


def ratio(part, base):
    return part / base if base else 0.0


def samples(records, key):
    """Every per-call sample of `key` (a list per iteration) in the records."""
    return [value for r in records for value in r.get(key, [])]


def end_to_end_metrics(records):
    return {
        "setup_s": (median(samples(records, "setup_s")), "s"),
        "run_s": (median([r["run_s"] for r in records]), "s"),
        "wall_s": (median([r["wall_s"] for r in records]), "s"),
        "peak_rss_mb": (median([r["peak_rss_kb"] / 1024.0 for r in records]), "MB"),
    }


def per_layer_metrics(untraced, traced, attempted, failed):
    """Every per-layer metric, from untraced iterations (per-call timings,
    counts) and traced ones (the program's self-profile)."""
    m = {}

    def med(records, key):
        return median([r.get(key, 0) for r in records])

    def timing(name, key):
        per_call(m, name, samples(untraced, key))

    run_s = med(untraced, "run_s")
    wall_s = med(untraced, "wall_s")
    traced_run_s = med(traced, "run_s")
    n = med(untraced, "n")

    m["failed_frac"] = (ratio(failed, attempted), "ratio")
    m["failed_frac.base"] = (attempted, "count")

    timing("core.fleet_build_ms", "fleet_build_ms")
    m["core.visits"] = (med(untraced, "visits"), "count")
    m["core.churns"] = (med(untraced, "churns"), "count")
    m["core.cloud_fetches"] = (med(untraced, "cloud_fetches"), "count")
    m["core.rss_growth_kb_per_nym"] = (median(
        [(r["peak_rss_kb"] - r["rss_after_setup_kb"]) / r["n"] for r in untraced]), "kB/nym")
    m["core.rss_growth_kb_per_nym.base"] = (n, "count")
    m["core.nym_startup_sim_s.p50"] = (med(traced, "nym_startup_us.p50") / 1e6, "s")
    m["core.nym_startup_sim_s.tail"] = (med(traced, "nym_startup_us.tail") / 1e6, "s")
    m["core.nym_startup_sim_s.n"] = (med(traced, "nym_startup_us.n"), "count")

    timing("unionfs.image_build_ms", "image_build_ms")
    timing("crypto.digest_ms", "digest_ms")
    m["crypto.digest_mb"] = (med(untraced, "digest_bytes") / 1e6, "MB")

    timing("store.image_restore_ms", "image_restore_ms")
    timing("store.checkpoint_save_ms", "checkpoint_save_ms")
    m["store.checkpoint_bytes"] = (med(untraced, "checkpoint_bytes"), "B")

    merged = med(untraced, "ksm_memories_merged")
    skipped = med(untraced, "ksm_memories_skipped")
    m["hv.ksm_memories_merged"] = (merged, "count")
    m["hv.ksm_memories_skipped"] = (skipped, "count")
    m["hv.ksm_skip_ratio"] = (ratio(skipped, merged + skipped), "ratio")
    m["hv.ksm_skip_ratio.base"] = (merged + skipped, "count")
    m["hv.ksm_pages_sharing"] = (med(untraced, "ksm_pages_sharing"), "count")
    m["hv.fleet_pages_sharing"] = (med(untraced, "fleet_pages_sharing"), "count")
    timing("hv.ksm_reconcile_ms", "ksm_reconcile_ms")
    m["hv.ksm_passes"] = (med(traced, "hv.ksm.passes"), "count")
    m["hv.ksm_scan_us.p50"] = (med(traced, "ksm_scan_us.p50"), "us")
    m["hv.ksm_scan_us.tail"] = (med(traced, "ksm_scan_us.tail"), "us")
    m["hv.ksm_scan_us.n"] = (med(traced, "ksm_scan_us.n"), "count")
    m["hv.ksm_scan_share"] = (median([ratio(r["ksm_scan_us.sum"] / 1e6, r["run_s"])
                                      for r in traced]), "ratio")
    m["hv.ksm_scan_share.base_s"] = (traced_run_s, "s")

    full = med(untraced, "waterfills_full")
    component = med(untraced, "waterfills_component")
    skips = med(untraced, "waterfill_skips")
    m["net.waterfills_full"] = (full, "count")
    m["net.waterfills_component"] = (component, "count")
    m["net.waterfill_skips"] = (skips, "count")
    m["net.waterfill_skip_ratio"] = (ratio(skips, full + component + skips), "ratio")
    m["net.waterfill_skip_ratio.base"] = (full + component + skips, "count")
    m["net.flows_started"] = (med(traced, "net.flows_started"), "count")
    m["net.flow_wire_bytes"] = (med(traced, "net.flow_wire_bytes"), "B")

    m["anon.tor.circuits_built"] = (med(traced, "anon.tor.circuits_built"), "count")
    m["anon.tor.circuit_cells"] = (med(traced, "anon.tor.circuit_cells"), "count")

    events = med(untraced, "events")
    reuses = med(traced, "core.event_loop.callback_node_reuses")
    allocs = med(traced, "core.event_loop.callback_node_allocs")
    m["util.events"] = (events, "count")
    m["util.events_per_s"] = (ratio(events, run_s), "1/s")
    m["util.events_per_s.base_s"] = (run_s, "s")
    m["util.event_wall_ns.p50"] = (med(traced, "event_wall_ns.p50"), "ns")
    m["util.event_wall_ns.tail"] = (med(traced, "event_wall_ns.tail"), "ns")
    m["util.event_wall_ns.n"] = (med(traced, "event_wall_ns.n"), "count")
    m["util.callback_node_reuse_ratio"] = (ratio(reuses, reuses + allocs), "ratio")
    m["util.callback_node_reuse_ratio.base"] = (reuses + allocs, "count")

    threads = med(untraced, "threads")
    m["parallel.epochs"] = (med(untraced, "epochs"), "count")
    m["parallel.cross_deliveries"] = (med(untraced, "cross_deliveries"), "count")
    m["parallel.barrier_wait_ms.p50"] = (med(untraced, "barrier_wait_ms.p50"), "ms")
    m["parallel.barrier_wait_ms.tail"] = (med(untraced, "barrier_wait_ms.tail"), "ms")
    m["parallel.barrier_wait_ms.n"] = (med(untraced, "barrier_wait_ms.n"), "count")
    m["parallel.shard_skew_events"] = (med(untraced, "shard_skew_events"), "count")
    m["parallel.outbox_depth"] = (med(untraced, "outbox_depth"), "count")
    m["parallel.cpu_util"] = (median([ratio(r["cpu_run_s"], r["run_s"] * r["threads"])
                                      for r in untraced]), "ratio")
    m["parallel.cpu_util.base_s"] = (run_s * threads, "s")

    timing("obs.merge_ms", "merge_ms")
    timing("obs.trace_encode_ms", "trace_encode_ms")
    timing("obs.metrics_encode_ms", "metrics_encode_ms")
    m["obs.trace_mb"] = (med(untraced, "trace_bytes") / 1e6, "MB")
    m["obs.trace_overhead_frac"] = (ratio(med(traced, "wall_s"), wall_s) - 1.0, "ratio")
    m["obs.trace_overhead_frac.base_s"] = (wall_s, "s")

    timing("adversary.analyze_ms", "analyze_ms")
    m["adversary.entry_flows"] = (med(untraced, "entry_flows"), "count")
    m["adversary.tap_packets"] = (med(untraced, "tap_packets"), "count")
    m["adversary.tap_bytes"] = (med(untraced, "tap_bytes"), "B")
    return m


def machine_info(records):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    first = records[0] if records else {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "hardware_threads": first.get("hardware_threads", 0),
        "build_type": first.get("build_type", BUILD_TYPE),
    }


def positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1: %r" % text)
    return value


def seed_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed out of range: %r" % text)
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="fleetbench/run.py", allow_abbrev=False,
        description="Fleet benchmark: one workload, end-to-end (--trace 0) or "
                    "per-layer (--trace 1) metrics as the last stdout line.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed_int, default=DEFAULT_SEED,
                        help="workload seed (default %d; held-out seed %d)" %
                             (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=positive_int, default=10,
                        help="measurement time in seconds (default 10)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1 = traced run printing the per-layer metrics")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    started = time.monotonic()
    if not build():
        return 1
    n = WORKLOADS[args.workload]["n"]
    if not prepare(args.workload):
        log("fleetbench: preparation failed")
        return 1
    reference = compute_reference(args.workload, args.seed, n)

    # Untraced iterations for the whole time (--trace 0) or its first half.
    untraced_until = args.seconds if args.trace == 0 else args.seconds / 2.0
    measure_start = time.monotonic()
    untraced, traced = [], []
    attempted = failed = 0
    problems_seen = []

    def iterate(traced_run):
        nonlocal attempted, failed
        record = run_worker(workload_args(args.workload, args.seed, n, traced=traced_run))
        a, f, problems = score(args.workload, n, record, reference)
        attempted += a
        failed += f
        problems_seen.extend(problems)
        if record is not None:
            (traced if traced_run else untraced).append(record)
        return record is not None

    def time_left(until):
        now = time.monotonic()
        return now - measure_start < until and now - started < RUN_DEADLINE_S

    while True:
        if not iterate(False) or not time_left(untraced_until):
            break
    if args.trace == 1:
        while True:
            if not iterate(True) or not time_left(args.seconds):
                break

    for problem in sorted(set(problems_seen)):
        log("fleetbench: check failed: %s" % problem)
    correct = not problems_seen and bool(untraced) and (args.trace == 0 or bool(traced))
    info = machine_info(untraced + traced)
    info.update({"workload": args.workload, "seed": args.seed, "n": n,
                 "iterations_untraced": len(untraced), "iterations_traced": len(traced)})
    print("# machine: " + json.dumps(info, sort_keys=True))

    if not untraced or (args.trace == 1 and not traced):
        metrics = {}
    elif args.trace == 0:
        metrics = end_to_end_metrics(untraced)
    else:
        metrics = per_layer_metrics(untraced, traced, attempted, failed)
    if metrics:
        e2e = end_to_end_metrics(untraced)
        print("# %s seed=%d: setup_s=%.4f s run_s=%.4f s wall_s=%.4f s peak_rss_mb=%.1f MB "
              "failed_frac=%.6f (%d/%d)" % (
                  args.workload, args.seed, e2e["setup_s"][0], e2e["run_s"][0],
                  e2e["wall_s"][0], e2e["peak_rss_mb"][0], ratio(failed, attempted), failed,
                  attempted))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
