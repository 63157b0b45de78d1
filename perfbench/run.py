#!/usr/bin/env python3
"""The repository benchmark: four workloads, measured end to end and layer
by layer (see README.md in this directory).

    python3 perfbench/run.py --workload attack-webmd --seed 1 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call builds perfbench_bin from
the checkout's sources into .bench_build/perfbench. Each call then runs the
workload's prepare step (datagen, split, reference answers; never timed)
and its measured run in two separate processes, checks the answers, prints
a human-readable report, and ends with one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (per-layer times come from the bench spans in
the run's trace).
"""

import argparse
import collections
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_bin")
PINNED = os.path.join(HERE, "pinned_checksums.json")
WORKLOADS = ("attack-webmd", "attack-webmd-idf", "serve-read", "serve-ingest")
THREADS = 4
# Every run ends within this many seconds (the build of a fresh checkout
# is not counted).
DEADLINE_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds perfbench_bin; the build is a no-op when
    nothing changed."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                message = "cmake configure failed:\n" + tail(log_path)
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail(message)
        jobs = str(min(THREADS, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", BUILD_DIR, "--target",
                            "perfbench_bin", "-j", jobs],
                           stdout=log, stderr=log) != 0:
            fail("build failed:\n" + tail(log_path))


def tail(path, lines=30):
    with open(path) as f:
        return "".join(f.readlines()[-lines:])


def call_binary(args, timeout):
    """Runs perfbench_bin; returns its stdout. Its stderr passes through."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              timeout=max(timeout, 1), text=True)
    except subprocess.TimeoutExpired:
        fail("perfbench_bin %s timed out" % args[0])
    if done.returncode != 0:
        fail("perfbench_bin %s exited with %d" % (args[0], done.returncode))
    return done.stdout


def run_once(workload, seed, seconds, trace, workdir, tiny=False,
             corrupt=False, deadline=None):
    """Prepare + run in `workdir`; returns (report, trace_spans)."""
    common = ["--workload", workload, "--seed", str(seed), "--dir", workdir,
              "--tiny", "1" if tiny else "0"]
    deadline = deadline or time.monotonic() + DEADLINE_S
    call_binary(["prepare"] + common, deadline - time.monotonic())
    out = call_binary(["run"] + common + [
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
        "--corrupt", "1" if corrupt else "0"], deadline - time.monotonic())
    lines = out.strip().splitlines()
    if not lines:
        fail("perfbench_bin run printed no report")
    report = json.loads(lines[-1])
    spans = collections.defaultdict(list)
    trace_path = os.path.join(workdir, "trace.jsonl")
    if trace and os.path.exists(trace_path):
        with open(trace_path) as f:
            for line in f:
                event = json.loads(line)
                if event.get("cat") == "bench":
                    spans[event["name"]].append(event["dur_us"] / 1000.0)
    sizes = sum(os.path.getsize(os.path.join(workdir, name))
                for name in ("anon.jsonl", "aux.jsonl"))
    report["values"]["io.bytes"] = {"value": sizes, "unit": "bytes"}
    return report, spans


def check_pinned(workload, seed, report):
    """attack-*: the answers must equal the pinned checksums of this seed."""
    notes = report.get("notes", {})
    if not workload.startswith("attack") or "candidates_checksum" not in notes:
        return
    with open(PINNED) as f:
        pinned = json.load(f).get(workload, {}).get(str(seed))
    got = {"candidates": notes["candidates_checksum"],
           "predictions": notes["predictions_checksum"]}
    if pinned is None:
        detail, ok = "seed %d has no pinned checksums" % seed, True
    else:
        ok = pinned == got
        detail = "pinned %s, got %s" % (pinned, got)
    report["checks"].append({"name": "pinned_checksums", "ok": ok,
                             "detail": detail})
    report["attempted"] += 1
    if not ok:
        report["correct"] = False
        report["failed"] += 1


def value(report, name):
    entry = report["values"].get(name)
    return entry["value"] if entry else 0.0


def layer_values(workload, report, spans):
    """Per-layer metrics: times from the bench spans (mean per span), the
    rest from the run's own report. Layers that do not run are 0."""
    def ms(name):
        durations = spans.get(name, [])
        return sum(durations) / len(durations) if durations else 0.0

    v = lambda name: value(report, name)
    attack = workload.startswith("attack")
    layers = {}
    layers["io.load_ms"] = ms("io.load")
    layers["io.load_mb_per_s"] = (v("io.bytes") / 1e6 / (ms("io.load") / 1e3)
                                  if ms("io.load") else 0.0)
    layers["io.write_ms"] = ms("io.write")
    layers["uda.ms"] = ms("uda")
    layers["uda.posts"] = v("uda.posts")
    layers["uda.us_per_post"] = (1000.0 * ms("uda") / v("uda.posts")
                                 if v("uda.posts") else 0.0)
    layers["uda.rss_mb"] = v("uda.rss_mb")
    layers["score.ms"] = ms("score")
    layers["score.pairs"] = v("score.pairs")
    layers["score.ns_per_pair_thread"] = (
        1e6 * ms("score") * THREADS / v("score.pairs")
        if v("score.pairs") else 0.0)
    layers["score.rss_mb"] = v("score.rss_mb")
    layers["index.dense_scan_ratio"] = v("index.dense_scan_ratio")
    layers["index.prune_ratio"] = v("index.prune_ratio")
    # attack-*: one whole-universe selection / refined DA per repeat;
    # serve-read: one single-user engine call (the traced probes).
    probes = v("probe.users")
    per_call = lambda name: ms(name) / probes if probes else ms(name)
    layers["topk.ms"] = per_call("topk")
    layers["refined.ms"] = per_call("refined")
    layers["refined.users"] = v("refined.users") if attack else (
        1.0 if probes else 0.0)
    layers["refined.us_per_user"] = (1000.0 * layers["refined.ms"] /
                                     layers["refined.users"]
                                     if layers["refined.users"] else 0.0)
    for name in ("serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
                 "serve.batch_mean", "serve.engine_p99_ms",
                 "serve.wire_mean_ms", "serve.overloaded", "serve.timeouts",
                 "ingest.cut_ms", "ingest.segment_bytes",
                 "loadgen.late_p99_ms", "loadgen.sent", "loadgen.completed"):
        layers[name] = v(name)
    layers["ingest.load_ms"] = ms("ingest.load")
    layers["ingest.apply_us_per_post"] = (
        1000.0 * ms("ingest.load") / v("ingest.posts_per_segment")
        if v("ingest.posts_per_segment") else 0.0)
    layers["ingest.seal_ms"] = ms("ingest.seal")
    if attack:
        attributed = sum(ms(name) for name in
                         ("uda", "score", "topk", "refined", "io.write"))
        layers["attack.unattributed_ms"] = ms("attack") - attributed
        base, traced = v("untraced_attack_ms"), v("traced_attack_ms")
    else:
        layers["attack.unattributed_ms"] = 0.0
        base, traced = v("untraced_refine_p50_ms"), v("traced_refine_p50_ms")
    layers["trace.overhead_pct"] = (100.0 * (traced / base - 1.0)
                                    if base else 0.0)
    return layers


# The service's named metrics, printed where the workload has them.
NAMED = (("setup_s", "s"), ("attack_s", "s"), ("peak_rss_mb", "MB"),
         ("refine_p50_ms", "ms"), ("refine_p99_ms", "ms"),
         ("topk_p50_ms", "ms"), ("topk_p99_ms", "ms"), ("max_qps", "req/s"),
         ("freshness_s", "s"), ("swap_refine_p99_ms", "ms"))
SAMPLES = {"refine_p99_ms": "refine_samples", "topk_p99_ms": "topk_samples",
           "swap_refine_p99_ms": "swap_refine_samples",
           "latency_p99_ms": "saturation_samples"}


def samples_note(values, name):
    if name in SAMPLES and SAMPLES[name] in values:
        return "  (n=%d)" % values[SAMPLES[name]]["value"]
    return ""


def print_report(args, report, metrics, spec):
    print("perfbench %s seed=%d seconds=%d trace=%d (nproc=%d, Release)" % (
        args.workload, args.seed, args.seconds, args.trace,
        os.cpu_count() or 0))
    values = report["values"]
    if not args.trace:
        for name, unit in NAMED:
            if name in values:
                print("  %-22s %12.4f %s%s" % (
                    name, values[name]["value"], unit,
                    samples_note(values, name)))
        attempted = max(report["attempted"], 1)
        print("  %-22s %12.6f ratio  (%d of %d)" % (
            "failed_frac", report["failed"] / attempted, report["failed"],
            report["attempted"]))
        for name in ("top_k_success", "accuracy"):
            if name in values:
                print("  %-22s %12.4f" % (name, values[name]["value"]))
    for name, notes in sorted(report.get("notes", {}).items()):
        print("  %-22s %s" % (name, notes))
    print("  -- %s metrics --" % ("per-layer" if args.trace else "end-to-end"))
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if args.trace else "end_to_end"]}
    for name, entry in metrics.items():
        print("  %-26s %14.4f %s%s" % (name, entry["value"], units[name],
                                       samples_note(values, name)))
    for check in report["checks"]:
        print("  check %-28s %s  %s" % (check["name"],
                                         "ok" if check["ok"] else "FAILED",
                                         check["detail"]))
    print("  verdict: %s" % ("correct" if report["correct"] else "INCORRECT"))


def measure(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    started = time.monotonic()
    workdir = os.path.join(ROOT, ".bench_build", "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        report, spans = run_once(args.workload, args.seed, args.seconds,
                                 args.trace, workdir,
                                 deadline=started + DEADLINE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_pinned(args.workload, args.seed, report)

    if args.trace:
        found = layer_values(args.workload, report, spans)
        listed = spec["per_layer"]
    else:
        found = {name: entry["value"]
                 for name, entry in report["values"].items()}
        listed = spec["end_to_end"]
    metrics = {}
    for metric in listed:
        if metric["name"] not in found:
            fail("the run did not measure %s" % metric["name"])
        metrics[metric["name"]] = {"value": found[metric["name"]],
                                   "unit": metric["unit"]}
    print_report(args, report, metrics, spec)
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


def selftest():
    """Tiny-size runs of every workload: clean runs must pass the gate and
    runs with one corrupted reference answer must fail it."""
    build()
    ok = True
    for workload in WORKLOADS:
        for corrupt in (False, True):
            workdir = os.path.join(ROOT, ".bench_build", "runs",
                                   "selftest-%s-%d" % (workload, os.getpid()))
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            try:
                report, _ = run_once(workload, 1, 2, False, workdir,
                                     tiny=True, corrupt=corrupt)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            expected = not corrupt
            passed = report["correct"] == expected and (
                corrupt or report["failed"] == 0)
            ok = ok and passed
            print("selftest %-18s %-9s -> correct=%s failed=%d: %s" % (
                workload, "corrupt" if corrupt else "clean",
                report["correct"], report["failed"],
                "as expected" if passed else "UNEXPECTED"))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the correctness gate trips")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    measure(args)


if __name__ == "__main__":
    main()
