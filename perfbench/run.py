#!/usr/bin/env python3
"""Repository benchmark: a cold design-space sweep and two svc campaigns.

Usage, from the repository root:

    python3 perfbench/run.py --workload design-sweep|svc-mix|svc-burst \\
        --seed N --seconds S --trace 0|1

Builds perfbench_worker (perfbench/CMakeLists.txt, into .bench_build/),
runs the workload for about S seconds, checks every output against the
digests in perfbench/digests.json, and prints one JSON object as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  perfbench/README.md describes the workloads and metrics.
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKER = os.path.join(BUILD, "perfbench_worker")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("design-sweep", "svc-mix", "svc-burst")
# Overrides that would change what a workload measures (a warm eval
# cache, another sim tier, pool or width): refuse instead of measuring.
REFUSED_ENV = ("ULECC_EVAL_CACHE", "ULECC_BLOCK_CACHE", "ULECC_SUPERBLOCK",
               "ULECC_POOL", "ULECC_JOBS")
DEFAULT_SEED = 2026     # the seed the svc digests were recorded at
SVC_STREAMS = 3         # svc processes per run: set-up is timed 3 times
MIN_SWEEPS = 3          # cold sweeps per run, however short --seconds is
UNIT_TIMEOUT_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def child_env():
    """The environment of every child: no ULECC_* override, temp files
    inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ULECC_")}
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log_path, "w") as log:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=child_env(), timeout=850)
            if r.returncode != 0:
                fail("build failed (%s); see %s" % (" ".join(cmd), log_path))


def worker(*args):
    """Runs one worker process; returns the JSON object it printed."""
    r = subprocess.run([WORKER, *args], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, env=child_env(),
                       timeout=UNIT_TIMEOUT_S)
    if r.returncode != 0:
        fail("worker %s exited %d: %s" % (" ".join(args), r.returncode,
                                          r.stderr.strip()))
    return json.loads(r.stdout.strip().splitlines()[-1])


def git_commit():
    # The checkout the benchmark runs in need not be a git repository;
    # never let git search the directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def load_json(path):
    with open(path) as f:
        return json.load(f)


class Tally:
    """Attempted/failed operation counts plus failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        if not ok and what not in self.problems:
            self.problems.append(what)


def point_mismatches(digests, recorded):
    """Design points whose digest differs from the recorded one."""
    if len(digests) != len(recorded):
        return len(recorded)
    return sum(1 for d, r in zip(digests, recorded) if d != r)


# Per-layer svc counts: metric name -> key of the traced worker output.
SVC_COUNTS = {
    "svc.batch_passes": "batch_passes", "svc.cosim_anchors": "cosim_anchors",
    "svc.tier_fullsim": "tier_fullsim", "svc.tier_memoized": "tier_memoized",
    "svc.tier_analytic": "tier_analytic", "svc.shed_depth": "shed_depth",
    "svc.shed_deadline": "shed_deadline", "svc.retries": "retries",
}


def run_design_sweep(args, tally, trace):
    recorded = load_json(DIGESTS)["design-sweep"]
    units = []
    start = time.monotonic()
    while len(units) < MIN_SWEEPS or time.monotonic() - start < args.seconds:
        u = worker("sweep")
        units.append(u)
        mismatches = point_mismatches(u["point_digests"], recorded)
        tally.attempted += u["points"]
        tally.failed += max(u["errors"], mismatches)
        tally.check(mismatches == 0, "design-point digests differ from "
                    "the recorded ones")
        tally.check(u["cold"] == 1, "sweep did not start cold")
    sweep_s = statistics.median(u["sweep_s"] for u in units)
    e2e = {
        "setup_s": statistics.median(u["setup_s"] for u in units),
        "ops_per_s": statistics.median(u["points"] / u["sweep_s"]
                                       for u in units),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }
    if not trace:
        return e2e, {}
    serial = worker("sweep", "--serial")
    tally.check(serial["point_digests"] == units[0]["point_digests"],
                "serial sweep results differ from parallel")
    hits = statistics.median(u["eval_hits"] for u in units)
    misses = statistics.median(u["eval_misses"] for u in units)
    layers = {
        "core.eval_points": misses,
        "core.eval_cache_hit_ratio": hits / (hits + misses),
        "par.cpu_per_wall": statistics.median(u["cpu_s"] / u["sweep_s"]
                                              for u in units),
        "par.speedup": serial["sweep_s"] / sweep_s,
    }
    # The sweep runs no svc code.
    layers.update({name: 0 for name in SVC_COUNTS})
    layers["svc.batch_occupancy"] = 0.0
    return e2e, layers


def run_svc(args, tally, trace):
    traffic = args.workload[len("svc-"):]
    recorded = load_json(DIGESTS)[args.workload]
    streams = []
    for j in range(SVC_STREAMS):
        cmd = ["svc", "--traffic", traffic, "--seed", str(args.seed),
               "--stream", str(j), "--seconds",
               repr(args.seconds / SVC_STREAMS)]
        # Only the first stream reads the counters and runs the serial
        # campaign.
        streams.append(worker(*cmd, *(["--trace"] if trace and j == 0
                                      else [])))
    rates = []
    for s in streams:
        rates += [f / w for f, w in zip(s["finals"], s["wall_s"])]
        tally.attempted += s["generated"]
        tally.failed += (s["generated"] - s["completed_ok"]
                         + s["wrong_answers"] + s["unstructured_exceptions"])
        tally.check(sum(s["finals"]) == s["generated"], "finals != generated")
        tally.check(s["wrong_answers"] == 0, "wrong answers")
        tally.check(s["unstructured_exceptions"] == 0,
                    "unstructured exceptions")
    first = streams[0]
    if args.seed == recorded["seed"] and first["digest"] != recorded["digest"]:
        # The whole first campaign counts as failed: which request
        # differs is not known from a report digest.
        tally.failed += int(first["finals"][0])
        tally.check(False, "svc report digest differs from the recorded one")
    e2e = {
        "setup_s": statistics.median(s["setup_s"] for s in streams),
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in streams),
    }
    if not trace:
        return e2e, {}
    tally.check(first["serial_digest_agrees"] == 1,
                "serial campaign report differs from parallel")
    hits, misses = first["eval_hits"], first["eval_misses"]
    layers = {
        "core.eval_points": misses,
        "core.eval_cache_hit_ratio": hits / (hits + misses),
        "par.cpu_per_wall": (sum(s["cpu_s"] for s in streams)
                             / sum(sum(s["wall_s"]) for s in streams)),
        "par.speedup": first["serial_wall_s"] / first["wall_s"][0],
    }
    layers.update({name: first[key] for name, key in SVC_COUNTS.items()})
    layers["svc.batch_occupancy"] = (first["batch_members"]
                                     / max(first["batch_passes"], 1))
    return e2e, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    for name in REFUSED_ENV:
        if name in os.environ:
            fail("refusing to run with %s set: the benchmark measures the "
                 "default program" % name)

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    build()
    record = worker("info")
    record.update(commit=git_commit(), workload=args.workload,
                  seed=args.seed, trace=args.trace)
    print(json.dumps({"run_record": record}))

    tally = Tally()
    run = run_design_sweep if args.workload == "design-sweep" else run_svc
    e2e, layers = run(args, tally, args.trace == 1)
    if args.trace:
        layers.update(worker("probe"))
        layers.pop("peak_rss_mb")
        layers.update({"traced." + k: v for k, v in e2e.items()})
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("no value for metric(s): " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    for p in tally.problems:
        print("check failed: " + p)
    print("fail_share: %d/%d" % (tally.failed, tally.attempted))
    # A request shed by admission control is a failed operation, but a
    # correct output; wrong or unchecked outputs are problems.
    print(json.dumps({"correct": not tally.problems,
                      "attempted": int(tally.attempted),
                      "failed": int(tally.failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
