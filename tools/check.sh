#!/usr/bin/env bash
# One-command verification loop: build both presets, run the test
# suites, exercise the telemetry producers, and validate every emitted
# JSON document against the checked-in schemas in tools/schemas/.
#
# Usage: tools/check.sh [--no-asan] [--no-tsan] [--diffuzz N] [--bench]
#                       [--soak]
#
# --diffuzz N sets the differential-fuzz case count per target
# (default 10000; 0 skips the diffuzz step).
#
# --soak additionally runs a large chaos-mode crypto-as-a-service
# campaign (svc_run, under the ASan build when enabled): every request
# must end in a correct result or a structured error, the JSON report
# must validate against its schema, and the same seed must produce a
# byte-identical timing-free report across two runs and across
# --serial/parallel execution.
#
# --bench additionally runs bench_simspeed and bench_svc, validates
# their journal records, and compares them against the committed
# BENCH_simspeed.json / BENCH_svc.json baselines.  Those baselines come
# from whatever host last regenerated them, so absolute throughput
# (sim_mips, svc_requests_per_sec, ...) is printed for information
# only.  The gates are host-independent: same-run ratios
# (svc_batch_speedup, svc_telemetry_overhead) fail beyond a 25%
# shortfall against baseline, and deterministic counter ratios
# (svc_batch_occupancy) are checked tight.
# Finally it re-runs the bench_multspace sweep and byte-compares the
# ulecc.multspace.v1 journal against the committed BENCH_multspace.json
# -- the multiplier design-space numbers are pure evaluation, so any
# drift is a real model change, not noise.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

run_asan=1
run_tsan=1
run_bench=0
run_soak=0
diffuzz_cases=10000

# Flags are strict: a typo or a malformed --diffuzz count exits 2
# with the usage line before anything is built.
usage() {
    echo "check.sh: [invalid-input] $1" >&2
    echo "usage: tools/check.sh [--no-asan] [--no-tsan] [--diffuzz N]" \
         "[--bench] [--soak]" >&2
    exit 2
}
while [[ $# -gt 0 ]]; do
    case "$1" in
        --no-asan) run_asan=0 ;;
        --no-tsan) run_tsan=0 ;;
        --bench) run_bench=1 ;;
        --soak) run_soak=1 ;;
        --diffuzz)
            [[ $# -ge 2 ]] || usage "--diffuzz requires a case count"
            [[ "$2" =~ ^(0|[1-9][0-9]*)$ ]] \
                || usage "--diffuzz count '$2' is not a non-negative integer"
            diffuzz_cases="$2"
            shift
            ;;
        *) usage "unknown flag '$1'" ;;
    esac
    shift
done

step() { printf '\n== %s ==\n' "$*"; }

step "configure + build (default preset, warnings are errors)"
cmake --preset default -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build --preset default -j "$(nproc)"

step "test (default preset)"
ctest --preset default -j "$(nproc)"

if [[ $run_asan -eq 1 ]]; then
    step "configure + build (asan preset)"
    cmake --preset asan
    cmake --build --preset asan -j "$(nproc)"

    step "test (asan preset)"
    ctest --preset asan -j "$(nproc)"
fi

if [[ $run_tsan -eq 1 ]]; then
    # ThreadSanitizer covers the concurrency layer: the thread pool,
    # the parallel sweep runner, the per-key memo helper (OnceMap) and
    # the evaluation memo (test_par), and the multi-threaded service
    # engine (test_svc).  The serial suites
    # add nothing under TSan, so only the concurrent tests run here.
    step "configure + build (tsan preset)"
    cmake --preset tsan
    cmake --build --preset tsan -j "$(nproc)" --target test_par test_svc

    step "test (tsan preset: parallel suites)"
    ctest --preset tsan -j "$(nproc)" \
        -R '^(ThreadPool|OnceMap|Sweep|EvalCache|BenchSweep|Svc)'
fi

json_check="$repo/build/tools/json_check"
schemas="$repo/tools/schemas"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

step "telemetry: ulecc-run metrics + trace"
"$repo/build/tools/ulecc-run" \
    --trace "$work/trace.json" --profile \
    --metrics "$work/run_metrics.json" --energy \
    "$repo/tools/sample_gcd.s" > "$work/run.txt"
"$json_check" "$schemas/run_metrics.schema.json" \
    "$work/run_metrics.json"
"$json_check" "$schemas/trace.schema.json" "$work/trace.json"

step "telemetry: bench journal (zero-change JSONL capture)"
: > "$work/bench.jsonl"
ULECC_BENCH_METRICS="$work/bench.jsonl" \
    "$repo/build/bench/bench_fig7_02" > "$work/bench.txt"
"$repo/build/bench/bench_fig7_02" > "$work/bench_plain.txt"
if ! cmp -s "$work/bench.txt" "$work/bench_plain.txt"; then
    echo "FAIL: journal capture changed bench text output" >&2
    exit 1
fi
[[ -s "$work/bench.jsonl" ]] || {
    echo "FAIL: bench journal produced no records" >&2; exit 1; }
"$json_check" --jsonl "$schemas/bench_record.schema.json" \
    "$work/bench.jsonl"

step "paper benches: serial vs parallel (text and journals identical)"
# Every harness reads its points through SweepDriver, which fills the
# shared evaluation memo from the parallel sweep: each paper bench
# must print and journal the same bytes as its --serial run.
paper_benches=(bench_fig7_{01..15} bench_table7_{1..5} bench_sec7_7
               bench_sec7_8 bench_ablation bench_future_work
               bench_related_work bench_multspace)
# The par runs are also the cold paper-suite wall-clock: one fresh
# process per bench, one after another (printed, never gated).
par_ns=0
for bench in "${paper_benches[@]}"; do
    for mode in par ser; do
        extra=()
        [[ $mode == ser ]] && extra=(--serial)
        out="$work/$bench.$mode"
        : > "$out.jsonl"
        : > "$out.multspace.jsonl"
        t0=$(date +%s%N)
        ULECC_BENCH_METRICS="$out.jsonl" \
        ULECC_MULTSPACE_METRICS="$out.multspace.jsonl" \
            "$repo/build/bench/$bench" "${extra[@]}" > "$out.txt"
        if [[ $mode == par ]]; then
            par_ns=$((par_ns + $(date +%s%N) - t0))
        fi
    done
    for ext in txt jsonl multspace.jsonl; do
        if ! cmp -s "$work/$bench.par.$ext" "$work/$bench.ser.$ext"; then
            echo "FAIL: $bench $ext differs serial vs parallel" >&2
            diff "$work/$bench.par.$ext" "$work/$bench.ser.$ext" >&2 \
                || true
            exit 1
        fi
    done
    "$json_check" --jsonl "$schemas/bench_record.schema.json" \
        "$work/$bench.par.jsonl"
done
echo "ok:   ${#paper_benches[@]} paper benches byte-identical serial vs parallel"
printf 'info: %d paper benches (par) %d.%02d s\n' "${#paper_benches[@]}" \
    $((par_ns / 1000000000)) $((par_ns / 10000000 % 100))
"$json_check" --jsonl "$schemas/multspace.schema.json" \
    "$work/bench_multspace.par.multspace.jsonl"

if [[ $run_bench -eq 1 ]]; then
    step "bench: simulator throughput vs committed baseline"
    : > "$work/bench_ss.jsonl"
    ULECC_BENCH_METRICS="$work/bench_ss.jsonl" \
        "$repo/build/bench/bench_simspeed" > "$work/bench_ss.txt"
    "$json_check" --jsonl "$schemas/bench_record.schema.json" \
        "$work/bench_ss.jsonl"
    python3 "$repo/tools/bench_gate.py" "$repo/BENCH_simspeed.json" \
        "$work/bench_ss.jsonl" \
        --info sim_mips sim_wall_seconds

    step "bench: service-engine throughput vs committed baseline"
    : > "$work/bench_svc.jsonl"
    ULECC_BENCH_METRICS="$work/bench_svc.jsonl" \
        "$repo/build/bench/bench_svc" > "$work/bench_svc.txt"
    "$json_check" --jsonl "$schemas/bench_record.schema.json" \
        "$work/bench_svc.jsonl"
    # Occupancy is a counter ratio: a drop means the former quietly
    # stopped coalescing (a rise is fine).
    python3 "$repo/tools/bench_gate.py" "$repo/BENCH_svc.json" \
        "$work/bench_svc.jsonl" \
        --info svc_requests_per_sec svc_batch_off_rps svc_batch_on_rps \
        --ratio svc_batch_speedup \
        --ratio-lower svc_telemetry_overhead \
        --at-least svc_batch_occupancy

    step "bench: multiplier design space vs committed baseline"
    ms_journal="$work/bench_multspace.par.multspace.jsonl"
    if ! cmp -s "$repo/BENCH_multspace.json" "$ms_journal"; then
        echo "FAIL: multspace journal drifted from BENCH_multspace.json" >&2
        diff "$repo/BENCH_multspace.json" "$ms_journal" >&2 || true
        exit 1
    fi
    echo "ok:   80 multspace records byte-identical to baseline"
fi

if [[ "$diffuzz_cases" != "0" ]]; then
    # Prefer the sanitizer build: a differential mismatch caught with
    # ASan attached pinpoints memory misuse, not just wrong answers.
    diffuzz_bin="$repo/build/tools/diffuzz"
    if [[ $run_asan -eq 1 ]]; then
        diffuzz_bin="$repo/build-asan/tools/diffuzz"
    fi

    step "diffuzz: $diffuzz_cases cases/target (seed 1)"
    "$diffuzz_bin" --seed 1 --cases "$diffuzz_cases" \
        --json "$work/diffuzz.json"
    "$json_check" "$schemas/diffuzz.schema.json" "$work/diffuzz.json"

    step "diffuzz: determinism (same seed, byte-identical report)"
    "$diffuzz_bin" --seed 1 --cases "$diffuzz_cases" \
        --json "$work/diffuzz2.json"
    if ! cmp -s "$work/diffuzz.json" "$work/diffuzz2.json"; then
        echo "FAIL: diffuzz report not reproducible at fixed seed" >&2
        diff "$work/diffuzz.json" "$work/diffuzz2.json" >&2 || true
        exit 1
    fi

    step "diffuzz: replay checked-in regression corpus"
    "$diffuzz_bin" --replay "$repo/tests/golden/corpus/regressions.case"
fi

if [[ $run_soak -eq 1 ]]; then
    soak_args=(--seed 2026 --requests 2000 --users 400 --chaos 25
               --arrival bursty --quiet)

    # The memory-safety half runs once under the sanitizer build when
    # available: nothing -- not even an injected fault -- may corrupt
    # memory or escape the structured error taxonomy.
    svc_bin="$repo/build/tools/svc_run"
    if [[ $run_asan -eq 1 ]]; then
        svc_bin="$repo/build-asan/tools/svc_run"
    fi
    # Telemetry rides along: the SLO engine judges the chaos campaign
    # against the default error budget, and svc_run exits 1 if the
    # budget is breached without a corresponding alert event (the
    # alerting-completeness contract).  The alert log and flight dump
    # must also validate against their schemas.
    step "svc soak: 2000 chaos-mode requests (seed 2026)"
    "$svc_bin" "${soak_args[@]}" --json "$work/svc_soak.json" \
        --timeline "$work/svc_soak.timeline" \
        --slo "$work/svc_soak.slo" \
        --flight-recorder "$work/svc_soak.flight"
    "$json_check" "$schemas/svc_report.schema.json" "$work/svc_soak.json"
    "$json_check" --jsonl "$schemas/svc_timeline.schema.json" \
        "$work/svc_soak.timeline"
    "$json_check" --jsonl "$schemas/svc_slo.schema.json" \
        "$work/svc_soak.slo"
    "$json_check" "$schemas/svc_flight.schema.json" "$work/svc_soak.flight"
    python3 - "$work/svc_soak.slo" <<'EOF'
import json, sys

# Alerting completeness, checked from the artifact itself: if the
# verdict says the campaign breached its error budget, at least one
# firing alert event must precede it in the log.
records = [json.loads(l) for l in open(sys.argv[1])]
verdict = records[-1]
assert verdict["kind"] == "verdict", "last SLO record must be verdict"
fired = sum(1 for r in records[:-1]
            if r["kind"] == "alert" and r["state"] == "firing")
if verdict["breached"] and fired == 0:
    print("FAIL: SLO budget breached with no alert fired")
    sys.exit(1)
if fired != verdict["alerts_fired"]:
    print(f"FAIL: verdict counts {verdict['alerts_fired']} alerts, "
          f"log has {fired}")
    sys.exit(1)
print(f"ok:   slo verdict breached={verdict['breached']} "
      f"alerts_fired={fired}")
EOF

    # The determinism half triple-runs on the fast build: same seed,
    # byte-identical timing-free report, parallel twice and --serial
    # once.  The report must also match the sanitizer run's -- the
    # instrumentation cannot change a single counter.
    step "svc soak: determinism (re-runs + --serial, byte-identical)"
    svc_fast="$repo/build/tools/svc_run"
    "$svc_fast" "${soak_args[@]}" --json "$work/svc_soak2.json"
    "$svc_fast" "${soak_args[@]}" --serial --json "$work/svc_soak3.json"
    for other in 2 3; do
        if ! cmp -s "$work/svc_soak.json" "$work/svc_soak$other.json"; then
            echo "FAIL: svc report not reproducible at fixed seed" >&2
            diff "$work/svc_soak.json" "$work/svc_soak$other.json" >&2 || true
            exit 1
        fi
    done
fi

step "telemetry: svc artifacts (serial vs pool)"
# Batching on (explicitly, with a close policy that actually
# coalesces): every artifact must still be byte-identical whether
# requests execute inline or on the pool.
svc_tel_args=(--seed 11 --requests 400 --chaos 20 --arrival bursty
              --batch-max 8 --batch-linger-us 3000 --quiet)
for mode in par ser; do
    extra=()
    [[ $mode == ser ]] && extra=(--serial)
    "$repo/build/tools/svc_run" "${svc_tel_args[@]}" "${extra[@]}" \
        --json "$work/svc_$mode.json" \
        --trace-requests "$work/svc_$mode.trace" \
        --timeline "$work/svc_$mode.timeline" \
        --slo "$work/svc_$mode.slo" \
        --flight-recorder "$work/svc_$mode.flight"
done
for ext in json trace timeline slo flight; do
    if ! cmp -s "$work/svc_par.$ext" "$work/svc_ser.$ext"; then
        echo "FAIL: svc $ext artifact differs par vs ser" >&2
        diff "$work/svc_par.$ext" "$work/svc_ser.$ext" >&2 || true
        exit 1
    fi
done

step "batching: batch-on vs batch-off outcome cross-check"
# With deadlines generous enough that nothing sheds or expires,
# request outcomes are a pure function of (seed, id, attempt): the
# batched and unbatched engines must agree on every outcome counter
# even though their virtual timelines differ.
svc_eq_args=(--seed 515 --requests 400 --chaos 20 --arrival bursty
             --rate 2000 --queue-cap 100000 --deadline-factor 1000000
             --deadline-floor-ms 1000000000 --quiet)
"$repo/build/tools/svc_run" "${svc_eq_args[@]}" --batch-max 16 \
    --batch-linger-us 4000 --json "$work/svc_batch_on.json"
"$repo/build/tools/svc_run" "${svc_eq_args[@]}" --no-batch \
    --json "$work/svc_batch_off.json"
python3 - "$work/svc_batch_on.json" "$work/svc_batch_off.json" <<'EOF'
import json, sys

on = json.load(open(sys.argv[1]))
off = json.load(open(sys.argv[2]))
fail = False
for section, keys in [
    ("totals", ["generated", "arrivals", "admitted", "executed",
                "completed_ok", "failed", "finals"]),
    ("retry", ["scheduled", "exhausted"]),
    ("chaos", ["strikes", "detected", "masked", "silent_caught"]),
    ("errors", ["wrong_answers", "unstructured_exceptions",
                "failed_by_errc"]),
]:
    for key in keys:
        a, b = on[section][key], off[section][key]
        if a != b:
            print(f"FAIL: {section}.{key} batch-on {a} != batch-off {b}")
            fail = True
occ = on["batch"]["occupancy"]["mean"]
if occ <= 1.0:
    print(f"FAIL: batch-on occupancy {occ} -- nothing coalesced")
    fail = True
if not fail:
    print(f"ok:   outcomes identical, batch-on occupancy {occ:.2f}")
sys.exit(1 if fail else 0)
EOF
"$json_check" "$schemas/svc_report.schema.json" "$work/svc_par.json"
"$json_check" "$schemas/svc_trace.schema.json" "$work/svc_par.trace"
"$json_check" --jsonl "$schemas/svc_timeline.schema.json" \
    "$work/svc_par.timeline"
"$json_check" --jsonl "$schemas/svc_slo.schema.json" "$work/svc_par.slo"
"$json_check" "$schemas/svc_flight.schema.json" "$work/svc_par.flight"

step "telemetry: fault campaign summary"
"$repo/build/tools/fault_campaign" --seed 7 --campaigns 10 \
    > "$work/campaign.json"
"$json_check" "$schemas/fault_campaign.schema.json" \
    "$work/campaign.json"

step "all checks passed"
