/**
 * @file
 * The svc campaign report (see report.hh).
 */

#include "svc/report.hh"

#include <cstdio>

#include "obs/energy_ledger.hh"
#include "svc/session.hh"

namespace ulecc
{

Json
svcReport(const SvcConfig &cfg, const BatchPolicy &policy,
          const SvcCounters &counters, const SvcTotals &totals)
{
    Json root = Json::object();
    root["schema"] = "ulecc.svc.v1";
    root["seed"] = cfg.seed;

    Json config = Json::object();
    config["requests"] = cfg.requests;
    config["users"] = cfg.users;
    config["virtual_workers"] = cfg.virtualWorkers;
    config["queue_cap"] = static_cast<uint64_t>(cfg.queueCap);
    config["deadline_factor"] = cfg.deadlineFactor;
    config["deadline_floor_ns"] = cfg.deadlineFloorNs;
    Json arrivals = Json::object();
    arrivals["kind"] = arrivalKindName(cfg.arrivals.kind);
    arrivals["rate_per_sec"] = cfg.arrivals.ratePerSec;
    arrivals["burst_factor"] = cfg.arrivals.burstFactor;
    arrivals["burst_ns"] = cfg.arrivals.burstNs;
    arrivals["idle_ns"] = cfg.arrivals.idleNs;
    arrivals["clients"] = cfg.arrivals.clients;
    arrivals["think_ns"] = cfg.arrivals.thinkNs;
    arrivals["diurnal"] = cfg.arrivals.diurnal;
    arrivals["day_ns"] = cfg.arrivals.dayNs;
    arrivals["diurnal_amp"] = cfg.arrivals.diurnalAmp;
    arrivals["diurnal_steps"] = cfg.arrivals.diurnalSteps;
    config["arrivals"] = arrivals;
    // The policy that ran: zero linger runs size-1 batches.
    Json batchCfg = Json::object();
    batchCfg["enabled"] = policy.maxSize > 1;
    batchCfg["max_size"] = policy.maxSize;
    batchCfg["linger_ns"] = policy.lingerNs;
    batchCfg["deadline_slack"] = policy.deadlineSlack;
    batchCfg["setup_fraction"] = policy.setupFraction;
    config["batch"] = batchCfg;
    Json backoff = Json::object();
    backoff["base_ns"] = cfg.backoff.baseNs;
    backoff["cap_ns"] = cfg.backoff.capNs;
    backoff["max_attempts"] = cfg.backoff.maxAttempts;
    backoff["jitter_ns"] = cfg.backoff.jitterNs;
    config["backoff"] = backoff;
    Json degrade = Json::object();
    degrade["memoized_depth"] =
        static_cast<uint64_t>(cfg.degrade.memoizedDepth);
    degrade["analytic_depth"] =
        static_cast<uint64_t>(cfg.degrade.analyticDepth);
    config["degrade"] = degrade;
    config["chaos_percent"] = cfg.chaos.percent;
    Json curveNames = Json::array();
    for (CurveId id : cfg.curves)
        curveNames.push(curveIdName(id));
    config["curves"] = curveNames;
    root["config"] = config;

    Json totalsOut = Json::object();
    totalsOut["generated"] = counters.generated;
    totalsOut["arrivals"] = counters.arrivals;
    totalsOut["admitted"] = counters.admitted;
    totalsOut["executed"] = counters.executed;
    totalsOut["completed_ok"] = counters.completedOk;
    totalsOut["failed"] = counters.failed;
    totalsOut["finals"] = counters.completedOk + counters.failed;
    totalsOut["busy_ns"] = totals.busyNs;
    totalsOut["busy_cycles"] =
        static_cast<double>(totals.busyNs) / kSvcClockNs;
    root["totals"] = totalsOut;

    Json shed = Json::object();
    shed["queue_depth"] = counters.shedDepth;
    shed["deadline_budget"] = counters.shedDeadlineBudget;
    root["shed"] = shed;

    Json deadline = Json::object();
    deadline["expired_at_arrival"] = counters.expiredAtArrival;
    deadline["expired_in_queue"] = counters.expiredInQueue;
    deadline["cancelled_mid_service"] =
        counters.cancelledMidService;
    root["deadline"] = deadline;

    Json retry = Json::object();
    retry["scheduled"] = counters.retriesScheduled;
    retry["exhausted"] = counters.retriesExhausted;
    Json byAttempt = Json::array();
    for (uint64_t n : counters.retriesByAttempt)
        byAttempt.push(n);
    retry["finals_by_attempt"] = byAttempt;
    root["retry"] = retry;

    Json degradeOut = Json::object();
    degradeOut["full_sim"] = counters.tierFullSim;
    degradeOut["memoized"] = counters.tierMemoized;
    degradeOut["analytic"] = counters.tierAnalytic;
    degradeOut["eval_fallbacks"] = counters.evalFallbacks;
    root["degrade"] = degradeOut;

    // Batch formation + execution: closes by trigger, how many
    // requests rode a shared pass, and the occupancy histogram
    // (members per dispatched batch).
    Json batch = Json::object();
    batch["closed_total"] = counters.batchesClosed;
    batch["closed_by_size"] = counters.batchClosedBySize;
    batch["closed_by_linger"] = counters.batchClosedByLinger;
    batch["closed_by_deadline"] = counters.batchClosedByDeadline;
    batch["members_total"] = counters.batchMembersTotal;
    batch["passes_executed"] = counters.batchPassesExecuted;
    batch["cosim_anchors"] = counters.batchCosimAnchors;
    Json occupancy = Json::object();
    occupancy["count"] = totals.batchOccupancy.count();
    occupancy["p50"] = totals.batchOccupancy.percentilePermille(500);
    occupancy["p99"] = totals.batchOccupancy.percentilePermille(990);
    occupancy["max"] = totals.batchOccupancy.max();
    occupancy["mean"] = totals.batchOccupancy.mean();
    batch["occupancy"] = occupancy;
    root["batch"] = batch;

    Json chaos = Json::object();
    chaos["strikes"] = counters.chaosStrikes;
    chaos["detected"] = counters.chaosDetected;
    chaos["masked"] = counters.chaosMasked;
    chaos["silent_caught"] = counters.chaosSilentCaught;
    Json byKind = Json::object();
    for (const auto &[kind, n] : counters.chaosByKind)
        byKind[kind] = n;
    chaos["by_kind"] = byKind;
    root["chaos"] = chaos;

    Json errors = Json::object();
    errors["wrong_answers"] = counters.wrongAnswers;
    errors["unstructured_exceptions"] =
        counters.unstructuredExceptions;
    Json byErrc = Json::object();
    for (const auto &[name, n] : counters.failedByErrc)
        byErrc[name] = n;
    errors["failed_by_errc"] = byErrc;
    root["errors"] = errors;

    Json session = Json::object();
    session["derivations"] = totals.sessionDerivations;
    session["hits"] = totals.sessionHits;
    session["shards"] = SessionCache::kShards;
    root["session"] = session;

    // Latency comes from the bounded HDR histogram: count, max
    // and mean are exact; percentiles are quantized to one
    // log-bucket (upper edge, clamped to the exact max), so they
    // never undershoot the true order statistic by more than the
    // documented relative error.
    Json latency = Json::object();
    latency["count"] = totals.okLatency.count();
    latency["p50_ns"] = totals.okLatency.percentilePermille(500);
    latency["p99_ns"] = totals.okLatency.percentilePermille(990);
    latency["p999_ns"] = totals.okLatency.percentilePermille(999);
    latency["max_ns"] = totals.okLatency.max();
    latency["mean_ns"] = totals.okLatency.mean();
    Json precision = Json::object();
    precision["sub_bucket_bits"] =
        static_cast<uint64_t>(HdrHistogram::kSubBucketBits);
    precision["relative_error"] =
        HdrHistogram::relativeErrorBound();
    latency["precision"] = precision;
    root["latency"] = latency;

    // Energy: the exact per-request sums per op kind, plus the
    // EnergyLedger decomposition of the modelled event activity.
    Json energy = Json::object();
    double totalUj = totals.totalUj();
    Json perOp = Json::object();
    for (int op = 0; op < kNumOps; ++op) {
        Json o = Json::object();
        o["served"] = totals.opServed[op];
        o["uj"] = totals.opUj[op];
        perOp[opKindName(static_cast<OpKind>(op))] = o;
    }
    energy["per_op"] = perOp;
    energy["analytic_uj"] = totals.analyticUj;
    energy["cancelled_uj"] = totals.cancelledUj;
    energy["total_uj"] = totalUj;
    energy["uj_per_ok_request"] = counters.completedOk
        ? totalUj / static_cast<double>(counters.completedOk)
        : 0.0;
    EnergyLedger ledger;
    for (int op = 0; op < kNumOps; ++op) {
        if (totals.opEvents[op].cycles)
            ledger.addPhase(opKindName(static_cast<OpKind>(op)),
                            totals.opEvents[op]);
    }
    energy["ledger"] = ledger.toJson();
    root["energy"] = energy;

    root["virtual_ns"] = totals.virtualEndNs;
    return root;
}

std::string
svcReportText(const SvcCounters &counters, const SvcTotals &totals)
{
    char buf[512];
    std::string out;
    auto line = [&out, &buf](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        out += buf;
        out += '\n';
    };
    line("svc: %llu requests, %llu ok, %llu failed "
         "(%llu finals, %llu arrivals)",
         (unsigned long long)counters.generated,
         (unsigned long long)counters.completedOk,
         (unsigned long long)counters.failed,
         (unsigned long long)(counters.completedOk + counters.failed),
         (unsigned long long)counters.arrivals);
    line("  shed: %llu depth, %llu deadline-budget; deadline: "
         "%llu at-arrival, %llu in-queue, %llu cancelled",
         (unsigned long long)counters.shedDepth,
         (unsigned long long)counters.shedDeadlineBudget,
         (unsigned long long)counters.expiredAtArrival,
         (unsigned long long)counters.expiredInQueue,
         (unsigned long long)counters.cancelledMidService);
    line("  retry: %llu scheduled, %llu exhausted",
         (unsigned long long)counters.retriesScheduled,
         (unsigned long long)counters.retriesExhausted);
    line("  tiers: %llu full-sim, %llu memoized, %llu analytic",
         (unsigned long long)counters.tierFullSim,
         (unsigned long long)counters.tierMemoized,
         (unsigned long long)counters.tierAnalytic);
    line("  batch: %llu closed (%llu size, %llu linger, "
         "%llu deadline), %.2f mean occupancy, %llu anchors",
         (unsigned long long)counters.batchesClosed,
         (unsigned long long)counters.batchClosedBySize,
         (unsigned long long)counters.batchClosedByLinger,
         (unsigned long long)counters.batchClosedByDeadline,
         totals.batchOccupancy.mean(),
         (unsigned long long)counters.batchCosimAnchors);
    line("  chaos: %llu strikes (%llu detected, %llu masked, "
         "%llu silent-caught); %llu wrong answers, "
         "%llu unstructured",
         (unsigned long long)counters.chaosStrikes,
         (unsigned long long)counters.chaosDetected,
         (unsigned long long)counters.chaosMasked,
         (unsigned long long)counters.chaosSilentCaught,
         (unsigned long long)counters.wrongAnswers,
         (unsigned long long)counters.unstructuredExceptions);
    line("  latency: p50 %.3f ms, p99 %.3f ms, p999 %.3f ms "
         "(%llu samples)",
         totals.okLatency.percentilePermille(500) * 1e-6,
         totals.okLatency.percentilePermille(990) * 1e-6,
         totals.okLatency.percentilePermille(999) * 1e-6,
         (unsigned long long)totals.okLatency.count());
    double totalUj = totals.totalUj();
    line("  energy: %.1f uJ total, %.3f uJ/ok-request",
         totalUj,
         counters.completedOk
             ? totalUj / static_cast<double>(counters.completedOk)
             : 0.0);
    line("  sessions: %llu derived, %llu hits",
         (unsigned long long)totals.sessionDerivations,
         (unsigned long long)totals.sessionHits);
    return out;
}

} // namespace ulecc
