/**
 * @file
 * Service-engine tests: the Errc retry taxonomy, backoff schedule,
 * degradation-tier selection, analytic-model sanity, arrival-stream
 * determinism, session-cache determinism, deadline/shed behaviour,
 * the chaos soak invariant (every request ends in a correct result or
 * a structured error), and byte-identical reports across repeated
 * runs and across serial/parallel execution.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "base/error.hh"
#include "core/json.hh"
#include "par/thread_pool.hh"
#include "svc/arrivals.hh"
#include "svc/degrade.hh"
#include "svc/retry.hh"
#include "svc/service.hh"
#include "svc/session.hh"
#include "svc/telemetry.hh"

using namespace ulecc;

namespace
{

/** A config sized for test runtime: small, chaotic, overloaded. */
SvcConfig
soakConfig(uint64_t seed, uint64_t requests)
{
    SvcConfig cfg;
    cfg.seed = seed;
    cfg.requests = requests;
    cfg.users = 64;
    cfg.chaos.percent = 25;
    cfg.arrivals.kind = ArrivalKind::Bursty;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Errc taxonomy (src/base/error.hh)

TEST(SvcErrc, TransientClassification)
{
    // Transient: a retry may genuinely succeed.
    EXPECT_TRUE(errcTransient(Errc::SimTimeout));
    EXPECT_TRUE(errcTransient(Errc::MemFault));
    EXPECT_TRUE(errcTransient(Errc::IllegalInstruction));
    EXPECT_TRUE(errcTransient(Errc::FaultDetected));
    EXPECT_TRUE(errcTransient(Errc::Overloaded));
    // Deterministic: the same request fails the same way every time.
    EXPECT_FALSE(errcTransient(Errc::Ok));
    EXPECT_FALSE(errcTransient(Errc::InvalidInput));
    EXPECT_FALSE(errcTransient(Errc::OutOfRange));
    EXPECT_FALSE(errcTransient(Errc::AsmSyntax));
    EXPECT_FALSE(errcTransient(Errc::Unsupported));
    EXPECT_FALSE(errcTransient(Errc::Internal));
    // A spent deadline cannot be fixed by spending more time.
    EXPECT_FALSE(errcTransient(Errc::DeadlineExceeded));
    // Retry policy mirrors transience exactly.
    EXPECT_TRUE(errcRetryable(Errc::Overloaded));
    EXPECT_FALSE(errcRetryable(Errc::InvalidInput));
}

TEST(SvcErrc, NewValuesHaveStableNames)
{
    EXPECT_STREQ(errcName(Errc::Overloaded), "overloaded");
    EXPECT_STREQ(errcName(Errc::DeadlineExceeded), "deadline-exceeded");
}

// ---------------------------------------------------------------------
// Backoff schedule (src/svc/retry.hh)

TEST(SvcBackoff, ExponentialScheduleWithCapAndJitterBounds)
{
    BackoffPolicy p;
    p.baseNs = 1000;
    p.capNs = 8000;
    p.jitterNs = 100;
    p.maxAttempts = 10;
    for (uint32_t attempt = 1; attempt <= 9; ++attempt) {
        uint64_t d = p.delayNs(attempt, 42);
        uint64_t exp = attempt <= 3 ? (1000ull << (attempt - 1)) : 8000;
        EXPECT_GE(d, exp) << "attempt " << attempt;
        EXPECT_LE(d, exp + 100) << "attempt " << attempt;
    }
}

TEST(SvcBackoff, JitterIsDeterministicAndSeedDependent)
{
    BackoffPolicy p;
    EXPECT_EQ(p.delayNs(2, 7), p.delayNs(2, 7));
    // Different attempts decorrelate even under the same seed.
    std::set<uint64_t> seen;
    for (uint32_t attempt = 4; attempt < 12; ++attempt)
        seen.insert(p.delayNs(attempt, 7)); // all capped, jitter only
    EXPECT_GT(seen.size(), 1u);
}

TEST(SvcBackoff, HugeAttemptNumbersSaturateAtCap)
{
    BackoffPolicy p;
    // Shifts that would overflow 64 bits must cap, not wrap to tiny
    // (or zero) delays that turn backoff into a retry storm.
    for (uint32_t attempt : {40u, 63u, 64u, 65u, 1000u}) {
        uint64_t d = p.delayNs(attempt, 1);
        EXPECT_GE(d, p.capNs) << "attempt " << attempt;
        EXPECT_LE(d, p.capNs + p.jitterNs) << "attempt " << attempt;
    }
}

TEST(SvcBackoff, ZeroJitterIsExact)
{
    BackoffPolicy p;
    p.baseNs = 500;
    p.capNs = 1u << 20;
    p.jitterNs = 0;
    EXPECT_EQ(p.delayNs(1, 9), 500u);
    EXPECT_EQ(p.delayNs(2, 9), 1000u);
    EXPECT_EQ(p.delayNs(3, 9), 2000u);
}

// ---------------------------------------------------------------------
// Degradation tiers and the analytic model (src/svc/degrade.hh)

TEST(SvcDegrade, TierSelectionThresholds)
{
    DegradePolicy p;
    p.memoizedDepth = 4;
    p.analyticDepth = 10;
    EXPECT_EQ(p.select(0), ServiceTier::FullSim);
    EXPECT_EQ(p.select(3), ServiceTier::FullSim);
    EXPECT_EQ(p.select(4), ServiceTier::Memoized);
    EXPECT_EQ(p.select(9), ServiceTier::Memoized);
    EXPECT_EQ(p.select(10), ServiceTier::Analytic);
    EXPECT_EQ(p.select(10000), ServiceTier::Analytic);
}

TEST(SvcDegrade, AnalyticModelTracksTheEvaluatorWithinABand)
{
    AnalyticModel model;
    model.calibrate();
    ASSERT_TRUE(model.calibrated());
    // At the anchor itself the model is exact.
    Result<EvalResult> anchor =
        evaluateChecked(MicroArch::Baseline, CurveId::P192);
    ASSERT_TRUE(anchor.ok());
    AnalyticModel::Estimate e =
        model.estimate(MicroArch::Baseline, CurveId::P192, false);
    EXPECT_DOUBLE_EQ(e.cycles,
                     static_cast<double>(anchor.value().sign.cycles));
    // Extrapolated to P-256 it must stay within a factor-of-3 band of
    // the real evaluation -- coarse by design, bounded by contract.
    Result<EvalResult> real =
        evaluateChecked(MicroArch::Baseline, CurveId::P256);
    ASSERT_TRUE(real.ok());
    AnalyticModel::Estimate est =
        model.estimate(MicroArch::Baseline, CurveId::P256, true);
    double ratio =
        est.cycles / static_cast<double>(real.value().verify.cycles);
    EXPECT_GT(ratio, 1.0 / 3.0);
    EXPECT_LT(ratio, 3.0);
}

TEST(SvcDegrade, UncalibratedModelFallsBackPessimistically)
{
    AnalyticModel model; // never calibrated
    AnalyticModel::Estimate e =
        model.estimate(MicroArch::Baseline, CurveId::P192, false);
    EXPECT_GT(e.cycles, 0.0);
    EXPECT_GT(e.uj, 0.0);
}

// ---------------------------------------------------------------------
// Arrival streams (src/svc/arrivals.hh)

TEST(SvcArrivals, DeterministicAndMonotonic)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Bursty}) {
        ArrivalConfig cfg;
        cfg.kind = kind;
        ArrivalGen a(cfg, 99), b(cfg, 99);
        uint64_t prev = 0;
        for (int i = 0; i < 2000; ++i) {
            uint64_t ta = a.next();
            EXPECT_EQ(ta, b.next());
            EXPECT_GE(ta, prev);
            prev = ta;
        }
    }
}

TEST(SvcArrivals, PoissonRateIsRoughlyHonoured)
{
    ArrivalConfig cfg;
    cfg.ratePerSec = 10000.0;
    ArrivalGen gen(cfg, 5);
    uint64_t last = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        last = gen.next();
    double observed = n / (static_cast<double>(last) * 1e-9);
    EXPECT_GT(observed, cfg.ratePerSec * 0.9);
    EXPECT_LT(observed, cfg.ratePerSec * 1.1);
}

// ---------------------------------------------------------------------
// Session cache (src/svc/session.hh)

TEST(SvcSession, DerivationIsDeterministicAndCached)
{
    const Curve &curve = standardCurve(CurveId::P192);
    Ecdsa ecdsa(curve);
    SessionCache cacheA(7), cacheB(7);
    Session a = cacheA.get(ecdsa, CurveId::P192, 3);
    Session b = cacheB.get(ecdsa, CurveId::P192, 3);
    EXPECT_TRUE(a.key.d == b.key.d);
    EXPECT_TRUE(a.goldenSig.r == b.goldenSig.r);
    EXPECT_TRUE(a.goldenSig.s == b.goldenSig.s);
    // The golden signature verifies -- it is the Verify workload.
    EXPECT_TRUE(ecdsa.verifyDigest(a.key.q, a.digest, a.goldenSig));
    // Second touch is a hit, not a re-derivation.
    cacheA.get(ecdsa, CurveId::P192, 3);
    EXPECT_EQ(cacheA.derivations(), 1u);
    EXPECT_EQ(cacheA.hits(), 1u);
    // A different seed derives different material.
    SessionCache other(8);
    Session c = other.get(ecdsa, CurveId::P192, 3);
    EXPECT_FALSE(a.key.d == c.key.d);
}

// ---------------------------------------------------------------------
// Engine behaviour

TEST(SvcServer, DeadlinesExpireUnderServedLoad)
{
    // One modelled worker, a deadline floor far below one service
    // time, and no retry headroom: deadline machinery must fire, and
    // every miss must be a structured deadline-exceeded failure.
    SvcConfig cfg;
    cfg.seed = 3;
    cfg.requests = 40;
    cfg.virtualWorkers = 1;
    cfg.serial = true;
    cfg.deadlineFactor = 0.5; // deadline < one service time
    cfg.deadlineFloorNs = 1;
    cfg.backoff.maxAttempts = 1;
    cfg.queueCap = 1000;
    Server server(cfg);
    server.run();
    const SvcCounters &c = server.counters();
    EXPECT_EQ(c.completedOk + c.failed, cfg.requests);
    EXPECT_EQ(c.completedOk, 0u);
    uint64_t expired = c.expiredAtArrival + c.expiredInQueue
        + c.cancelledMidService + c.shedDeadlineBudget;
    EXPECT_EQ(expired, c.arrivals);
}

TEST(SvcServer, QueueCapSheds)
{
    // Generous deadlines so depth -- not budget -- is the binding
    // constraint, a tiny queue, and a burst of work.
    SvcConfig cfg;
    cfg.seed = 4;
    cfg.requests = 120;
    cfg.virtualWorkers = 1;
    cfg.serial = true;
    cfg.queueCap = 2;
    cfg.deadlineFactor = 1e9;
    cfg.deadlineFloorNs = ~0ull / 2;
    cfg.arrivals.ratePerSec = 20000.0;
    cfg.backoff.maxAttempts = 1;
    Server server(cfg);
    server.run();
    const SvcCounters &c = server.counters();
    EXPECT_GT(c.shedDepth, 0u);
    EXPECT_EQ(c.shedDeadlineBudget, 0u);
    EXPECT_EQ(c.completedOk + c.failed, cfg.requests);
    auto it = c.failedByErrc.find("overloaded");
    ASSERT_NE(it, c.failedByErrc.end());
    EXPECT_EQ(it->second, c.failed);
}

TEST(SvcServer, EmptyCurveListIsInvalidInput)
{
    // Every request draws its curve from cfg.curves; an empty list is
    // refused with a structured error before anything is generated.
    SvcConfig cfg;
    cfg.seed = 5;
    cfg.requests = 10;
    cfg.serial = true;
    cfg.curves.clear();
    Server server(cfg);
    try {
        server.run();
        FAIL() << "run() accepted an empty curve list";
    } catch (const UleccError &e) {
        EXPECT_EQ(e.code(), Errc::InvalidInput);
        EXPECT_NE(e.error().context.find("SvcConfig.curves "),
                  std::string::npos)
            << e.error().context;
    }
    EXPECT_EQ(server.counters().arrivals, 0u);
}

TEST(SvcServer, RetriesRecoverTransientChaosFailures)
{
    // Light load (no shedding) with heavy chaos: detected strikes are
    // transient, so retries must recover some requests -- visible as
    // finals at attempt > 1.
    SvcConfig cfg;
    cfg.seed = 5;
    cfg.requests = 80;
    cfg.serial = true;
    cfg.chaos.percent = 60;
    cfg.arrivals.ratePerSec = 50.0;
    Server server(cfg);
    server.run();
    const SvcCounters &c = server.counters();
    EXPECT_GT(c.chaosStrikes, 0u);
    EXPECT_GT(c.retriesScheduled, 0u);
    uint64_t lateFinals = 0;
    for (size_t i = 1; i < c.retriesByAttempt.size(); ++i)
        lateFinals += c.retriesByAttempt[i];
    EXPECT_GT(lateFinals, 0u);
    EXPECT_EQ(c.completedOk + c.failed, cfg.requests);
    EXPECT_GT(c.completedOk, cfg.requests / 2);
}

TEST(SvcServer, DegradationTiersFollowLoad)
{
    SvcConfig cfg;
    cfg.seed = 6;
    cfg.requests = 150;
    cfg.serial = true;
    cfg.arrivals.ratePerSec = 5000.0;
    cfg.queueCap = 200;
    cfg.degrade.memoizedDepth = 2;
    cfg.degrade.analyticDepth = 8;
    Server server(cfg);
    server.run();
    const SvcCounters &c = server.counters();
    // Overload this deep must reach every tier.
    EXPECT_GT(c.tierFullSim, 0u);
    EXPECT_GT(c.tierMemoized, 0u);
    EXPECT_GT(c.tierAnalytic, 0u);
    EXPECT_EQ(c.tierFullSim + c.tierMemoized + c.tierAnalytic,
              c.admitted);
}

// ---------------------------------------------------------------------
// The soak: chaos on, full engine, the robustness invariant

TEST(SvcSoak, EveryRequestEndsInAResultOrAStructuredError)
{
    SvcConfig cfg = soakConfig(2026, 1500);
    Server server(cfg);
    server.run();
    const SvcCounters &c = server.counters();
    // The headline invariant: no request lost, none double-counted,
    // no silent corruption, no unstructured escape -- under fault
    // injection on live request paths.
    EXPECT_EQ(c.generated, cfg.requests);
    EXPECT_EQ(c.completedOk + c.failed, c.generated);
    EXPECT_EQ(c.wrongAnswers, 0u);
    EXPECT_EQ(c.unstructuredExceptions, 0u);
    EXPECT_GT(c.chaosStrikes, 0u);
    // Every failure carries a name from the Errc taxonomy.
    uint64_t named = 0;
    for (const auto &[name, n] : c.failedByErrc) {
        EXPECT_NE(name, "internal") << "unexpected internal failures";
        named += n;
    }
    EXPECT_EQ(named, c.failed);
    // Bookkeeping closes: every arrival is accounted for exactly once.
    uint64_t resolved = c.admitted + c.shedDepth + c.shedDeadlineBudget
        + c.expiredAtArrival;
    EXPECT_EQ(resolved, c.arrivals);
    EXPECT_EQ(c.arrivals, c.generated + c.retriesScheduled);
}

TEST(SvcSoak, ReportIsByteIdenticalAcrossRunsAndModes)
{
    SvcConfig cfg = soakConfig(11, 400);
    std::string first;
    // Two independent parallel runs, then a serial run: all three
    // timing-free reports must match byte for byte.
    for (int mode = 0; mode < 3; ++mode) {
        SvcConfig run = cfg;
        run.serial = mode == 2;
        run.jobs = mode == 1 ? 3 : 0;
        Server server(run);
        server.run();
        std::string doc = server.report().dump(2);
        if (mode == 0)
            first = doc;
        else
            EXPECT_EQ(doc, first) << "mode " << mode;
    }
    EXPECT_FALSE(first.empty());
}

// ---------------------------------------------------------------------
// Service telemetry (src/svc/telemetry.hh)

TEST(SvcTelemetry, SpanTracesReconcileExactlyAgainstReport)
{
    // The acceptance contract for the request tracer: summed span
    // busy time, busy cycles and every energy accumulator equal the
    // ulecc.svc.v1 report totals *exactly* -- same doubles, not just
    // close -- because both sides fold the same per-completion values
    // in the same deterministic order.
    SvcConfig cfg = soakConfig(2026, 600);
    Server server(cfg);
    RequestTracer tracer;
    SvcTelemetry tel;
    tel.tracer = &tracer;
    server.attachTelemetry(tel);
    server.run();

    const SvcCounters &c = server.counters();
    Json rep = server.report();
    const Json *totals = rep.find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(tracer.busyNs(),
              static_cast<uint64_t>(totals->find("busy_ns")->asInt()));
    EXPECT_EQ(tracer.busyCycles(),
              totals->find("busy_cycles")->asDouble());

    const Json *energy = rep.find("energy");
    ASSERT_NE(energy, nullptr);
    EXPECT_EQ(tracer.totalUj(), energy->find("total_uj")->asDouble());
    EXPECT_EQ(tracer.analyticUj(),
              energy->find("analytic_uj")->asDouble());
    EXPECT_EQ(tracer.cancelledUj(),
              energy->find("cancelled_uj")->asDouble());
    const Json *perOp = energy->find("per_op");
    ASSERT_NE(perOp, nullptr);
    ASSERT_EQ(perOp->members().size(), 3u);
    for (size_t op = 0; op < 3; ++op)
        EXPECT_EQ(tracer.opUj(op),
                  perOp->members()[op].value.find("uj")->asDouble())
            << "op " << perOp->members()[op].key;

    // One service span per execution, real or cancelled mid-service,
    // and nothing fell off the event cap.
    EXPECT_EQ(tracer.serviceSpans(), c.executed + c.cancelledMidService);
    EXPECT_GT(tracer.serviceSpans(), 0u);
    EXPECT_EQ(tracer.droppedEvents(), 0u);

    // The otherData block of the trace itself round-trips and agrees.
    Json doc = Json::parse(tracer.dump()).value();
    const Json *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->find("busy_ns")->asInt(),
              totals->find("busy_ns")->asInt());
    EXPECT_EQ(other->find("energy")->find("total_uj")->asDouble(),
              energy->find("total_uj")->asDouble());
}

TEST(SvcTelemetry, ArtifactsAreByteIdenticalAcrossRunsAndModes)
{
    // Same determinism contract as the report: every telemetry
    // artifact is a pure function of (seed, config), regardless of
    // worker-thread count or scheduling.
    std::vector<std::string> traces, timelines, slos, flights;
    for (int mode = 0; mode < 3; ++mode) {
        SvcConfig run = soakConfig(11, 400);
        run.serial = mode == 2;
        run.jobs = mode == 1 ? 3 : 0;
        Server server(run);
        RequestTracer tracer;
        TimelineAggregator timeline;
        SloEngine slo;
        FlightRecorder flight;
        SvcTelemetry tel;
        tel.tracer = &tracer;
        tel.timeline = &timeline;
        tel.slo = &slo;
        tel.flight = &flight;
        server.attachTelemetry(tel);
        server.run();
        traces.push_back(tracer.dump());
        timelines.push_back(timeline.dumpJsonl());
        slos.push_back(slo.dumpJsonl());
        flights.push_back(flight.toJson().dump(2));
    }
    for (int mode = 1; mode < 3; ++mode) {
        EXPECT_EQ(traces[0], traces[mode]) << "mode " << mode;
        EXPECT_EQ(timelines[0], timelines[mode]) << "mode " << mode;
        EXPECT_EQ(slos[0], slos[mode]) << "mode " << mode;
        EXPECT_EQ(flights[0], flights[mode]) << "mode " << mode;
    }
}

TEST(SvcTelemetry, TimelineWindowsReconcileWithReportCounters)
{
    SvcConfig cfg = soakConfig(7, 500);
    Server server(cfg);
    TimelineAggregator timeline;
    SvcTelemetry tel;
    tel.timeline = &timeline;
    server.attachTelemetry(tel);
    server.run();

    const SvcCounters &c = server.counters();
    EXPECT_EQ(timeline.totalArrivals(), c.arrivals);
    EXPECT_EQ(timeline.totalOk(), c.completedOk);
    EXPECT_EQ(timeline.totalFailed(), c.failed);

    // The energy total matches the report's within double-fold noise
    // (the two sides sum the identical per-completion values in
    // different groupings).
    Json rep = server.report();
    double repUj = rep.find("energy")->find("total_uj")->asDouble();
    EXPECT_NEAR(timeline.totalUj(), repUj, 1e-9 * repUj + 1e-12);

    // Every emitted JSONL record parses, carries the schema tag, and
    // the per-window counts re-sum to the campaign totals.
    std::string jsonl = timeline.dumpJsonl();
    uint64_t ok = 0, failed = 0, arrivals = 0;
    size_t pos = 0, records = 0;
    while (pos < jsonl.size()) {
        size_t nl = jsonl.find('\n', pos);
        ASSERT_NE(nl, std::string::npos);
        Result<Json> parsed = Json::parse(jsonl.substr(pos, nl - pos));
        pos = nl + 1;
        records++;
        ASSERT_TRUE(parsed.ok());
        const Json &rec = parsed.value();
        EXPECT_EQ(rec.find("schema")->asString(),
                  "ulecc.svc.timeline.v1");
        ok += static_cast<uint64_t>(rec.find("ok")->asInt());
        failed += static_cast<uint64_t>(rec.find("failed")->asInt());
        arrivals +=
            static_cast<uint64_t>(rec.find("arrivals")->asInt());
    }
    EXPECT_GT(records, 1u);
    EXPECT_EQ(ok, c.completedOk);
    EXPECT_EQ(failed, c.failed);
    EXPECT_EQ(arrivals, c.arrivals);
}

TEST(SvcTelemetry, SloAlertsAndFlightRecorderCaptureChaosBreach)
{
    // A 25%-chaos overloaded campaign burns far past a 1% error
    // budget: the SLO engine must notice (breach + at least one
    // firing alert -- never a silent breach), and the flight recorder
    // must have trapped deadline/fault/chaos triggers while keeping
    // only its bounded tail of records.
    SvcConfig cfg = soakConfig(2026, 600);
    Server server(cfg);
    SloEngine slo;
    FlightRecorder flight;
    SvcTelemetry tel;
    tel.slo = &slo;
    tel.flight = &flight;
    server.attachTelemetry(tel);
    server.run();

    const SvcCounters &c = server.counters();
    EXPECT_EQ(slo.finals(), c.completedOk + c.failed);
    EXPECT_EQ(slo.errors(), c.failed);
    ASSERT_TRUE(slo.breached());
    EXPECT_GE(slo.alertsFired(), 1u);

    // The last JSONL record is the verdict and it self-reports the
    // same breach and alert count.
    std::string jsonl = slo.dumpJsonl();
    size_t lastNl = jsonl.find_last_of('\n', jsonl.size() - 2);
    std::string lastLine = jsonl.substr(
        lastNl == std::string::npos ? 0 : lastNl + 1);
    Result<Json> parsedVerdict = Json::parse(lastLine);
    ASSERT_TRUE(parsedVerdict.ok());
    const Json &verdict = parsedVerdict.value();
    EXPECT_EQ(verdict.find("kind")->asString(), "verdict");
    EXPECT_TRUE(verdict.find("breached")->asBool());
    EXPECT_EQ(static_cast<uint64_t>(
                  verdict.find("alerts_fired")->asInt()),
              slo.alertsFired());

    // Flight recorder: every completion was offered, the ring held
    // exactly its 64-record bound (the campaign records far more),
    // and at least one trigger snapshot fired.
    EXPECT_EQ(flight.recordedTotal(), c.executed + c.cancelledMidService);
    EXPECT_GT(flight.recordedTotal(), 64u);
    EXPECT_EQ(flight.held(), size_t{64});
    EXPECT_GT(flight.triggerTotal(), 0u);
    Json dump = flight.toJson();
    EXPECT_EQ(dump.find("records")->size(), flight.held());
    EXPECT_EQ(static_cast<uint64_t>(
                  dump.find("replay")->find("seed")->asInt()),
              cfg.seed);
}

// ---------------------------------------------------------------------
// SvcConfig::validate(): the one owner of the engine's ranges

namespace
{

/** One range rule: a mutation that breaks it, and the field the
 * InvalidInput message must name.  The non-empty curve list has its
 * own test, SvcServer.EmptyCurveListIsInvalidInput. */
struct ConfigRule
{
    const char *name;
    const char *field;
    void (*breakIt)(SvcConfig &);
};

// Without this gtest prints the three pointers byte by byte, and the
// ctest names (which carry the printed parameter) would change with
// every load address.
void PrintTo(const ConfigRule &rule, std::ostream *os) { *os << rule.field; }

const ConfigRule kConfigRules[] = {
    {"RequestsZero", "requests", [](SvcConfig &c) { c.requests = 0; }},
    {"UsersZero", "users", [](SvcConfig &c) { c.users = 0; }},
    {"VirtualWorkersZero", "virtualWorkers",
     [](SvcConfig &c) { c.virtualWorkers = 0; }},
    {"VirtualWorkersAboveCap", "virtualWorkers",
     [](SvcConfig &c) { c.virtualWorkers = (1u << 16) + 1; }},
    {"JobsAboveMaxThreads", "jobs",
     [](SvcConfig &c) { c.jobs = ThreadPool::maxThreads + 1; }},
    {"MaxAttemptsZero", "backoff.maxAttempts",
     [](SvcConfig &c) { c.backoff.maxAttempts = 0; }},
    {"MaxAttemptsAbove64", "backoff.maxAttempts",
     [](SvcConfig &c) { c.backoff.maxAttempts = 65; }},
    {"RateZero", "arrivals.ratePerSec",
     [](SvcConfig &c) { c.arrivals.ratePerSec = 0; }},
    {"RateNegative", "arrivals.ratePerSec",
     [](SvcConfig &c) { c.arrivals.ratePerSec = -5; }},
    {"RateNaN", "arrivals.ratePerSec",
     [](SvcConfig &c) { c.arrivals.ratePerSec = std::nan(""); }},
    {"RateInfinite", "arrivals.ratePerSec",
     [](SvcConfig &c) { c.arrivals.ratePerSec = HUGE_VAL; }},
    {"BurstFactorBelowOne", "arrivals.burstFactor",
     [](SvcConfig &c) { c.arrivals.burstFactor = 0.5; }},
    {"BurstFactorNaN", "arrivals.burstFactor",
     [](SvcConfig &c) { c.arrivals.burstFactor = std::nan(""); }},
    {"ClientsZero", "arrivals.clients",
     [](SvcConfig &c) { c.arrivals.clients = 0; }},
    {"DiurnalAmpNegative", "arrivals.diurnalAmp",
     [](SvcConfig &c) { c.arrivals.diurnalAmp = -0.1; }},
    {"DiurnalAmpAbove095", "arrivals.diurnalAmp",
     [](SvcConfig &c) { c.arrivals.diurnalAmp = 0.96; }},
    {"DiurnalStepsZero", "arrivals.diurnalSteps",
     [](SvcConfig &c) { c.arrivals.diurnalSteps = 0; }},
    {"DayShorterThanSteps", "arrivals.dayNs",
     [](SvcConfig &c) {
         c.arrivals.diurnal = true;
         c.arrivals.dayNs = 10;
         c.arrivals.diurnalSteps = 24;
     }},
    {"BatchMaxSizeZero", "batch.maxSize",
     [](SvcConfig &c) { c.batch.maxSize = 0; }},
    {"LingerAbove1e15", "batch.lingerNs",
     [](SvcConfig &c) { c.batch.lingerNs = UINT64_MAX; }},
    {"SetupFractionHalf", "batch.setupFraction",
     [](SvcConfig &c) { c.batch.setupFraction = 0.5; }},
    {"SetupFractionNegative", "batch.setupFraction",
     [](SvcConfig &c) { c.batch.setupFraction = -0.01; }},
    {"DeadlineSlackNegative", "batch.deadlineSlack",
     [](SvcConfig &c) { c.batch.deadlineSlack = -1; }},
    {"DeadlineSlackInfinite", "batch.deadlineSlack",
     [](SvcConfig &c) { c.batch.deadlineSlack = HUGE_VAL; }},
    {"DeadlineFactorNegative", "deadlineFactor",
     [](SvcConfig &c) { c.deadlineFactor = -16; }},
    {"DeadlineFactorNaN", "deadlineFactor",
     [](SvcConfig &c) { c.deadlineFactor = std::nan(""); }},
    {"ChaosAbove100", "chaos.percent",
     [](SvcConfig &c) { c.chaos.percent = 101; }},
};

class SvcConfigValidate : public ::testing::TestWithParam<ConfigRule>
{};

} // namespace

TEST_P(SvcConfigValidate, RunRefusesTheBrokenRule)
{
    const ConfigRule &rule = GetParam();
    SvcConfig cfg;
    cfg.seed = 5;
    cfg.requests = 10;
    cfg.serial = true;
    rule.breakIt(cfg);
    Result<void> valid = cfg.validate();
    ASSERT_FALSE(valid.ok());
    EXPECT_EQ(valid.code(), Errc::InvalidInput);
    std::string field = std::string("SvcConfig.") + rule.field + " ";
    EXPECT_NE(valid.error().context.find(field), std::string::npos)
        << valid.error().context;
    // Server::run throws the same error before issuing anything.
    Server server(cfg);
    try {
        server.run();
        FAIL() << "run() accepted " << rule.name;
    } catch (const UleccError &e) {
        EXPECT_EQ(e.code(), Errc::InvalidInput);
        EXPECT_EQ(e.error().context, valid.error().context);
    }
    EXPECT_EQ(server.counters().generated, 0u);
    EXPECT_EQ(server.counters().arrivals, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, SvcConfigValidate, ::testing::ValuesIn(kConfigRules),
    [](const ::testing::TestParamInfo<ConfigRule> &info) {
        return std::string(info.param.name);
    });

TEST(SvcConfigValidateBounds, EveryBoundaryValueIsAccepted)
{
    EXPECT_TRUE(SvcConfig().validate().ok());
    SvcConfig edge;
    // Full 64-bit seeds and a 2^60 deadline floor are real configs
    // (the benchmark's derived seeds and its no-expiry campaigns).
    edge.seed = UINT64_MAX;
    edge.deadlineFloorNs = 1ull << 60;
    edge.requests = 1;
    edge.users = 1;
    edge.virtualWorkers = 1u << 16;
    edge.jobs = ThreadPool::maxThreads;
    edge.queueCap = 0;
    edge.deadlineFactor = 0;
    edge.backoff.maxAttempts = 64;
    edge.arrivals.burstFactor = 1;
    edge.arrivals.clients = 1;
    edge.arrivals.diurnal = true;
    edge.arrivals.diurnalAmp = 0.95;
    edge.arrivals.diurnalSteps = 7;
    edge.arrivals.dayNs = 7;
    edge.batch.maxSize = 1;
    edge.batch.lingerNs = 0;
    edge.batch.setupFraction = 0.49;
    edge.batch.deadlineSlack = 0;
    edge.chaos.percent = 100;
    Result<void> valid = edge.validate();
    EXPECT_TRUE(valid.ok()) << valid.error().context;
    edge.batch.lingerNs = 1'000'000'000'000'000ull;
    EXPECT_TRUE(edge.validate().ok());
    // A degenerate day is only an error while the day curve is on.
    edge.arrivals.diurnal = false;
    edge.arrivals.dayNs = 0;
    EXPECT_TRUE(edge.validate().ok());
}

// ---------------------------------------------------------------------
// Lazy arrivals: the event heap holds work in flight, not the campaign

TEST(SvcServer, OpenLoopKeepsOneFreshArrivalPending)
{
    // Every request expires at arrival, so nothing is ever in flight:
    // the heap must never hold more than the one pending arrival,
    // however long the campaign (an up-front heap would peak at 10^6).
    SvcConfig cfg;
    cfg.seed = 21;
    cfg.requests = 1'000'000;
    cfg.serial = true;
    cfg.deadlineFactor = 0;
    cfg.deadlineFloorNs = 0;
    Server server(cfg);
    server.run();
    const SvcCounters &c = server.counters();
    EXPECT_EQ(c.peakEvents, 1u);
    EXPECT_EQ(c.generated, cfg.requests);
    EXPECT_EQ(c.expiredAtArrival, cfg.requests);
    EXPECT_EQ(c.completedOk + c.failed, cfg.requests);
}

TEST(SvcServer, ClosedLoopHeapIsBoundedByClientsWorkersAndBatches)
{
    // A closed-loop client has one request outstanding: a pending
    // arrival, a batch member or a pass member.  With no batch able to
    // close by size (maxSize above the client count) or by deadline
    // pressure, every pending linger deadline belongs to an open
    // batch, and each open batch holds one client's request.
    SvcConfig cfg;
    cfg.seed = 79;
    cfg.requests = 500;
    cfg.users = 32;
    cfg.chaos.percent = 10;
    cfg.serial = true;
    cfg.arrivals.kind = ArrivalKind::ClosedLoop;
    cfg.arrivals.clients = 6;
    cfg.arrivals.thinkNs = 500'000;
    cfg.batch.maxSize = 7;
    cfg.batch.deadlineSlack = 0;
    cfg.deadlineFactor = 1e6;
    cfg.deadlineFloorNs = 1ull << 60;
    Server server(cfg);
    server.run();
    const SvcCounters &c = server.counters();
    EXPECT_EQ(c.generated, cfg.requests);
    EXPECT_EQ(c.completedOk + c.failed, cfg.requests);
    EXPECT_EQ(c.batchClosedBySize, 0u);
    EXPECT_EQ(c.batchClosedByDeadline, 0u);
    EXPECT_GT(c.batchMembersTotal, c.batchesClosed); // batches formed
    uint64_t openBatches = cfg.arrivals.clients;
    EXPECT_LE(c.peakEvents,
              cfg.arrivals.clients + cfg.virtualWorkers + openBatches);

    // Batches that close by size long before their linger deadline
    // take the deadline with them, so the bound holds with batching
    // that closes early too.
    SvcConfig sized;
    sized.seed = 2026;
    sized.curves = {CurveId::P192};
    sized.requests = 400;
    sized.chaos.percent = 0;
    sized.serial = true;
    sized.arrivals.kind = ArrivalKind::ClosedLoop;
    sized.arrivals.clients = 16;
    sized.virtualWorkers = 4;
    sized.batch.maxSize = 2;
    sized.batch.lingerNs = 500'000'000;
    Server sizedServer(sized);
    sizedServer.run();
    const SvcCounters &sc = sizedServer.counters();
    EXPECT_EQ(sc.completedOk + sc.failed, sized.requests);
    EXPECT_GT(sc.batchClosedBySize, 0u);
    uint64_t sizedOpen = sized.arrivals.clients;
    EXPECT_LE(sc.peakEvents,
              sized.arrivals.clients + sized.virtualWorkers + sizedOpen);
}

TEST(SvcServer, VirtualTimeEndsAtTheLastEventActedOn)
{
    // Six bursty P-192 requests in pairs: every batch closes by size,
    // so the linger deadline of each (500 ms after it opened) never
    // fires.  The campaign's virtual time ends with its last pass
    // completion, not at a deadline that left with its batch.
    SvcConfig cfg;
    cfg.seed = 89;
    cfg.curves = {CurveId::P192};
    cfg.requests = 6;
    cfg.arrivals.kind = ArrivalKind::Bursty;
    cfg.arrivals.ratePerSec = 2000;
    cfg.batch.maxSize = 2;
    cfg.batch.lingerNs = 500'000'000;
    cfg.deadlineFactor = 1e6;
    cfg.deadlineFloorNs = 1ull << 60;
    cfg.chaos.percent = 0;
    cfg.serial = true;
    Server server(cfg);
    server.run();
    const SvcCounters &c = server.counters();
    EXPECT_EQ(c.completedOk, cfg.requests);
    EXPECT_EQ(c.batchClosedByLinger, 0u);
    Json rep = server.report();
    EXPECT_EQ(rep.find("virtual_ns")->asInt(), 14119244);
}


namespace
{

/** The counters of one campaign. */
SvcCounters
runCounters(const SvcConfig &cfg)
{
    Server server(cfg);
    server.run();
    return server.counters();
}

/** Every request outcome and batch close a counter records. */
auto
outcomes(const SvcCounters &c)
{
    return std::make_tuple(
        c.completedOk, c.failed, c.failedByErrc, c.shedDepth,
        c.shedDeadlineBudget, c.expiredAtArrival, c.expiredInQueue,
        c.cancelledMidService, c.batchClosedBySize, c.batchClosedByLinger,
        c.batchClosedByDeadline);
}

} // namespace

TEST(SvcServer, HugeDeadlineFactorSaturatesInsteadOfExpiring)
{
    // A deadline budget of 2^64 ns or more saturates: the request
    // behaves as with any other budget far beyond the campaign, where
    // a wrapped cast would leave only the 2 ms floor.
    SvcConfig cfg;
    cfg.seed = 3;
    cfg.requests = 20;
    cfg.serial = true;
    cfg.deadlineFactor = 1e6;
    SvcCounters inRange = runCounters(cfg);
    EXPECT_EQ(inRange.completedOk, cfg.requests);
    cfg.deadlineFactor = 1e300;
    EXPECT_EQ(outcomes(runCounters(cfg)), outcomes(inRange));
}

TEST(SvcBatch, HugeDeadlineSlackSaturatesInsteadOfLingering)
{
    // A deadline-pressure headroom of 2^64 ns or more saturates, so
    // every batch that does not fill up closes at join by deadline,
    // exactly as with a slack already far beyond the campaign.
    SvcConfig cfg;
    cfg.seed = 5;
    cfg.requests = 200;
    cfg.serial = true;
    cfg.arrivals.kind = ArrivalKind::Bursty;
    cfg.batch.maxSize = 8;
    cfg.batch.lingerNs = 3'000'000;
    cfg.batch.deadlineSlack = 1e6;
    SvcCounters inRange = runCounters(cfg);
    EXPECT_GT(inRange.batchClosedByDeadline, 0u);
    EXPECT_EQ(inRange.batchClosedByLinger, 0u);
    cfg.batch.deadlineSlack = 1e300;
    EXPECT_EQ(outcomes(runCounters(cfg)), outcomes(inRange));
}

// ---------------------------------------------------------------------
// Batch former (src/svc/batch.hh)

namespace
{

/** A request with the fields the former actually looks at. */
Request
batchReq(uint64_t id, uint64_t deadlineNs,
         CurveId curve = CurveId::P192,
         MicroArch arch = MicroArch::Baseline,
         OpKind op = OpKind::Sign)
{
    Request r;
    r.id = id;
    r.op = op;
    r.curve = curve;
    r.arch = arch;
    r.deadlineNs = deadlineNs;
    return r;
}

} // namespace

TEST(SvcBatch, FormerClosesBySizeAndKeepsShapesApart)
{
    BatchPolicy p;
    p.maxSize = 3;
    p.lingerNs = 1'000'000;
    BatchFormer f(p);
    uint64_t seq = 40; // the coordinator's event sequence

    // Two shapes interleaved: only same-shape joins coalesce.
    uint64_t est = 100'000;
    for (uint64_t i = 0; i < 2; ++i) {
        EXPECT_FALSE(f.join(batchReq(10 + i, UINT64_MAX),
                            ServiceTier::Memoized, est, i, seq));
        EXPECT_FALSE(f.join(batchReq(20 + i, UINT64_MAX, CurveId::B163),
                            ServiceTier::Memoized, est, i, seq));
        // A fresh batch draws exactly one deadline seq; a join into an
        // open batch draws none.
        EXPECT_EQ(seq, 42u);
        EXPECT_EQ(f.openBatches(), 2u);
    }
    EXPECT_EQ(f.waitingMembers(), 4u);
    EXPECT_EQ(f.waitingEstSumNs(), 4 * est);
    using Linger = BatchFormer::Linger;
    EXPECT_EQ(f.nextLinger(), (Linger{1'000'000, 40}));

    // Third same-shape member hits maxSize: closed at join, by size,
    // and its deadline goes with it.
    EXPECT_TRUE(f.join(batchReq(12, UINT64_MAX), ServiceTier::Memoized,
                       est, 2, seq));
    EXPECT_TRUE(f.hasReady());
    EXPECT_EQ(f.closedBySize(), 1u);
    EXPECT_EQ(f.openBatches(), 1u);
    EXPECT_EQ(f.nextLinger(), (Linger{1'000'000, 41}));
    Batch b = f.takeReady();
    EXPECT_EQ(b.members.size(), 3u);
    EXPECT_STREQ(b.closeReason, "size");
    EXPECT_EQ(b.key.curve, CurveId::P192);
    // The other shape is still open and waiting.
    EXPECT_EQ(f.waitingMembers(), 2u);
    EXPECT_EQ(f.waitingEstSumNs(), 2 * est);

    // A fresh third shape lines up behind the earlier deadline.
    EXPECT_FALSE(f.join(batchReq(30, UINT64_MAX, CurveId::P256),
                        ServiceTier::Memoized, est, 3, seq));
    EXPECT_EQ(seq, 43u);
    EXPECT_EQ(f.nextLinger(), (Linger{1'000'000, 41}));
    EXPECT_FALSE(f.hasReady()); // open batches wait for their deadline

    // Reaching the earliest deadline closes the B163 pair, by linger.
    f.closeNextLinger();
    EXPECT_EQ(f.closedByLinger(), 1u);
    Batch lb = f.takeReady();
    EXPECT_STREQ(lb.closeReason, "linger");
    EXPECT_EQ(lb.key.curve, CurveId::B163);
    EXPECT_EQ(lb.members.size(), 2u);
    // The P256 request is still waiting in its open batch.
    EXPECT_FALSE(f.hasReady());
    EXPECT_EQ(f.waitingMembers(), 1u);
    EXPECT_EQ(f.waitingEstSumNs(), est);
    EXPECT_EQ(f.nextLinger(), (Linger{1'000'003, 42}));
    f.closeNextLinger();
    EXPECT_STREQ(f.takeReady().closeReason, "linger");
    EXPECT_EQ(f.nextLinger(), std::nullopt);
    EXPECT_EQ(f.waitingMembers(), 0u);
}

TEST(SvcBatch, FormerDeadlinePressureClosesEarly)
{
    BatchPolicy p;
    p.maxSize = 8;
    p.lingerNs = 1'000'000'000; // linger would take forever
    p.deadlineSlack = 1.0;
    BatchFormer f(p);
    uint64_t seq = 0;
    uint64_t est = 1'000'000;
    // Deadline far away: stays open.
    EXPECT_FALSE(f.join(batchReq(1, 100'000'000), ServiceTier::Analytic,
                        est, 0, seq));
    EXPECT_TRUE(f.nextLinger().has_value());
    // A member whose deadline leaves less than one estimated pass of
    // headroom forces the close (pass for 2 members = 1.75ms here),
    // and the batch's linger deadline leaves with it.
    EXPECT_TRUE(f.join(batchReq(2, 1'600'000), ServiceTier::Analytic, est,
                       0, seq));
    EXPECT_EQ(f.closedByDeadline(), 1u);
    EXPECT_EQ(f.nextLinger(), std::nullopt);
    EXPECT_STREQ(f.takeReady().closeReason, "deadline");
}

TEST(SvcBatch, DegeneratePoliciesCannotStrandRequests)
{
    // Disabled batching (maxSize 1): every join closes its own size-1
    // batch and leaves no linger deadline, however long the linger
    // budget.
    BatchPolicy off;
    off.maxSize = 1;
    off.lingerNs = 50'000'000;
    BatchFormer foff(off);
    uint64_t seq = 0;
    EXPECT_TRUE(foff.join(batchReq(1, UINT64_MAX), ServiceTier::FullSim,
                          1000, 0, seq));
    EXPECT_EQ(seq, 0u);
    EXPECT_EQ(foff.nextLinger(), std::nullopt);
    EXPECT_EQ(foff.takeReady().members.size(), 1u);

    // Zero linger with maxSize > 1: no deadline would ever close a
    // waiting batch, so the former must clamp to immediate close
    // rather than letting a lone request sit in an open batch forever.
    BatchPolicy zl;
    zl.maxSize = 8;
    zl.lingerNs = 0;
    BatchFormer fzl(zl);
    EXPECT_TRUE(fzl.join(batchReq(2, UINT64_MAX), ServiceTier::FullSim,
                         1000, 0, seq));
    EXPECT_EQ(seq, 0u);
    EXPECT_EQ(fzl.nextLinger(), std::nullopt);
    EXPECT_EQ(fzl.policy().maxSize, 1u); // what the report echoes
    EXPECT_EQ(fzl.waitingMembers(), 1u); // ready but not yet taken
    EXPECT_EQ(fzl.takeReady().members.size(), 1u);
    EXPECT_EQ(fzl.waitingMembers(), 0u);
}

TEST(SvcBatch, PassTimeAmortizesSetupButNeverBelowHalfSolo)
{
    BatchPolicy p;
    p.setupFraction = 0.25;
    BatchFormer f(p);
    uint64_t solo = 1'000'000;
    EXPECT_EQ(f.passNs(solo, 1), solo); // batch of one == solo, exactly
    // Per-member share shrinks with batch size but the amortization is
    // bounded by the setup fraction: share >= (1 - fraction) x solo.
    for (uint64_t n = 2; n <= 16; n *= 2) {
        uint64_t pass = f.passNs(solo, n);
        EXPECT_LT(pass, n * solo) << "n " << n;
        EXPECT_GE(pass / n, solo / 2) << "n " << n;
        EXPECT_GE(pass / n, (solo - solo / 4) - 1) << "n " << n;
    }
}

// ---------------------------------------------------------------------
// Batching inside the engine (src/svc/service.cc)

TEST(SvcBatch, OutcomesMatchUnbatchedEngineUnderGenerousDeadlines)
{
    // With deadlines and queue capacity out of the picture and the
    // fidelity tier pinned (so formation depth cannot change it),
    // request outcomes are a pure function of (seed, id, attempt) --
    // the batched and unbatched engines must agree on every outcome
    // counter even though their virtual timelines differ.
    SvcConfig base;
    base.seed = 515;
    base.requests = 500;
    base.users = 32;
    base.chaos.percent = 20;
    base.queueCap = 100000;
    base.deadlineFactor = 1e6;
    base.deadlineFloorNs = 1ull << 60;
    base.degrade.memoizedDepth = 0;
    base.degrade.analyticDepth = 0; // pin: always Analytic
    base.arrivals.kind = ArrivalKind::Bursty;

    SvcCounters got[2];
    for (int on = 0; on < 2; ++on) {
        SvcConfig cfg = base;
        cfg.batch.maxSize = on == 1 ? 16 : 1;
        cfg.batch.lingerNs = 4'000'000;
        Server server(cfg);
        server.run();
        got[on] = server.counters();
    }
    const SvcCounters &a = got[0], &b = got[1];
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.completedOk, b.completedOk);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.retriesScheduled, b.retriesScheduled);
    EXPECT_EQ(a.retriesExhausted, b.retriesExhausted);
    EXPECT_EQ(a.chaosStrikes, b.chaosStrikes);
    EXPECT_EQ(a.chaosDetected, b.chaosDetected);
    EXPECT_EQ(a.chaosMasked, b.chaosMasked);
    EXPECT_EQ(a.chaosSilentCaught, b.chaosSilentCaught);
    EXPECT_EQ(a.failedByErrc, b.failedByErrc);
    EXPECT_EQ(a.chaosByKind, b.chaosByKind);
    // Nothing was shed or expired on either side.
    EXPECT_EQ(a.shedDepth + a.shedDeadlineBudget + a.expiredAtArrival
                  + a.expiredInQueue + a.cancelledMidService,
              0u);
    EXPECT_EQ(b.shedDepth + b.shedDeadlineBudget + b.expiredAtArrival
                  + b.expiredInQueue + b.cancelledMidService,
              0u);
    // And batching actually batched: fewer passes than members.
    EXPECT_EQ(a.batchMembersTotal, a.admitted);
    EXPECT_EQ(b.batchMembersTotal, b.admitted);
    EXPECT_EQ(a.batchPassesExecuted, a.executed); // size-1 batches
    EXPECT_LT(b.batchPassesExecuted, b.executed); // real coalescing
}

TEST(SvcBatch, ArtifactsByteIdenticalAcrossPoolModesWithBatchingOn)
{
    // The tentpole determinism contract: with batching on and chaos
    // striking, the report and all four telemetry artifacts are
    // byte-identical whether requests execute on the pool or
    // serially.
    std::vector<std::string> reports, traces, timelines, slos, flights;
    for (int mode = 0; mode < 2; ++mode) {
        SvcConfig run = soakConfig(23, 500);
        run.batch.maxSize = 8;
        run.batch.lingerNs = 3'000'000;
        run.serial = mode == 1;
        run.jobs = mode == 1 ? 0 : 3;
        Server server(run);
        RequestTracer tracer;
        TimelineAggregator timeline;
        SloEngine slo;
        FlightRecorder flight;
        SvcTelemetry tel;
        tel.tracer = &tracer;
        tel.timeline = &timeline;
        tel.slo = &slo;
        tel.flight = &flight;
        server.attachTelemetry(tel);
        server.run();
        reports.push_back(server.report().dump(2));
        traces.push_back(tracer.dump());
        timelines.push_back(timeline.dumpJsonl());
        slos.push_back(slo.dumpJsonl());
        flights.push_back(flight.toJson().dump(2));
    }
    EXPECT_EQ(reports[0], reports[1]);
    EXPECT_EQ(traces[0], traces[1]);
    EXPECT_EQ(timelines[0], timelines[1]);
    EXPECT_EQ(slos[0], slos[1]);
    EXPECT_EQ(flights[0], flights[1]);
}

TEST(SvcBatch, ChaosSoakWithBatchingHoldsEveryInvariant)
{
    // The SvcSoak headline invariant, re-run with aggressive batching
    // (bigger batches, longer linger) layered on top of 25% chaos and
    // bursty overload -- plus the batch bookkeeping identities.
    SvcConfig cfg = soakConfig(929, 1200);
    cfg.batch.maxSize = 16;
    cfg.batch.lingerNs = 6'000'000;
    Server server(cfg);
    RequestTracer tracer;
    SvcTelemetry tel;
    tel.tracer = &tracer;
    server.attachTelemetry(tel);
    server.run();

    const SvcCounters &c = server.counters();
    EXPECT_EQ(c.generated, cfg.requests);
    EXPECT_EQ(c.completedOk + c.failed, c.generated);
    EXPECT_EQ(c.wrongAnswers, 0u);
    EXPECT_EQ(c.unstructuredExceptions, 0u);
    EXPECT_GT(c.chaosStrikes, 0u);
    uint64_t resolved = c.admitted + c.shedDepth + c.shedDeadlineBudget
        + c.expiredAtArrival;
    EXPECT_EQ(resolved, c.arrivals);
    EXPECT_EQ(c.arrivals, c.generated + c.retriesScheduled);

    // Batch bookkeeping: every admitted request is a member of exactly
    // one closed batch, close reasons partition the closes, and real
    // coalescing happened.
    EXPECT_EQ(c.batchMembersTotal, c.admitted);
    EXPECT_EQ(c.batchesClosed, c.batchClosedBySize + c.batchClosedByLinger
                                   + c.batchClosedByDeadline);
    EXPECT_GT(c.batchesClosed, 0u);
    EXPECT_LE(c.batchPassesExecuted, c.batchesClosed);
    EXPECT_LT(c.batchPassesExecuted, c.executed) << "nothing coalesced";
    // One tracer batch span per executed pass; the per-request span
    // reconciliation is unchanged by batching.
    EXPECT_EQ(tracer.batchSpans(), c.batchPassesExecuted);
    EXPECT_EQ(tracer.serviceSpans(), c.executed + c.cancelledMidService);

    // The report's batch section agrees with the counters.
    Json rep = server.report();
    const Json *batch = rep.find("batch");
    ASSERT_NE(batch, nullptr);
    EXPECT_EQ(static_cast<uint64_t>(batch->find("closed_total")->asInt()),
              c.batchesClosed);
    EXPECT_EQ(static_cast<uint64_t>(batch->find("members_total")->asInt()),
              c.batchMembersTotal);
    EXPECT_EQ(static_cast<uint64_t>(
                  batch->find("passes_executed")->asInt()),
              c.batchPassesExecuted);
    const Json *occ = batch->find("occupancy");
    ASSERT_NE(occ, nullptr);
    EXPECT_EQ(static_cast<uint64_t>(occ->find("count")->asInt()),
              c.batchesClosed);
    EXPECT_GT(occ->find("mean")->asDouble(), 1.0);
}

// ---------------------------------------------------------------------
// Closed-loop and diurnal arrivals (src/svc/arrivals.hh)

TEST(SvcArrivals, ClosedLoopResolvesEveryRequestWithoutDepthSheds)
{
    SvcConfig cfg;
    cfg.seed = 77;
    cfg.requests = 400;
    cfg.users = 32;
    cfg.chaos.percent = 15;
    cfg.arrivals.kind = ArrivalKind::ClosedLoop;
    cfg.arrivals.clients = 6;
    cfg.arrivals.thinkNs = 2'000'000;
    Server server(cfg);
    server.run();
    const SvcCounters &c = server.counters();
    EXPECT_EQ(c.generated, cfg.requests);
    EXPECT_EQ(c.completedOk + c.failed, c.generated);
    EXPECT_EQ(c.wrongAnswers, 0u);
    EXPECT_EQ(c.unstructuredExceptions, 0u);
    // Six clients can never overflow a 64-deep queue: closed-loop
    // traffic is self-limiting, so depth shedding must be impossible.
    EXPECT_EQ(c.shedDepth, 0u);
    EXPECT_EQ(c.arrivals, c.generated + c.retriesScheduled);
}

TEST(SvcArrivals, ClosedLoopReportIsByteIdenticalAcrossModes)
{
    std::string first;
    for (int mode = 0; mode < 3; ++mode) {
        SvcConfig run;
        run.seed = 78;
        run.requests = 300;
        run.users = 16;
        run.chaos.percent = 20;
        run.arrivals.kind = ArrivalKind::ClosedLoop;
        run.arrivals.clients = 5;
        run.arrivals.thinkNs = 1'500'000;
        run.serial = mode == 2;
        run.jobs = mode == 1 ? 3 : 0;
        Server server(run);
        server.run();
        std::string doc = server.report().dump(2);
        if (mode == 0)
            first = doc;
        else
            EXPECT_EQ(doc, first) << "mode " << mode;
    }
    EXPECT_FALSE(first.empty());
}

TEST(SvcArrivals, ThinkTimeDrawIsDeterministicWithSaneMean)
{
    uint64_t mean = 4'000'000;
    EXPECT_EQ(closedLoopThinkNs(9, 41, mean),
              closedLoopThinkNs(9, 41, mean));
    EXPECT_NE(closedLoopThinkNs(9, 41, mean),
              closedLoopThinkNs(9, 42, mean));
    double sum = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(closedLoopThinkNs(9, i, mean));
    double avg = sum / n;
    EXPECT_GT(avg, 0.85 * static_cast<double>(mean));
    EXPECT_LT(avg, 1.15 * static_cast<double>(mean));
}

TEST(SvcArrivals, DiurnalDayCurveShapesTheStream)
{
    // Two-step day, amplitude 0.8: the first half-day runs at 1.8x the
    // base rate, the second at 0.2x -- a 9:1 expected density ratio.
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Poisson;
    cfg.ratePerSec = 2000.0;
    cfg.diurnal = true;
    cfg.dayNs = 1'000'000'000;
    cfg.diurnalAmp = 0.8;
    cfg.diurnalSteps = 2;

    ArrivalGen gen(cfg, 5);
    ArrivalGen gen2(cfg, 5);
    uint64_t prev = 0, firstHalf = 0, secondHalf = 0;
    for (;;) {
        uint64_t t = gen.next();
        EXPECT_EQ(t, gen2.next()); // deterministic in the seed
        EXPECT_GE(t, prev);        // monotone non-decreasing
        prev = t;
        if (t >= cfg.dayNs)
            break;
        (t < cfg.dayNs / 2 ? firstHalf : secondHalf)++;
    }
    EXPECT_GT(firstHalf, 100u);
    EXPECT_GT(secondHalf, 10u);
    EXPECT_GT(firstHalf, 4 * secondHalf)
        << "peak half-day not denser than trough";

    // And the engine end-to-end stays deterministic with diurnal on.
    SvcConfig run;
    run.seed = 31;
    run.requests = 300;
    run.arrivals.diurnal = true;
    run.arrivals.dayNs = 200'000'000;
    run.arrivals.diurnalAmp = 0.7;
    std::string first;
    for (int mode = 0; mode < 2; ++mode) {
        SvcConfig r = run;
        r.serial = mode == 1;
        Server server(r);
        server.run();
        std::string doc = server.report().dump(2);
        if (mode == 0)
            first = doc;
        else
            EXPECT_EQ(doc, first);
    }
}
