/**
 * @file
 * The crypto-as-a-service request engine.
 *
 * A long-lived serving substrate in front of the whole stack:
 * sign/verify/ECDH requests drawn from a synthetic user population
 * (lazily derived per-user keys, Poisson or bursty arrivals,
 * per-request curve + microarchitecture selection) flow through
 * admission control, a bounded queue, a fleet of modelled device
 * workers, and the checked cryptographic entry points -- with
 * robustness as the headline:
 *
 *  - admission control sheds on queue depth and on deadline budget
 *    (a request that cannot start in time is refused immediately);
 *  - per-request end-to-end deadlines with cancellation at safe
 *    points (phase boundaries in virtual time; the budget check
 *    Pete makes before every instruction for real simulations);
 *  - taxonomy-driven retry (errcRetryable) with capped exponential
 *    backoff and deterministic jitter;
 *  - graceful degradation tiers (svc/degrade.hh) selected by load;
 *  - chaos mode (svc/chaos.hh) injecting faults into live request
 *    paths, with the invariant that every request ends in a correct
 *    result or a structured Errc -- never a crash, hang, or silent
 *    wrong answer.
 *
 * Determinism architecture: all timing, admission, retry,
 * degradation, and *batching* decisions are made by a discrete-event
 * coordinator in *virtual time*; real execution of admitted requests
 * (the host-side cryptography, chaos strikes, co-simulations) is a
 * pure function of (seed, request id, attempt) farmed out to a
 * ThreadPool -- one pooled task per batch, which may fan member
 * subtasks onto the work-stealing deques.  Parallel and serial runs
 * therefore produce byte-identical timing-free reports: threads
 * change wall-clock, never outcomes.
 */

#ifndef ULECC_SVC_SERVICE_HH
#define ULECC_SVC_SERVICE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/json.hh"
#include "svc/arrivals.hh"
#include "svc/batch.hh"
#include "svc/chaos.hh"
#include "svc/degrade.hh"
#include "svc/request.hh"
#include "svc/retry.hh"

namespace ulecc
{

/** Service engine configuration. */
struct SvcConfig
{
    uint64_t seed = 1;
    uint64_t requests = 1000; ///< synthetic requests to generate
    uint64_t users = 256;     ///< population size (keys lazily derived)

    /** Modelled device-fleet width (virtual servers, not threads). */
    unsigned virtualWorkers = 4;
    /** Real executor width (0 = ThreadPool::defaultThreads()). */
    unsigned jobs = 0;
    /** Execute requests inline on the coordinator (--serial). */
    bool serial = false;

    /** Admission control: max requests waiting for a worker. */
    size_t queueCap = 64;
    /**
     * Per-request deadline: max(deadlineFloorNs, deadlineFactor x
     * analytic service estimate), measured end-to-end from first
     * arrival (retries share the budget).
     */
    double deadlineFactor = 16.0;
    uint64_t deadlineFloorNs = 2'000'000;

    BackoffPolicy backoff;
    DegradePolicy degrade;
    ArrivalConfig arrivals;
    ChaosConfig chaos;
    BatchPolicy batch;

    /** Curves traffic is drawn from (uniform mix). */
    std::vector<CurveId> curves{CurveId::P192, CurveId::B163,
                                CurveId::P256};

    /** Pre-warm the evaluation memo for every (arch, curve) cell the
     * traffic can touch, in parallel, before the clock starts. */
    bool warmEvalCache = true;
};

/** Timing-free outcome counters (everything the report aggregates). */
struct SvcCounters
{
    uint64_t generated = 0;        ///< synthetic requests (== config)
    uint64_t arrivals = 0;         ///< arrival events incl. retries
    uint64_t admitted = 0;         ///< passed admission control
    uint64_t shedDepth = 0;        ///< refused: queue full
    uint64_t shedDeadlineBudget = 0; ///< refused: cannot start in time
    uint64_t expiredAtArrival = 0; ///< deadline already spent (retries)
    uint64_t expiredInQueue = 0;   ///< deadline passed while queued
    uint64_t cancelledMidService = 0; ///< cancelled at a safe point
    uint64_t executed = 0;         ///< real executions performed
    uint64_t completedOk = 0;      ///< final: correct result
    uint64_t failed = 0;           ///< final: structured error
    uint64_t retriesScheduled = 0;
    uint64_t retriesExhausted = 0;
    uint64_t tierFullSim = 0;
    uint64_t tierMemoized = 0;
    uint64_t tierAnalytic = 0;
    uint64_t evalFallbacks = 0;    ///< evaluator error -> analytic
    uint64_t chaosStrikes = 0;
    uint64_t chaosDetected = 0;
    uint64_t chaosMasked = 0;
    uint64_t chaosSilentCaught = 0;
    uint64_t wrongAnswers = 0;     ///< oracle mismatches (chaos-free)
    uint64_t unstructuredExceptions = 0; ///< escaped non-Errc throws
    uint64_t batchesClosed = 0;    ///< batches formed (all reasons)
    uint64_t batchClosedBySize = 0;
    uint64_t batchClosedByLinger = 0;
    uint64_t batchClosedByDeadline = 0;
    uint64_t batchMembersTotal = 0; ///< members across closed batches
    uint64_t batchPassesExecuted = 0; ///< passes that reached a worker
    uint64_t batchCosimAnchors = 0; ///< shared FullSim co-sim anchors
    std::map<std::string, uint64_t> failedByErrc;
    std::map<std::string, uint64_t> chaosByKind;
    std::vector<uint64_t> retriesByAttempt; ///< [i]: finals at attempt i+1
};

class RequestTracer;
class TimelineAggregator;
class SloEngine;
class FlightRecorder;

/**
 * Optional telemetry consumers (svc/telemetry.hh), not owned by the
 * Server.  Every hook fires on the coordinator thread in deterministic
 * event order, so attached components need no locking and their
 * artifacts are byte-identical across serial/parallel runs.
 */
struct SvcTelemetry
{
    RequestTracer *tracer = nullptr;
    TimelineAggregator *timeline = nullptr;
    SloEngine *slo = nullptr;
    FlightRecorder *flight = nullptr;
};

/** The request engine. */
class Server
{
  public:
    explicit Server(const SvcConfig &config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Attaches telemetry consumers (call before run(); pointers must
     * outlive it).  The Server finalizes the timeline aggregator and
     * SLO engine when the campaign ends. */
    void attachTelemetry(const SvcTelemetry &telemetry);

    /** Runs the whole synthetic campaign to completion.  Deterministic
     * in config.seed; callable once per Server. */
    void run();

    const SvcCounters &counters() const;

    /** Timing-free JSON report ("ulecc.svc.v1"): byte-identical for
     * the same seed across runs and serial/parallel modes. */
    Json report() const;

    /** Human-readable summary of the same numbers. */
    std::string reportText() const;

  private:
    struct Impl;
    Impl *impl_;
};

} // namespace ulecc

#endif // ULECC_SVC_SERVICE_HH
