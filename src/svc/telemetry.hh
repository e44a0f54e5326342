/**
 * @file
 * Service-layer telemetry: per-request spans, a windowed timeline,
 * SLO burn-rate alerting, and a flight recorder.
 *
 * Four deterministic consumers of the service engine's lifecycle
 * hooks, all driven exclusively by the discrete-event coordinator in
 * virtual time -- never by worker threads -- so every artifact is
 * byte-identical between serial and parallel runs of the same seed:
 *
 *  - RequestTracer: a Chrome-trace recording (the same `traceEvents`
 *    format the pipeline tracer emits, loadable in Perfetto) of the
 *    full request lifecycle -- arrivals, admission/shed verdicts,
 *    queue-wait spans, per-attempt service spans on their virtual
 *    worker's track, retry scheduling with backoff annotation, chaos
 *    strikes, and finals.  One virtual nanosecond maps to one trace
 *    microsecond.  Running busy-time and per-class energy totals
 *    reconcile exactly against the `ulecc.svc.v1` report (pinned in
 *    tests/test_svc.cpp), mirroring the accumulation order of the
 *    report so even double-precision sums match bit for bit.
 *
 *  - TimelineAggregator: a sliding-window time series
 *    (`ulecc.svc.timeline.v1` JSONL, one record per active window)
 *    of throughput, shed/retry/timeout rates, energy, and per-op and
 *    per-tier HDR latency histograms.
 *
 *  - SloEngine: declarative error-budget judgment
 *    (`ulecc.svc.slo.v1` JSONL).  Finals feed fixed-width buckets; a
 *    fast multi-window "page" rule (high burn over a short horizon,
 *    confirmed by an even shorter one) and a sustained "ticket" rule
 *    (burn >= 1 over a long horizon) emit firing/resolved alert
 *    events, and a campaign verdict record closes the log.  The
 *    ticket rule's trailing windows tile the whole campaign, so a
 *    campaign-level budget breach *cannot* escape without at least
 *    one alert -- the completeness property tools/check.sh --soak
 *    enforces.
 *
 *  - FlightRecorder: a bounded ring of the most recent request
 *    records (`ulecc.svc.flight.v1`), with trigger marks on deadline
 *    breaches, faults, and chaos strikes.  Each record carries the
 *    (seed, id, attempt) key that makes the execution a replayable
 *    pure function.
 */

#ifndef ULECC_SVC_TELEMETRY_HH
#define ULECC_SVC_TELEMETRY_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/json.hh"
#include "obs/hdr_histogram.hh"
#include "svc/batch.hh"
#include "svc/chaos.hh"

namespace ulecc
{

/** Energy account of one served attempt: the report's grouping. */
enum class EnergyClass
{
    Op,        ///< full-cost modelled execution (per-op account)
    Analytic,  ///< analytic-tier estimate
    Cancelled, ///< pro-rata charge of a safe-point cancellation
};

/**
 * One served request attempt -- a batch member's slice of a pass --
 * filled once by the coordinator when the pass completes.  The
 * request tracer draws its service span from it and the flight
 * recorder keeps it; the execution it describes is a pure function
 * of (seed, id, attempt), so the record is replayable.
 */
struct ServedAttempt
{
    Request req;              ///< id, attempt, user, shape, deadline
    ServiceTier tier = ServiceTier::FullSim;
    unsigned worker = 0;
    uint64_t queueNs = 0;     ///< wait between join and dispatch
    uint64_t startNs = 0;     ///< where its slice of the pass starts
    uint64_t serviceNs = 0;   ///< full modelled service time
    uint64_t chargedNs = 0;   ///< charged (< serviceNs if cancelled)
    uint64_t completionNs = 0;
    double uj = 0;            ///< charged energy (pro rata)
    EnergyClass energyClass = EnergyClass::Op;
    Errc errc = Errc::Ok;
    ChaosClass chaos = ChaosClass::None;
    const char *chaosKind = "none";
    bool faulted = false;     ///< wrong answer or unstructured throw

    bool cancelled() const { return energyClass == EnergyClass::Cancelled; }
};

// ---------------------------------------------------------------------
// Per-request span tracing

/** Chrome-trace recorder for the request lifecycle (virtual time). */
class RequestTracer
{
  public:
    /** Stores up to a fixed event cap (telemetry.cc); past it events
     * are counted (and totals stay exact) but not stored. */
    RequestTracer();

    /** @name Coordinator lifecycle hooks (times are virtual ns) */
    /** @{ */
    void onArrival(uint64_t t, uint64_t id, uint32_t attempt,
                   const char *op);
    void onShed(uint64_t t, uint64_t id, uint32_t attempt,
                const char *reason);
    void onExpired(uint64_t t, uint64_t id, uint32_t attempt,
                   const char *where);
    void onAdmit(uint64_t t, uint64_t id, uint32_t attempt,
                 const char *tier, uint64_t queueDepth);
    void onQueueWait(uint64_t enqueueT, uint64_t dispatchT, uint64_t id,
                     uint32_t attempt);
    void onRetryScheduled(uint64_t t, uint64_t id, uint32_t nextAttempt,
                          uint64_t delayNs);
    void onFinal(uint64_t t, uint64_t id, uint32_t attempt,
                 const char *errc, uint64_t latencyNs, bool ok);

    /** A service span on the attempt's worker track, preceded by a
     * chaos mark on the lifecycle track if the attempt was struck. */
    void onService(const ServedAttempt &a);

    /** One dispatched batch pass (a track-level span enclosing its
     * members' service spans).  Does not count as a service span. */
    struct BatchSpan
    {
        uint64_t startNs = 0;  ///< dispatch time
        uint64_t endNs = 0;    ///< worker-released time
        uint64_t id = 0;       ///< batch formation sequence number
        uint64_t members = 0;  ///< members dispatched with the pass
        const char *closeReason = "";
        BatchKey key;
        unsigned worker = 0;
    };

    void onBatch(const BatchSpan &span);
    /** @} */

    /** @name Reconciliation totals (exact even past the event cap) */
    /** @{ */
    uint64_t serviceSpans() const { return spans_; }
    uint64_t batchSpans() const { return batchSpans_; }
    uint64_t droppedEvents() const { return dropped_; }
    /** Summed charged service time across spans. */
    uint64_t busyNs() const { return busyNs_; }
    /** busyNs() on the modelled clock (kSvcClockNs). */
    double busyCycles() const { return double(busyNs_) / kSvcClockNs; }
    /** Summed charged energy, grouped (analytic + cancelled + per-op)
     * in the report's exact accumulation order. */
    double totalUj() const;
    double analyticUj() const { return analyticUj_; }
    double cancelledUj() const { return cancelledUj_; }
    double opUj(int opIndex) const { return opUj_[opIndex]; }
    /** @} */

    /** The Chrome trace document ({"traceEvents": [...], ...}),
     *  compact, one event per line. */
    std::string dump() const;

  private:
    struct Ev
    {
        char ph = 'i';
        uint16_t tid = 1;
        uint64_t ts = 0;
        uint64_t dur = 0;
        const char *name = "";
        const char *cat = "";
        uint64_t id = 0;
        uint32_t attempt = 0;
        const char *s1key = nullptr;
        const char *s1 = nullptr;
        const char *s2key = nullptr;
        const char *s2 = nullptr;
        const char *n1key = nullptr;
        uint64_t n1 = 0;
        std::string curve;      ///< service spans only
        const char *arch = nullptr;
        double uj = -1.0;       ///< emitted when >= 0
    };

    /** A lifecycle-track event: the body every hook shares. */
    static Ev mark(uint64_t t, const char *name, const char *cat,
                   uint64_t id, uint32_t attempt,
                   const char *s1key = nullptr, const char *s1 = nullptr);

    void record(Ev ev);

    std::vector<Ev> events_;
    uint64_t spans_ = 0;
    uint64_t batchSpans_ = 0;
    uint64_t dropped_ = 0;
    uint64_t busyNs_ = 0;
    uint16_t maxWorkerTid_ = 0;
    double analyticUj_ = 0;
    double cancelledUj_ = 0;
    double opUj_[3] = {0, 0, 0};
};

// ---------------------------------------------------------------------
// Windowed timeline

/** Sliding-window aggregator emitting ulecc.svc.timeline.v1 records. */
class TimelineAggregator
{
  public:
    struct Config
    {
        uint64_t windowNs = 50'000'000; ///< 50 virtual ms per window
    };

    TimelineAggregator() : TimelineAggregator(Config{}) {}
    explicit TimelineAggregator(const Config &config);

    /** @name Coordinator hooks (times are virtual ns) */
    /** @{ */
    void onArrival(uint64_t t);
    void onAdmit(uint64_t t, const char *tier);
    void onShed(uint64_t t);
    void onRetry(uint64_t t);
    /** One batch of @p members dispatched to a virtual worker. */
    void onBatchDispatch(uint64_t t, uint64_t members);
    void onEnergy(uint64_t t, double uj);
    /** @p tier may be null (finals that never reached a worker);
     * @p latencyNs is meaningful only when @p ok. */
    void onFinal(uint64_t t, bool ok, bool timeout, uint64_t latencyNs,
                 const char *op, const char *tier);
    /** @} */

    /** Flushes the trailing window; call once after the run. */
    void finalize();

    /** @name Cross-check totals over all windows */
    /** @{ */
    uint64_t totalOk() const { return totalOk_; }
    uint64_t totalFailed() const { return totalFailed_; }
    uint64_t totalArrivals() const { return totalArrivals_; }
    double totalUj() const { return totalUj_; }
    /** @} */

    /** One compact record per line. */
    std::string dumpJsonl() const;

  private:
    struct Window
    {
        uint64_t arrivals = 0;
        uint64_t admitted = 0;
        uint64_t shed = 0;
        uint64_t retries = 0;
        uint64_t ok = 0;
        uint64_t failed = 0;
        uint64_t timeouts = 0;
        uint64_t batches = 0;      ///< batch passes dispatched
        uint64_t batchMembers = 0; ///< requests riding those passes
        double uj = 0;
        std::map<std::string, HdrHistogram> opLatency;
        std::map<std::string, HdrHistogram> tierLatency;
        std::map<std::string, uint64_t> tierAdmitted;

        bool active() const;
    };

    void advanceTo(uint64_t t);
    void flush();

    Config config_;
    Window cur_;
    uint64_t windowIdx_ = 0;
    bool finalized_ = false;
    std::vector<Json> records_;
    uint64_t totalOk_ = 0;
    uint64_t totalFailed_ = 0;
    uint64_t totalArrivals_ = 0;
    double totalUj_ = 0;
};

// ---------------------------------------------------------------------
// SLO judgment

/**
 * Multi-window burn-rate alert engine emitting ulecc.svc.slo.v1.  The
 * SLO itself -- error budget, bucket width, the fast "page" and the
 * sustained "ticket" rule -- is fixed in telemetry.cc.
 */
class SloEngine
{
  public:
    /** One final per request (coordinator order, virtual ns). */
    void onFinal(uint64_t t, bool ok);

    /** Closes the trailing bucket; call once after the run. */
    void finalize();

    /** Count of firing transitions across both rules. */
    uint64_t alertsFired() const { return alertsFired_; }

    uint64_t finals() const { return totalOk_ + totalErr_; }
    uint64_t errors() const { return totalErr_; }

    /** Campaign error ratio strictly above the budget? */
    bool breached() const;

    /** The end-of-campaign verdict record. */
    Json verdict() const;

    /** Alert events then the verdict, one compact record per line. */
    std::string dumpJsonl() const;

  private:
    void closeBucket();
    double burnOver(uint32_t buckets) const;
    void evaluate(uint64_t edgeNs);
    void emitTransition(const char *rule, bool firing, uint64_t edgeNs,
                        double burnLong, double burnShort,
                        uint32_t longBuckets);

    std::deque<std::pair<uint64_t, uint64_t>> buckets_; ///< (ok, err)
    uint64_t bucketIdx_ = 0;
    uint64_t curOk_ = 0;
    uint64_t curErr_ = 0;
    uint64_t totalOk_ = 0;
    uint64_t totalErr_ = 0;
    bool pageFiring_ = false;
    bool ticketFiring_ = false;
    bool finalized_ = false;
    uint64_t alertsFired_ = 0;
    std::vector<Json> events_;
};

// ---------------------------------------------------------------------
// Flight recorder

/** Bounded ring of recent request records (ulecc.svc.flight.v1). */
class FlightRecorder
{
  public:
    /** The campaign seed stamped into the replay key. */
    void setSeed(uint64_t seed) { seed_ = seed; }

    /** Appends one record (oldest evicted past the fixed capacity in
     * telemetry.cc) and marks a trigger at its completion if it was
     * cancelled (deadline-breach), struck (chaos-strike) or faulted
     * (fault). */
    void record(const ServedAttempt &a);

    /** Marks a dump-worthy moment (deadline breach, fault, chaos). */
    void trigger(uint64_t t, const char *reason, uint64_t id,
                 uint32_t attempt);

    uint64_t recordedTotal() const { return recordedTotal_; }
    uint64_t triggerTotal() const { return triggerTotal_; }
    size_t held() const { return ring_.size(); }

    /** The dump: replay key, triggers, and the last N records. */
    Json toJson() const;

  private:
    uint64_t seed_ = 0;
    std::deque<ServedAttempt> ring_;
    uint64_t recordedTotal_ = 0;
    std::vector<Json> triggers_;
    uint64_t triggerTotal_ = 0;
};

} // namespace ulecc

#endif // ULECC_SVC_TELEMETRY_HH
