/**
 * @file
 * The crypto-as-a-service engine implementation.
 *
 * Shape: a discrete-event coordinator owns *all* virtual-time state
 * (arrival heap, batch former, worker free times, retry schedule)
 * and processes events in strict (time, sequence) order; admitted
 * requests join per-shape batches (svc/batch.hh) and each closed
 * batch is executed for real -- checked crypto, chaos strikes, one
 * shared co-simulation anchor -- as pure functions of (seed, id,
 * attempt) in one pooled task that may fan member subtasks onto the
 * work-stealing deques.  The coordinator blocks on a batch's future
 * only when it processes that batch's completion event, so
 * parallelism overlaps real work without ever influencing a decision.
 */

#include "svc/service.hh"

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <queue>

#include "ecdsa/ecdh.hh"
#include "ecdsa/ecdsa.hh"
#include "energy/power_model.hh"
#include "obs/energy_ledger.hh"
#include "obs/hdr_histogram.hh"
#include "par/sweep.hh"
#include "par/thread_pool.hh"
#include "svc/session.hh"
#include "svc/telemetry.hh"
#include "workload/kernel_model.hh"

namespace ulecc
{

const char *
opKindName(OpKind op)
{
    switch (op) {
      case OpKind::Sign: return "sign";
      case OpKind::Verify: return "verify";
      case OpKind::Ecdh: return "ecdh";
    }
    return "unknown";
}

namespace
{

constexpr double kClockNs = 3.0; ///< 333 MHz system clock

constexpr MicroArch kAllArchs[] = {
    MicroArch::Baseline, MicroArch::IsaExt, MicroArch::IsaExtIcache,
    MicroArch::Monte, MicroArch::Billie,
};

/** Outcome of one real execution (pure in (seed, id, attempt)). */
struct ExecOutcome
{
    Errc errc = Errc::Ok;
    ChaosClass chaos = ChaosClass::None;
    const char *chaosKind = "none";
    bool wrongAnswer = false;    ///< oracle mismatch, no structured error
    bool unstructured = false;   ///< a non-UleccError escaped
};

/** Everything bound to one curve of the traffic mix. */
struct CurveCtx
{
    const Curve &curve;
    Ecdsa ecdsa;
    Ecdh ecdh;
    KeyPair serverKey;
    std::vector<MicroArch> archs; ///< archs that model this curve

    explicit CurveCtx(const Curve &c) : curve(c), ecdsa(c), ecdh(c) {}
};

/** Modelled cost of serving one request at one fidelity tier. */
struct ServiceCost
{
    uint64_t serviceNs = 0;
    double uj = 0;
    EventCounts events;   ///< empty for the analytic tier
    bool analytic = false;
};

/** What one batch's real execution returns through its future. */
struct BatchExecResult
{
    std::vector<ExecOutcome> outcomes; ///< indexed by execIdx
    bool anchorMismatch = false; ///< shared FullSim co-sim disagreed
};

/**
 * A batch the coordinator handed to a virtual worker: everything the
 * completion event needs to attribute per-member outcomes, fixed at
 * dispatch time in deterministic event order.
 */
struct DispatchedBatch
{
    uint64_t id = 0;
    BatchKey key;
    ServiceCost cost;       ///< one pass's solo-shape cost
    uint64_t dispatchNs = 0;
    uint64_t passNs = 0;    ///< full modelled pass length
    uint64_t endNs = 0;     ///< worker-occupied end (early if all cancel)
    unsigned worker = 0;
    int64_t slot = -1;      ///< execution slot, -1 = nothing executed
    const char *closeReason = "size";

    struct Member
    {
        Request req;
        uint64_t queueNs = 0;   ///< wait between join and dispatch
        uint64_t shareNs = 0;   ///< this member's slice of the pass
        uint64_t chargedNs = 0; ///< <= shareNs (cancelled members)
        bool cancelled = false; ///< deadline lands mid-pass
        int execIdx = -1;       ///< index into outcomes, -1 = cancelled
    };
    std::vector<Member> members;
};

struct Event
{
    enum class Kind
    {
        Arrival,
        Completion,
        BatchLinger,
    };

    uint64_t t = 0;
    uint64_t seq = 0;
    Kind kind = Kind::Arrival;
    Request req;

    // BatchLinger-only payload.
    uint64_t batchId = 0;

    // Completion-only payload.
    std::shared_ptr<DispatchedBatch> batch;
};

struct EventAfter
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        if (a.t != b.t)
            return a.t > b.t;
        return a.seq > b.seq;
    }
};

} // namespace

struct Server::Impl
{
    explicit Impl(const SvcConfig &config)
        : cfg(config), sessions(config.seed)
    {}

    SvcConfig cfg;
    SvcCounters counters;
    SessionCache sessions;
    AnalyticModel analytic;
    std::map<CurveId, std::unique_ptr<CurveCtx>> curves;

    // Virtual-time machinery (coordinator-only state).
    std::priority_queue<Event, std::vector<Event>, EventAfter> events;
    uint64_t nextSeq = 0;
    std::vector<uint64_t> workerFreeNs;
    std::optional<BatchFormer> former; ///< admission queue + coalescing
    uint64_t virtualEndNs = 0;
    uint64_t finals = 0;

    // Closed-loop issuance state (ArrivalKind::ClosedLoop only).
    std::vector<Request> issueQueue; ///< pre-drawn attributes
    uint64_t nextToIssue = 0;

    // Real execution.
    std::optional<ThreadPool> pool;
    std::deque<std::future<BatchExecResult>> slots;

    // Timing-free accumulators (mutated only by the coordinator, in
    // deterministic event order).
    HdrHistogram okLatency;
    HdrHistogram batchOccupancy; ///< live members per executed pass
    EventCounts opEvents[kNumOps];
    double opUj[kNumOps] = {0, 0, 0};
    uint64_t opServed[kNumOps] = {0, 0, 0};
    double analyticUj = 0;
    double cancelledUj = 0;
    uint64_t busyNsTotal = 0; ///< charged worker-busy virtual time
    bool ran = false;

    // Optional telemetry consumers, fed only from coordinator code.
    SvcTelemetry tel;

    // --- setup -------------------------------------------------------

    void
    buildCurves()
    {
        for (CurveId id : cfg.curves) {
            if (curves.count(id))
                continue;
            auto ctx = std::make_unique<CurveCtx>(standardCurve(id));
            for (MicroArch arch : kAllArchs) {
                if (archSupportsCurve(arch, id))
                    ctx->archs.push_back(arch);
            }
            // Server-side key: the peer every ECDH request agrees with.
            const MpUint &n = ctx->curve.order();
            SplitMix64 rng(splitmix64Mix(
                cfg.seed, 0xC0FFEEull,
                static_cast<uint64_t>(id) + 1));
            MpUint d;
            int limbs = (curveIdBits(id) + 31) / 32;
            for (int i = 0; i < limbs; ++i)
                d.setLimb(i, static_cast<uint32_t>(rng.next()));
            d = d.mod(n);
            if (d.isZero())
                d = MpUint(2);
            ctx->serverKey = ctx->ecdsa.keyFromPrivate(d);
            curves.emplace(id, std::move(ctx));
        }
    }

    /** Fills the evaluation memo for every (arch, curve) cell the
     * traffic can touch, in parallel, before the clock starts. */
    void
    warmEvalMemo()
    {
        std::vector<SweepPoint> points;
        for (auto &[id, ctx] : curves) {
            for (MicroArch arch : ctx->archs)
                points.push_back(SweepPoint{arch, id, {}});
        }
        SweepConfig sc;
        sc.jobs = cfg.jobs;
        sc.serial = cfg.serial;
        SweepRunner(sc).run(points); // results land in the eval memo
    }

    // --- request generation ------------------------------------------

    uint64_t
    analyticEstNs(const Request &req) const
    {
        AnalyticModel::Estimate est = analytic.estimate(
            req.arch, req.curve, req.op == OpKind::Verify);
        double ns = est.cycles * kClockNs;
        return ns < 1 ? 1 : static_cast<uint64_t>(ns);
    }

    /** Draws one request's attributes (everything but arrival time). */
    Request
    drawAttributes(uint64_t id, SplitMix64 &attrs) const
    {
        uint64_t population = cfg.users ? cfg.users : 1;
        uint64_t hot = population / 10 ? population / 10 : 1;
        Request r;
        r.id = id;
        // 80/20 skew: most traffic from a hot tenth of the
        // population, so the session cache sees real reuse.
        r.userId = attrs.below(100) < 80 ? attrs.below(hot)
                                         : attrs.below(population);
        uint64_t op = attrs.below(100);
        r.op = op < 40 ? OpKind::Sign
             : op < 75 ? OpKind::Verify
                       : OpKind::Ecdh;
        r.curve = cfg.curves[attrs.below(cfg.curves.size())];
        const CurveCtx &ctx = *curves.at(r.curve);
        r.arch = ctx.archs[attrs.below(ctx.archs.size())];
        return r;
    }

    /** Stamps arrival/deadline on @p r and enqueues its arrival. */
    void
    issueAt(Request r, uint64_t arrivalNs)
    {
        r.firstArrivalNs = arrivalNs;
        uint64_t est = analyticEstNs(r);
        double budget = cfg.deadlineFactor * static_cast<double>(est);
        uint64_t deadline = static_cast<uint64_t>(budget);
        if (deadline < cfg.deadlineFloorNs)
            deadline = cfg.deadlineFloorNs;
        r.deadlineNs = r.firstArrivalNs + deadline;

        Event ev;
        ev.t = r.firstArrivalNs;
        ev.seq = nextSeq++;
        ev.kind = Event::Kind::Arrival;
        ev.req = r;
        events.push(ev);
    }

    void
    generate()
    {
        SplitMix64 attrs(splitmix64Mix(cfg.seed, 0x5EED));
        if (cfg.arrivals.kind == ArrivalKind::ClosedLoop) {
            // Closed-loop clients: attributes are pre-drawn in id
            // order (same stream as open-loop), but a request is only
            // issued when its client's previous one resolved plus a
            // deterministic think time.  The first wave staggers one
            // request per client from t = 0.
            issueQueue.reserve(cfg.requests);
            for (uint64_t id = 0; id < cfg.requests; ++id) {
                issueQueue.push_back(drawAttributes(id, attrs));
                ++counters.generated;
            }
            uint64_t clients = cfg.arrivals.clients
                ? cfg.arrivals.clients
                : 1;
            uint64_t firstWave =
                std::min<uint64_t>(clients, cfg.requests);
            for (nextToIssue = 0; nextToIssue < firstWave;
                 ++nextToIssue) {
                const Request &r = issueQueue[nextToIssue];
                issueAt(r, closedLoopThinkNs(cfg.seed, r.id,
                                             cfg.arrivals.thinkNs));
            }
            return;
        }
        ArrivalGen gen(cfg.arrivals, splitmix64Mix(cfg.seed, 0xA221));
        for (uint64_t id = 0; id < cfg.requests; ++id) {
            uint64_t t = gen.next();
            issueAt(drawAttributes(id, attrs), t);
            ++counters.generated;
        }
    }

    /** Closed-loop only: a final resolution frees its client, who
     * thinks for a while and issues the next pre-drawn request. */
    void
    onClientFreed(uint64_t now)
    {
        if (cfg.arrivals.kind != ArrivalKind::ClosedLoop)
            return;
        if (nextToIssue >= issueQueue.size())
            return;
        const Request &r = issueQueue[nextToIssue++];
        issueAt(r, now + closedLoopThinkNs(cfg.seed, r.id,
                                           cfg.arrivals.thinkNs));
    }

    // --- real execution (pure per (seed, id, attempt)) ----------------

    void
    normalPath(const CurveCtx &ctx, const Session &s,
               const Request &req, ExecOutcome &out) const
    {
        switch (req.op) {
          case OpKind::Sign: {
            Result<Signature> r =
                ctx.ecdsa.signDigestChecked(s.key.d, s.digest);
            if (!r.ok())
                out.errc = r.error().code;
            break;
          }
          case OpKind::Verify: {
            Result<bool> v = ctx.ecdsa.verifyDigestChecked(
                s.key.q, s.digest, s.goldenSig);
            if (!v.ok())
                out.errc = v.error().code;
            else if (!v.value())
                out.wrongAnswer = true; // golden signature must verify
            break;
          }
          case OpKind::Ecdh: {
            Result<EcdhShared> a =
                ctx.ecdh.agreeChecked(s.key.d, ctx.serverKey.q);
            if (!a.ok()) {
                out.errc = a.error().code;
                break;
            }
            Result<EcdhShared> b =
                ctx.ecdh.agreeChecked(ctx.serverKey.d, s.key.q);
            if (!b.ok()) {
                out.errc = b.error().code;
                break;
            }
            // Both sides must derive the same session key.
            if (!a.value().valid || !b.value().valid
                || a.value().sessionKey != b.value().sessionKey)
                out.wrongAnswer = true;
            break;
          }
        }
    }

    void
    chaosPath(const CurveCtx &ctx, const Session &s,
              const Request &req, SplitMix64 &rng,
              ExecOutcome &out) const
    {
        uint64_t pick = rng.below(4);
        if (pick == 0) {
            SimStrikeResult sr = chaosSimStrike(rng);
            out.errc = sr.errc;
            out.chaos = sr.cls;
            out.chaosKind = sr.kind;
            // A masked strike left the device unharmed: the request's
            // real answer is still produced.
            if (sr.cls == ChaosClass::Masked)
                normalPath(ctx, s, req, out);
            return;
        }
        if (pick == 1) {
            SimStrikeResult sr = chaosBudgetStrike(rng);
            out.errc = sr.errc;
            out.chaos = sr.cls;
            out.chaosKind = sr.kind;
            if (sr.cls == ChaosClass::Masked)
                normalPath(ctx, s, req, out);
            return;
        }
        switch (req.op) {
          case OpKind::Sign: {
            if (rng.below(2) == 0) {
                // Emulated glitched signer: a corrupted signature must
                // be withheld by verify-after-sign.
                out.chaosKind = "crypto-glitched-sign";
                Signature glitched = s.goldenSig;
                int bit = static_cast<int>(
                    rng.below(curveIdBits(req.curve)));
                glitched.s = glitched.s.bitXor(MpUint::powerOfTwo(bit));
                bool ok = ctx.ecdsa.verifyDigest(s.key.q, s.digest,
                                                 glitched);
                if (ok) {
                    out.wrongAnswer = true;
                    out.chaos = ChaosClass::SilentCaught;
                } else {
                    out.errc = Errc::FaultDetected;
                    out.chaos = ChaosClass::Detected;
                }
            } else {
                // Glitched scalar: out-of-range d must be rejected.
                out.chaosKind = "crypto-scalar-range";
                MpUint bad = ctx.curve.order().add(s.key.d);
                Result<Signature> r =
                    ctx.ecdsa.signDigestChecked(bad, s.digest);
                if (!r.ok()) {
                    out.errc = r.error().code;
                    out.chaos = ChaosClass::Detected;
                } else {
                    out.wrongAnswer = true;
                    out.chaos = ChaosClass::SilentCaught;
                }
            }
            break;
          }
          case OpKind::Verify: {
            // Bit-flipped signature must fail verification -- a
            // *false* verdict is the correct result here.
            out.chaosKind = "crypto-corrupt-signature";
            Signature bad = s.goldenSig;
            int bit =
                static_cast<int>(rng.below(curveIdBits(req.curve)));
            if (rng.below(2))
                bad.r = bad.r.bitXor(MpUint::powerOfTwo(bit));
            else
                bad.s = bad.s.bitXor(MpUint::powerOfTwo(bit));
            Result<bool> v = ctx.ecdsa.verifyDigestChecked(
                s.key.q, s.digest, bad);
            if (!v.ok() || !v.value()) {
                out.chaos = ChaosClass::Detected;
            } else {
                out.wrongAnswer = true;
                out.chaos = ChaosClass::SilentCaught;
            }
            break;
          }
          case OpKind::Ecdh: {
            // Bit-flipped peer point must fail validation.
            out.chaosKind = "crypto-corrupt-ecdh-peer";
            AffinePoint bad = ctx.serverKey.q;
            bad.y.setLimb(
                static_cast<int>(rng.below(
                    (curveIdBits(req.curve) + 31) / 32)),
                bad.y.limb(0) ^ (1u << rng.below(32)));
            Result<EcdhShared> r = ctx.ecdh.agreeChecked(s.key.d, bad);
            if (!r.ok()) {
                out.errc = r.error().code;
                out.chaos = ChaosClass::Detected;
            } else {
                out.wrongAnswer = true;
                out.chaos = ChaosClass::SilentCaught;
            }
            break;
          }
        }
    }

    ExecOutcome
    execMember(const Request &req)
    {
        ExecOutcome out;
        try {
            SplitMix64 rng(
                splitmix64Mix(cfg.seed, req.id + 1, req.attempt));
            const CurveCtx &ctx = *curves.at(req.curve);
            Session s = sessions.get(ctx.ecdsa, req.curve, req.userId);
            bool struck = cfg.chaos.percent != 0
                && rng.below(100) < cfg.chaos.percent;
            if (struck)
                chaosPath(ctx, s, req, rng, out);
            else
                normalPath(ctx, s, req, out);
        } catch (const UleccError &e) {
            out.errc = e.code();
        } catch (...) {
            out.errc = Errc::Internal;
            out.unstructured = true;
        }
        // The silent-corruption countermeasure: an oracle mismatch
        // without a structured error becomes one, so no request ever
        // returns a wrong answer marked "ok".
        if (out.wrongAnswer && out.errc == Errc::Ok)
            out.errc = Errc::FaultDetected;
        return out;
    }

    /**
     * Shared state of one batch's real execution: member outcomes land
     * in pre-sized slots, the last finisher fulfils the promise.  The
     * completion counter's acq_rel ordering makes every slot write
     * visible to whoever observes the count hit zero.
     */
    struct BatchTaskState
    {
        std::vector<Request> reqs;
        std::vector<ExecOutcome> outcomes;
        std::atomic<size_t> remaining{0};
        std::atomic<bool> anchorMismatch{false};
        std::promise<BatchExecResult> promise;

        void
        finishOne()
        {
            if (remaining.fetch_sub(1, std::memory_order_acq_rel)
                == 1) {
                BatchExecResult res;
                res.outcomes = std::move(outcomes);
                res.anchorMismatch =
                    anchorMismatch.load(std::memory_order_acquire);
                promise.set_value(std::move(res));
            }
        }
    };

    /**
     * Launches one batch pass as a single pooled task.  The task runs
     * the shared setup once -- for the FullSim tier, one co-simulation
     * anchor cross-checking Pete against the native bignum -- then
     * fans the members out as subtasks on the submitting worker's own
     * deque, where idle workers steal them.  Every member outcome
     * stays a pure function of (seed, id, attempt); the anchor is a
     * pure function of the batch's identity.
     */
    int64_t
    launchBatch(std::vector<Request> execReqs, ServiceTier tier,
                uint64_t batchId)
    {
        int64_t slot = static_cast<int64_t>(slots.size());
        counters.executed += execReqs.size();
        ++counters.batchPassesExecuted;
        bool fullSim = tier == ServiceTier::FullSim;
        if (fullSim)
            ++counters.batchCosimAnchors;
        uint64_t anchorSeed = splitmix64Mix(
            cfg.seed, 0xBA7C4ull, batchId + 1);

        auto state = std::make_shared<BatchTaskState>();
        state->reqs = std::move(execReqs);
        size_t n = state->reqs.size();
        state->outcomes.resize(n);
        state->remaining.store(n, std::memory_order_relaxed);
        slots.push_back(state->promise.get_future());

        auto runAnchor = [fullSim, anchorSeed, state] {
            if (!fullSim)
                return;
            SplitMix64 rng(anchorSeed);
            bool mismatch = false;
            chaosCosim(rng, &mismatch);
            if (mismatch)
                state->anchorMismatch.store(
                    true, std::memory_order_release);
        };

        if (!pool) {
            runAnchor();
            for (size_t i = 0; i < n; ++i) {
                state->outcomes[i] = execMember(state->reqs[i]);
                state->finishOne();
            }
            return slot;
        }
        pool->submit([this, state, runAnchor, n] {
            runAnchor();
            // Fan out members 1..n-1, keep member 0 for this task:
            // the subtasks land on this worker's own deque and get
            // stolen when other workers run dry.
            for (size_t i = 1; i < n; ++i) {
                bool queued = pool->submit([this, state, i] {
                    state->outcomes[i] = execMember(state->reqs[i]);
                    state->finishOne();
                });
                if (!queued) {
                    // Pool shutting down mid-flight: run inline so
                    // the batch still completes.
                    state->outcomes[i] = execMember(state->reqs[i]);
                    state->finishOne();
                }
            }
            state->outcomes[0] = execMember(state->reqs[0]);
            state->finishOne();
        });
        return slot;
    }

    // --- coordinator --------------------------------------------------

    ServiceCost
    dispatchCost(const Request &req, ServiceTier tier)
    {
        ServiceCost c;
        if (tier != ServiceTier::Analytic) {
            Result<EvalResult> r = evaluateChecked(req.arch, req.curve);
            if (r.ok()) {
                const OperationEval &oe = req.op == OpKind::Verify
                    ? r.value().verify
                    : r.value().sign; // ECDH: one scalar mult ~ sign
                c.serviceNs = static_cast<uint64_t>(
                    static_cast<double>(oe.cycles) * kClockNs);
                c.uj = oe.energy.totalUj();
                c.events = oe.events;
                return c;
            }
            // Graceful degradation *within* the tier: an evaluator
            // failure (not an invalid request) downgrades this one
            // request to the analytic estimate instead of failing it.
            ++counters.evalFallbacks;
        }
        AnalyticModel::Estimate est = analytic.estimate(
            req.arch, req.curve, req.op == OpKind::Verify);
        c.serviceNs = static_cast<uint64_t>(est.cycles * kClockNs);
        if (c.serviceNs < 1)
            c.serviceNs = 1;
        c.uj = est.uj;
        c.analytic = true;
        return c;
    }

    void
    scheduleRetry(const Request &req, uint64_t now)
    {
        ++counters.retriesScheduled;
        Event ev;
        ev.t = now
            + cfg.backoff.delayNs(req.attempt,
                                  splitmix64Mix(cfg.seed, req.id + 1));
        ev.seq = nextSeq++;
        ev.kind = Event::Kind::Arrival;
        ev.req = req;
        ev.req.attempt = req.attempt + 1;
        if (tel.tracer)
            tel.tracer->onRetryScheduled(now, req.id, req.attempt + 1,
                                         ev.t - now);
        if (tel.timeline)
            tel.timeline->onRetry(now);
        events.push(ev);
    }

    void
    recordFinal(const Request &req, uint64_t now, Errc errc,
                const char *tierName = nullptr)
    {
        ++finals;
        if (req.attempt >= 1
            && req.attempt <= counters.retriesByAttempt.size())
            ++counters.retriesByAttempt[req.attempt - 1];
        bool ok = errc == Errc::Ok;
        uint64_t latencyNs = ok ? now - req.firstArrivalNs : 0;
        if (ok) {
            ++counters.completedOk;
            okLatency.record(latencyNs);
        } else {
            ++counters.failed;
            ++counters.failedByErrc[errcName(errc)];
            if (errcRetryable(errc)
                && req.attempt >= cfg.backoff.maxAttempts)
                ++counters.retriesExhausted;
        }
        if (tel.tracer)
            tel.tracer->onFinal(now, req.id, req.attempt,
                                errcName(errc), latencyNs, ok);
        if (tel.timeline)
            tel.timeline->onFinal(now, ok,
                                  errc == Errc::DeadlineExceeded,
                                  latencyNs, opKindName(req.op),
                                  tierName);
        if (tel.slo)
            tel.slo->onFinal(now, ok);
        onClientFreed(now);
    }

    /** Retry when policy allows, otherwise make @p errc final. */
    void
    resolve(const Request &req, uint64_t now, Errc errc,
            const char *tierName = nullptr)
    {
        if (errc != Errc::Ok && errcRetryable(errc)
            && req.attempt < cfg.backoff.maxAttempts)
            scheduleRetry(req, now);
        else
            recordFinal(req, now, errc, tierName);
    }

    uint64_t
    estStartDelayNs(uint64_t now) const
    {
        uint64_t minFree = workerFreeNs[0];
        for (uint64_t f : workerFreeNs)
            minFree = std::min(minFree, f);
        uint64_t base = minFree > now ? minFree - now : 0;
        return base + former->waitingEstSumNs() / workerFreeNs.size();
    }

    void
    onArrival(const Event &ev)
    {
        ++counters.arrivals;
        const Request &req = ev.req;
        uint64_t now = ev.t;
        if (tel.tracer)
            tel.tracer->onArrival(now, req.id, req.attempt,
                                  opKindName(req.op));
        if (tel.timeline)
            tel.timeline->onArrival(now);
        if (now >= req.deadlineNs) {
            // The end-to-end budget is already spent (typically a
            // retry whose backoff overshot the deadline).
            ++counters.expiredAtArrival;
            if (tel.tracer)
                tel.tracer->onExpired(now, req.id, req.attempt,
                                      "at-arrival");
            if (tel.flight)
                tel.flight->trigger(now, "deadline-breach", req.id,
                                    req.attempt);
            recordFinal(req, now, Errc::DeadlineExceeded);
            return;
        }
        size_t depth = static_cast<size_t>(former->waitingMembers());
        if (depth >= cfg.queueCap) {
            ++counters.shedDepth;
            if (tel.tracer)
                tel.tracer->onShed(now, req.id, req.attempt,
                                   "queue-depth");
            if (tel.timeline)
                tel.timeline->onShed(now);
            resolve(req, now, Errc::Overloaded);
            return;
        }
        uint64_t est = analyticEstNs(req);
        if (now + estStartDelayNs(now) + est > req.deadlineNs) {
            // Deadline-aware admission: if the request cannot plausibly
            // finish inside its budget, shedding now is cheaper than
            // timing out later.
            ++counters.shedDeadlineBudget;
            if (tel.tracer)
                tel.tracer->onShed(now, req.id, req.attempt,
                                   "deadline-budget");
            if (tel.timeline)
                tel.timeline->onShed(now);
            resolve(req, now, Errc::Overloaded);
            return;
        }
        ServiceTier tier = cfg.degrade.select(depth);
        switch (tier) {
          case ServiceTier::FullSim: ++counters.tierFullSim; break;
          case ServiceTier::Memoized: ++counters.tierMemoized; break;
          case ServiceTier::Analytic: ++counters.tierAnalytic; break;
        }
        ++counters.admitted;
        if (tel.tracer)
            tel.tracer->onAdmit(now, req.id, req.attempt,
                                serviceTierName(tier), depth);
        if (tel.timeline)
            tel.timeline->onAdmit(now, serviceTierName(tier));
        BatchFormer::JoinResult jr = former->join(req, tier, est, now);
        if (jr.lingerArmed) {
            Event lv;
            lv.t = jr.lingerAtNs;
            lv.seq = nextSeq++;
            lv.kind = Event::Kind::BatchLinger;
            lv.batchId = jr.batchId;
            events.push(lv);
        }
        if (jr.closed)
            noteClosedBatch();
        tryDispatch(now);
    }

    void
    noteClosedBatch()
    {
        // Mirror the former's close statistics into the report
        // counters (the former keeps running totals; sample them).
        counters.batchesClosed = former->closedTotal();
        counters.batchClosedBySize = former->closedBySize();
        counters.batchClosedByLinger = former->closedByLinger();
        counters.batchClosedByDeadline = former->closedByDeadline();
    }

    void
    onBatchLinger(const Event &ev)
    {
        if (former->onLinger(ev.batchId, ev.t)) {
            noteClosedBatch();
            tryDispatch(ev.t);
        }
    }

    void
    tryDispatch(uint64_t now)
    {
        while (former->hasReady()) {
            // Earliest-free worker, lowest index on ties.
            unsigned w = 0;
            for (unsigned i = 1; i < workerFreeNs.size(); ++i) {
                if (workerFreeNs[i] < workerFreeNs[w])
                    w = i;
            }
            if (workerFreeNs[w] > now)
                return; // all workers busy; completions re-dispatch
            Batch b = former->takeReady();
            counters.batchMembersTotal += b.members.size();
            batchOccupancy.record(
                static_cast<uint64_t>(b.members.size()));
            const char *tierName = serviceTierName(b.key.tier);

            auto db = std::make_shared<DispatchedBatch>();
            db->id = b.id;
            db->key = b.key;
            db->dispatchNs = now;
            db->worker = w;
            db->closeReason = b.closeReason;

            // Members whose deadline already passed while queued are
            // resolved here and never reach the pass.
            std::vector<Request> execReqs;
            for (const BatchMember &m : b.members) {
                if (tel.tracer)
                    tel.tracer->onQueueWait(m.enqueuedNs, now,
                                            m.req.id, m.req.attempt);
                if (now >= m.req.deadlineNs) {
                    ++counters.expiredInQueue;
                    if (tel.tracer)
                        tel.tracer->onExpired(now, m.req.id,
                                              m.req.attempt,
                                              "in-queue");
                    if (tel.flight)
                        tel.flight->trigger(now, "deadline-breach",
                                            m.req.id, m.req.attempt);
                    recordFinal(m.req, now, Errc::DeadlineExceeded,
                                tierName);
                    continue;
                }
                DispatchedBatch::Member dm;
                dm.req = m.req;
                dm.queueNs = now - m.enqueuedNs;
                db->members.push_back(dm);
            }
            if (db->members.empty())
                continue; // the whole batch expired in the queue

            // One pass cost for the shared shape: setup amortized
            // once, work per live member.  Shares tile the pass
            // exactly (remainder to the first members).
            db->cost = dispatchCost(db->members.front().req,
                                    b.key.tier);
            size_t n = db->members.size();
            uint64_t batchNs = former->passNs(db->cost.serviceNs, n);
            db->passNs = batchNs;
            uint64_t share = batchNs / n;
            uint64_t rem = batchNs % n;

            // Cancel-at-safe-point, batch form: a member whose
            // deadline lands before the pass ends is cancelled at the
            // next phase boundary (1/8 pass granularity) and charged
            // at most its share.  With one member this reproduces the
            // solo engine's cancellation exactly.
            uint64_t sp = batchNs / 8;
            if (sp == 0)
                sp = 1;
            bool anySurvivor = false;
            uint64_t maxChargedNs = 0;
            for (size_t i = 0; i < n; ++i) {
                DispatchedBatch::Member &dm = db->members[i];
                dm.shareNs = share + (i < rem ? 1 : 0);
                uint64_t budget = dm.req.deadlineNs - now;
                if (batchNs > budget) {
                    uint64_t charged = ((budget + sp - 1) / sp) * sp;
                    dm.chargedNs = std::min(charged, dm.shareNs);
                    dm.cancelled = true;
                    ++counters.cancelledMidService;
                } else {
                    dm.chargedNs = dm.shareNs;
                    dm.execIdx =
                        static_cast<int>(execReqs.size());
                    execReqs.push_back(dm.req);
                    anySurvivor = true;
                }
                maxChargedNs = std::max(maxChargedNs, dm.chargedNs);
            }
            // A pass with any surviving member runs to its full
            // length; if everyone cancelled, the worker is freed at
            // the last safe point actually charged.
            db->endNs = now + (anySurvivor ? batchNs : maxChargedNs);
            if (!execReqs.empty())
                db->slot = launchBatch(std::move(execReqs),
                                       b.key.tier, b.id);
            if (tel.timeline)
                tel.timeline->onBatchDispatch(
                    now, static_cast<uint64_t>(n));

            Event done;
            done.t = db->endNs;
            done.seq = nextSeq++;
            done.kind = Event::Kind::Completion;
            done.batch = std::move(db);
            workerFreeNs[w] = done.t;
            events.push(done);
        }
    }

    void
    onCompletion(const Event &ev)
    {
        DispatchedBatch &db = *ev.batch;
        BatchExecResult res;
        if (db.slot >= 0)
            res = slots[static_cast<size_t>(db.slot)].get();
        const char *tierName = serviceTierName(db.key.tier);

        if (tel.tracer) {
            RequestTracer::BatchSpan bs;
            bs.startNs = db.dispatchNs;
            bs.endNs = ev.t;
            bs.id = db.id;
            bs.members =
                static_cast<uint64_t>(db.members.size());
            bs.closeReason = db.closeReason;
            bs.op = opKindName(db.key.op);
            bs.curve = curveIdName(db.key.curve);
            bs.arch = microArchName(db.key.arch);
            bs.tier = tierName;
            bs.worker = db.worker;
            tel.tracer->onBatch(bs);
        }

        // Per-member attribution, in batch member order.  The pass's
        // device events are charged once (they are what the shared
        // setup amortizes); energy and latency stay per member.
        bool eventsCharged = false;
        uint64_t tileNs = db.dispatchNs;
        for (const DispatchedBatch::Member &m : db.members) {
            const Request &req = m.req;
            ExecOutcome out;
            if (m.execIdx >= 0) {
                out = res.outcomes[static_cast<size_t>(m.execIdx)];
                if (res.anchorMismatch) {
                    // The shared co-sim anchor disagreed with the
                    // native bignum: taint every request it vouched
                    // for rather than let one slip through.
                    out.wrongAnswer = true;
                    if (out.errc == Errc::Ok)
                        out.errc = Errc::FaultDetected;
                }
            } else {
                out.errc = Errc::DeadlineExceeded;
            }

            // Chaos bookkeeping.
            if (out.chaos != ChaosClass::None) {
                ++counters.chaosStrikes;
                ++counters.chaosByKind[out.chaosKind];
                switch (out.chaos) {
                  case ChaosClass::Detected:
                    ++counters.chaosDetected;
                    break;
                  case ChaosClass::Masked:
                    ++counters.chaosMasked;
                    break;
                  case ChaosClass::SilentCaught:
                    ++counters.chaosSilentCaught;
                    break;
                  case ChaosClass::None:
                    break;
                }
            } else if (out.wrongAnswer) {
                ++counters.wrongAnswers; // chaos-free mismatch: a bug
            }
            if (out.unstructured)
                ++counters.unstructuredExceptions;

            // Energy attribution, charged in completion order.  The
            // charged amount is computed once and shared with the
            // tracer so its reconciliation sums are bit-identical to
            // the report's.
            int op = static_cast<int>(req.op);
            bool cancelled = m.cancelled;
            double chargedUj;
            RequestTracer::EnergyClass energyClass;
            if (cancelled) {
                // Cancelled at a safe point: pro-rata charge.
                chargedUj = db.cost.uj
                    * (static_cast<double>(m.chargedNs)
                       / static_cast<double>(db.cost.serviceNs));
                cancelledUj += chargedUj;
                energyClass = RequestTracer::EnergyClass::Cancelled;
            } else if (db.cost.analytic) {
                chargedUj = db.cost.uj
                    * (static_cast<double>(m.shareNs)
                       / static_cast<double>(db.cost.serviceNs));
                analyticUj += chargedUj;
                ++opServed[op];
                energyClass = RequestTracer::EnergyClass::Analytic;
            } else {
                chargedUj = db.cost.uj
                    * (static_cast<double>(m.shareNs)
                       / static_cast<double>(db.cost.serviceNs));
                if (!eventsCharged) {
                    opEvents[op] += db.cost.events;
                    eventsCharged = true;
                }
                opUj[op] += chargedUj;
                ++opServed[op];
                energyClass = RequestTracer::EnergyClass::Op;
            }
            busyNsTotal += m.chargedNs;

            if (tel.tracer) {
                if (out.chaos != ChaosClass::None)
                    tel.tracer->onChaos(ev.t, req.id, req.attempt,
                                        out.chaosKind,
                                        chaosClassName(out.chaos));
                RequestTracer::ServiceSpan span;
                span.startNs = tileNs;
                span.chargedNs = m.chargedNs;
                span.serviceNs = db.cost.serviceNs;
                span.id = req.id;
                span.attempt = req.attempt;
                span.worker = db.worker;
                span.op = opKindName(req.op);
                span.tier = tierName;
                span.curve = curveIdName(req.curve);
                span.arch = microArchName(req.arch);
                span.errc = errcName(out.errc);
                span.uj = chargedUj;
                span.energyClass = energyClass;
                span.opIndex = op;
                span.cancelled = cancelled;
                tel.tracer->onService(span);
            }
            tileNs += m.shareNs;
            if (tel.timeline)
                tel.timeline->onEnergy(ev.t, chargedUj);
            if (tel.flight) {
                FlightRecorder::Record rec;
                rec.id = req.id;
                rec.attempt = req.attempt;
                rec.userId = req.userId;
                rec.op = opKindName(req.op);
                rec.curve = curveIdName(req.curve);
                rec.arch = microArchName(req.arch);
                rec.tier = tierName;
                rec.arrivalNs = req.firstArrivalNs;
                rec.deadlineNs = req.deadlineNs;
                rec.queueNs = m.queueNs;
                rec.serviceNs = db.cost.serviceNs;
                rec.chargedNs = m.chargedNs;
                rec.completionNs = ev.t;
                rec.uj = chargedUj;
                rec.errc = errcName(out.errc);
                rec.chaosClass = chaosClassName(out.chaos);
                rec.chaosKind = out.chaosKind;
                rec.cancelled = cancelled;
                rec.ok = out.errc == Errc::Ok;
                tel.flight->record(rec);
                if (cancelled)
                    tel.flight->trigger(ev.t, "deadline-breach",
                                        req.id, req.attempt);
                else if (out.chaos != ChaosClass::None)
                    tel.flight->trigger(ev.t, "chaos-strike", req.id,
                                        req.attempt);
                else if (out.errc == Errc::FaultDetected
                         || out.wrongAnswer || out.unstructured)
                    tel.flight->trigger(ev.t, "fault", req.id,
                                        req.attempt);
            }

            resolve(req, ev.t, out.errc, tierName);
        }
        tryDispatch(ev.t);
    }

    void
    run()
    {
        buildCurves();
        analytic.calibrate();
        warmEvalMemo();
        if (!cfg.serial)
            pool.emplace(cfg.jobs);
        former.emplace(cfg.batch);
        workerFreeNs.assign(
            cfg.virtualWorkers ? cfg.virtualWorkers : 1, 0);
        counters.retriesByAttempt.assign(
            cfg.backoff.maxAttempts ? cfg.backoff.maxAttempts : 1, 0);
        generate();
        while (!events.empty()) {
            Event ev = events.top();
            events.pop();
            virtualEndNs = std::max(virtualEndNs, ev.t);
            switch (ev.kind) {
              case Event::Kind::Arrival:
                onArrival(ev);
                break;
              case Event::Kind::BatchLinger:
                onBatchLinger(ev);
                break;
              case Event::Kind::Completion:
                onCompletion(ev);
                break;
            }
        }
        if (pool) {
            pool->wait();
            pool->shutdown(ThreadPool::Shutdown::Drain);
        }
        if (tel.timeline)
            tel.timeline->finalize();
        if (tel.slo)
            tel.slo->finalize();
        ran = true;
    }

    // --- reporting ----------------------------------------------------

    uint64_t
    percentileNs(unsigned permille) const
    {
        return okLatency.percentilePermille(permille);
    }

    Json
    report() const
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
        Json batchCfg = Json::object();
        batchCfg["enabled"] = cfg.batch.enabled;
        batchCfg["max_size"] = cfg.batch.maxSize;
        batchCfg["linger_ns"] = cfg.batch.lingerNs;
        batchCfg["deadline_slack"] = cfg.batch.deadlineSlack;
        batchCfg["setup_fraction"] = cfg.batch.setupFraction;
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

        Json totals = Json::object();
        totals["generated"] = counters.generated;
        totals["arrivals"] = counters.arrivals;
        totals["admitted"] = counters.admitted;
        totals["executed"] = counters.executed;
        totals["completed_ok"] = counters.completedOk;
        totals["failed"] = counters.failed;
        totals["finals"] = finals;
        totals["busy_ns"] = busyNsTotal;
        totals["busy_cycles"] =
            static_cast<double>(busyNsTotal) / kClockNs;
        root["totals"] = totals;

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
        occupancy["count"] = batchOccupancy.count();
        occupancy["p50"] = batchOccupancy.percentilePermille(500);
        occupancy["p99"] = batchOccupancy.percentilePermille(990);
        occupancy["max"] = batchOccupancy.max();
        occupancy["mean"] = batchOccupancy.mean();
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
        session["derivations"] = sessions.derivations();
        session["hits"] = sessions.hits();
        session["shards"] = sessions.shards();
        root["session"] = session;

        // Latency comes from the bounded HDR histogram: count, max
        // and mean are exact; percentiles are quantized to one
        // log-bucket (upper edge, clamped to the exact max), so they
        // never undershoot the true order statistic by more than the
        // documented relative error.
        Json latency = Json::object();
        latency["count"] = okLatency.count();
        latency["p50_ns"] = percentileNs(500);
        latency["p99_ns"] = percentileNs(990);
        latency["p999_ns"] = percentileNs(999);
        latency["max_ns"] = okLatency.max();
        latency["mean_ns"] = okLatency.mean();
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
        double totalUj = analyticUj + cancelledUj;
        Json perOp = Json::object();
        for (int op = 0; op < kNumOps; ++op) {
            Json o = Json::object();
            o["served"] = opServed[op];
            o["uj"] = opUj[op];
            perOp[opKindName(static_cast<OpKind>(op))] = o;
            totalUj += opUj[op];
        }
        energy["per_op"] = perOp;
        energy["analytic_uj"] = analyticUj;
        energy["cancelled_uj"] = cancelledUj;
        energy["total_uj"] = totalUj;
        energy["uj_per_ok_request"] = counters.completedOk
            ? totalUj / static_cast<double>(counters.completedOk)
            : 0.0;
        EnergyLedger ledger;
        for (int op = 0; op < kNumOps; ++op) {
            if (opEvents[op].cycles)
                ledger.addPhase(opKindName(static_cast<OpKind>(op)),
                                opEvents[op]);
        }
        energy["ledger"] = ledger.toJson();
        root["energy"] = energy;

        root["virtual_ns"] = virtualEndNs;
        return root;
    }

    std::string
    reportText() const
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
             (unsigned long long)finals,
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
             batchOccupancy.mean(),
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
             percentileNs(500) * 1e-6, percentileNs(990) * 1e-6,
             percentileNs(999) * 1e-6,
             (unsigned long long)okLatency.count());
        double totalUj = analyticUj + cancelledUj + opUj[0] + opUj[1]
            + opUj[2];
        line("  energy: %.1f uJ total, %.3f uJ/ok-request",
             totalUj,
             counters.completedOk
                 ? totalUj / static_cast<double>(counters.completedOk)
                 : 0.0);
        line("  sessions: %llu derived, %llu hits",
             (unsigned long long)sessions.derivations(),
             (unsigned long long)sessions.hits());
        return out;
    }
};

Server::Server(const SvcConfig &config) : impl_(new Impl(config)) {}

Server::~Server()
{
    delete impl_;
}

void
Server::attachTelemetry(const SvcTelemetry &telemetry)
{
    if (impl_->ran)
        throw UleccError(Errc::InvalidInput,
                         "attachTelemetry must precede run");
    impl_->tel = telemetry;
    if (impl_->tel.flight)
        impl_->tel.flight->setSeed(impl_->cfg.seed);
}

void
Server::run()
{
    if (impl_->ran)
        throw UleccError(Errc::InvalidInput,
                         "Server::run is single-shot");
    // Every request draws its curve from this list.
    if (impl_->cfg.curves.empty())
        throw UleccError(Errc::InvalidInput,
                         "Server::run needs at least one curve");
    impl_->run();
}

const SvcCounters &
Server::counters() const
{
    return impl_->counters;
}

Json
Server::report() const
{
    return impl_->report();
}

std::string
Server::reportText() const
{
    return impl_->reportText();
}

} // namespace ulecc
