/**
 * @file
 * The crypto-as-a-service engine implementation.
 *
 * Shape: a discrete-event coordinator owns *all* virtual-time state
 * (event heap, batch former, worker free times, retry schedule) and
 * processes events in strict (time, sequence) order.  Requests are
 * issued lazily -- one pending fresh arrival in open loop, one per
 * free client in closed loop -- so the heap holds only work in
 * flight (arrivals and pass completions), never the whole campaign.
 * Admitted requests join per-shape batches (svc/batch.hh); each open
 * batch carries its linger deadline, which the run loop merges into
 * the heap's order, and the report's virtual_ns is the time of the
 * last event acted on.  Each closed batch is executed for real --
 * checked crypto, chaos strikes, one shared co-simulation anchor --
 * as pure functions of (seed, id, attempt) in one pooled task that
 * may fan member subtasks onto the work-stealing deques.  The
 * coordinator blocks on a batch's future only when it processes that
 * batch's completion event, so parallelism overlaps real work without
 * ever influencing a decision.
 */

#include "svc/service.hh"

#include <algorithm>
#include <cmath>
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
    /** The pass's real execution; invalid = nothing executed (every
     * member expired or was cancelled).  Consumed by the completion
     * event, so a finished pass frees it with that event. */
    std::future<BatchExecResult> result;
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
    };

    uint64_t t = 0;
    uint64_t seq = 0;
    Kind kind = Kind::Arrival;
    Request req;

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
        : cfg(config), sessions(config.seed), former(config.batch),
          arrivalGen(config.arrivals, splitmix64Mix(config.seed, 0xA221)),
          attrStream(splitmix64Mix(config.seed, 0x5EED)),
          nextSeq(config.requests)
    {}

    SvcConfig cfg;
    SvcCounters counters;
    SessionCache sessions;
    AnalyticModel analytic;
    std::map<CurveId, std::unique_ptr<CurveCtx>> curves;

    // Virtual-time machinery (coordinator-only state).
    BatchFormer former; ///< admission queue + coalescing
    ArrivalGen arrivalGen; ///< open-loop arrival timestamps
    SplitMix64 attrStream; ///< request attributes, drawn in id order
    std::priority_queue<Event, std::vector<Event>, EventAfter> events;
    /** Sequence of every event but a fresh open-loop arrival, which
     * takes seq = id: ids 0..requests-1 are reserved for those. */
    uint64_t nextSeq;
    std::vector<uint64_t> workerFreeNs;
    /** Time of the last event acted on: events run in time order. */
    uint64_t virtualEndNs = 0;
    uint64_t finals = 0;

    // Real execution.
    std::optional<ThreadPool> pool;

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
        double ns = est.cycles * kSvcClockNs;
        return ns < 1 ? 1 : static_cast<uint64_t>(ns);
    }

    /** Draws one request's attributes (everything but arrival time). */
    Request
    drawAttributes(uint64_t id)
    {
        uint64_t hot = cfg.users / 10 ? cfg.users / 10 : 1;
        Request r;
        r.id = id;
        // 80/20 skew: most traffic from a hot tenth of the
        // population, so the session cache sees real reuse.
        r.userId = attrStream.below(100) < 80
            ? attrStream.below(hot)
            : attrStream.below(cfg.users);
        uint64_t op = attrStream.below(100);
        r.op = op < 40 ? OpKind::Sign
             : op < 75 ? OpKind::Verify
                       : OpKind::Ecdh;
        r.curve = cfg.curves[attrStream.below(cfg.curves.size())];
        const CurveCtx &ctx = *curves.at(r.curve);
        r.arch = ctx.archs[attrStream.below(ctx.archs.size())];
        return r;
    }

    /**
     * Issues the next request, if any is left: draws its attributes
     * and queues its first arrival.  Open loop: at the generator's
     * next timestamp, with seq = id -- the (t, seq) order the whole
     * campaign would have had in the heap up front.  Closed loop: one
     * think time after @p now, when the issuing client became free.
     */
    void
    issueNext(uint64_t now)
    {
        if (counters.generated == cfg.requests)
            return;
        uint64_t id = counters.generated++;
        bool closedLoop = cfg.arrivals.kind == ArrivalKind::ClosedLoop;
        Request r = drawAttributes(id);
        r.firstArrivalNs = closedLoop
            ? now + closedLoopThinkNs(cfg.seed, id, cfg.arrivals.thinkNs)
            : arrivalGen.next();
        uint64_t est = analyticEstNs(r);
        double budget = cfg.deadlineFactor * static_cast<double>(est);
        uint64_t deadline = static_cast<uint64_t>(budget);
        if (deadline < cfg.deadlineFloorNs)
            deadline = cfg.deadlineFloorNs;
        r.deadlineNs = r.firstArrivalNs + deadline;

        Event ev;
        ev.t = r.firstArrivalNs;
        ev.seq = closedLoop ? nextSeq++ : id;
        ev.kind = Event::Kind::Arrival;
        ev.req = r;
        events.push(std::move(ev));
    }

    /** Starts issuance: one pending arrival in open loop; one request
     * per client, each after its own think time, in closed loop. */
    void
    issueFirst()
    {
        uint64_t first = cfg.arrivals.kind == ArrivalKind::ClosedLoop
            ? std::min<uint64_t>(cfg.arrivals.clients, cfg.requests)
            : 1;
        for (uint64_t i = 0; i < first; ++i)
            issueNext(0);
    }

    /** Closed-loop only: a final resolution frees its client, who
     * thinks for a while and issues the next request. */
    void
    onClientFreed(uint64_t now)
    {
        if (cfg.arrivals.kind == ArrivalKind::ClosedLoop)
            issueNext(now);
    }

    // --- real execution (pure per (seed, id, attempt)) ----------------

    void
    normalPath(const CurveCtx &ctx, const Session &s,
               const Request &req, ExecOutcome &out) const
    {
        switch (req.op) {
          case OpKind::Sign: {
            Result<Signature> r =
                ctx.ecdsa.signDigestChecked(s.key.d, s.key.q, s.digest);
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
        if (pick < 2) {
            SimStrikeResult sr =
                pick == 0 ? chaosSimStrike(rng) : chaosBudgetStrike(rng);
            out.errc = sr.errc;
            out.chaos = sr.cls;
            out.chaosKind = sr.kind;
            // A masked strike left the device unharmed: the request's
            // real answer is still produced.
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
                    ctx.ecdsa.signDigestChecked(bad, s.key.q, s.digest);
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
            uint32_t bit = 1u << rng.below(32);
            int limb = static_cast<int>(
                rng.below((curveIdBits(req.curve) + 31) / 32));
            bad.y.setLimb(limb, bad.y.limb(limb) ^ bit);
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
    std::future<BatchExecResult>
    launchBatch(std::vector<Request> execReqs, ServiceTier tier,
                uint64_t batchId)
    {
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
        std::future<BatchExecResult> result =
            state->promise.get_future();

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
            return result;
        }
        pool->submit([this, state, runAnchor, n] {
            runAnchor();
            // Fan out members 1..n-1, keep member 0 for this task:
            // the subtasks land on this worker's own deque and get
            // stolen when other workers run dry.
            for (size_t i = 1; i < n; ++i) {
                pool->submit([this, state, i] {
                    state->outcomes[i] = execMember(state->reqs[i]);
                    state->finishOne();
                });
            }
            state->outcomes[0] = execMember(state->reqs[0]);
            state->finishOne();
        });
        return result;
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
                    static_cast<double>(oe.cycles) * kSvcClockNs);
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
        c.serviceNs = static_cast<uint64_t>(est.cycles * kSvcClockNs);
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
        events.push(std::move(ev));
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
        return base + former.waitingEstSumNs() / workerFreeNs.size();
    }

    void
    onArrival(const Event &ev)
    {
        ++counters.arrivals;
        const Request &req = ev.req;
        uint64_t now = ev.t;
        // Open loop keeps exactly one fresh arrival pending: popping
        // request i's first attempt issues request i + 1.
        if (cfg.arrivals.kind != ArrivalKind::ClosedLoop
            && req.attempt == 1)
            issueNext(now);
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
        size_t depth = static_cast<size_t>(former.waitingMembers());
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
        former.join(req, tier, est, now, nextSeq);
        tryDispatch(now);
    }

    void
    tryDispatch(uint64_t now)
    {
        while (former.hasReady()) {
            // Earliest-free worker, lowest index on ties.
            unsigned w = 0;
            for (unsigned i = 1; i < workerFreeNs.size(); ++i) {
                if (workerFreeNs[i] < workerFreeNs[w])
                    w = i;
            }
            if (workerFreeNs[w] > now)
                return; // all workers busy; completions re-dispatch
            Batch b = former.takeReady();
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
            uint64_t batchNs = former.passNs(db->cost.serviceNs, n);
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
                db->result = launchBatch(std::move(execReqs),
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
            events.push(std::move(done));
        }
    }

    void
    onCompletion(const Event &ev)
    {
        DispatchedBatch &db = *ev.batch;
        BatchExecResult res;
        if (db.result.valid())
            res = db.result.get();
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
        workerFreeNs.assign(cfg.virtualWorkers, 0);
        counters.retriesByAttempt.assign(cfg.backoff.maxAttempts, 0);
        issueFirst();
        for (;;) {
            // Pending events: the heap plus the open batches' linger
            // deadlines, sampled before each event.  Handling one
            // removes only itself and, at a join, the batch that join
            // closes, after at most one add (the next open-loop
            // arrival), so no peak falls between two samples.
            counters.peakEvents = std::max<uint64_t>(
                counters.peakEvents,
                events.size() + former.openBatches());
            // The oldest open batch's linger deadline takes its
            // (t, seq) turn among the heap's events.
            std::optional<BatchFormer::Linger> linger = former.nextLinger();
            if (linger
                && (events.empty()
                    || *linger < BatchFormer::Linger{events.top().t,
                                                     events.top().seq})) {
                virtualEndNs = linger->t;
                former.closeNextLinger();
                tryDispatch(linger->t);
                continue;
            }
            if (events.empty())
                break;
            Event ev = events.top();
            events.pop();
            virtualEndNs = ev.t;
            if (ev.kind == Event::Kind::Arrival)
                onArrival(ev);
            else
                onCompletion(ev);
        }
        if (pool) {
            pool->wait();
            pool.reset();
        }
        counters.batchesClosed = former.closedTotal();
        counters.batchClosedBySize = former.closedBySize();
        counters.batchClosedByLinger = former.closedByLinger();
        counters.batchClosedByDeadline = former.closedByDeadline();
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
        // The policy that ran: zero linger runs size-1 batches.
        const BatchPolicy &bp = former.policy();
        Json batchCfg = Json::object();
        batchCfg["enabled"] = bp.maxSize > 1;
        batchCfg["max_size"] = bp.maxSize;
        batchCfg["linger_ns"] = bp.lingerNs;
        batchCfg["deadline_slack"] = bp.deadlineSlack;
        batchCfg["setup_fraction"] = bp.setupFraction;
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
            static_cast<double>(busyNsTotal) / kSvcClockNs;
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

Result<void>
SvcConfig::validate() const
{
    std::string bad;
    auto check = [&bad](bool ok, const char *field,
                        const std::string &rule) {
        if (!ok && bad.empty())
            bad = std::string("SvcConfig.") + field + " must be " + rule;
    };
    check(requests >= 1, "requests", ">= 1");
    check(users >= 1, "users", ">= 1");
    // One free-time slot per virtual worker: the cap keeps a typo
    // from allocating gigabytes.
    check(virtualWorkers >= 1 && virtualWorkers <= 1u << 16,
          "virtualWorkers", "in [1, 65536]");
    check(jobs <= ThreadPool::maxThreads, "jobs",
          "<= " + std::to_string(ThreadPool::maxThreads));
    check(!curves.empty(), "curves", "non-empty");
    // The exponential backoff saturates long before 64 tries.
    check(backoff.maxAttempts >= 1 && backoff.maxAttempts <= 64,
          "backoff.maxAttempts", "in [1, 64]");
    // A non-positive or non-finite rate would stall virtual time.
    const ArrivalConfig &a = arrivals;
    check(std::isfinite(a.ratePerSec) && a.ratePerSec > 0,
          "arrivals.ratePerSec", "finite and > 0");
    check(std::isfinite(a.burstFactor) && a.burstFactor >= 1,
          "arrivals.burstFactor", "finite and >= 1");
    check(a.clients >= 1, "arrivals.clients", ">= 1");
    // The modulated rate must stay strictly positive: the trough
    // stays above 5 % of the mean.
    check(a.diurnalAmp >= 0 && a.diurnalAmp <= 0.95,
          "arrivals.diurnalAmp", "in [0, 0.95]");
    check(a.diurnalSteps >= 1, "arrivals.diurnalSteps", ">= 1");
    // A day shorter than its step count has sub-ns segments.
    check(!a.diurnal || a.dayNs >= a.diurnalSteps, "arrivals.dayNs",
          ">= arrivals.diurnalSteps with diurnal on");
    check(batch.maxSize >= 1, "batch.maxSize", ">= 1");
    check(batch.setupFraction >= 0 && batch.setupFraction < 0.5,
          "batch.setupFraction", "in [0, 0.5)");
    check(std::isfinite(batch.deadlineSlack) && batch.deadlineSlack >= 0,
          "batch.deadlineSlack", "finite and >= 0");
    check(std::isfinite(deadlineFactor) && deadlineFactor >= 0,
          "deadlineFactor", "finite and >= 0");
    check(chaos.percent <= 100, "chaos.percent", "<= 100");
    if (!bad.empty())
        return Error{Errc::InvalidInput, bad};
    return {};
}

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
    impl_->cfg.validate().value(); // throws the InvalidInput error
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
