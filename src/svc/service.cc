/**
 * @file
 * The crypto-as-a-service coordinator.
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
 * last event acted on.  Each closed batch goes to the executor
 * (svc/executor.hh), which runs it for real and hands back a future;
 * the coordinator blocks on it only when it processes that batch's
 * completion event, so parallelism overlaps real work without ever
 * influencing a decision.  It then attributes the pass to its
 * members: outcome, energy, telemetry.  The report (svc/report.hh) is
 * a function of the counters and totals gathered here.
 */

#include "svc/service.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <queue>
#include <set>

#include "par/sweep.hh"
#include "svc/executor.hh"
#include "svc/report.hh"
#include "svc/telemetry.hh"

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

/** Modelled cost of serving one request at one fidelity tier. */
struct ServiceCost
{
    uint64_t serviceNs = 0;
    double uj = 0;
    EventCounts events;   ///< empty for the analytic tier
    bool analytic = false;
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
        /** Index into the pass's outcomes; -1 = cancelled, because
         * its deadline lands mid-pass. */
        int execIdx = -1;
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
        : cfg(config), former(config.batch),
          arrivalGen(config.arrivals, splitmix64Mix(config.seed, 0xA221)),
          attrStream(splitmix64Mix(config.seed, 0x5EED)),
          nextSeq(config.requests)
    {}

    SvcConfig cfg;
    SvcCounters counters;
    SvcTotals totals;
    std::optional<Executor> executor; ///< built when the run starts
    AnalyticModel analytic;

    // Virtual-time machinery (coordinator-only state).
    BatchFormer former; ///< admission queue + coalescing
    ArrivalGen arrivalGen; ///< open-loop arrival timestamps
    SplitMix64 attrStream; ///< request attributes, drawn in id order
    std::priority_queue<Event, std::vector<Event>, EventAfter> events;
    /** Sequence of every event but a fresh open-loop arrival, which
     * takes seq = id: ids 0..requests-1 are reserved for those. */
    uint64_t nextSeq;
    std::vector<uint64_t> workerFreeNs;
    bool ran = false;

    // Optional telemetry consumers, fed only from coordinator code.
    SvcTelemetry tel;

    // --- setup -------------------------------------------------------

    /** Fills the evaluation memo for every (arch, curve) cell the
     * traffic can touch, in parallel, before the clock starts. */
    void
    warmEvalMemo()
    {
        std::vector<SweepPoint> points;
        for (CurveId id : std::set<CurveId>(cfg.curves.begin(),
                                            cfg.curves.end())) {
            for (MicroArch arch : executor->archs(id))
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
        const std::vector<MicroArch> &archs = executor->archs(r.curve);
        r.arch = archs[attrStream.below(archs.size())];
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
        uint64_t deadline = saturatingNs(cfg.deadlineFactor
                                         * static_cast<double>(est));
        if (deadline < cfg.deadlineFloorNs)
            deadline = cfg.deadlineFloorNs;
        r.deadlineNs = saturatingAdd(r.firstArrivalNs, deadline);

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
        if (req.attempt >= 1
            && req.attempt <= counters.retriesByAttempt.size())
            ++counters.retriesByAttempt[req.attempt - 1];
        bool ok = errc == Errc::Ok;
        uint64_t latencyNs = ok ? now - req.firstArrivalNs : 0;
        if (ok) {
            ++counters.completedOk;
            totals.okLatency.record(latencyNs);
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

    /** Refuses @p req at admission (Overloaded, retryable). */
    void
    shed(const Request &req, uint64_t now, const char *reason)
    {
        if (tel.tracer)
            tel.tracer->onShed(now, req.id, req.attempt, reason);
        if (tel.timeline)
            tel.timeline->onShed(now);
        resolve(req, now, Errc::Overloaded);
    }

    /** Fails @p req whose deadline passed before it reached a pass. */
    void
    expire(const Request &req, uint64_t now, const char *where,
           const char *tierName = nullptr)
    {
        if (tel.tracer)
            tel.tracer->onExpired(now, req.id, req.attempt, where);
        if (tel.flight)
            tel.flight->trigger(now, "deadline-breach", req.id,
                                req.attempt);
        recordFinal(req, now, Errc::DeadlineExceeded, tierName);
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
            expire(req, now, "at-arrival");
            return;
        }
        size_t depth = static_cast<size_t>(former.waitingMembers());
        if (depth >= cfg.queueCap) {
            ++counters.shedDepth;
            shed(req, now, "queue-depth");
            return;
        }
        uint64_t est = analyticEstNs(req);
        if (now + estStartDelayNs(now) + est > req.deadlineNs) {
            // Deadline-aware admission: if the request cannot plausibly
            // finish inside its budget, shedding now is cheaper than
            // timing out later.
            ++counters.shedDeadlineBudget;
            shed(req, now, "deadline-budget");
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
            totals.batchOccupancy.record(
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
                    expire(m.req, now, "in-queue", tierName);
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
            uint64_t maxChargedNs = 0;
            for (size_t i = 0; i < n; ++i) {
                DispatchedBatch::Member &dm = db->members[i];
                dm.shareNs = share + (i < rem ? 1 : 0);
                uint64_t budget = dm.req.deadlineNs - now;
                if (batchNs > budget) {
                    uint64_t charged = ((budget + sp - 1) / sp) * sp;
                    dm.chargedNs = std::min(charged, dm.shareNs);
                    ++counters.cancelledMidService;
                } else {
                    dm.chargedNs = dm.shareNs;
                    dm.execIdx =
                        static_cast<int>(execReqs.size());
                    execReqs.push_back(dm.req);
                }
                maxChargedNs = std::max(maxChargedNs, dm.chargedNs);
            }
            // A pass with any surviving member runs to its full
            // length; if everyone cancelled, the worker is freed at
            // the last safe point actually charged.
            db->endNs =
                now + (!execReqs.empty() ? batchNs : maxChargedNs);
            if (!execReqs.empty()) {
                counters.executed += execReqs.size();
                ++counters.batchPassesExecuted;
                if (b.key.tier == ServiceTier::FullSim)
                    ++counters.batchCosimAnchors;
                db->result = executor->launch(std::move(execReqs),
                                             b.key.tier, b.id);
            }
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
        if (tel.tracer)
            tel.tracer->onBatch({.startNs = db.dispatchNs,
                                 .endNs = ev.t,
                                 .id = db.id,
                                 .members = db.members.size(),
                                 .closeReason = db.closeReason,
                                 .key = db.key,
                                 .worker = db.worker});

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
                counters.chaosDetected += out.chaos == ChaosClass::Detected;
                counters.chaosMasked += out.chaos == ChaosClass::Masked;
                counters.chaosSilentCaught +=
                    out.chaos == ChaosClass::SilentCaught;
            } else if (out.wrongAnswer) {
                ++counters.wrongAnswers; // chaos-free mismatch: a bug
            }
            if (out.unstructured)
                ++counters.unstructuredExceptions;

            // Energy attribution, charged in completion order: the
            // member's charged slice of the pass's full cost, pro
            // rata.  Computed once and shared with the telemetry so
            // the tracer's sums are bit-identical to the report's.
            int op = static_cast<int>(req.op);
            ServedAttempt a;
            a.req = req;
            a.tier = db.key.tier;
            a.worker = db.worker;
            a.queueNs = m.queueNs;
            a.startNs = tileNs;
            a.serviceNs = db.cost.serviceNs;
            a.chargedNs = m.chargedNs;
            a.completionNs = ev.t;
            a.uj = db.cost.uj
                * (static_cast<double>(m.chargedNs)
                   / static_cast<double>(db.cost.serviceNs));
            a.energyClass = m.execIdx < 0 ? EnergyClass::Cancelled
                : db.cost.analytic      ? EnergyClass::Analytic
                                        : EnergyClass::Op;
            a.errc = out.errc;
            a.chaos = out.chaos;
            a.chaosKind = out.chaosKind;
            a.faulted = out.wrongAnswer || out.unstructured;
            switch (a.energyClass) {
              case EnergyClass::Cancelled:
                totals.cancelledUj += a.uj;
                break;
              case EnergyClass::Analytic:
                totals.analyticUj += a.uj;
                ++totals.opServed[op];
                break;
              case EnergyClass::Op:
                if (!eventsCharged) {
                    totals.opEvents[op] += db.cost.events;
                    eventsCharged = true;
                }
                totals.opUj[op] += a.uj;
                ++totals.opServed[op];
                break;
            }
            totals.busyNs += m.chargedNs;
            tileNs += m.shareNs;
            if (tel.tracer)
                tel.tracer->onService(a);
            if (tel.timeline)
                tel.timeline->onEnergy(ev.t, a.uj);
            if (tel.flight)
                tel.flight->record(a);

            resolve(req, ev.t, out.errc, tierName);
        }
        tryDispatch(ev.t);
    }

    void
    run()
    {
        executor.emplace(cfg);
        analytic.calibrate();
        warmEvalMemo();
        executor->start();
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
                totals.virtualEndNs = linger->t;
                former.closeNextLinger();
                tryDispatch(linger->t);
                continue;
            }
            if (events.empty())
                break;
            Event ev = events.top();
            events.pop();
            totals.virtualEndNs = ev.t;
            if (ev.kind == Event::Kind::Arrival)
                onArrival(ev);
            else
                onCompletion(ev);
        }
        executor->drain();
        totals.sessionDerivations = executor->sessionDerivations();
        totals.sessionHits = executor->sessionHits();
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
    // Each linger deadline is openNs + lingerNs: the cap (svc_run's
    // --batch-linger-us ceiling) keeps the sum from wrapping.
    check(batch.lingerNs <= 1'000'000'000'000'000ull, "batch.lingerNs",
          "<= 1e15");
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
    return svcReport(impl_->cfg, impl_->former.policy(), impl_->counters,
                     impl_->totals);
}

std::string
Server::reportText() const
{
    return svcReportText(impl_->counters, impl_->totals);
}

} // namespace ulecc
