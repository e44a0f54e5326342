/**
 * @file
 * Service telemetry implementation (see telemetry.hh).
 *
 * Everything here is called from the coordinator thread only, in
 * deterministic (time, seq) event order, so plain members suffice and
 * the emitted artifacts are byte-stable for a given seed.
 */

#include "svc/telemetry.hh"

#include <algorithm>

#include "workload/kernel_model.hh"

namespace ulecc
{

namespace
{

/** RequestTracer: hard cap on stored events, which bounds the trace's
 * memory; past it events are counted (totals stay exact) but not
 * stored. */
constexpr size_t kTracerMaxEvents = 262'144;

/** SloEngine: tolerated fraction of finals that fail (error budget).
 * The objective is availability: 1 - kErrorBudget of requests end
 * Errc::Ok. */
constexpr double kErrorBudget = 0.01;

/** SloEngine: accounting bucket width (virtual ns); alert windows are
 * integral numbers of buckets. */
constexpr uint64_t kBucketNs = 25'000'000;

/** SloEngine fast "page" rule: burn >= kPageBurn over the last
 * kPageLongBuckets, confirmed over the last kPageShortBuckets. */
constexpr uint32_t kPageLongBuckets = 8;
constexpr uint32_t kPageShortBuckets = 2;
constexpr double kPageBurn = 8.0;

/** SloEngine sustained "ticket" rule: burn >= kTicketBurn over the
 * last kTicketLongBuckets.  At threshold 1.0 its trailing windows tile
 * the campaign, making alerting complete: a campaign-level breach
 * always fires at least one alert. */
constexpr uint32_t kTicketLongBuckets = 32;
constexpr double kTicketBurn = 1.0;

/** SloEngine: buckets retained, enough for the longest rule window. */
constexpr size_t kMaxBuckets =
    std::max({kPageLongBuckets, kPageShortBuckets, kTicketLongBuckets});

/** FlightRecorder: request records kept in the ring. */
constexpr size_t kFlightCapacity = 64;

/** FlightRecorder: trigger events listed in full (the rest counted). */
constexpr size_t kFlightMaxTriggers = 32;

} // namespace

// ---------------------------------------------------------------------
// RequestTracer

RequestTracer::RequestTracer()
{
    events_.reserve(4096);
}

void
RequestTracer::record(Ev ev)
{
    if (ev.tid > maxWorkerTid_)
        maxWorkerTid_ = ev.tid;
    if (events_.size() >= kTracerMaxEvents) {
        ++dropped_;
        return;
    }
    events_.push_back(std::move(ev));
}

RequestTracer::Ev
RequestTracer::mark(uint64_t t, const char *name, const char *cat,
                    uint64_t id, uint32_t attempt, const char *s1key,
                    const char *s1)
{
    Ev ev;
    ev.ph = 'X';
    ev.tid = 1;
    ev.ts = t;
    ev.name = name;
    ev.cat = cat;
    ev.id = id;
    ev.attempt = attempt;
    ev.s1key = s1key;
    ev.s1 = s1;
    return ev;
}

void
RequestTracer::onArrival(uint64_t t, uint64_t id, uint32_t attempt,
                         const char *op)
{
    record(mark(t, "arrival", "lifecycle", id, attempt, "op", op));
}

void
RequestTracer::onShed(uint64_t t, uint64_t id, uint32_t attempt,
                      const char *reason)
{
    record(mark(t, "shed", "admission", id, attempt, "reason", reason));
}

void
RequestTracer::onExpired(uint64_t t, uint64_t id, uint32_t attempt,
                         const char *where)
{
    record(mark(t, "expired", "deadline", id, attempt, "where", where));
}

void
RequestTracer::onAdmit(uint64_t t, uint64_t id, uint32_t attempt,
                       const char *tier, uint64_t queueDepth)
{
    Ev ev = mark(t, "admit", "admission", id, attempt, "tier", tier);
    ev.n1key = "queue_depth";
    ev.n1 = queueDepth;
    record(std::move(ev));
}

void
RequestTracer::onQueueWait(uint64_t enqueueT, uint64_t dispatchT,
                           uint64_t id, uint32_t attempt)
{
    Ev ev = mark(enqueueT, "queue-wait", "queue", id, attempt);
    ev.tid = 2;
    ev.dur = dispatchT - enqueueT;
    record(std::move(ev));
}

void
RequestTracer::onRetryScheduled(uint64_t t, uint64_t id,
                                uint32_t nextAttempt, uint64_t delayNs)
{
    Ev ev = mark(t, "retry-scheduled", "retry", id, nextAttempt);
    ev.n1key = "backoff_ns";
    ev.n1 = delayNs;
    record(std::move(ev));
}

void
RequestTracer::onFinal(uint64_t t, uint64_t id, uint32_t attempt,
                       const char *errc, uint64_t latencyNs, bool ok)
{
    Ev ev = mark(t, ok ? "complete" : "failed", "final", id, attempt,
                 "errc", errc);
    ev.n1key = "latency_ns";
    ev.n1 = latencyNs;
    record(std::move(ev));
}

void
RequestTracer::onService(const ServedAttempt &a)
{
    const Request &req = a.req;
    if (a.chaos != ChaosClass::None) {
        Ev ev = mark(a.completionNs, "chaos", "chaos", req.id,
                     req.attempt, "kind", a.chaosKind);
        ev.s2key = "class";
        ev.s2 = chaosClassName(a.chaos);
        record(std::move(ev));
    }

    ++spans_;
    busyNs_ += a.chargedNs;
    // Mirror the report's accumulator grouping exactly: analytic and
    // cancelled charges pool into their own running sums, full-cost
    // executions into a per-op account.  totalUj() folds them in the
    // report's add order so the doubles match bit for bit.
    switch (a.energyClass) {
      case EnergyClass::Analytic:
        analyticUj_ += a.uj;
        break;
      case EnergyClass::Cancelled:
        cancelledUj_ += a.uj;
        break;
      case EnergyClass::Op:
        opUj_[static_cast<int>(req.op)] += a.uj;
        break;
    }

    Ev ev = mark(a.startNs, opKindName(req.op),
                 a.cancelled() ? "service-cancelled"
                 : a.energyClass == EnergyClass::Analytic
                     ? "service-analytic"
                     : "service",
                 req.id, req.attempt, "tier", serviceTierName(a.tier));
    ev.tid = static_cast<uint16_t>(10 + a.worker);
    ev.dur = a.chargedNs;
    ev.s2key = "errc";
    ev.s2 = errcName(a.errc);
    if (a.cancelled()) {
        // The full modelled time the cancellation cut short.
        ev.n1key = "service_ns";
        ev.n1 = a.serviceNs;
    }
    ev.curve = curveIdName(req.curve);
    ev.arch = microArchName(req.arch);
    ev.uj = a.uj;
    record(std::move(ev));
}

void
RequestTracer::onBatch(const BatchSpan &span)
{
    ++batchSpans_;
    if (span.members <= 1)
        return; // a solo pass is just its service span
    // An enclosing async-style span on the worker track: the member
    // service spans tile it.  Not a service span, so the span/busy
    // reconciliation totals are untouched.
    Ev ev = mark(span.startNs, "batch", "batch", span.id, 0, "close",
                 span.closeReason);
    ev.tid = static_cast<uint16_t>(10 + span.worker);
    ev.dur = span.endNs - span.startNs;
    ev.s2key = "tier";
    ev.s2 = serviceTierName(span.key.tier);
    ev.n1key = "members";
    ev.n1 = span.members;
    ev.curve = curveIdName(span.key.curve);
    ev.arch = microArchName(span.key.arch);
    record(std::move(ev));
}

double
RequestTracer::totalUj() const
{
    // Same association as report(): (analytic + cancelled), then the
    // per-op accounts folded in op order.
    double total = analyticUj_ + cancelledUj_;
    total += opUj_[0];
    total += opUj_[1];
    total += opUj_[2];
    return total;
}

std::string
RequestTracer::dump() const
{
    std::string out;
    out.reserve(events_.size() * 160 + 2048);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    // Metadata: the process plus one named track per tid in use.
    // Virtual nanoseconds map 1:1 onto trace microseconds.
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"args\":{\"name\":\"ulecc-svc\"}}";
    auto threadName = [&](uint16_t tid, const std::string &name) {
        Json ev = Json::object();
        ev["name"] = "thread_name";
        ev["ph"] = "M";
        ev["pid"] = 1;
        ev["tid"] = static_cast<uint64_t>(tid);
        Json args = Json::object();
        args["name"] = name;
        ev["args"] = std::move(args);
        out += ",\n";
        out += ev.dump();
    };
    threadName(1, "lifecycle");
    threadName(2, "queue");
    for (uint16_t tid = 10; tid <= maxWorkerTid_; ++tid)
        threadName(tid, "worker-" + std::to_string(tid - 10));
    for (const Ev &ev : events_) {
        Json doc = Json::object();
        doc["name"] = ev.name;
        doc["cat"] = ev.cat;
        doc["ph"] = std::string(1, ev.ph);
        doc["ts"] = ev.ts;
        doc["dur"] = ev.dur;
        doc["pid"] = 1;
        doc["tid"] = static_cast<uint64_t>(ev.tid);
        Json args = Json::object();
        args["id"] = ev.id;
        args["attempt"] = static_cast<uint64_t>(ev.attempt);
        if (ev.s1key)
            args[ev.s1key] = ev.s1;
        if (ev.s2key)
            args[ev.s2key] = ev.s2;
        if (ev.n1key)
            args[ev.n1key] = ev.n1;
        if (!ev.curve.empty())
            args["curve"] = ev.curve;
        if (ev.arch)
            args["arch"] = ev.arch;
        if (ev.uj >= 0)
            args["uj"] = ev.uj;
        doc["args"] = std::move(args);
        out += ",\n";
        out += doc.dump();
    }
    out += "\n],\n\"otherData\":";
    Json other = Json::object();
    other["spans"] = spans_;
    other["dropped_events"] = dropped_;
    other["busy_ns"] = busyNs_;
    other["busy_cycles"] = busyCycles();
    Json energy = Json::object();
    energy["analytic_uj"] = analyticUj_;
    energy["cancelled_uj"] = cancelledUj_;
    Json perOp = Json::array();
    for (double uj : opUj_)
        perOp.push(uj);
    energy["op_uj"] = std::move(perOp);
    energy["total_uj"] = totalUj();
    other["energy"] = std::move(energy);
    out += other.dump();
    out += "}\n";
    return out;
}

// ---------------------------------------------------------------------
// TimelineAggregator

TimelineAggregator::TimelineAggregator(const Config &config)
    : config_(config)
{
}

bool
TimelineAggregator::Window::active() const
{
    return arrivals || admitted || shed || retries || ok || failed
        || timeouts || batches || batchMembers || uj != 0.0;
}

void
TimelineAggregator::advanceTo(uint64_t t)
{
    uint64_t idx = t / config_.windowNs;
    while (windowIdx_ < idx) {
        flush();
        ++windowIdx_;
    }
}

void
TimelineAggregator::flush()
{
    if (!cur_.active())
        return;
    double windowSec = double(config_.windowNs) * 1e-9;
    Json rec = Json::object();
    rec["schema"] = "ulecc.svc.timeline.v1";
    rec["window"] = windowIdx_;
    rec["start_ns"] = windowIdx_ * config_.windowNs;
    rec["end_ns"] = (windowIdx_ + 1) * config_.windowNs;
    rec["arrivals"] = cur_.arrivals;
    rec["admitted"] = cur_.admitted;
    rec["shed"] = cur_.shed;
    rec["retries"] = cur_.retries;
    rec["ok"] = cur_.ok;
    rec["failed"] = cur_.failed;
    rec["timeouts"] = cur_.timeouts;
    rec["ok_rps"] = double(cur_.ok) / windowSec;
    uint64_t finals = cur_.ok + cur_.failed;
    rec["shed_rate"] = cur_.arrivals
        ? double(cur_.shed) / double(cur_.arrivals)
        : 0.0;
    rec["retry_rate"] = cur_.arrivals
        ? double(cur_.retries) / double(cur_.arrivals)
        : 0.0;
    rec["timeout_rate"] = finals
        ? double(cur_.timeouts) / double(finals)
        : 0.0;
    rec["batches"] = cur_.batches;
    rec["batch_members"] = cur_.batchMembers;
    rec["batch_occupancy"] = cur_.batches
        ? double(cur_.batchMembers) / double(cur_.batches)
        : 0.0;
    rec["uj"] = cur_.uj;
    rec["uj_per_ok"] = cur_.ok ? cur_.uj / double(cur_.ok) : 0.0;

    Json perOp = Json::object();
    for (const auto &[op, hist] : cur_.opLatency) {
        Json stats = Json::object();
        stats["count"] = hist.count();
        stats["p50_ns"] = hist.percentilePermille(500);
        stats["p99_ns"] = hist.percentilePermille(990);
        stats["max_ns"] = hist.max();
        perOp[op] = std::move(stats);
    }
    rec["per_op"] = std::move(perOp);

    Json perTier = Json::object();
    // Union of the tiers that admitted work and the tiers that
    // completed work this window, in sorted (map) order.
    std::map<std::string, const HdrHistogram *> tiers;
    for (const auto &[tier, hist] : cur_.tierLatency)
        tiers[tier] = &hist;
    for (const auto &[tier, n] : cur_.tierAdmitted) {
        (void)n;
        tiers.emplace(tier, nullptr);
    }
    for (const auto &[tier, hist] : tiers) {
        Json stats = Json::object();
        auto admitted = cur_.tierAdmitted.find(tier);
        stats["admitted"] = admitted != cur_.tierAdmitted.end()
            ? admitted->second
            : 0;
        stats["count"] = hist ? hist->count() : 0;
        stats["p50_ns"] = hist ? hist->percentilePermille(500) : 0;
        stats["p99_ns"] = hist ? hist->percentilePermille(990) : 0;
        stats["max_ns"] = hist ? hist->max() : 0;
        perTier[tier] = std::move(stats);
    }
    rec["per_tier"] = std::move(perTier);

    records_.push_back(std::move(rec));
    cur_ = Window{};
}

void
TimelineAggregator::onArrival(uint64_t t)
{
    advanceTo(t);
    ++cur_.arrivals;
    ++totalArrivals_;
}

void
TimelineAggregator::onAdmit(uint64_t t, const char *tier)
{
    advanceTo(t);
    ++cur_.admitted;
    ++cur_.tierAdmitted[tier];
}

void
TimelineAggregator::onShed(uint64_t t)
{
    advanceTo(t);
    ++cur_.shed;
}

void
TimelineAggregator::onRetry(uint64_t t)
{
    advanceTo(t);
    ++cur_.retries;
}

void
TimelineAggregator::onBatchDispatch(uint64_t t, uint64_t members)
{
    advanceTo(t);
    ++cur_.batches;
    cur_.batchMembers += members;
}

void
TimelineAggregator::onEnergy(uint64_t t, double uj)
{
    advanceTo(t);
    cur_.uj += uj;
    totalUj_ += uj;
}

void
TimelineAggregator::onFinal(uint64_t t, bool ok, bool timeout,
                            uint64_t latencyNs, const char *op,
                            const char *tier)
{
    advanceTo(t);
    if (ok) {
        ++cur_.ok;
        ++totalOk_;
        cur_.opLatency[op].record(latencyNs);
        if (tier)
            cur_.tierLatency[tier].record(latencyNs);
    } else {
        ++cur_.failed;
        ++totalFailed_;
    }
    if (timeout)
        ++cur_.timeouts;
}

void
TimelineAggregator::finalize()
{
    if (finalized_)
        return;
    flush();
    finalized_ = true;
}

std::string
TimelineAggregator::dumpJsonl() const
{
    std::string out;
    for (const Json &rec : records_) {
        out += rec.dump();
        out += '\n';
    }
    return out;
}

// ---------------------------------------------------------------------
// SloEngine

double
SloEngine::burnOver(uint32_t buckets) const
{
    uint64_t ok = 0;
    uint64_t err = 0;
    size_t n = buckets < buckets_.size() ? buckets : buckets_.size();
    for (size_t i = buckets_.size() - n; i < buckets_.size(); ++i) {
        ok += buckets_[i].first;
        err += buckets_[i].second;
    }
    uint64_t total = ok + err;
    if (total == 0)
        return 0.0;
    double ratio = double(err) / double(total);
    return ratio / kErrorBudget;
}

void
SloEngine::emitTransition(const char *rule, bool firing, uint64_t edgeNs,
                          double burnLong, double burnShort,
                          uint32_t longBuckets)
{
    Json ev = Json::object();
    ev["schema"] = "ulecc.svc.slo.v1";
    ev["kind"] = "alert";
    ev["rule"] = rule;
    ev["state"] = firing ? "firing" : "resolved";
    ev["t_ns"] = edgeNs;
    ev["window_buckets"] = static_cast<uint64_t>(longBuckets);
    ev["burn_long"] = burnLong;
    ev["burn_short"] = burnShort;
    ev["error_budget"] = kErrorBudget;
    events_.push_back(std::move(ev));
    if (firing)
        ++alertsFired_;
}

void
SloEngine::evaluate(uint64_t edgeNs)
{
    double pageLong = burnOver(kPageLongBuckets);
    double pageShort = burnOver(kPageShortBuckets);
    bool page = pageLong >= kPageBurn && pageShort >= kPageBurn;
    if (page != pageFiring_) {
        emitTransition("page", page, edgeNs, pageLong, pageShort,
                       kPageLongBuckets);
        pageFiring_ = page;
    }
    double ticketLong = burnOver(kTicketLongBuckets);
    bool ticket = ticketLong >= kTicketBurn;
    if (ticket != ticketFiring_) {
        emitTransition("ticket", ticket, edgeNs, ticketLong, ticketLong,
                       kTicketLongBuckets);
        ticketFiring_ = ticket;
    }
}

void
SloEngine::closeBucket()
{
    buckets_.emplace_back(curOk_, curErr_);
    if (buckets_.size() > kMaxBuckets)
        buckets_.pop_front();
    curOk_ = 0;
    curErr_ = 0;
    evaluate((bucketIdx_ + 1) * kBucketNs);
    ++bucketIdx_;
}

void
SloEngine::onFinal(uint64_t t, bool ok)
{
    uint64_t idx = t / kBucketNs;
    // An idle gap with empty recent history and no alert firing can
    // be skipped wholesale: closing more all-zero buckets emits
    // nothing and leaves every trailing-window burn at zero.
    if (idx > bucketIdx_ + kMaxBuckets && !pageFiring_ && !ticketFiring_
        && curOk_ == 0 && curErr_ == 0) {
        bool allZero = true;
        for (const auto &[bok, berr] : buckets_)
            if (bok || berr) {
                allZero = false;
                break;
            }
        if (allZero)
            bucketIdx_ = idx - kMaxBuckets;
    }
    while (bucketIdx_ < idx)
        closeBucket();
    if (ok)
        ++curOk_, ++totalOk_;
    else
        ++curErr_, ++totalErr_;
}

void
SloEngine::finalize()
{
    if (finalized_)
        return;
    if (curOk_ || curErr_)
        closeBucket();
    // Completeness backstop: the ticket rule's trailing windows tile
    // the campaign, but the final partial window can dilute a breach
    // concentrated in the tail.  The campaign total *is* the slowest
    // possible window, so evaluate it explicitly -- after this, a
    // campaign-level budget breach always carries at least one alert.
    if (breached() && alertsFired_ == 0) {
        uint64_t edge = bucketIdx_ * kBucketNs;
        double burn = (double(totalErr_) / double(finals()))
            / kErrorBudget;
        emitTransition("ticket", true, edge, burn, burn,
                       kTicketLongBuckets);
        ticketFiring_ = true;
    }
    finalized_ = true;
}

bool
SloEngine::breached() const
{
    uint64_t n = finals();
    if (n == 0)
        return false;
    return double(totalErr_) / double(n) > kErrorBudget;
}

Json
SloEngine::verdict() const
{
    uint64_t n = finals();
    double ratio = n ? double(totalErr_) / double(n) : 0.0;
    Json doc = Json::object();
    doc["schema"] = "ulecc.svc.slo.v1";
    doc["kind"] = "verdict";
    doc["finals"] = n;
    doc["errors"] = totalErr_;
    doc["error_ratio"] = ratio;
    doc["error_budget"] = kErrorBudget;
    doc["total_burn"] = ratio / kErrorBudget;
    doc["breached"] = breached();
    doc["alerts_fired"] = alertsFired_;
    return doc;
}

std::string
SloEngine::dumpJsonl() const
{
    std::string out;
    for (const Json &ev : events_) {
        out += ev.dump();
        out += '\n';
    }
    out += verdict().dump();
    out += '\n';
    return out;
}

// ---------------------------------------------------------------------
// FlightRecorder

void
FlightRecorder::record(const ServedAttempt &a)
{
    ring_.push_back(a);
    if (ring_.size() > kFlightCapacity)
        ring_.pop_front();
    ++recordedTotal_;
    const char *reason = a.cancelled() ? "deadline-breach"
        : a.chaos != ChaosClass::None ? "chaos-strike"
        : a.errc == Errc::FaultDetected || a.faulted ? "fault"
                                                     : nullptr;
    if (reason)
        trigger(a.completionNs, reason, a.req.id, a.req.attempt);
}

void
FlightRecorder::trigger(uint64_t t, const char *reason, uint64_t id,
                        uint32_t attempt)
{
    ++triggerTotal_;
    if (triggers_.size() >= kFlightMaxTriggers)
        return;
    Json ev = Json::object();
    ev["t_ns"] = t;
    ev["reason"] = reason;
    ev["id"] = id;
    ev["attempt"] = static_cast<uint64_t>(attempt);
    triggers_.push_back(std::move(ev));
}

Json
FlightRecorder::toJson() const
{
    Json doc = Json::object();
    doc["schema"] = "ulecc.svc.flight.v1";
    doc["capacity"] = static_cast<uint64_t>(kFlightCapacity);
    doc["recorded_total"] = recordedTotal_;
    Json replay = Json::object();
    replay["seed"] = seed_;
    doc["replay"] = std::move(replay);
    Json triggers = Json::object();
    triggers["total"] = triggerTotal_;
    Json trigEvents = Json::array();
    for (const Json &ev : triggers_)
        trigEvents.push(ev);
    triggers["events"] = std::move(trigEvents);
    doc["triggers"] = std::move(triggers);
    Json records = Json::array();
    for (const ServedAttempt &a : ring_) {
        Json rec = Json::object();
        rec["id"] = a.req.id;
        rec["attempt"] = static_cast<uint64_t>(a.req.attempt);
        rec["user"] = a.req.userId;
        rec["op"] = opKindName(a.req.op);
        rec["curve"] = curveIdName(a.req.curve);
        rec["arch"] = microArchName(a.req.arch);
        rec["tier"] = serviceTierName(a.tier);
        rec["arrival_ns"] = a.req.firstArrivalNs;
        rec["deadline_ns"] = a.req.deadlineNs;
        rec["queue_ns"] = a.queueNs;
        rec["service_ns"] = a.serviceNs;
        rec["charged_ns"] = a.chargedNs;
        rec["completion_ns"] = a.completionNs;
        rec["uj"] = a.uj;
        rec["errc"] = errcName(a.errc);
        rec["chaos_class"] = chaosClassName(a.chaos);
        rec["chaos_kind"] = a.chaosKind;
        rec["cancelled"] = a.cancelled();
        rec["ok"] = a.errc == Errc::Ok;
        records.push(std::move(rec));
    }
    doc["records"] = std::move(records);
    return doc;
}

} // namespace ulecc
