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
#include <fstream>

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

void
RequestTracer::onArrival(uint64_t t, uint64_t id, uint32_t attempt,
                         const char *op)
{
    Ev ev;
    ev.ph = 'X';
    ev.tid = 1;
    ev.ts = t;
    ev.name = "arrival";
    ev.cat = "lifecycle";
    ev.id = id;
    ev.attempt = attempt;
    ev.s1key = "op";
    ev.s1 = op;
    record(std::move(ev));
}

void
RequestTracer::onShed(uint64_t t, uint64_t id, uint32_t attempt,
                      const char *reason)
{
    Ev ev;
    ev.ph = 'X';
    ev.tid = 1;
    ev.ts = t;
    ev.name = "shed";
    ev.cat = "admission";
    ev.id = id;
    ev.attempt = attempt;
    ev.s1key = "reason";
    ev.s1 = reason;
    record(std::move(ev));
}

void
RequestTracer::onExpired(uint64_t t, uint64_t id, uint32_t attempt,
                         const char *where)
{
    Ev ev;
    ev.ph = 'X';
    ev.tid = 1;
    ev.ts = t;
    ev.name = "expired";
    ev.cat = "deadline";
    ev.id = id;
    ev.attempt = attempt;
    ev.s1key = "where";
    ev.s1 = where;
    record(std::move(ev));
}

void
RequestTracer::onAdmit(uint64_t t, uint64_t id, uint32_t attempt,
                       const char *tier, uint64_t queueDepth)
{
    Ev ev;
    ev.ph = 'X';
    ev.tid = 1;
    ev.ts = t;
    ev.name = "admit";
    ev.cat = "admission";
    ev.id = id;
    ev.attempt = attempt;
    ev.s1key = "tier";
    ev.s1 = tier;
    ev.n1key = "queue_depth";
    ev.n1 = queueDepth;
    record(std::move(ev));
}

void
RequestTracer::onQueueWait(uint64_t enqueueT, uint64_t dispatchT,
                           uint64_t id, uint32_t attempt)
{
    Ev ev;
    ev.ph = 'X';
    ev.tid = 2;
    ev.ts = enqueueT;
    ev.dur = dispatchT - enqueueT;
    ev.name = "queue-wait";
    ev.cat = "queue";
    ev.id = id;
    ev.attempt = attempt;
    record(std::move(ev));
}

void
RequestTracer::onRetryScheduled(uint64_t t, uint64_t id,
                                uint32_t nextAttempt, uint64_t delayNs)
{
    Ev ev;
    ev.ph = 'X';
    ev.tid = 1;
    ev.ts = t;
    ev.name = "retry-scheduled";
    ev.cat = "retry";
    ev.id = id;
    ev.attempt = nextAttempt;
    ev.n1key = "backoff_ns";
    ev.n1 = delayNs;
    record(std::move(ev));
}

void
RequestTracer::onChaos(uint64_t t, uint64_t id, uint32_t attempt,
                       const char *kind, const char *cls)
{
    Ev ev;
    ev.ph = 'X';
    ev.tid = 1;
    ev.ts = t;
    ev.name = "chaos";
    ev.cat = "chaos";
    ev.id = id;
    ev.attempt = attempt;
    ev.s1key = "kind";
    ev.s1 = kind;
    ev.s2key = "class";
    ev.s2 = cls;
    record(std::move(ev));
}

void
RequestTracer::onFinal(uint64_t t, uint64_t id, uint32_t attempt,
                       const char *errc, uint64_t latencyNs, bool ok)
{
    Ev ev;
    ev.ph = 'X';
    ev.tid = 1;
    ev.ts = t;
    ev.name = ok ? "complete" : "failed";
    ev.cat = "final";
    ev.id = id;
    ev.attempt = attempt;
    ev.s1key = "errc";
    ev.s1 = errc;
    ev.n1key = "latency_ns";
    ev.n1 = latencyNs;
    record(std::move(ev));
}

void
RequestTracer::onService(const ServiceSpan &span)
{
    ++spans_;
    busyNs_ += span.chargedNs;
    // Mirror the report's accumulator grouping exactly: analytic and
    // cancelled charges pool into their own running sums, full-cost
    // executions into a per-op account.  totalUj() folds them in the
    // report's add order so the doubles match bit for bit.
    switch (span.energyClass) {
      case EnergyClass::Analytic:
        analyticUj_ += span.uj;
        break;
      case EnergyClass::Cancelled:
        cancelledUj_ += span.uj;
        break;
      case EnergyClass::Op:
        opUj_[span.opIndex] += span.uj;
        break;
    }

    Ev ev;
    ev.ph = 'X';
    ev.tid = static_cast<uint16_t>(10 + span.worker);
    ev.ts = span.startNs;
    ev.dur = span.chargedNs;
    ev.name = span.op;
    ev.cat = span.cancelled ? "service-cancelled"
        : (span.energyClass == EnergyClass::Analytic ? "service-analytic"
                                                     : "service");
    ev.id = span.id;
    ev.attempt = span.attempt;
    ev.s1key = "tier";
    ev.s1 = span.tier;
    ev.s2key = "errc";
    ev.s2 = span.errc;
    if (span.cancelled) {
        // The full modelled time the cancellation cut short.
        ev.n1key = "service_ns";
        ev.n1 = span.serviceNs;
    }
    ev.curve = span.curve;
    ev.arch = span.arch;
    ev.uj = span.uj;
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
    Ev ev;
    ev.ph = 'X';
    ev.tid = static_cast<uint16_t>(10 + span.worker);
    ev.ts = span.startNs;
    ev.dur = span.endNs - span.startNs;
    ev.name = "batch";
    ev.cat = "batch";
    ev.id = span.id;
    ev.attempt = 0;
    ev.s1key = "close";
    ev.s1 = span.closeReason;
    ev.s2key = "tier";
    ev.s2 = span.tier;
    ev.n1key = "members";
    ev.n1 = span.members;
    ev.curve = span.curve;
    ev.arch = span.arch;
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

bool
RequestTracer::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << dump();
    return static_cast<bool>(out);
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

bool
TimelineAggregator::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << dumpJsonl();
    return static_cast<bool>(out);
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

bool
SloEngine::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << dumpJsonl();
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// FlightRecorder

void
FlightRecorder::record(const Record &r)
{
    ring_.push_back(r);
    if (ring_.size() > kFlightCapacity)
        ring_.pop_front();
    ++recordedTotal_;
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
    for (const Record &r : ring_) {
        Json rec = Json::object();
        rec["id"] = r.id;
        rec["attempt"] = static_cast<uint64_t>(r.attempt);
        rec["user"] = r.userId;
        rec["op"] = r.op;
        rec["curve"] = r.curve;
        rec["arch"] = r.arch;
        rec["tier"] = r.tier;
        rec["arrival_ns"] = r.arrivalNs;
        rec["deadline_ns"] = r.deadlineNs;
        rec["queue_ns"] = r.queueNs;
        rec["service_ns"] = r.serviceNs;
        rec["charged_ns"] = r.chargedNs;
        rec["completion_ns"] = r.completionNs;
        rec["uj"] = r.uj;
        rec["errc"] = r.errc;
        rec["chaos_class"] = r.chaosClass;
        rec["chaos_kind"] = r.chaosKind;
        rec["cancelled"] = r.cancelled;
        rec["ok"] = r.ok;
        records.push(std::move(rec));
    }
    doc["records"] = std::move(records);
    return doc;
}

bool
FlightRecorder::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << toJson().dump(2);
    out << '\n';
    return static_cast<bool>(out);
}

} // namespace ulecc
