/**
 * @file
 * PipelineTracer / SpanRecorder implementation.
 */

#include "obs/trace.hh"

#include <cstdio>

namespace ulecc
{

namespace
{

/** Hard cap on recorded events; beyond it events are counted only. */
constexpr size_t kTraceMaxEvents = 4'000'000;

} // namespace

void
PipelineTracer::record(const Event &ev)
{
    if (events_.size() >= kTraceMaxEvents) {
        dropped_++;
        return;
    }
    events_.push_back(ev);
}

void
PipelineTracer::closeInstruction(const PeteStats &now)
{
    uint64_t dur = now.cycles - prev_.cycles;
    uint64_t retired = now.instructions - prev_.instructions;
    instructions_ += retired;
    tracedCycles_ += dur;
    if (retired) {
        record(Event{'X', opName(prevOp_), "retire", prevCycle_, dur,
                     prevPc_, 1});
    }
    for (int c = 0; c < static_cast<int>(StallCause::NumCauses); ++c) {
        StallCause cause = static_cast<StallCause>(c);
        uint64_t delta =
            stallCycles(now, cause) - stallCycles(prev_, cause);
        if (!delta)
            continue;
        stalls_[cause] += delta;
        record(Event{'X', stallCauseName(cause), "stall", prevCycle_,
                     delta, prevPc_, 2});
    }
    clock_ = now.cycles;
    inFlight_ = false;
}

void
PipelineTracer::onStep(Pete &cpu)
{
    const PeteStats &now = cpu.stats();
    if (inFlight_)
        closeInstruction(now);
    prev_ = now;
    prevCycle_ = now.cycles;
    clock_ = now.cycles;
    prevPc_ = cpu.pc();
    prevOp_ = Op::Invalid;
    try {
        prevOp_ = decode(cpu.mem().peek32(prevPc_)).op;
    } catch (const UleccError &) {
        // Unmapped pc: the upcoming fetch faults; trace what we know.
    }
    inFlight_ = true;
}

void
PipelineTracer::finish(const Pete &cpu)
{
    if (finished_)
        return;
    if (inFlight_)
        closeInstruction(cpu.stats());
    finished_ = true;
}

void
PipelineTracer::onSpanBegin(const char *name, const char *category)
{
    record(Event{'B', name, category, clock_, 0, 0, 3});
}

void
PipelineTracer::onSpanEnd(const char *name)
{
    record(Event{'E', name, "phase", clock_, 0, 0, 3});
}

namespace
{

void
appendEventJson(std::string &out, char ph, const char *name,
                const char *cat, uint64_t ts, uint64_t dur, uint32_t pc,
                int tid)
{
    char buf[224];
    if (ph == 'X' && tid == 1) {
        snprintf(buf, sizeof buf,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%llu,\"dur\":%llu,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"pc\":%u}}",
                 name, cat, static_cast<unsigned long long>(ts),
                 static_cast<unsigned long long>(dur), tid, pc);
    } else if (ph == 'X') {
        snprintf(buf, sizeof buf,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%llu,\"dur\":%llu,\"pid\":1,\"tid\":%d}",
                 name, cat, static_cast<unsigned long long>(ts),
                 static_cast<unsigned long long>(dur), tid);
    } else {
        snprintf(buf, sizeof buf,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                 "\"ts\":%llu,\"pid\":1,\"tid\":%d}",
                 name, cat, ph, static_cast<unsigned long long>(ts),
                 tid);
    }
    out += buf;
}

const char *const kThreadNames[] = {nullptr, "retire", "stall",
                                    "phase"};

} // namespace

std::string
PipelineTracer::dump() const
{
    std::string out;
    out.reserve(events_.size() * 96 + 1024);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    // Metadata: name the process and the three tracks.
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"args\":{\"name\":\"pete\"}}";
    for (int tid = 1; tid <= 3; ++tid) {
        char buf[128];
        snprintf(buf, sizeof buf,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 tid, kThreadNames[tid]);
        out += buf;
    }
    for (const Event &ev : events_) {
        out += ",\n";
        appendEventJson(out, ev.ph, ev.name, ev.cat, ev.ts, ev.dur,
                        ev.pc, ev.tid);
    }
    out += "\n],\n\"otherData\":{";
    char buf[256];
    snprintf(buf, sizeof buf,
             "\"cycles\":%llu,\"instructions\":%llu,"
             "\"dropped_events\":%llu,\"stall_cycles\":{",
             static_cast<unsigned long long>(tracedCycles_),
             static_cast<unsigned long long>(instructions_),
             static_cast<unsigned long long>(dropped_));
    out += buf;
    for (int c = 0; c < static_cast<int>(StallCause::NumCauses); ++c) {
        StallCause cause = static_cast<StallCause>(c);
        snprintf(buf, sizeof buf, "%s\"%s\":%llu", c ? "," : "",
                 stallCauseName(cause),
                 static_cast<unsigned long long>(stalls_[cause]));
        out += buf;
    }
    out += "}}}\n";
    return out;
}

void
SpanRecorder::onSpanBegin(const char *name, const char *category)
{
    open_.push_back(spans_.size());
    spans_.push_back(Span{name, category, depth_, ++seq_, 0});
    depth_++;
}

void
SpanRecorder::onSpanEnd(const char *name)
{
    if (open_.empty()) {
        mismatched_ = true;
        return;
    }
    Span &span = spans_[open_.back()];
    open_.pop_back();
    depth_--;
    span.endSeq = ++seq_;
    if (span.name != name)
        mismatched_ = true;
}

Json
SpanRecorder::toJson() const
{
    Json arr = Json::array();
    for (const Span &s : spans_) {
        Json rec = Json::object();
        rec["name"] = s.name;
        rec["category"] = s.category;
        rec["depth"] = s.depth;
        rec["begin"] = s.beginSeq;
        rec["end"] = s.endSeq;
        arr.push(std::move(rec));
    }
    return arr;
}

} // namespace ulecc
