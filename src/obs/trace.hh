/**
 * @file
 * Cycle-attributed pipeline tracing.
 *
 * PipelineTracer is a StepHook that rides a Pete run and records one
 * event per retired instruction, splitting every cycle the pipeline
 * model charges into its cause: the base retire cycle plus load-use,
 * branch-flush, jump, mult-busy, icache-fill, cop2 and external stall
 * cycles.  The recording serialises to Chrome trace-event JSON (the
 * `traceEvents` format Perfetto and chrome://tracing load), laid out
 * as three tracks of one simulated process:
 *
 *   tid 1 "retire" -- an X (complete) event per instruction, named by
 *                     mnemonic, ts = start cycle, dur = cycles charged;
 *   tid 2 "stall"  -- an X event per nonzero stall, named by cause;
 *   tid 3 "phase"  -- B/E span pairs from TraceScope markers (protocol
 *                     phases, accelerator ops) stamped with the cycle
 *                     clock, so field-op spans nest inside phases.
 *
 * One simulated cycle maps to one microsecond of trace time.  The
 * tracer keeps running per-cause totals that reconcile exactly against
 * the run's PeteStats (tested in tests/test_obs.cpp).
 */

#ifndef ULECC_OBS_TRACE_HH
#define ULECC_OBS_TRACE_HH

#include <array>
#include <string>
#include <vector>

#include "core/json.hh"
#include "mpint/op_observer.hh"
#include "sim/cpu.hh"

namespace ulecc
{

/** Per-cause stall cycle totals accumulated by a tracer/profiler. */
struct StallTotals
{
    std::array<uint64_t, static_cast<size_t>(StallCause::NumCauses)>
        cycles{};

    uint64_t &
    operator[](StallCause cause)
    {
        return cycles[static_cast<size_t>(cause)];
    }

    uint64_t
    operator[](StallCause cause) const
    {
        return cycles[static_cast<size_t>(cause)];
    }
};

/**
 * Fans one Pete step-hook slot out to many consumers, so a trace, a
 * profile and a fault injector can observe the same run.
 */
class StepHookList : public StepHook
{
  public:
    void add(StepHook *hook) { hooks_.push_back(hook); }

    void
    onStep(Pete &cpu) override
    {
        for (StepHook *h : hooks_)
            h->onStep(cpu);
    }

  private:
    std::vector<StepHook *> hooks_;
};

/** The per-instruction pipeline tracer. */
class PipelineTracer : public StepHook, public SpanSink
{
  public:

    /** @name StepHook (attach via Pete::attachStepHook) */
    /** @{ */
    void onStep(Pete &cpu) override;
    /** @} */

    /**
     * Flushes the final in-flight instruction after the run halts.
     * Must be called once before serialising.
     */
    void finish(const Pete &cpu);

    /** @name SpanSink (install via SpanSinkScope to capture phases) */
    /** @{ */
    void onSpanBegin(const char *name, const char *category) override;
    void onSpanEnd(const char *name) override;
    /** @} */

    /** Per-cause stall totals over the traced window. */
    const StallTotals &stallTotals() const { return stalls_; }

    /** Total cycles charged across recorded instruction events. */
    uint64_t tracedCycles() const { return tracedCycles_; }

    /** Retired instructions observed. */
    uint64_t tracedInstructions() const { return instructions_; }

    /** Events dropped past the recording cap (kTraceMaxEvents in
     *  trace.cc: a runaway program must not eat the heap). */
    uint64_t droppedEvents() const { return dropped_; }

    /** The Chrome trace document ({"traceEvents": [...], ...}),
     *  compact, one event per line. */
    std::string dump() const;

  private:
    struct Event
    {
        char ph;            ///< 'X', 'B' or 'E'
        const char *name;   ///< static string (mnemonic/cause/span)
        const char *cat;    ///< trace category
        uint64_t ts;        ///< start cycle
        uint64_t dur;       ///< cycles (X events only)
        uint32_t pc;        ///< instruction address (retire track)
        int tid;
    };

    void closeInstruction(const PeteStats &now);
    void record(const Event &ev);

    std::vector<Event> events_;
    StallTotals stalls_;
    PeteStats prev_;          ///< stats snapshot at last onStep
    uint64_t prevCycle_ = 0;  ///< cycle the in-flight instruction began
    uint32_t prevPc_ = 0;
    Op prevOp_ = Op::Invalid;
    bool inFlight_ = false;
    bool finished_ = false;
    uint64_t clock_ = 0;      ///< last known cycle (span timestamps)
    uint64_t instructions_ = 0;
    uint64_t tracedCycles_ = 0;
    uint64_t dropped_ = 0;
};

/**
 * Protocol-level span recorder for runs with no cycle clock (native
 * ECDSA/ECDH executions): timestamps are a monotonic event counter.
 * Records the nesting tree for tests and host-side phase breakdowns.
 */
class SpanRecorder : public SpanSink
{
  public:
    struct Span
    {
        std::string name;
        std::string category;
        int depth = 0;          ///< nesting depth at begin (0 = root)
        uint64_t beginSeq = 0;
        uint64_t endSeq = 0;    ///< 0 while still open
    };

    void onSpanBegin(const char *name, const char *category) override;
    void onSpanEnd(const char *name) override;

    const std::vector<Span> &spans() const { return spans_; }

    /** True when every span closed at the depth it opened. */
    bool balanced() const { return depth_ == 0 && !mismatched_; }

    Json toJson() const;

  private:
    std::vector<Span> spans_;
    std::vector<size_t> open_;
    uint64_t seq_ = 0;
    int depth_ = 0;
    bool mismatched_ = false;
};

} // namespace ulecc

#endif // ULECC_OBS_TRACE_HH
