/**
 * @file
 * Hot-block timing memoization for Pete (its one fast path).
 *
 * Cryptographic kernels are overwhelmingly straight-line loop bodies
 * that execute thousands of times with identical timing, so most of
 * the simulator's per-step work (fetch, decode lookup, interlock
 * scans, predictor and multiplier bookkeeping) recomputes the same
 * answers every iteration.  This layer carves the text into basic
 * blocks and memoizes, per block and per *entry timing context*, the
 * exact cycle and stall deltas one pass through the block charges.  A
 * steady-state iteration then retires as one table lookup plus a lean
 * architectural-effect replay (register/memory/Hi-Lo semantics only).
 *
 * The entry context captures exactly what the five-stage model's
 * timing depends on across a block boundary:
 *
 *  - load-use exposure: whether the previous instruction was a load
 *    whose destination is a source of the block's first instruction
 *    (the interlock only ever looks one instruction back);
 *  - the Hi/Lo Karatsuba-unit busy countdown (multReadyCycle - now),
 *    keyed only when the block contains an op that interlocks on it;
 *  - icache residency of every line the block touches -- replay
 *    requires all-resident entry, under which a real fetch sequence
 *    would be pure counter bumps (ICache::access mutates no state on
 *    a hit);
 *  - the text generation (MemorySystem::romGeneration), so
 *    fault-injection strikes on program text invalidate the memo;
 *  - predictor state for the terminating branch is deliberately NOT
 *    in the key: the terminator is resolved semi-live against the
 *    real bimodal array (predict, train, charge the mispredict), so
 *    data-dependent branch directions replay exactly.
 *
 * Everything unmodelled bails out to the slow path: Cop2 commands,
 * Syscall/Break, invalid words, control flow in a delay slot, a
 * mult-unit op in a conditional branch's delay slot (its stall would
 * depend on the branch outcome), entry countdowns beyond the key
 * range, non-ROM or misaligned entry pcs.  Attached StepHooks
 * (tracer, profiler, fault injector) never reach this layer at all:
 * the fast path is wired only into the hook-free runChecked loop.
 *
 * PeteStats -- including every cause-attributed stall counter -- and
 * all architectural state are bit-identical with the cache on and
 * off; tests/test_cpu.cpp and tests/test_par.cpp pin this, and a
 * shadow-verify mode re-executes a sampled fraction of memo hits
 * through the slow path and cross-checks the recorded deltas.
 *
 * Controlled by $ULECC_BLOCK_CACHE (tri-state, mirroring the
 * $ULECC_EVAL_CACHE convention):
 *
 *   unset / "1" / "on"     memoization enabled (the default);
 *   "0" / "off"            disabled entirely;
 *   "verify" / "shadow"    enabled, with sampled shadow verification;
 *   anything else          treated as the default (never an error).
 */

#ifndef ULECC_SIM_BLOCK_CACHE_HH
#define ULECC_SIM_BLOCK_CACHE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "isa/isa.hh"
#include "sim/multiplier.hh"

namespace ulecc
{

class Pete;

/** Operating mode, from $ULECC_BLOCK_CACHE (see file comment). */
enum class BlockCacheMode : uint8_t
{
    On,     ///< memoize and replay
    Off,    ///< bypass entirely (Pete then never constructs the cache)
    Verify, ///< memoize, but shadow-execute a sample of hits slowly
};

/**
 * Parses a $ULECC_BLOCK_CACHE value (nullptr = unset).  Unknown or
 * hostile values degrade to the default (On), never to an error --
 * the same robustness contract as the $ULECC_JOBS parse.
 */
BlockCacheMode parseBlockCacheMode(const char *value);

/** Stable lower-case name ("on", "off", "verify"). */
const char *blockCacheModeName(BlockCacheMode mode);

/**
 * Fast-path accounting.  Deliberately separate from PeteStats, which
 * models the machine and must stay bit-identical with the cache on
 * and off; these counters describe the *simulator's* behaviour and
 * feed the telemetry layer (ulecc-run --metrics, bench_simspeed).
 */
struct BlockCacheStats
{
    uint64_t lookups = 0;  ///< block-head dispatches attempted
    uint64_t replays = 0;  ///< blocks retired via the memo
    uint64_t replayedInstructions = 0;
    uint64_t records = 0;      ///< (block, context) timings captured
    uint64_t slowWalks = 0;    ///< dispatches that fell back slow
    uint64_t invalidations = 0; ///< entries dropped (text generation)
    uint64_t shadowVerifies = 0;

    double
    hitRate() const
    {
        return lookups ? double(replays) / double(lookups) : 0.0;
    }
};

/** The per-Pete block-timing memo.  All interaction goes through
 *  runBlock(); Pete grants it friend access to the pipeline state. */
class BlockCache
{
  public:
    explicit BlockCache(BlockCacheMode mode) : mode_(mode) {}

    BlockCacheMode mode() const { return mode_; }
    const BlockCacheStats &stats() const { return stats_; }

    /**
     * Executes forward from cpu.pc() by (in preference order)
     * replaying a memoized block, recording one while slow-stepping
     * it, or slow-stepping through an unmemoizable stretch.  Exact
     * slow-path accounting either way.  Returns false once halted;
     * simulated faults propagate as UleccError exactly as from
     * step().  The caller polls the cycle budget between calls; one
     * call advances at most kMaxBlockLen + 1 instructions (a block
     * plus its delay slot).
     */
    bool runBlock(Pete &cpu);

    /** Longest block the static scan will form (budget-poll bound). */
    static constexpr uint32_t kMaxBlockLen = 128;

  private:
    /** Timing of one retired instruction under one entry context. */
    struct StepTiming
    {
        uint32_t cycles;   ///< total cycles this step charged *
        uint8_t loadUse;   ///< load-use slips (0/1)
        uint32_t multBusy; ///< mult-unit busy stall cycles
        /** multReadyCycle - entryCycles after this step, or kNoIssue
         *  if the step left the unit's timer untouched. */
        uint32_t multReadyRelAfter;
        // * for the terminating branch, minus the data-dependent
        //   mispredict flush, which replay charges live.
    };

    /** One recorded (context -> timing) variant of a block. */
    struct Timing
    {
        uint32_t key; ///< packed entry context
        std::vector<StepTiming> steps;
        uint64_t totalCycles = 0; ///< sum of steps[].cycles
        uint64_t totalLoadUse = 0;
        uint64_t totalMultBusy = 0;
        uint32_t exitMultReadyRel = 0; ///< valid when issuesMultUnit
    };

    /** Static structure of one basic block (entry-pc specific). */
    struct Block
    {
        enum class State : uint8_t
        {
            Ready,        ///< memoizable; timings fill in per context
            Unmemoizable, ///< contains something unmodelled
        };

        State state = State::Unmemoizable;
        uint32_t entryPc = 0;
        uint64_t generation = 0; ///< text generation at discovery
        std::vector<DecodedInst> insts; ///< decoded at discovery
        int termIndex = -1; ///< control-transfer index, -1 if run-only
        bool condBranch = false;  ///< terminator is a Branch-class op
        bool issuesMultUnit = false; ///< some op sets multReadyCycle
        bool waitsMultUnit = false;  ///< some op calls waitMultUnit
        uint8_t jumpStalls = 0;   ///< 1 for a Jr/Jalr terminator
        uint32_t multIssues = 0;  ///< static multIssues total
        uint32_t divIssues = 0;   ///< static divIssues total
        uint32_t src0Mask = 0;    ///< source-GPR bitmask of insts[0]
        uint8_t exitLoadDest = 0; ///< load-use exposure left behind
        std::vector<Timing> timings; ///< few entries; linear scan
    };

    static constexpr uint32_t kNoIssue = 0xFFFFFFFFu;
    /**
     * The entry-context key packs the mult-unit countdown in the low
     * kCountdownBits and the load-use flag just above; a countdown
     * past the cap slow-walks instead of recording.  The field is
     * sized so that every multiplier family variant's busy timer
     * (sim/multiplier.hh), the divider, and a generous margin for
     * hand-tuned PeteConfig latencies all fit -- a wider variant must
     * widen this encoding, not silently alias into the flag bit.
     */
    static constexpr uint32_t kCountdownBits = 9;
    static constexpr uint32_t kMaxCountdown =
        (1u << kCountdownBits) - 1;
    static_assert(kMaxCountdown >= 8 * kMaxMultiplierLatency,
                  "countdown encoding too narrow for the multiplier "
                  "family's widest busy timer");
    static constexpr size_t kMaxBlocks = 4096;
    static constexpr size_t kMaxTimingsPerBlock = 8;
    static constexpr uint64_t kVerifyPeriod = 64;

    /** Outcome of resolving a block's terminator semi-live. */
    struct TermResult
    {
        uint32_t nextPc;
        bool mispredicted;
    };

    /** Architectural effects only: registers, memory, Hi/Lo/OvFlo.
     *  No fetch, no stats, no interlock or predictor bookkeeping. */
    static void leanExec(Pete &cpu, const DecodedInst &inst);

    /** Branch/jump resolution against live registers and the real
     *  predictor (predict + train + link writes); stats deferred. */
    static TermResult resolveTerminator(Pete &cpu, const Block &b,
                                        const DecodedInst &inst);

    Block *blockFor(Pete &cpu, uint32_t pc);
    void discover(Pete &cpu, Block &b, uint32_t pc);
    Timing *findTiming(Block &b, uint32_t key);
    bool slowWalk(Pete &cpu, size_t steps);
    bool record(Pete &cpu, Block &b, uint32_t key);
    bool replay(Pete &cpu, Block &b, const Timing &t);
    bool shadowVerify(Pete &cpu, Block &b, const Timing &t);

    BlockCacheMode mode_;
    BlockCacheStats stats_;
    std::unordered_map<uint32_t, Block> blocks_;
    uint32_t lastPc_ = 1; ///< 1 is never a valid (aligned) entry pc
    Block *lastBlock_ = nullptr;
    uint64_t verifyTick_ = 0;

    /** @name Replay fault-point bookkeeping
     * Written during replay so its catch block can reconstruct the
     * slow path's exact state without forcing the loop's locals into
     * memory across every potentially-throwing access. */
    /** @{ */
    size_t replayStep_ = 0;
    uint32_t replayNextPc_ = 0;
    bool replayMispredicted_ = false;
    /** @} */
};

} // namespace ulecc

#endif // ULECC_SIM_BLOCK_CACHE_HH
