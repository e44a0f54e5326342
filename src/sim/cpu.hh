/**
 * @file
 * "Pete": the study's low-power RISC processor (paper Section 5.1).
 *
 * A classic five-stage in-order pipeline executing the MIPS-II subset
 * plus the paper's ISA extensions.  The simulator is functional plus
 * cycle-accounting: every instruction retires with a base cost of one
 * cycle and the model charges the pipeline's real stall sources:
 *
 *  - load-use interlock (one slip when a load's consumer is adjacent);
 *  - branch misprediction (one flushed fetch; a bimodal predictor
 *    resolves in decode and verifies in execute, Section 2.2);
 *  - register jumps (one bubble to read the target);
 *  - the multi-cycle Karatsuba multiply unit behind Hi/Lo (Section
 *    5.1.1): MULT and MAC extensions occupy the unit for four cycles,
 *    divide for 34; MFHI/MFLO and new issues interlock on it;
 *  - instruction-cache misses (three-cycle slip per line fill);
 *  - coprocessor-2 interlocks (queue full / sync), charged by the
 *    attached accelerator model.
 */

#ifndef ULECC_SIM_CPU_HH
#define ULECC_SIM_CPU_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "asmkit/assembler.hh"
#include "base/error.hh"
#include "isa/isa.hh"
#include "sim/block_cache.hh"
#include "sim/icache.hh"
#include "sim/memory.hh"
#include "sim/multiplier.hh"

namespace ulecc
{

class Pete;

/** Interface for an attached coprocessor-2 device (Monte or Billie). */
class Cop2
{
  public:
    virtual ~Cop2() = default;

    /**
     * Executes a coprocessor instruction issued by Pete.
     *
     * @return Stall cycles Pete incurs (queue-full or sync waits).
     */
    virtual uint64_t execute(const DecodedInst &inst, Pete &cpu) = 0;
};

/**
 * Observation/injection hook invoked at every instruction boundary
 * (before fetch).  The fault-injection subsystem implements this to
 * flip architectural state mid-run; it is also a convenient tracing
 * point.  The hook may mutate the processor through its public
 * interface (setReg/setHi/setLo/addStall/mem().corrupt32).
 */
class StepHook
{
  public:
    virtual ~StepHook() = default;

    /** Called once per step() before the instruction is fetched. */
    virtual void onStep(Pete &cpu) = 0;
};

/** Pete configuration. */
struct PeteConfig
{
    bool icacheEnabled = false;
    ICacheConfig icache;
    /**
     * The Hi/Lo multiplier design point.  The three unit latencies
     * below default to this variant's descriptor (sim/multiplier.hh,
     * the single source of the timing contract); applyMultiplier()
     * re-points all four fields together.  The variant never changes
     * architectural results -- only the timing and energy model.
     */
    MultiplierVariant multiplier = MultiplierVariant::Karatsuba;
    uint32_t multLatency = kKaratsubaDesc.multLatency;  ///< MULT/MULTU
    uint32_t macLatency = kKaratsubaDesc.macLatency;    ///< MADDU/M2ADDU
    uint32_t gf2Latency = kKaratsubaDesc.gf2Latency;    ///< MULGF2/MADDGF2
    uint32_t addauLatency = 2; ///< ADDAU through the four-port adder
    uint32_t divLatency = 34;  ///< binary restoring divider
    uint64_t maxCycles = 500'000'000;
    /**
     * Memoize hot basic blocks' timing so steady-state loop
     * iterations retire as one lookup plus a lean architectural
     * replay (src/sim/block_cache.hh).  Bit-identical PeteStats and
     * architectural state either way; also gated by the
     * $ULECC_BLOCK_CACHE tri-state ("0"/"off" disables, "verify"
     * adds sampled shadow re-execution).  Only the hook-free
     * runChecked loop engages it, so tracers, profilers, and fault
     * injectors (all StepHooks) transparently get the slow path.
     */
    bool blockCache = true;
};

/**
 * Every stall source the pipeline model charges.  The same vocabulary
 * names attributed external stalls (Pete::addStall), trace events, and
 * the profiler's per-label stall mix, so cause totals reconcile
 * exactly against PeteStats wherever they are reported.
 */
enum class StallCause : uint8_t
{
    LoadUse,    ///< load-use interlock slip
    BranchFlush, ///< mispredicted branch, flushed fetch
    Jump,       ///< register-jump target bubble
    MultBusy,   ///< Karatsuba / divide unit occupied
    IcacheFill, ///< instruction-cache line fill
    Cop2,       ///< coprocessor-2 queue-full / sync interlock
    External,   ///< externally-imposed (fault injection, test rigs)
    NumCauses,
};

/** Stable short name of a stall cause ("load-use", "cop2", ...). */
const char *stallCauseName(StallCause cause);

/** Retirement / event statistics. */
struct PeteStats
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t loadUseStalls = 0;
    uint64_t branches = 0;
    uint64_t branchMispredicts = 0;
    uint64_t jumpStalls = 0;
    uint64_t multBusyStalls = 0;
    uint64_t icacheStalls = 0;
    uint64_t cop2Stalls = 0;
    uint64_t externalStalls = 0; ///< attributed via Pete::addStall
    uint64_t multIssues = 0; ///< multiplier-unit activations
    uint64_t divIssues = 0;
};

/**
 * Stall cycles a stats snapshot charges to @p cause.  Every counter in
 * the pipeline model charges one cycle per event (load-use slip,
 * branch flush, jump bubble) or counts cycles directly, so this is an
 * exact cycle attribution, not an estimate.
 */
uint64_t stallCycles(const PeteStats &stats, StallCause cause);

/** Sum of stallCycles over every cause. */
uint64_t totalStallCycles(const PeteStats &stats);

/** The processor model. */
class Pete
{
  public:
    Pete(const Program &program, const PeteConfig &config = {});

    /** Runs until BREAK; returns false on cycle-budget exhaustion. */
    bool run();

    /**
     * Runs until BREAK with structured error reporting: returns the
     * cycle count on a clean halt, or an Error with
     *  - Errc::SimTimeout on cycle-budget exhaustion,
     *  - Errc::MemFault / IllegalInstruction / Unsupported when the
     *    simulated machine faults (expected under fault injection).
     * Exceptions from an attached coprocessor model propagate.
     */
    Result<uint64_t> runChecked();

    /** Executes one instruction; returns false once halted. */
    bool step();

    void attachCop2(Cop2 *cop2) { cop2_ = cop2; }

    /** Attaches the per-step observation/injection hook. */
    void attachStepHook(StepHook *hook) { hook_ = hook; }

    /** @name Architectural state */
    /** @{ */
    uint32_t reg(int index) const { return regs_[index]; }

    void
    setReg(int index, uint32_t value)
    {
        if (index != 0)
            regs_[index] = value;
    }

    uint32_t pc() const { return pc_; }
    void setPc(uint32_t pc);

    /** Raises (or lowers) the cycle budget; lets a caller resume a
     *  run that stopped on Errc::SimTimeout. */
    void setMaxCycles(uint64_t maxCycles) { config_.maxCycles = maxCycles; }
    uint32_t hi() const { return hi_; }
    uint32_t lo() const { return lo_; }
    void setHi(uint32_t v) { hi_ = v; }
    void setLo(uint32_t v) { lo_ = v; }
    uint32_t ovflo() const { return ovflo_; }
    bool halted() const { return halted_; }
    /** @} */

    MemorySystem &mem() { return mem_; }
    const MemorySystem &mem() const { return mem_; }

    const PeteStats &stats() const { return stats_; }
    const ICache *icache() const { return icache_.get(); }

    /** Block-timing memo counters, or nullptr when it is disabled. */
    const BlockCacheStats *
    blockCacheStats() const
    {
        return blockCache_ ? &blockCache_->stats() : nullptr;
    }

    /** The memo's effective operating mode (Off when disabled). */
    BlockCacheMode
    blockCacheMode() const
    {
        return blockCache_ ? blockCache_->mode() : BlockCacheMode::Off;
    }

    /** Current cycle count (monotonic simulated time). */
    uint64_t cycle() const { return stats_.cycles; }

    /**
     * Adds externally-imposed stall cycles attributed to @p cause:
     * both the cycle count and the matching PeteStats counter advance,
     * so external stalls can never desynchronise the attribution
     * (previously callers had to bump cop2Stalls themselves).
     */
    void addStall(uint64_t cycles, StallCause cause);

    /** Unattributed form: charged to StallCause::External. */
    void
    addStall(uint64_t cycles)
    {
        addStall(cycles, StallCause::External);
    }

  private:
    uint32_t fetch(uint32_t addr);

    /** True once the cycle budget is spent (checked before a step). */
    bool budgetExhausted() const
    {
        return stats_.cycles >= config_.maxCycles;
    }

    /** The one place the (costly) timeout message is built. */
    Error budgetError() const;

    /** step() minus the hook dispatch and cycle-budget check. */
    bool stepUnchecked();

    void waitMultUnit();
    void execute(const DecodedInst &inst);

    bool
    predictTaken(uint32_t pc)
    {
        return predictor_[(pc >> 2) % predictor_.size()] >= 2;
    }

    void
    trainPredictor(uint32_t pc, bool taken)
    {
        uint8_t &ctr = predictor_[(pc >> 2) % predictor_.size()];
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
    }

    void doBranch(bool taken, int32_t disp);

    /// The block-timing memo reaches into the pipeline state (it must
    /// replicate the slow path's accounting bit-for-bit).
    friend class BlockCache;

    PeteConfig config_;
    MemorySystem mem_;
    std::unique_ptr<ICache> icache_;
    std::unique_ptr<BlockCache> blockCache_; ///< null when disabled
    Cop2 *cop2_ = nullptr;
    StepHook *hook_ = nullptr;

    std::array<uint32_t, 32> regs_{};
    uint32_t pc_ = 0;
    uint32_t npc_ = 4;
    uint32_t npcAfter_ = 8; ///< successor of the delay slot
    uint32_t hi_ = 0;
    uint32_t lo_ = 0;
    uint32_t ovflo_ = 0;
    bool halted_ = false;

    uint64_t multReadyCycle_ = 0; ///< cycle the mul/div unit frees up
    int lastLoadDest_ = 0;        ///< for the load-use interlock
    uint64_t lastLoadInstr_ = 0;  ///< instruction index of that load

    std::array<uint8_t, 64> predictor_; ///< 2-bit bimodal counters

    PeteStats stats_;
};

} // namespace ulecc

#endif // ULECC_SIM_CPU_HH
