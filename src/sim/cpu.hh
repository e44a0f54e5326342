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
#include <initializer_list>
#include <memory>
#include <optional>

#include "asmkit/assembler.hh"
#include "base/compiler.hh"
#include "base/error.hh"
#include "isa/isa.hh"
#include "sim/icache.hh"
#include "sim/karatsuba_unit.hh"
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

/** Which PeteConfig latency an op loads into the Hi/Lo unit's timer. */
enum class MultTimer : uint8_t
{
    None,  ///< leaves the timer untouched
    Mult,  ///< the multiplier descriptor's multLatency
    Mac,   ///< the multiplier descriptor's macLatency
    Gf2,   ///< the multiplier descriptor's gf2Latency
    Addau, ///< PeteConfig::kAddauLatency
    Div,   ///< PeteConfig::kDivLatency
};

/**
 * The timing rules of one op, apart from the interlocks every op shares
 * (load-use, icache).  Pete's timing step applies them around the
 * effect step, so an op's timing is written down once, here.
 */
struct OpTiming
{
    bool waitsMultUnit = false; ///< interlocks until the Hi/Lo unit frees
    MultTimer timer = MultTimer::None; ///< busy timer loaded on issue
    bool multIssue = false;  ///< counted in PeteStats::multIssues
    bool divIssue = false;   ///< counted in PeteStats::divIssues
    bool jumpBubble = false; ///< register jump: one bubble for the target
    bool predicted = false;  ///< conditional branch: bimodal prediction
};

/** The timing rules of @p op (ops not listed below have none). */
inline const OpTiming &
opTiming(Op op)
{
    static constexpr std::array<OpTiming, size_t(Op::NumOps)> table = [] {
        std::array<OpTiming, size_t(Op::NumOps)> t{};
        auto rule = [&t](std::initializer_list<Op> ops, OpTiming r) {
            for (Op o : ops)
                t[size_t(o)] = r;
        };
        // The multi-cycle Hi/Lo unit (Section 5.1.1): every op that
        // reads or writes Hi/Lo waits for it; issuing ops load its
        // busy timer.
        rule({Op::Mult, Op::Multu},
             {.waitsMultUnit = true, .timer = MultTimer::Mult,
              .multIssue = true});
        rule({Op::Maddu, Op::M2addu},
             {.waitsMultUnit = true, .timer = MultTimer::Mac,
              .multIssue = true});
        rule({Op::Mulgf2, Op::Maddgf2},
             {.waitsMultUnit = true, .timer = MultTimer::Gf2,
              .multIssue = true});
        rule({Op::Div, Op::Divu},
             {.waitsMultUnit = true, .timer = MultTimer::Div,
              .divIssue = true});
        rule({Op::Addau},
             {.waitsMultUnit = true, .timer = MultTimer::Addau});
        rule({Op::Sha, Op::Mfhi, Op::Mflo, Op::Mthi, Op::Mtlo},
             {.waitsMultUnit = true});
        rule({Op::Jr, Op::Jalr}, {.jumpBubble = true});
        rule({Op::Beq, Op::Bne, Op::Blez, Op::Bgtz, Op::Bltz, Op::Bgez},
             {.predicted = true});
        return t;
    }();
    return table[size_t(op)];
}

/** Pete configuration. */
struct PeteConfig
{
    bool icacheEnabled = false;
    ICacheConfig icache;
    /**
     * The Hi/Lo multiplier design point.  latency() reads the three
     * unit latencies from this variant's descriptor (sim/multiplier.hh,
     * the single source of the timing contract).  The variant never
     * changes architectural results -- only the timing and energy model.
     */
    MultiplierVariant multiplier = MultiplierVariant::Karatsuba;
    static constexpr uint32_t kAddauLatency = 2; ///< four-port adder
    static constexpr uint32_t kDivLatency = 34;  ///< restoring divider
    /** Cycle budget, checked before every instruction: a run stops
     *  at the first instruction boundary at or past it. */
    uint64_t maxCycles = 500'000'000;

    /** The busy time @p timer loads into the Hi/Lo unit. */
    uint32_t
    latency(MultTimer timer) const
    {
        const MultiplierDesc &d = multiplierDesc(multiplier);
        switch (timer) {
          case MultTimer::Mult: return d.multLatency;
          case MultTimer::Mac: return d.macLatency;
          case MultTimer::Gf2: return d.gf2Latency;
          case MultTimer::Addau: return kAddauLatency;
          case MultTimer::Div: return kDivLatency;
          case MultTimer::None: break;
        }
        return 0;
    }
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

    void waitMultUnit();

    /** One instruction: the timing step around the effect step. */
    void execute(const DecodedInst &inst, InstClass cls);

    /** Where a control transfer sends the instruction after its
     *  delay slot (taken == false: fall through). */
    struct Successor
    {
        uint32_t target;
        bool taken;
    };

    /**
     * The effect step: what the instruction at @p pc does to the
     * architecture -- GPRs, Hi/Lo/OvFlo, memory, the link register --
     * and the successor of a branch or jump.  No timing, no
     * statistics, no predictor.  Cop2 and System ops are execute()'s
     * alone.  Memory ops are the only ones that fault, and they fault
     * before changing any state.
     */
    ULECC_ALWAYS_INLINE Successor effect(const DecodedInst &inst,
                                         uint32_t pc);

    /** Throws for an op the effect step does not implement (kept out
     *  of line, off the inlined fast path). */
    [[noreturn]] static void unimplementedOp(uint32_t pc);

    /** Predicts the conditional branch at @p pc, trains the bimodal
     *  counter on the actual outcome; true on a mispredict. */
    bool
    mispredicts(uint32_t pc, bool taken)
    {
        uint8_t &ctr = predictor_[(pc >> 2) % predictor_.size()];
        bool predicted = ctr >= 2;
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
        return predicted != taken;
    }

    PeteConfig config_;
    MemorySystem mem_;
    std::unique_ptr<ICache> icache_;
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

ULECC_ALWAYS_INLINE Pete::Successor
Pete::effect(const DecodedInst &inst, uint32_t pc)
{
    auto rs = [&] { return regs_[inst.rs]; };
    auto rt = [&] { return regs_[inst.rt]; };
    auto wr = [&](int r, uint32_t v) { setReg(r, v); };
    auto branch = [&](bool taken) {
        return Successor{pc + 4 + (static_cast<uint32_t>(inst.simm) << 2),
                         taken};
    };
    auto jump = [&] {
        return Successor{((pc + 4) & 0xF0000000u) | (inst.target << 2),
                         true};
    };
    // The Karatsuba unit (Section 5.1.2) behind Hi/Lo/OvFlo.
    auto karatsuba = [&](KaratsubaOp op) {
        KaratsubaUnit unit;
        unit.set(hi_, lo_, ovflo_);
        unit.execute(op, rs(), rt());
        hi_ = unit.hi();
        lo_ = unit.lo();
        return unit.ovflo();
    };

    switch (inst.op) {
      case Op::Sll:
        wr(inst.rd, rt() << inst.shamt);
        break;
      case Op::Srl:
        wr(inst.rd, rt() >> inst.shamt);
        break;
      case Op::Sra:
        wr(inst.rd, static_cast<uint32_t>(
               static_cast<int32_t>(rt()) >> inst.shamt));
        break;
      case Op::Sllv:
        wr(inst.rd, rt() << (rs() & 31));
        break;
      case Op::Srlv:
        wr(inst.rd, rt() >> (rs() & 31));
        break;
      case Op::Srav:
        wr(inst.rd, static_cast<uint32_t>(
               static_cast<int32_t>(rt()) >> (rs() & 31)));
        break;
      case Op::Add:
      case Op::Addu:
        wr(inst.rd, rs() + rt());
        break;
      case Op::Sub:
      case Op::Subu:
        wr(inst.rd, rs() - rt());
        break;
      case Op::And:
        wr(inst.rd, rs() & rt());
        break;
      case Op::Or:
        wr(inst.rd, rs() | rt());
        break;
      case Op::Xor:
        wr(inst.rd, rs() ^ rt());
        break;
      case Op::Nor:
        wr(inst.rd, ~(rs() | rt()));
        break;
      case Op::Slt:
        wr(inst.rd, static_cast<int32_t>(rs()) < static_cast<int32_t>(rt())
           ? 1 : 0);
        break;
      case Op::Sltu:
        wr(inst.rd, rs() < rt() ? 1 : 0);
        break;
      case Op::Addi:
      case Op::Addiu:
        wr(inst.rt, rs() + static_cast<uint32_t>(inst.simm));
        break;
      case Op::Slti:
        wr(inst.rt, static_cast<int32_t>(rs()) < inst.simm ? 1 : 0);
        break;
      case Op::Sltiu:
        wr(inst.rt, rs() < static_cast<uint32_t>(inst.simm) ? 1 : 0);
        break;
      case Op::Andi:
        wr(inst.rt, rs() & inst.uimm);
        break;
      case Op::Ori:
        wr(inst.rt, rs() | inst.uimm);
        break;
      case Op::Xori:
        wr(inst.rt, rs() ^ inst.uimm);
        break;
      case Op::Lui:
        wr(inst.rt, inst.uimm << 16);
        break;
      case Op::Lb:
        wr(inst.rt, static_cast<uint32_t>(static_cast<int32_t>(
               static_cast<int8_t>(mem_.read8(rs() + inst.simm)))));
        break;
      case Op::Lbu:
        wr(inst.rt, mem_.read8(rs() + inst.simm));
        break;
      case Op::Lh:
        wr(inst.rt, static_cast<uint32_t>(static_cast<int32_t>(
               static_cast<int16_t>(mem_.read16(rs() + inst.simm)))));
        break;
      case Op::Lhu:
        wr(inst.rt, mem_.read16(rs() + inst.simm));
        break;
      case Op::Lw:
        wr(inst.rt, mem_.read32(rs() + inst.simm));
        break;
      case Op::Sb:
        mem_.write8(rs() + inst.simm, rt());
        break;
      case Op::Sh:
        mem_.write16(rs() + inst.simm, rt());
        break;
      case Op::Sw:
        mem_.write32(rs() + inst.simm, rt());
        break;
      case Op::Beq:
        return branch(rs() == rt());
      case Op::Bne:
        return branch(rs() != rt());
      case Op::Blez:
        return branch(static_cast<int32_t>(rs()) <= 0);
      case Op::Bgtz:
        return branch(static_cast<int32_t>(rs()) > 0);
      case Op::Bltz:
        return branch(static_cast<int32_t>(rs()) < 0);
      case Op::Bgez:
        return branch(static_cast<int32_t>(rs()) >= 0);
      case Op::J:
        return jump();
      case Op::Jal:
        wr(31, pc + 8);
        return jump();
      case Op::Jr:
        return {rs(), true};
      case Op::Jalr:
        // Link first, then read the target: with rd == rs the jump
        // lands on the link address.
        wr(inst.rd, pc + 8);
        return {rs(), true};
      case Op::Mult:
        karatsuba(KaratsubaOp::Mult);
        break;
      case Op::Multu:
        karatsuba(KaratsubaOp::Multu);
        break;
      case Op::Div: {
        // Divided in 64 bits: INT32_MIN / -1 overflows 32-bit signed
        // division (a host trap); the divider returns the quotient's
        // low word, 0x80000000, with remainder 0.
        int64_t a = static_cast<int32_t>(rs());
        int64_t b = static_cast<int32_t>(rt());
        lo_ = b ? static_cast<uint32_t>(a / b) : 0;
        hi_ = b ? static_cast<uint32_t>(a % b) : 0;
        break;
      }
      case Op::Divu: {
        uint32_t a = rs(), b = rt();
        lo_ = b ? a / b : 0;
        hi_ = b ? a % b : 0;
        break;
      }
      case Op::Mfhi:
        wr(inst.rd, hi_);
        break;
      case Op::Mflo:
        wr(inst.rd, lo_);
        break;
      case Op::Mthi:
        hi_ = rs();
        break;
      case Op::Mtlo:
        lo_ = rs();
        break;
      case Op::Maddu:
        ovflo_ = karatsuba(KaratsubaOp::Maddu);
        break;
      case Op::M2addu:
        ovflo_ = karatsuba(KaratsubaOp::M2addu);
        break;
      case Op::Addau: {
        uint64_t p = (static_cast<uint64_t>(rs()) << 32) | rt();
        uint64_t old = (static_cast<uint64_t>(hi_) << 32) | lo_;
        uint64_t sum = old + p;
        if (sum < old)
            ovflo_ += 1;
        lo_ = static_cast<uint32_t>(sum);
        hi_ = static_cast<uint32_t>(sum >> 32);
        break;
      }
      case Op::Sha:
        lo_ = hi_;
        hi_ = ovflo_;
        ovflo_ = 0;
        break;
      case Op::Mulgf2:
        // The multiplexed 16x16 carry-less block (Fig 5.4).
        ovflo_ = karatsuba(KaratsubaOp::Mulgf2);
        break;
      case Op::Maddgf2:
        ovflo_ = karatsuba(KaratsubaOp::Maddgf2);
        break;
      default:
        unimplementedOp(pc);
    }
    return {0, false};
}

} // namespace ulecc

#endif // ULECC_SIM_CPU_HH
