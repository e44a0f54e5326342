/**
 * @file
 * Pete pipeline simulator tests: functional semantics (including delay
 * slots, Hi/Lo, ISA extensions) and cycle-accounting behaviour
 * (load-use stalls, branch prediction, multiplier interlocks, I-cache).
 */

#include <gtest/gtest.h>

#include "asmkit/assembler.hh"
#include "sim/cpu.hh"

using namespace ulecc;

namespace
{

Pete
runProgram(const std::string &src, PeteConfig cfg = {})
{
    Pete cpu(assemble(src), cfg);
    EXPECT_TRUE(cpu.run());
    return cpu;
}

} // namespace

TEST(Pete, ArithmeticBasics)
{
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 5
        addiu $t1, $zero, 7
        addu  $t2, $t0, $t1
        subu  $t3, $t1, $t0
        sll   $t4, $t1, 2
        sltu  $t5, $t0, $t1
        break
    )");
    EXPECT_EQ(cpu.reg(10), 12u);
    EXPECT_EQ(cpu.reg(11), 2u);
    EXPECT_EQ(cpu.reg(12), 28u);
    EXPECT_EQ(cpu.reg(13), 1u);
}

TEST(Pete, ZeroRegisterIsImmutable)
{
    Pete cpu = runProgram(R"(
        addiu $zero, $zero, 55
        addu $t0, $zero, $zero
        break
    )");
    EXPECT_EQ(cpu.reg(0), 0u);
    EXPECT_EQ(cpu.reg(8), 0u);
}

TEST(Pete, MemoryLoadsAndStores)
{
    Pete cpu = runProgram(R"(
        li  $t0, 0x10000000     # RAM base
        li  $t1, 0xcafebabe
        sw  $t1, 0($t0)
        lw  $t2, 0($t0)
        lbu $t3, 0($t0)         # little-endian low byte
        lb  $t4, 1($t0)         # 0xba sign-extended
        lhu $t5, 2($t0)
        sh  $t5, 8($t0)
        lw  $t6, 8($t0)
        break
    )");
    EXPECT_EQ(cpu.reg(10), 0xcafebabeu);
    EXPECT_EQ(cpu.reg(11), 0xbeu);
    EXPECT_EQ(cpu.reg(12), 0xffffffbau);
    EXPECT_EQ(cpu.reg(13), 0xcafeu);
    EXPECT_EQ(cpu.reg(14), 0xcafeu);
    EXPECT_GE(cpu.mem().ramCounters().reads, 4u);
    EXPECT_GE(cpu.mem().ramCounters().writes, 2u);
}

TEST(Pete, BranchDelaySlotExecutes)
{
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 1
        beq   $zero, $zero, skip
        addiu $t1, $zero, 99   # delay slot: always executes
        addiu $t2, $zero, 55   # skipped
    skip:
        break
    )");
    EXPECT_EQ(cpu.reg(9), 99u);
    EXPECT_EQ(cpu.reg(10), 0u);
}

TEST(Pete, LoopCountsCorrectly)
{
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 10
        addiu $t1, $zero, 0
    loop:
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        addiu $t1, $t1, 1      # delay slot: runs every iteration
        break
    )");
    EXPECT_EQ(cpu.reg(8), 0u);
    EXPECT_EQ(cpu.reg(9), 10u);
}

TEST(Pete, JalAndJrFunctionCall)
{
    Pete cpu = runProgram(R"(
            jal func
            nop
            addu $t1, $v0, $v0
            break
            nop
        func:
            addiu $v0, $zero, 21
            jr $ra
            nop
    )");
    EXPECT_EQ(cpu.reg(2), 21u);
    EXPECT_EQ(cpu.reg(9), 42u);
    EXPECT_GE(cpu.stats().jumpStalls, 1u);
}

TEST(Pete, Fibonacci)
{
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 0
        addiu $t1, $zero, 1
        addiu $t2, $zero, 12   # compute fib(12) = 144
    loop:
        addu  $t3, $t0, $t1
        move  $t0, $t1
        move  $t1, $t3
        addiu $t2, $t2, -1
        bne   $t2, $zero, loop
        nop
        break
    )");
    EXPECT_EQ(cpu.reg(8), 144u);
}

TEST(Pete, MultHiLo)
{
    Pete cpu = runProgram(R"(
        li    $t0, 0x12345678
        li    $t1, 0x9abcdef0
        multu $t0, $t1
        mflo  $t2
        mfhi  $t3
        break
    )");
    uint64_t p = 0x12345678ull * 0x9abcdef0ull;
    EXPECT_EQ(cpu.reg(10), static_cast<uint32_t>(p));
    EXPECT_EQ(cpu.reg(11), static_cast<uint32_t>(p >> 32));
    EXPECT_GE(cpu.stats().multBusyStalls, 1u);
}

TEST(Pete, MultSigned)
{
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, -3
        addiu $t1, $zero, 7
        mult  $t0, $t1
        mflo  $t2
        mfhi  $t3
        break
    )");
    EXPECT_EQ(static_cast<int32_t>(cpu.reg(10)), -21);
    EXPECT_EQ(cpu.reg(11), 0xffffffffu);
}

TEST(Pete, StaticSchedulingHidesMultLatency)
{
    // The paper's Section 5.1.1 example: independent instructions
    // between mult and mflo absorb the 4-cycle latency.
    Pete hidden = runProgram(R"(
        li    $t0, 1000
        li    $t1, 2000
        multu $t0, $t1
        addiu $t4, $zero, 1
        addiu $t5, $zero, 2
        addiu $t6, $zero, 3
        mflo  $t2
        break
    )");
    Pete exposed = runProgram(R"(
        li    $t0, 1000
        li    $t1, 2000
        multu $t0, $t1
        mflo  $t2
        addiu $t4, $zero, 1
        addiu $t5, $zero, 2
        addiu $t6, $zero, 3
        break
    )");
    EXPECT_EQ(hidden.reg(10), 2000000u);
    EXPECT_EQ(exposed.reg(10), 2000000u);
    EXPECT_EQ(hidden.stats().multBusyStalls, 0u);
    EXPECT_GT(exposed.stats().multBusyStalls, 0u);
    EXPECT_LT(hidden.stats().cycles, exposed.stats().cycles);
}

TEST(Pete, DivRestoring)
{
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 100
        addiu $t1, $zero, 7
        divu  $t0, $t1
        mflo  $t2
        mfhi  $t3
        break
    )");
    EXPECT_EQ(cpu.reg(10), 14u);
    EXPECT_EQ(cpu.reg(11), 2u);
    // Divide occupies the unit for its full latency.
    EXPECT_GE(cpu.stats().multBusyStalls, 30u);
}

TEST(Pete, MadduAccumulatesWithOvflo)
{
    // Accumulate 3 large products; the 96-bit (OvFlo,Hi,Lo) must not
    // lose carries (the paper's Table 5.1 semantics).
    Pete cpu = runProgram(R"(
        li    $t0, 0xffffffff
        mthi  $zero
        mtlo  $zero
        maddu $t0, $t0
        maddu $t0, $t0
        maddu $t0, $t0
        sha                  # (OvFlo,Hi,Lo) >>= 32
        mflo  $t2            # middle word
        mfhi  $t3            # former OvFlo
        break
    )");
    // 3 * 0xffffffff^2 = 0x2_fffffffa_00000003
    EXPECT_EQ(cpu.reg(10), 0xfffffffau);
    EXPECT_EQ(cpu.reg(11), 0x2u);
}

TEST(Pete, M2adduDoubles)
{
    Pete cpu = runProgram(R"(
        li     $t0, 0xffffffff
        mthi   $zero
        mtlo   $zero
        m2addu $t0, $t0
        mflo   $t2
        mfhi   $t3
        break
    )");
    // 2 * 0xffffffff^2 = 0x1_fffffffc_00000002 overflows 64 bits.
    unsigned __int128 p2 =
        static_cast<unsigned __int128>(0xffffffffull * 0xffffffffull) * 2;
    EXPECT_EQ(cpu.reg(10), static_cast<uint32_t>(p2));
    EXPECT_EQ(cpu.reg(11), static_cast<uint32_t>(p2 >> 32));
    EXPECT_EQ(cpu.ovflo(), 1u); // 2*p overflows 64 bits
}

TEST(Pete, AddauAddsShiftedOperand)
{
    Pete cpu = runProgram(R"(
        li    $t0, 5
        li    $t1, 0xffffffff
        mthi  $zero
        mtlo  $zero
        addau $t0, $t1       # acc += (5 << 32) + 0xffffffff
        mflo  $t2
        mfhi  $t3
        break
    )");
    EXPECT_EQ(cpu.reg(10), 0xffffffffu);
    EXPECT_EQ(cpu.reg(11), 5u);
}

TEST(Pete, CarrylessExtensions)
{
    Pete cpu = runProgram(R"(
        li      $t0, 0xffffffff
        li      $t1, 0x80000000
        mulgf2  $t0, $t1
        mflo    $t2
        mfhi    $t3
        li      $t4, 3
        li      $t5, 3
        maddgf2 $t4, $t5     # acc ^= clmul(3,3) = 5
        mflo    $t6
        break
    )");
    // clmul(0xffffffff, 0x80000000) = 0xffffffff << 31.
    uint64_t p = 0xffffffffull << 31;
    EXPECT_EQ(cpu.reg(10), static_cast<uint32_t>(p));
    EXPECT_EQ(cpu.reg(11), static_cast<uint32_t>(p >> 32));
    EXPECT_EQ(cpu.reg(14), static_cast<uint32_t>(p ^ 5));
}

TEST(Pete, LoadUseStallCharged)
{
    Pete stalled = runProgram(R"(
        li  $t0, 0x10000000
        li  $t1, 77
        sw  $t1, 0($t0)
        lw  $t2, 0($t0)
        addu $t3, $t2, $t2   # immediate use: one slip
        break
    )");
    Pete scheduled = runProgram(R"(
        li  $t0, 0x10000000
        li  $t1, 77
        sw  $t1, 0($t0)
        lw  $t2, 0($t0)
        addiu $t5, $zero, 0  # filler breaks the dependence
        addu $t3, $t2, $t2
        break
    )");
    EXPECT_EQ(stalled.reg(11), 154u);
    EXPECT_EQ(stalled.stats().loadUseStalls, 1u);
    EXPECT_EQ(scheduled.stats().loadUseStalls, 0u);
}

TEST(Pete, BranchPredictorLearnsLoop)
{
    // A long loop: the 2-bit predictor mispredicts only a handful of
    // times (cold + exit), not once per iteration.
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 100
    loop:
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )");
    EXPECT_EQ(cpu.stats().branches, 100u);
    EXPECT_LE(cpu.stats().branchMispredicts, 4u);
}

TEST(Pete, ICacheLoopHitsAfterWarmup)
{
    PeteConfig cfg;
    cfg.icacheEnabled = true;
    cfg.icache.sizeBytes = 1024;
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 200
    loop:
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )", cfg);
    const ICacheStats &ic = cpu.icache()->stats();
    EXPECT_GT(ic.accesses, 600u);
    EXPECT_LE(ic.misses, 3u); // tiny loop: everything fits in one line+
    EXPECT_EQ(cpu.mem().romFetchCounters().reads, 0u);
    EXPECT_EQ(cpu.mem().romFetchCounters().wideReads, ic.lineFills);
}

TEST(Pete, ICacheMissPenaltyCharged)
{
    PeteConfig base;
    Pete nocache = runProgram(R"(
        addiu $t0, $zero, 50
    loop:
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )", base);
    PeteConfig cfg;
    cfg.icacheEnabled = true;
    cfg.icache.sizeBytes = 1024;
    Pete cached = runProgram(R"(
        addiu $t0, $zero, 50
    loop:
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )", cfg);
    // Same instruction count; the cached run pays a few fill slips.
    EXPECT_EQ(nocache.stats().instructions, cached.stats().instructions);
    EXPECT_EQ(cached.stats().cycles,
              nocache.stats().cycles + cached.stats().icacheStalls);
}

TEST(ICache, RejectsGeometryWithoutPowerOfTwoLines)
{
    // lineIndex takes `% lines` and lineAddr masks with lineBytes - 1:
    // a zero line count used to SIGFPE and a non-power-of-two one
    // slipped past an assert compiled out under NDEBUG.
    auto codeFor = [](uint32_t sizeBytes, uint32_t lineBytes) {
        ICacheConfig cfg;
        cfg.sizeBytes = sizeBytes;
        cfg.lineBytes = lineBytes;
        try {
            ICache cache(cfg);
        } catch (const UleccError &e) {
            return e.code();
        }
        return Errc::Ok;
    };
    EXPECT_EQ(codeFor(1024, 16), Errc::Ok);
    EXPECT_EQ(codeFor(16, 16), Errc::Ok); // a single line is 2^0
    EXPECT_EQ(codeFor(0, 16), Errc::InvalidInput);
    EXPECT_EQ(codeFor(8, 16), Errc::InvalidInput);    // zero lines
    EXPECT_EQ(codeFor(3072, 16), Errc::InvalidInput); // 192 lines
    EXPECT_EQ(codeFor(1032, 16), Errc::InvalidInput); // partial line
    EXPECT_EQ(codeFor(1024, 0), Errc::InvalidInput);
    EXPECT_EQ(codeFor(1024, 24), Errc::InvalidInput);

    // Pete builds its cache from the config, so it rejects it too.
    PeteConfig bad;
    bad.icacheEnabled = true;
    bad.icache.sizeBytes = 3 * 1024;
    EXPECT_THROW(Pete(assemble("break"), bad), UleccError);
}

TEST(Pete, HaltsOnBreakAndSyscall)
{
    Pete a = runProgram("break\n");
    EXPECT_TRUE(a.halted());
    Pete b = runProgram("syscall\n");
    EXPECT_TRUE(b.halted());
}

TEST(Pete, IllegalInstructionThrows)
{
    Program p;
    p.words = {0xFFFFFFFFu};
    Pete cpu(p);
    EXPECT_THROW(cpu.run(), std::runtime_error);
}

TEST(Pete, Cop2WithoutCoprocessorThrows)
{
    Pete cpu(assemble("cop2sync\nbreak\n"));
    EXPECT_THROW(cpu.run(), std::runtime_error);
}

namespace
{

/** Full-width PeteStats comparison (every counter, not just cycles). */
void
expectStatsEqual(const PeteStats &a, const PeteStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.loadUseStalls, b.loadUseStalls);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.jumpStalls, b.jumpStalls);
    EXPECT_EQ(a.multBusyStalls, b.multBusyStalls);
    EXPECT_EQ(a.icacheStalls, b.icacheStalls);
    EXPECT_EQ(a.cop2Stalls, b.cop2Stalls);
    EXPECT_EQ(a.externalStalls, b.externalStalls);
    EXPECT_EQ(a.multIssues, b.multIssues);
    EXPECT_EQ(a.divIssues, b.divIssues);
}

const char *kLoopWorkload = R"(
        addiu $t0, $zero, 40
        addiu $t1, $zero, 0
        addiu $t2, $zero, 3
    loop:
        mult  $t2, $t2
        mflo  $t3
        addu  $t1, $t1, $t3
        lui   $t4, 0x1000
        sw    $t1, 0($t4)
        lw    $t5, 0($t4)
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        jal   leaf
        nop
        break
    leaf:
        jr    $ra
        addiu $t6, $t6, 1
)";


/** Hook that counts steps and strikes text once at a given step. */
class CorruptingHook : public StepHook
{
  public:
    CorruptingHook(uint64_t strikeStep, uint32_t addr, uint32_t mask)
        : strikeStep_(strikeStep), addr_(addr), mask_(mask)
    {}

    void
    onStep(Pete &cpu) override
    {
        if (steps_++ == strikeStep_)
            cpu.mem().corrupt32(addr_, mask_);
    }

    uint64_t steps() const { return steps_; }

  private:
    uint64_t steps_ = 0;
    uint64_t strikeStep_;
    uint32_t addr_;
    uint32_t mask_;
};

/** Scoped environment override (mirrors the test_par.cpp helper). */
class EnvVar
{
  public:
    EnvVar(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            hadOld_ = true;
            old_ = old;
        }
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~EnvVar()
    {
        if (hadOld_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool hadOld_ = false;
};

/** Runs @p src with the block cache on and off (all else equal) and
 *  expects bit-identical PeteStats and architectural state.  Returns
 *  the cache-on Pete for extra assertions. */
Pete
expectCacheEquivalent(const std::string &src, PeteConfig base = {})
{
    PeteConfig on = base, off = base;
    on.blockCache = true;
    off.blockCache = false;
    Pete fast(assemble(src), on);
    Pete slow(assemble(src), off);
    Result<uint64_t> rf = fast.runChecked();
    Result<uint64_t> rs = slow.runChecked();
    EXPECT_EQ(rf.ok(), rs.ok());
    if (!rf.ok() && !rs.ok()) {
        EXPECT_EQ(rf.code(), rs.code());
        EXPECT_EQ(rf.error().context, rs.error().context);
    }
    expectStatsEqual(fast.stats(), slow.stats());
    for (int r = 0; r < 32; ++r)
        EXPECT_EQ(fast.reg(r), slow.reg(r)) << "reg " << r;
    EXPECT_EQ(fast.hi(), slow.hi());
    EXPECT_EQ(fast.lo(), slow.lo());
    EXPECT_EQ(fast.ovflo(), slow.ovflo());
    EXPECT_EQ(fast.pc(), slow.pc());
    for (uint32_t a = MemoryMap::ramBase;
         a < MemoryMap::ramBase + MemoryMap::ramSize; a += 4)
        EXPECT_EQ(fast.mem().peek32(a), slow.mem().peek32(a))
            << "ram word " << std::hex << a;
    auto expectCountersEqual = [](const MemCounters &a,
                                  const MemCounters &b) {
        EXPECT_EQ(a.reads, b.reads);
        EXPECT_EQ(a.wideReads, b.wideReads);
        EXPECT_EQ(a.writes, b.writes);
    };
    expectCountersEqual(fast.mem().ramCounters(), slow.mem().ramCounters());
    expectCountersEqual(fast.mem().romFetchCounters(),
                        slow.mem().romFetchCounters());
    expectCountersEqual(fast.mem().romDataCounters(),
                        slow.mem().romDataCounters());
    EXPECT_EQ(fast.icache() != nullptr, slow.icache() != nullptr);
    if (fast.icache() && slow.icache()) {
        const ICacheStats &a = fast.icache()->stats();
        const ICacheStats &b = slow.icache()->stats();
        EXPECT_EQ(a.accesses, b.accesses);
        EXPECT_EQ(a.hits, b.hits);
        EXPECT_EQ(a.misses, b.misses);
        EXPECT_EQ(a.prefetchHits, b.prefetchHits);
        EXPECT_EQ(a.lineFills, b.lineFills);
        EXPECT_EQ(a.prefetchFills, b.prefetchFills);
        EXPECT_EQ(a.tagReads, b.tagReads);
        EXPECT_EQ(a.dataReads, b.dataReads);
        EXPECT_EQ(a.dataWrites, b.dataWrites);
    }
    return fast;
}

} // namespace

TEST(Pete, CorruptedTextTakesEffectOnEveryPath)
{
    // A particle strike on program text with no hook attached must
    // never be masked by a stale decode: the interpreter decodes the
    // word it fetched and the block memo decodes the struck text at
    // discovery.  (A strike after discovery is
    // BlockCache.TextStrikeInvalidatesMemoizedBlock.)
    const char *src = R"(
        addiu $t0, $zero, 5
        addiu $t1, $zero, 0
        break
    )";
    auto run = [&](bool blockCache) {
        PeteConfig cfg;
        cfg.blockCache = blockCache;
        Pete cpu(assemble(src), cfg);
        // Flip one immediate bit of the second instruction (pc = 4):
        // addiu $t1, $zero, 0 becomes addiu $t1, $zero, 8.
        cpu.mem().corrupt32(4, 0x8);
        EXPECT_TRUE(cpu.run());
        return cpu;
    };
    Pete fast = run(true);
    Pete slow = run(false);
    EXPECT_EQ(fast.reg(9), 8u); // the corrupted immediate took effect
    EXPECT_EQ(slow.reg(9), 8u);
    expectStatsEqual(fast.stats(), slow.stats());
}

TEST(Pete, TimeoutEquivalentOnFastAndSlowPaths)
{
    const char *src = R"(
    spin:
        beq $zero, $zero, spin
        nop
    )";
    for (bool blockCache : {true, false}) {
        for (bool with_hook : {false, true}) {
            PeteConfig cfg;
            cfg.blockCache = blockCache;
            cfg.maxCycles = 10'000;
            Pete cpu(assemble(src), cfg);
            CorruptingHook hook(1ull << 60, 0, 0); // never strikes
            if (with_hook)
                cpu.attachStepHook(&hook);
            Result<uint64_t> r = cpu.runChecked();
            ASSERT_FALSE(r.ok());
            EXPECT_EQ(r.code(), Errc::SimTimeout);
            // The batched fast-path check may overshoot by at most one
            // check interval of single-cycle instructions.
            EXPECT_GE(cpu.stats().cycles, cfg.maxCycles);
            EXPECT_LT(cpu.stats().cycles, cfg.maxCycles + 512);
        }
    }
}

TEST(Pete, SignedDivideOverflowDoesNotTrap)
{
    // INT32_MIN / -1 is the one signed quotient that does not fit in
    // 32 bits.  A simulated program must never crash the simulator:
    // the quotient wraps to its low word and the remainder is 0, on
    // the interpreter and the block memo alike.
    Pete cpu = expectCacheEquivalent(R"(
        lui   $t2, 0x8000
        addiu $t3, $zero, -1
        addiu $s0, $zero, 8
    loop:
        div   $t2, $t3
        mflo  $t0
        mfhi  $t1
        addiu $s0, $s0, -1
        bne   $s0, $zero, loop
        nop
        break
    )");
    EXPECT_EQ(cpu.reg(8), 0x80000000u);
    EXPECT_EQ(cpu.reg(9), 0u);
}

TEST(BlockCache, StatsBitIdenticalOnLoopProgram)
{
    Pete fast = expectCacheEquivalent(kLoopWorkload);
    const BlockCacheStats *bc = fast.blockCacheStats();
    ASSERT_NE(bc, nullptr);
    EXPECT_GT(bc->replays, 0u); // the loop actually took the memo
    EXPECT_GT(bc->replayedInstructions, 0u);
}

TEST(BlockCache, StatsBitIdenticalWithIcache)
{
    PeteConfig cfg;
    cfg.icacheEnabled = true;
    cfg.icache.sizeBytes = 1024;
    Pete fast = expectCacheEquivalent(kLoopWorkload, cfg);
    const BlockCacheStats *bc = fast.blockCacheStats();
    ASSERT_NE(bc, nullptr);
    EXPECT_GT(bc->replays, 0u); // resident lines still replay
}

TEST(BlockCache, MultCountdownCrossesBlockBoundary)
{
    // The multiply issues in the jump's delay slot, so the busy
    // countdown is live when the next block's MFLO interlocks on it:
    // the entry-context key (not the static block) must carry it.
    expectCacheEquivalent(R"(
        addiu $t0, $zero, 30
        addiu $t1, $zero, 0
        addiu $t2, $zero, 7
    loop:
        j     body
        mult  $t2, $t0
    body:
        mflo  $t3
        addu  $t1, $t1, $t3
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )");
}

namespace
{

// The countdown-crossing workload shared by the multiplier-variant
// regressions: the multiply issues in the jump's delay slot, so the
// busy countdown is live at the next block's entry and its width is
// variant-dependent.
constexpr const char *kMultCrossingWorkload = R"(
        addiu $t0, $zero, 30
        addiu $t1, $zero, 0
        addiu $t2, $zero, 7
    loop:
        j     body
        mult  $t2, $t0
    body:
        mflo  $t3
        addu  $t1, $t1, $t3
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )";

} // namespace

TEST(BlockCache, SixCycleMultiplierCountdownStaysExact)
{
    // A 6-cycle variant (karatsuba2) widens the live countdown past
    // what the old 200-cap key packing assumed; the entry-context key
    // must still carry it exactly -- bit-identical stats on vs off,
    // and MORE mult-busy stalls than the 4-cycle default, never a
    // corrupted count.
    PeteConfig cfg;
    applyMultiplier(cfg, MultiplierVariant::Karatsuba2);
    ASSERT_EQ(cfg.multLatency, 6u);
    Pete slow6 = expectCacheEquivalent(kMultCrossingWorkload, cfg);
    Pete dflt = expectCacheEquivalent(kMultCrossingWorkload);
    EXPECT_GT(slow6.stats().multBusyStalls,
              dflt.stats().multBusyStalls);
    EXPECT_EQ(slow6.stats().instructions, dflt.stats().instructions);
    EXPECT_EQ(slow6.lo(), dflt.lo()); // timing only, same arithmetic
    EXPECT_EQ(slow6.hi(), dflt.hi());
}

TEST(BlockCache, DataDependentBranchDirections)
{
    // The inner branch alternates taken/not-taken with the counter's
    // parity, so the bimodal predictor keeps mispredicting; replay
    // resolves it against the live predictor, never from the memo.
    expectCacheEquivalent(R"(
        addiu $t0, $zero, 40
        addiu $t1, $zero, 0
    loop:
        andi  $t3, $t0, 1
        beq   $t3, $zero, even
        nop
        addiu $t1, $t1, 100
    even:
        addiu $t1, $t1, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )");
}

TEST(BlockCache, JrLoopReplays)
{
    // A call loop: JAL enters the leaf, JR returns through a
    // register target; both are block terminators resolved live.
    Pete fast = expectCacheEquivalent(R"(
        addiu $t0, $zero, 25
        addiu $t1, $zero, 0
    loop:
        jal   leaf
        nop
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    leaf:
        jr    $ra
        addiu $t1, $t1, 2
    )");
    ASSERT_NE(fast.blockCacheStats(), nullptr);
    EXPECT_GT(fast.blockCacheStats()->replays, 0u);
    EXPECT_EQ(fast.reg(9), 50u);
}

TEST(BlockCache, StoreToTextFaultsInsideReplayedBlock)
{
    // Iteration 1 stores to RAM (and records the block); iteration 2
    // replays the same block and the store lands on program text,
    // which must fault out of the replay with the slow path's
    // exact message, stats, and architectural state.
    expectCacheEquivalent(R"(
        lui   $t4, 0x1000
        addiu $t4, $t4, 0x10
        lui   $t7, 0x1000
        addiu $t0, $zero, 4
        addiu $t1, $zero, 0
    loop:
        sw    $t1, 0($t4)
        addiu $t1, $t1, 1
        subu  $t4, $t4, $t7
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )");
}

TEST(BlockCache, TextStrikeInvalidatesMemoizedBlock)
{
    // Pause the run mid-loop on the cycle budget, strike the
    // post-loop text through the fault-injection backdoor, and
    // resume: the loop block's memo entry is stale (text generation
    // moved) and must be dropped and re-recorded, and the corrupted
    // instruction must take effect -- identically with the cache off.
    const char *src = R"(
        addiu $t0, $zero, 4000
        addiu $t1, $zero, 0
    loop:
        addiu $t1, $t1, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        addiu $t6, $zero, 1
        break
    )";
    auto run = [&](bool blockCache) {
        PeteConfig cfg;
        cfg.blockCache = blockCache;
        cfg.maxCycles = 2'000; // pauses well inside the loop
        Pete cpu(assemble(src), cfg);
        Result<uint64_t> paused = cpu.runChecked();
        EXPECT_FALSE(paused.ok());
        EXPECT_EQ(paused.code(), Errc::SimTimeout);
        // Flip `addiu $t6, $zero, 1` (7th word) into `..., 9`.  The
        // pause point may differ by a few instructions between the
        // two configurations, but both are still inside the loop, so
        // the executed instruction stream is identical either way.
        cpu.mem().corrupt32(6 * 4, 0x8);
        cfg.maxCycles = 500'000'000;
        cpu.setMaxCycles(cfg.maxCycles);
        EXPECT_TRUE(cpu.run());
        return cpu;
    };
    Pete fast = run(true);
    Pete slow = run(false);
    expectStatsEqual(fast.stats(), slow.stats());
    EXPECT_EQ(fast.reg(14), 9u); // the strike's immediate took effect
    EXPECT_EQ(slow.reg(14), 9u);
    for (int r = 0; r < 32; ++r)
        EXPECT_EQ(fast.reg(r), slow.reg(r)) << "reg " << r;
    ASSERT_NE(fast.blockCacheStats(), nullptr);
    EXPECT_GE(fast.blockCacheStats()->invalidations, 1u);
}

TEST(BlockCache, HookForcesSlowPathTransparently)
{
    // Any attached StepHook keeps runChecked on the exact per-step
    // loop: the memo must see no traffic at all, and a mid-run text
    // strike behaves identically with the cache compiled in or out.
    auto run = [&](bool blockCache) {
        PeteConfig cfg;
        cfg.blockCache = blockCache;
        Pete cpu(assemble(R"(
            addiu $t0, $zero, 10
            addiu $t1, $zero, 0
        loop:
            addiu $t1, $t1, 1
            addiu $t0, $t0, -1
            bne   $t0, $zero, loop
            nop
            break
        )"),
                 cfg);
        CorruptingHook hook(14, 8, 0x2);
        cpu.attachStepHook(&hook);
        EXPECT_TRUE(cpu.run());
        return cpu;
    };
    Pete fast = run(true);
    Pete slow = run(false);
    expectStatsEqual(fast.stats(), slow.stats());
    EXPECT_EQ(fast.reg(9), slow.reg(9));
    ASSERT_NE(fast.blockCacheStats(), nullptr);
    EXPECT_EQ(fast.blockCacheStats()->lookups, 0u);
    EXPECT_EQ(fast.blockCacheStats()->replays, 0u);
}

TEST(BlockCache, EnvParseNeverErrors)
{
    // Direct parses: the documented values, then hostile ones, which
    // must degrade to the default (On) -- the ULECC_JOBS contract.
    EXPECT_EQ(parseBlockCacheMode(nullptr), BlockCacheMode::On);
    EXPECT_EQ(parseBlockCacheMode(""), BlockCacheMode::On);
    EXPECT_EQ(parseBlockCacheMode("1"), BlockCacheMode::On);
    EXPECT_EQ(parseBlockCacheMode("on"), BlockCacheMode::On);
    EXPECT_EQ(parseBlockCacheMode("0"), BlockCacheMode::Off);
    EXPECT_EQ(parseBlockCacheMode("off"), BlockCacheMode::Off);
    EXPECT_EQ(parseBlockCacheMode("verify"), BlockCacheMode::Verify);
    EXPECT_EQ(parseBlockCacheMode("shadow"), BlockCacheMode::Verify);
    EXPECT_EQ(parseBlockCacheMode("ON"), BlockCacheMode::On);
    EXPECT_EQ(parseBlockCacheMode("bogus"), BlockCacheMode::On);
    EXPECT_EQ(parseBlockCacheMode("99999999999999999999"),
              BlockCacheMode::On);
    EXPECT_EQ(parseBlockCacheMode("-1"), BlockCacheMode::On);
    EXPECT_EQ(parseBlockCacheMode("off "), BlockCacheMode::On);
}

TEST(BlockCache, HostileEnvValuesRunIdentically)
{
    // Whatever $ULECC_BLOCK_CACHE says, simulated behaviour is
    // bit-identical; only the simulator's own path choice may change.
    PeteConfig off;
    off.blockCache = false;
    Pete reference = runProgram(kLoopWorkload, off);
    for (const char *value :
         {"", "1", "on", "ON", "0", "off", "verify", "shadow", "bogus",
          "99999999999999999999"}) {
        EnvVar env("ULECC_BLOCK_CACHE", value);
        Pete cpu = runProgram(kLoopWorkload);
        expectStatsEqual(cpu.stats(), reference.stats());
        for (int r = 0; r < 32; ++r)
            EXPECT_EQ(cpu.reg(r), reference.reg(r))
                << "reg " << r << " under value '" << value << "'";
    }
}

TEST(BlockCache, ShadowVerifyModeCleanOnLoopProgram)
{
    EnvVar env("ULECC_BLOCK_CACHE", "verify");
    PeteConfig cfg;
    // A long enough loop that the sampled shadow check (every 64th
    // memo hit) actually fires several times.
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 1000
        addiu $t1, $zero, 0
    loop:
        addiu $t1, $t1, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )",
                          cfg);
    ASSERT_NE(cpu.blockCacheStats(), nullptr);
    EXPECT_EQ(cpu.blockCacheMode(), BlockCacheMode::Verify);
    EXPECT_GT(cpu.blockCacheStats()->shadowVerifies, 0u);
    EXPECT_EQ(cpu.reg(9), 1000u);
}

TEST(BlockCache, TimeoutOvershootBounded)
{
    const char *src = R"(
    spin:
        beq $zero, $zero, spin
        nop
    )";
    PeteConfig cfg;
    cfg.maxCycles = 10'000;
    Pete cpu(assemble(src), cfg);
    Result<uint64_t> r = cpu.runChecked();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::SimTimeout);
    // The budget is polled once per block dispatch, so the overshoot
    // is bounded by one block plus its delay slot.
    EXPECT_GE(cpu.stats().cycles, cfg.maxCycles);
    EXPECT_LT(cpu.stats().cycles, cfg.maxCycles + 512);
}

TEST(BlockCache, ShadowVerifyModeCleanOnAlternatingProgram)
{
    // The alternating branch sends every other pass down a different
    // block sequence, so the memo keeps switching entries; over 400
    // iterations the sampled shadow check (every 64th memo hit) fires
    // several times.  A clean program must sail through with exact
    // stats; any replay/slow-path divergence would throw
    // Errc::Internal here.
    const char *src = R"(
        addiu $t0, $zero, 400
        addiu $t1, $zero, 0
    loop:
        andi  $t3, $t0, 1
        beq   $t3, $zero, even
        nop
        addiu $t1, $t1, 100
    even:
        addiu $t1, $t1, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )";
    PeteConfig off;
    off.blockCache = false;
    Pete reference = runProgram(src, off);
    EnvVar env("ULECC_BLOCK_CACHE", "verify");
    Pete cpu = runProgram(src);
    ASSERT_NE(cpu.blockCacheStats(), nullptr);
    EXPECT_EQ(cpu.blockCacheMode(), BlockCacheMode::Verify);
    EXPECT_GT(cpu.blockCacheStats()->shadowVerifies, 0u);
    expectStatsEqual(cpu.stats(), reference.stats());
    for (int r = 0; r < 32; ++r)
        EXPECT_EQ(cpu.reg(r), reference.reg(r)) << "reg " << r;
}

TEST(BlockCache, MidLoopFaultReconstructsExactState)
{
    // The store address descends 4 bytes per iteration: a dozen clean
    // RAM stores make the loop block hot and replayed, then the
    // address drops below the RAM base and the same store faults
    // inside a replay.  The bailout must reconstruct the slow path's
    // exact fault message, stats, and architectural state.
    Pete fast = expectCacheEquivalent(R"(
        lui   $t4, 0x1000
        addiu $t4, $t4, 48
        addiu $t0, $zero, 64
        addiu $t1, $zero, 0
    loop:
        sw    $t1, 0($t4)
        addiu $t1, $t1, 1
        addiu $t4, $t4, -4
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )");
    ASSERT_NE(fast.blockCacheStats(), nullptr);
    EXPECT_GT(fast.blockCacheStats()->replays, 0u);
}

namespace
{

/** One op class exercised in a hot loop (see EveryOpClassMatches). */
struct OpCase
{
    const char *name;
    const char *body; ///< loop body; leaves its results in $t0/$t1
    const char *tail = ""; ///< code placed after the final break
};

// Each body runs 24 times on fresh operands: $s1/$s2 are stepped by
// xorshift32 every iteration, so signs, zero-ish values and shift
// amounts vary.  $s6 points at a scratch RAM word; $t0/$t1 are logged
// to RAM after every iteration ($t1 first, so a load into $t1 at the
// end of a body exposes the load-use interlock).
const OpCase kOpCases[] = {
    {"sll_srl", "sll $t0, $s1, 7\n srl $t1, $s1, 31"},
    {"sra", "sra $t0, $s1, 9\n sra $t1, $s2, 31"},
    {"srav", "srav $t0, $s1, $s2\n srav $t1, $s2, $s1"},
    {"sllv_srlv", "sllv $t0, $s1, $s2\n srlv $t1, $s1, $s2"},
    {"add_sub", "add $t0, $s1, $s2\n sub $t1, $s1, $s2"},
    {"addu_subu", "addu $t0, $s1, $s2\n subu $t1, $s2, $s1"},
    {"and_or_xor_nor",
     "and $t0, $s1, $s2\n or $t1, $s1, $s2\n xor $t2, $t0, $t1\n"
     " nor $t0, $t2, $s2"},
    {"slt_sltu", "slt $t0, $s1, $s2\n sltu $t1, $s1, $s2"},
    {"addi_addiu", "addi $t0, $s1, -1234\n addiu $t1, $s2, 32767"},
    {"slti_sltiu_negative_imm",
     "slti $t0, $s1, -5\n sltiu $t1, $s1, -5\n slti $t2, $s2, -32768"},
    {"andi_ori_xori",
     "andi $t0, $s1, 0xf0f0\n ori $t1, $s1, 0x8001\n"
     " xori $t1, $t1, 0xffff"},
    {"lui", "lui $t0, 0x8001\n xor $t1, $t0, $s1"},
    {"lb_lbu_sign_extension",
     "sw $s1, 0($s6)\n lb $t0, 3($s6)\n lbu $t1, 1($s6)"},
    {"lh_lhu_sign_extension",
     "sw $s1, 0($s6)\n lh $t0, 2($s6)\n lhu $t1, 0($s6)"},
    {"lw_load_use", "sw $s2, 0($s6)\n lw $t0, 0($s6)\n addu $t1, $t0, $s1"},
    {"sb_sh",
     "sw $zero, 0($s6)\n sb $s1, 1($s6)\n sh $s2, 2($s6)\n"
     " lw $t0, 0($s6)\n lb $t1, 1($s6)"},
    {"beq",
     "andi $t2, $s1, 1\n addiu $t0, $zero, 0\n beq $t2, $zero, over\n"
     " addiu $t1, $s1, 1\n addiu $t0, $zero, 7\n over:"},
    {"bne",
     "andi $t2, $s1, 2\n addiu $t0, $zero, 0\n bne $t2, $zero, over\n"
     " addiu $t1, $s1, 1\n addiu $t0, $zero, 7\n over:"},
    {"blez",
     "sra $t2, $s1, 30\n addiu $t0, $zero, 0\n blez $t2, over\n"
     " addiu $t1, $t2, 1\n addiu $t0, $zero, 7\n over:"},
    {"bgtz",
     "sra $t2, $s1, 30\n addiu $t0, $zero, 0\n bgtz $t2, over\n"
     " addiu $t1, $t2, 1\n addiu $t0, $zero, 7\n over:"},
    {"bltz",
     "sra $t2, $s1, 30\n addiu $t0, $zero, 0\n bltz $t2, over\n"
     " addiu $t1, $t2, 1\n addiu $t0, $zero, 7\n over:"},
    {"bgez",
     "sra $t2, $s1, 30\n addiu $t0, $zero, 0\n bgez $t2, over\n"
     " addiu $t1, $t2, 1\n addiu $t0, $zero, 7\n over:"},
    {"j",
     "j over\n addiu $t0, $s1, 3\n addiu $t0, $zero, 99\n"
     " over: addiu $t1, $t0, 1"},
    {"jal_jr", "jal leaf\n addiu $t0, $s1, 3",
     "leaf: jr $ra\n addiu $t1, $s2, 5"},
    {"jalr", "la $t3, leaf\n jalr $t3\n addiu $t0, $s1, 1",
     "leaf: jr $ra\n addiu $t1, $s2, 2"},
    // Link first, then read the target: with rd == rs the jump lands
    // on the instruction after the delay slot, never on `far`.
    {"jalr_rd_eq_rs",
     "la $t2, far\n jalr $t2, $t2\n addiu $t0, $s1, 1\n"
     " addiu $t1, $t2, 0",
     "far: addiu $t1, $zero, 1\n break"},
    {"mult_multu",
     "mult $s1, $s2\n mflo $t0\n multu $s1, $s2\n mfhi $t1"},
    {"div", "div $s1, $s2\n mflo $t0\n mfhi $t1"},
    {"divu", "divu $s1, $s2\n mflo $t0\n mfhi $t1"},
    {"div_divu_by_zero",
     "div $s1, $zero\n mflo $t0\n divu $s2, $zero\n mfhi $t1"},
    {"mthi_mtlo",
     "mult $s1, $s2\n mthi $s1\n mtlo $s2\n maddu $s1, $s2\n"
     " mfhi $t0\n mflo $t1"},
    {"maddu_m2addu",
     "maddu $s1, $s2\n m2addu $s2, $s1\n mfhi $t0\n mflo $t1"},
    {"addau_sha",
     "addau $s1, $s2\n addau $s2, $s1\n mflo $t0\n sha\n mfhi $t1"},
    {"mulgf2_maddgf2",
     "mulgf2 $s1, $s2\n maddgf2 $s2, $s1\n mflo $t0\n mfhi $t1"},
    {"mult_in_jump_delay_slot",
     "j next\n mult $s1, $s2\n next: mflo $t0\n mfhi $t1"},
};

std::string
opCaseProgram(const OpCase &c)
{
    return std::string(R"(
        li    $s1, 0x9e3779b9
        li    $s2, 0x85ebca6b
        lui   $s7, 0x1000
        lui   $s6, 0x1000
        ori   $s6, $s6, 0x2000
        addiu $s0, $zero, 24
    loop:
    )") + c.body + R"(
        sw    $t1, 4($s7)
        sw    $t0, 0($s7)
        addiu $s7, $s7, 8
        sll   $t9, $s1, 13
        xor   $s1, $s1, $t9
        srl   $t9, $s1, 17
        xor   $s1, $s1, $t9
        sll   $t9, $s1, 5
        xor   $s1, $s1, $t9
        addu  $s2, $s2, $s1
        addiu $s0, $s0, -1
        bne   $s0, $zero, loop
        nop
        break
    )" + c.tail + "\n";
}

} // namespace

TEST(BlockCache, EveryOpClassMatchesTheInterpreter)
{
    // One hot loop per op class, so every instruction's semantics and
    // timing are replayed through the memo (not only the few the
    // kernel suites happen to use), with and without an I-cache.
    for (const OpCase &c : kOpCases) {
        for (bool icache : {false, true}) {
            SCOPED_TRACE(std::string(c.name)
                         + (icache ? " (icache)" : " (no icache)"));
            PeteConfig cfg;
            cfg.icacheEnabled = icache;
            cfg.icache.sizeBytes = 1024;
            Pete fast = expectCacheEquivalent(opCaseProgram(c), cfg);
            ASSERT_NE(fast.blockCacheStats(), nullptr);
            EXPECT_GT(fast.blockCacheStats()->replays, 0u);
            EXPECT_EQ(fast.reg(16), 0u); // the loop ran to completion
        }
    }
}
