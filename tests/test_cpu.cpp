/**
 * @file
 * Pete pipeline simulator tests: functional semantics (including delay
 * slots, Hi/Lo, ISA extensions) and cycle-accounting behaviour
 * (load-use stalls, branch prediction, multiplier interlocks, I-cache).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "asmkit/assembler.hh"
#include "sim/cpu.hh"
#include "workload/asm_kernels.hh"
#include "golden.hh"

using namespace ulecc;
using ulecc::test::expectMatchesGolden;
using ulecc::test::statsLine;

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

/** FNV-1a over every architectural word and memory/I-cache counter:
 *  GPRs, Hi/Lo/OvFlo, pc, all of RAM, the ROM/RAM access counters and
 *  ICacheStats. */
uint64_t
stateDigest(Pete &cpu)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (int r = 0; r < 32; ++r)
        mix(cpu.reg(r));
    mix(cpu.hi());
    mix(cpu.lo());
    mix(cpu.ovflo());
    mix(cpu.pc());
    for (uint32_t a = MemoryMap::ramBase;
         a < MemoryMap::ramBase + MemoryMap::ramSize; a += 4)
        mix(cpu.mem().peek32(a));
    for (const MemCounters *c :
         {&cpu.mem().ramCounters(), &cpu.mem().romFetchCounters(),
          &cpu.mem().romDataCounters()}) {
        mix(c->reads);
        mix(c->wideReads);
        mix(c->writes);
    }
    if (const ICache *ic = cpu.icache()) {
        const ICacheStats &s = ic->stats();
        for (uint64_t v : {s.accesses, s.hits, s.misses, s.prefetchHits,
                           s.lineFills, s.prefetchFills, s.tagReads,
                           s.dataReads, s.dataWrites})
            mix(v);
    }
    return h;
}

} // namespace

TEST(Pete, CorruptedTextTakesEffectOnEveryPath)
{
    // A particle strike on program text must never be masked by a
    // stale decode: the interpreter decodes the word it fetched, with
    // or without a step hook attached.
    const char *src = R"(
        addiu $t0, $zero, 5
        addiu $t1, $zero, 0
        break
    )";
    auto run = [&](bool withHook) {
        Pete cpu(assemble(src));
        CorruptingHook hook(1ull << 60, 0, 0); // never strikes
        if (withHook)
            cpu.attachStepHook(&hook);
        // Flip one immediate bit of the second instruction (pc = 4):
        // addiu $t1, $zero, 0 becomes addiu $t1, $zero, 8.
        cpu.mem().corrupt32(4, 0x8);
        EXPECT_TRUE(cpu.run());
        return cpu;
    };
    Pete plain = run(false);
    Pete hooked = run(true);
    EXPECT_EQ(plain.reg(9), 8u); // the corrupted immediate took effect
    EXPECT_EQ(hooked.reg(9), 8u);
    EXPECT_EQ(statsLine(plain.stats()), statsLine(hooked.stats()));
}

TEST(Pete, TimeoutEquivalentOnFastAndSlowPaths)
{
    // The budget is checked before every instruction, hooked or not,
    // so both runs stop at the same instruction boundary: the first
    // one at or past the budget.  mulos_k17's 5000-cycle budget falls
    // in the middle of a basic block of its inner loop.
    struct Case
    {
        const char *name;
        std::string src;
        uint64_t maxCycles;
    };
    const Case cases[] = {
        {"spin", "spin:\n beq $zero, $zero, spin\n nop\n", 10'000},
        {"mulos_k17", kernelSource(AsmKernel::MulOs, 17), 5'000},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        PeteStats stats[2];
        for (bool withHook : {false, true}) {
            PeteConfig cfg;
            cfg.maxCycles = c.maxCycles;
            Pete cpu(assemble(c.src), cfg);
            CorruptingHook hook(1ull << 60, 0, 0); // never strikes
            if (withHook)
                cpu.attachStepHook(&hook);
            Result<uint64_t> r = cpu.runChecked();
            ASSERT_FALSE(r.ok());
            EXPECT_EQ(r.code(), Errc::SimTimeout);
            // Both programs retire one cycle per instruction at the
            // crossing, so they stop exactly on the budget.
            EXPECT_EQ(cpu.stats().cycles, c.maxCycles);
            stats[withHook] = cpu.stats();
        }
        EXPECT_EQ(statsLine(stats[0]), statsLine(stats[1]));
    }
}

TEST(Pete, TimeoutStopsExactlyAtBudget)
{
    // An instruction that starts under budget completes, however long
    // it stalls; nothing after it runs.  The divide issues at cycle 2
    // and frees the unit at 2 + 34; MFLO retires at cycle 3 and waits
    // 33 cycles for it, landing on 36 > 10.
    PeteConfig cfg;
    cfg.maxCycles = 10;
    Pete cpu(assemble(R"(
        addiu $t0, $zero, 7
        div   $t0, $t0
        mflo  $t1
    spin:
        beq   $zero, $zero, spin
        nop
    )"),
             cfg);
    Result<uint64_t> r = cpu.runChecked();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::SimTimeout);
    EXPECT_EQ(cpu.stats().cycles, 36u);
    EXPECT_EQ(cpu.stats().instructions, 3u);
    EXPECT_EQ(cpu.stats().multBusyStalls, 33u);
    EXPECT_EQ(cpu.pc(), 12u);
    EXPECT_EQ(cpu.reg(9), 1u);
}

TEST(Pete, SignedDivideOverflowDoesNotTrap)
{
    // INT32_MIN / -1 is the one signed quotient that does not fit in
    // 32 bits.  A simulated program must never crash the simulator:
    // the quotient wraps to its low word and the remainder is 0.
    Pete cpu = runProgram(R"(
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

TEST(Pete, LoopWorkloadStats)
{
    // Per iteration: nine instructions, and MFLO waits three cycles
    // for the 4-cycle MULT issued just before it (12 cycles).  The
    // loop branch mispredicts on its first (taken) and last (not
    // taken) pass.  The call adds five instructions and one jump
    // bubble: 3 + 40 * 12 + 2 + 6 = 491 cycles.
    Pete cpu = runProgram(kLoopWorkload);
    const PeteStats &s = cpu.stats();
    EXPECT_EQ(s.instructions, 3u + 40 * 9 + 5);
    EXPECT_EQ(s.cycles, 491u);
    EXPECT_EQ(s.multBusyStalls, 40u * 3);
    EXPECT_EQ(s.multIssues, 40u);
    EXPECT_EQ(s.branches, 40u);
    EXPECT_EQ(s.branchMispredicts, 2u);
    EXPECT_EQ(s.jumpStalls, 1u);
    EXPECT_EQ(s.loadUseStalls, 0u);
    EXPECT_EQ(s.icacheStalls, 0u);
    EXPECT_EQ(cpu.reg(9), 40u * 9);        // $t1: the sum of 9s
    EXPECT_EQ(cpu.reg(14), 1u);            // $t6: the leaf ran once
    EXPECT_EQ(cpu.mem().ramCounters().writes, 40u);
    EXPECT_EQ(cpu.mem().ramCounters().reads, 40u);
}

TEST(Pete, LoopWorkloadStatsWithIcache)
{
    // The 68-byte program spans five 16-byte lines; each is filled
    // once (3 cycles) and every other fetch hits.  The fill of MFLO's
    // line hides under the multiply it waits for: that wait shrinks
    // from 3 cycles to 0 on the first pass, so the run is 12 cycles
    // longer, not 15.
    PeteConfig cfg;
    cfg.icacheEnabled = true;
    cfg.icache.sizeBytes = 1024;
    Pete cpu = runProgram(kLoopWorkload, cfg);
    const PeteStats &s = cpu.stats();
    EXPECT_EQ(s.icacheStalls, 5u * 3);
    EXPECT_EQ(s.multBusyStalls, 40u * 3 - 3);
    EXPECT_EQ(s.cycles, 491u + 5 * 3 - 3);
    EXPECT_EQ(s.instructions, 3u + 40 * 9 + 5);
    ASSERT_NE(cpu.icache(), nullptr);
    const ICacheStats &ic = cpu.icache()->stats();
    EXPECT_EQ(ic.accesses, s.instructions);
    EXPECT_EQ(ic.misses, 5u);
    EXPECT_EQ(ic.lineFills, 5u);
    EXPECT_EQ(ic.hits, s.instructions - 5);
    EXPECT_EQ(cpu.mem().romFetchCounters().wideReads, 5u);
}

namespace
{

// The multiply issues in the jump's delay slot, so the unit's busy
// countdown is live across the jump when MFLO interlocks on it.
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

TEST(Pete, MultCountdownCrossesBranch)
{
    // Per iteration: seven instructions, and MFLO waits latency - 1 =
    // 3 cycles for the multiply issued the cycle before (10 cycles).
    // The loop branch mispredicts twice.
    Pete cpu = runProgram(kMultCrossingWorkload);
    const PeteStats &s = cpu.stats();
    EXPECT_EQ(s.instructions, 3u + 30 * 7 + 1);
    EXPECT_EQ(s.cycles, 3u + 30 * 10 + 2 + 1);
    EXPECT_EQ(s.multBusyStalls, 30u * 3);
    EXPECT_EQ(s.multIssues, 30u);
    EXPECT_EQ(s.branches, 30u);
    EXPECT_EQ(s.branchMispredicts, 2u);
    EXPECT_EQ(s.jumpStalls, 0u); // J is PC-relative: no bubble
    EXPECT_EQ(cpu.reg(9), 7u * (30 * 31 / 2));
    EXPECT_EQ(cpu.lo(), 7u); // the last multiply: 7 * 1
}

TEST(Pete, SixCycleMultiplierCountdown)
{
    // A 6-cycle variant (karatsuba2) makes MFLO wait five cycles per
    // iteration instead of three: 60 more stall cycles, the same
    // instructions and the same arithmetic.
    PeteConfig cfg;
    cfg.multiplier = MultiplierVariant::Karatsuba2;
    ASSERT_EQ(cfg.latency(MultTimer::Mult), 6u);
    Pete six = runProgram(kMultCrossingWorkload, cfg);
    Pete four = runProgram(kMultCrossingWorkload);
    EXPECT_EQ(six.stats().multBusyStalls, 30u * 5);
    EXPECT_EQ(six.stats().cycles, four.stats().cycles + 30 * 2);
    EXPECT_EQ(six.stats().instructions, four.stats().instructions);
    EXPECT_EQ(six.lo(), four.lo());
    EXPECT_EQ(six.hi(), four.hi());
    EXPECT_EQ(six.reg(9), four.reg(9));
}

TEST(Pete, DataDependentBranchDirections)
{
    // The inner branch alternates taken/not-taken with the counter's
    // parity, so the 2-bit counter (weakly not-taken at reset) flips
    // between its two weak states and mispredicts all 40 times; the
    // loop branch mispredicts only its first and last pass.
    Pete cpu = runProgram(R"(
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
    const PeteStats &s = cpu.stats();
    EXPECT_EQ(s.branches, 80u);
    EXPECT_EQ(s.branchMispredicts, 40u + 2);
    // 20 even passes of 7 instructions, 20 odd passes of 8.
    EXPECT_EQ(s.instructions, 2u + 20 * 7 + 20 * 8 + 1);
    EXPECT_EQ(s.cycles, s.instructions + s.branchMispredicts);
    EXPECT_EQ(cpu.reg(9), 40u + 20 * 100);
}

TEST(Pete, JrCallLoop)
{
    // A call loop: JAL enters the leaf, JR returns through a register
    // target (one bubble each); seven instructions and eight cycles a
    // pass, plus the loop branch's two mispredicts.
    Pete cpu = runProgram(R"(
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
    const PeteStats &s = cpu.stats();
    EXPECT_EQ(s.instructions, 2u + 25 * 7 + 1);
    EXPECT_EQ(s.jumpStalls, 25u);
    EXPECT_EQ(s.branchMispredicts, 2u);
    EXPECT_EQ(s.cycles, 2u + 25 * 8 + 2 + 1);
    EXPECT_EQ(cpu.reg(9), 50u);
    EXPECT_EQ(cpu.reg(31), 16u); // $ra: the instruction after JAL's slot
}

TEST(Pete, StoreToTextFaultsMidLoop)
{
    // Pass 1 stores to RAM; pass 2's store lands on program text and
    // faults before changing any state.  The faulting store is counted
    // (it retired into the pipeline) and the pc stays on it.
    Program prog = assemble(R"(
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
    Pete cpu(prog);
    Result<uint64_t> r = cpu.runChecked();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::MemFault);
    EXPECT_EQ(cpu.pc(), 20u);
    EXPECT_EQ(cpu.stats().instructions, 5u + 6 + 1);
    EXPECT_EQ(cpu.stats().cycles, 5u + 6 + 1 + 1); // one mispredict
    EXPECT_EQ(cpu.reg(9), 1u);      // $t1
    EXPECT_EQ(cpu.reg(12), 0x10u);  // $t4: the text address
    EXPECT_EQ(cpu.reg(8), 3u);      // $t0
    EXPECT_EQ(cpu.mem().ramCounters().writes, 1u);
    EXPECT_EQ(cpu.mem().peek32(0x10), prog.words[4]); // text unchanged
}

TEST(Pete, MidLoopFaultLeavesExactState)
{
    // The store address descends 4 bytes a pass: 13 clean stores from
    // 0x10000030 down to the RAM base, then the 14th lands below it
    // (unmapped) and faults with the pass's earlier state intact.
    Pete cpu(assemble(R"(
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
    )"));
    Result<uint64_t> r = cpu.runChecked();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::MemFault);
    EXPECT_EQ(cpu.pc(), 16u);
    EXPECT_EQ(cpu.stats().instructions, 4u + 13 * 6 + 1);
    EXPECT_EQ(cpu.stats().branches, 13u);
    EXPECT_EQ(cpu.stats().branchMispredicts, 1u);
    EXPECT_EQ(cpu.stats().cycles, cpu.stats().instructions + 1);
    EXPECT_EQ(cpu.reg(9), 13u);           // $t1
    EXPECT_EQ(cpu.reg(12), 0x0ffffffcu);  // $t4
    EXPECT_EQ(cpu.reg(8), 64u - 13);      // $t0
    EXPECT_EQ(cpu.mem().ramCounters().writes, 13u);
    EXPECT_EQ(cpu.mem().peek32(0x10000030), 0u);
    EXPECT_EQ(cpu.mem().peek32(0x10000000), 12u);
}

TEST(Pete, TextStrikeTakesEffectOnNextFetch)
{
    // Pause the run mid-loop on the cycle budget, strike the loop body
    // and the post-loop text through the fault-injection backdoor, and
    // resume: both struck words take effect the next time they are
    // fetched.  The pause is exact: 499 passes end at cycle 1999 and
    // the 500th pass's first ADDIU reaches 2000.
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
    PeteConfig cfg;
    cfg.maxCycles = 2'000;
    Pete cpu(assemble(src), cfg);
    Result<uint64_t> paused = cpu.runChecked();
    ASSERT_FALSE(paused.ok());
    EXPECT_EQ(paused.code(), Errc::SimTimeout);
    EXPECT_EQ(cpu.stats().cycles, 2'000u);
    EXPECT_EQ(cpu.pc(), 12u);
    EXPECT_EQ(cpu.reg(9), 500u);
    // `addiu $t1, $t1, 1` (pc 8) becomes `..., 3`; `addiu $t6, $zero,
    // 1` (pc 24) becomes `..., 9`.
    cpu.mem().corrupt32(8, 0x2);
    cpu.mem().corrupt32(24, 0x8);
    cpu.setMaxCycles(500'000'000);
    EXPECT_TRUE(cpu.run());
    EXPECT_EQ(cpu.reg(9), 500u + 3 * 3500);
    EXPECT_EQ(cpu.reg(14), 9u);
    EXPECT_EQ(cpu.stats().instructions, 2u + 4000 * 4 + 2);
    EXPECT_EQ(cpu.stats().cycles, cpu.stats().instructions + 2);
}

TEST(Pete, StepHookTextStrikeTakesEffectAtOnce)
{
    // A hook strikes `addiu $t1, $t1, 1` into `..., 3` just before
    // step 14 fetches it (the fourth pass): passes 1-3 add 1, passes
    // 4-10 add 3.  Timing is unchanged by the strike.
    Pete cpu(assemble(R"(
        addiu $t0, $zero, 10
        addiu $t1, $zero, 0
    loop:
        addiu $t1, $t1, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )"));
    CorruptingHook hook(14, 8, 0x2);
    cpu.attachStepHook(&hook);
    EXPECT_TRUE(cpu.run());
    EXPECT_EQ(cpu.reg(9), 3u * 1 + 7 * 3);
    EXPECT_EQ(hook.steps(), cpu.stats().instructions);
    EXPECT_EQ(cpu.stats().instructions, 2u + 10 * 4 + 1);
    EXPECT_EQ(cpu.stats().cycles, cpu.stats().instructions + 2);
}

// ---------------------------------------------------------------------
// The ROM contract: 256 KB of address space, of which the program
// image fills only the bottom; everything above it reads as zeros.

namespace
{

/** The Errc a memory access throws, or Ok when it does not throw. */
template <typename F>
Errc
errcOf(F &&access)
{
    try {
        access();
    } catch (const UleccError &e) {
        return e.code();
    }
    return Errc::Ok;
}

} // namespace

TEST(Pete, RomAboveImageReadsZero)
{
    const uint32_t top = MemoryMap::romSize - 4;
    Program prog = assemble(R"(
        addiu $t1, $zero, 11
        addiu $t2, $zero, 22
        li    $t0, 0x100
        lw    $t1, 0($t0)       # above the image
        lui   $t0, 0x4
        lw    $t2, -4($t0)      # the last ROM word
        break
    )");
    const uint32_t imageEnd = 4 * static_cast<uint32_t>(prog.words.size());
    ASSERT_LT(imageEnd, 0x100u);
    Pete cpu(prog);
    EXPECT_EQ(cpu.mem().peek32(imageEnd), 0u);
    EXPECT_EQ(cpu.mem().peek32(0x100), 0u);
    EXPECT_EQ(cpu.mem().peek32(top), 0u);
    EXPECT_TRUE(cpu.run());
    EXPECT_EQ(cpu.reg(9), 0u);
    EXPECT_EQ(cpu.reg(10), 0u);
    EXPECT_EQ(cpu.mem().romDataCounters().reads, 2u);
}

TEST(Pete, RunsOffImageThroughZeroWords)
{
    // No break: past its last word the program executes zero words,
    // which are `sll $zero, $zero, 0` (nop), until the budget stops it.
    PeteConfig cfg;
    cfg.maxCycles = 100;
    Pete cpu(assemble("addiu $t0, $zero, 1\n"), cfg);
    Result<uint64_t> r = cpu.runChecked();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::SimTimeout);
    EXPECT_EQ(cpu.reg(8), 1u);
    EXPECT_EQ(cpu.stats().cycles, 100u);
    EXPECT_EQ(cpu.stats().instructions, 100u);
    EXPECT_EQ(cpu.pc(), 400u);
}

TEST(Pete, CorruptAboveImageIsSeenByPeekAndFetch)
{
    // Strike code into the zeros above the image and jump there, with
    // and without an I-cache in front of the ROM.
    const uint32_t addiu = assemble("addiu $t3, $zero, 7\n").words.at(0);
    const uint32_t brk = assemble("break\n").words.at(0);
    for (bool icache : {false, true}) {
        SCOPED_TRACE(icache ? "icache" : "no icache");
        PeteConfig cfg;
        cfg.icacheEnabled = icache;
        Pete cpu(assemble("li $t0, 0x1000\njr $t0\nnop\n"), cfg);
        cpu.mem().corrupt32(0x1000, addiu);
        cpu.mem().corrupt32(0x1004, brk);
        cpu.mem().corrupt32(MemoryMap::romSize - 4, 0x5a5a5a5au);
        EXPECT_EQ(cpu.mem().peek32(0x1000), addiu);
        EXPECT_EQ(cpu.mem().peek32(0x1004), brk);
        EXPECT_EQ(cpu.mem().peek32(MemoryMap::romSize - 4), 0x5a5a5a5au);
        EXPECT_TRUE(cpu.run());
        EXPECT_EQ(cpu.reg(11), 7u);
        EXPECT_EQ(cpu.pc(), 0x1008u);
    }
}

TEST(Pete, AccessAtRomSizeFaults)
{
    // romSize is the first address past the ROM: unmapped, whatever
    // the image size.
    Pete cpu(assemble("break\n"));
    MemorySystem &mem = cpu.mem();
    const uint32_t end = MemoryMap::romSize;
    EXPECT_EQ(errcOf([&] { mem.peek32(end - 4); }), Errc::Ok);
    EXPECT_EQ(errcOf([&] { mem.peek32(end); }), Errc::MemFault);
    EXPECT_EQ(errcOf([&] { mem.fetch(end); }), Errc::MemFault);
    EXPECT_EQ(errcOf([&] { mem.read8(end); }), Errc::MemFault);
    EXPECT_EQ(errcOf([&] { mem.corrupt32(end, 1); }), Errc::MemFault);

    Pete load(assemble("lui $t0, 0x4\nlw $t1, 0($t0)\nbreak\n"));
    Result<uint64_t> r = load.runChecked();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::MemFault);
}

TEST(Pete, RomImageSizeLimit)
{
    Program full;
    full.words.assign(MemoryMap::romSize / 4, 0);
    full.words.back() = 0xdeadbeefu;
    Pete cpu(full);
    EXPECT_EQ(cpu.mem().peek32(MemoryMap::romSize - 4), 0xdeadbeefu);

    Program over = full;
    over.words.push_back(0);
    EXPECT_EQ(errcOf([&] { Pete tooBig(over); }), Errc::MemFault);
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

TEST(Pete, EveryOpClassMatchesGolden)
{
    // One hot loop per op class, so every instruction's semantics and
    // timing are pinned (not only the few the kernel suites happen to
    // use), with and without an I-cache.  Each line holds the twelve
    // PeteStats counters and a digest of the architectural state.
    std::string actual;
    for (const OpCase &c : kOpCases) {
        for (bool icache : {false, true}) {
            SCOPED_TRACE(std::string(c.name)
                         + (icache ? " (icache)" : " (no icache)"));
            PeteConfig cfg;
            cfg.icacheEnabled = icache;
            cfg.icache.sizeBytes = 1024;
            Pete cpu = runProgram(opCaseProgram(c), cfg);
            EXPECT_EQ(cpu.reg(16), 0u); // the loop ran to completion
            char digest[32];
            std::snprintf(digest, sizeof digest, "%016llx",
                          (unsigned long long)stateDigest(cpu));
            actual += std::string(c.name) + (icache ? " icache " : " ")
                + statsLine(cpu.stats()) + " state=" + digest + "\n";
        }
    }
    expectMatchesGolden("pete_op_classes.txt", actual);
}
