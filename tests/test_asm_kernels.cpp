/**
 * @file
 * Cross-validation of the simulated assembly kernels against the
 * native multi-precision implementations, plus cycle-regime checks
 * against the paper's stated kernel costs.
 */

#include <gtest/gtest.h>

#include "asmkit/assembler.hh"
#include "mpint/binary_field.hh"
#include "mpint/prime_field.hh"
#include "workload/asm_kernels.hh"
#include "golden.hh"
#include "test_util.hh"

using namespace ulecc;
using ulecc::test::expectMatchesGolden;
using ulecc::test::Rng;
using ulecc::test::statsLine;

namespace
{

class KernelWidths : public ::testing::TestWithParam<int>
{
};

} // namespace

TEST_P(KernelWidths, MpAddMatchesNative)
{
    int k = GetParam();
    Rng rng(0xadd0 + k);
    for (int i = 0; i < 5; ++i) {
        MpUint a = rng.mp(32 * k);
        MpUint b = rng.mp(32 * k);
        KernelRun run = runKernel(AsmKernel::MpAdd, a, b, k);
        EXPECT_EQ(run.result, a.add(b)) << "k=" << k;
        // O(k) cycles.
        EXPECT_LT(run.cycles, 30u * k + 40u);
        EXPECT_GT(run.cycles, 8u * k);
    }
}

TEST_P(KernelWidths, MulOperandScanMatchesNative)
{
    int k = GetParam();
    Rng rng(0x30c0 + k);
    for (int i = 0; i < 3; ++i) {
        MpUint a = rng.mp(32 * k);
        MpUint b = rng.mp(32 * k);
        KernelRun run = runKernel(AsmKernel::MulOs, a, b, k);
        EXPECT_EQ(run.result, a.mulOperandScan(b)) << "k=" << k;
        EXPECT_EQ(run.multIssues, static_cast<uint64_t>(k) * k);
        // O(k^2) cycles, roughly 14-18 per inner MAC.
        EXPECT_LT(run.cycles, 20u * k * k + 30u * k + 50u);
        EXPECT_GT(run.cycles, 10u * k * k);
    }
}

TEST_P(KernelWidths, MulProductScanMadduMatchesNative)
{
    int k = GetParam();
    Rng rng(0x9999 + k);
    for (int i = 0; i < 3; ++i) {
        MpUint a = rng.mp(32 * k);
        MpUint b = rng.mp(32 * k);
        KernelRun run = runKernel(AsmKernel::MulPsMaddu, a, b, k);
        EXPECT_EQ(run.result, a.mulProductScan(b)) << "k=" << k;
        EXPECT_EQ(run.multIssues, static_cast<uint64_t>(k) * k);
        // The MADDU form must beat operand scanning.
        KernelRun os = runKernel(AsmKernel::MulOs, a, b, k);
        EXPECT_LT(run.cycles, os.cycles) << "k=" << k;
        // Fewer RAM writes: 2k + k vs k^2 + 2k (paper Section 4.2.1).
        EXPECT_LT(run.ramWrites, os.ramWrites);
    }
}

TEST_P(KernelWidths, MulGf2MatchesNative)
{
    int k = GetParam();
    Rng rng(0x6f2 + k);
    BinaryField f(nistBinaryPoly(NistBinary::B571)); // any poly: raw mul
    for (int i = 0; i < 3; ++i) {
        MpUint a = rng.mp(32 * k);
        MpUint b = rng.mp(32 * k);
        KernelRun run = runKernel(AsmKernel::MulGf2, a, b, k);
        EXPECT_EQ(run.result, f.polyMulClmul(a, b)) << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, KernelWidths,
                         ::testing::Values(2, 6, 8, 12, 17, 18),
                         ::testing::PrintToStringParamName());

TEST(AsmKernels, P192AnchorRegime)
{
    // Paper anchors: ISA-extended product-scanning P192 multiplication
    // = 374 cycles; our simulated kernel must land in the same regime
    // (the exact figure depends on compiler scheduling we don't model).
    Rng rng(0x192);
    MpUint a = rng.mp(192), b = rng.mp(192);
    KernelRun ps = runKernel(AsmKernel::MulPsMaddu, a, b, 6);
    RecordProperty("simulated_cycles", static_cast<int>(ps.cycles));
    EXPECT_GT(ps.cycles, 250u);
    EXPECT_LT(ps.cycles, 560u);
}

TEST(AsmKernels, RedP192MatchesNative)
{
    PrimeField f(NistPrime::P192);
    Rng rng(0x4ed);
    for (int i = 0; i < 20; ++i) {
        MpUint wide = rng.mp(1 + static_cast<int>(rng.below(384)));
        KernelRun run = runKernel(AsmKernel::RedP192, wide, MpUint(), 6);
        EXPECT_EQ(run.result, f.reduceGeneric(wide))
            << "wide=" << wide.toHex();
        // Paper anchor: ~97 cycles average; allow the same regime.
        EXPECT_LT(run.cycles, 320u);
        EXPECT_GT(run.cycles, 60u);
    }
    // Maximal input exercises the repeated-subtraction path.
    MpUint maxw = MpUint::powerOfTwo(384).sub(MpUint(1));
    KernelRun run = runKernel(AsmKernel::RedP192, maxw, MpUint(), 6);
    EXPECT_EQ(run.result, f.reduceGeneric(maxw));
}

TEST(AsmKernels, ICacheMakesKernelsHitAfterWarmup)
{
    Rng rng(0x1ca);
    MpUint a = rng.mp(192), b = rng.mp(192);
    ICacheConfig ic;
    ic.sizeBytes = 4096;
    KernelRun cached = runKernel(AsmKernel::MulOs, a, b, 6, &ic);
    KernelRun plain = runKernel(AsmKernel::MulOs, a, b, 6);
    EXPECT_EQ(cached.result, plain.result);
    // Tight loops: the cached run pays only a handful of fill slips.
    EXPECT_LT(cached.cycles, plain.cycles + 64);
    // ROM narrow fetches vanish with the cache on.
    EXPECT_EQ(cached.romFetches, 0u);
    EXPECT_GT(plain.romFetches, 400u);
}

TEST(AsmKernels, PeteStatsMatchGoldenAtK6)
{
    // Every counter of every kernel on the interpreter, pinned in
    // tests/golden/pete_asm_kernels_k6.txt.
    const std::pair<AsmKernel, const char *> kernels[] = {
        {AsmKernel::MpAdd, "mp_add"},
        {AsmKernel::MulOs, "mul_os"},
        {AsmKernel::MulPsMaddu, "mul_ps_maddu"},
        {AsmKernel::MulGf2, "mul_gf2"},
        {AsmKernel::RedP192, "red_p192"},
    };
    const int k = 6;
    MpUint a = MpUint::powerOfTwo(32 * k - 1).sub(MpUint(12345));
    MpUint b = MpUint::powerOfTwo(32 * k - 2).add(MpUint(99));
    std::string actual;
    for (const auto &[kernel, name] : kernels) {
        Pete cpu(assemble(kernelSource(kernel, k)));
        for (int i = 0; i < 2 * k; ++i)
            cpu.mem().poke32(0x10000400 + 4 * i, a.limb(i));
        for (int i = 0; i < k; ++i)
            cpu.mem().poke32(0x10000500 + 4 * i, b.limb(i));
        EXPECT_TRUE(cpu.run()) << name;
        actual += std::string(name) + " " + statsLine(cpu.stats()) + "\n";
    }
    expectMatchesGolden("pete_asm_kernels_k6.txt", actual);
}
