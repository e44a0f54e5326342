/**
 * @file
 * Karatsuba multiply-accumulate unit tests: the three-half-product
 * datapath must be functionally identical to full multiplication in
 * every mode (the Section 7.8 validation, at the unit level).
 */

#include <gtest/gtest.h>

#include "mpint/binary_field.hh"
#include "sim/cpu.hh"
#include "sim/karatsuba_unit.hh"
#include "sim/multiplier.hh"
#include "test_util.hh"

using namespace ulecc;
using ulecc::test::Rng;

TEST(Karatsuba, UnsignedMultiplyMatchesFullProduct)
{
    KaratsubaUnit unit;
    Rng rng(0xca7a);
    for (int i = 0; i < 3000; ++i) {
        uint32_t a = rng.next32(), b = rng.next32();
        KaratsubaTrace t = unit.execute(KaratsubaOp::Multu, a, b);
        uint64_t expect = static_cast<uint64_t>(a) * b;
        ASSERT_EQ(unit.lo(), static_cast<uint32_t>(expect)) << a << b;
        ASSERT_EQ(unit.hi(), static_cast<uint32_t>(expect >> 32));
        EXPECT_EQ(t.cycles, 4);
        EXPECT_EQ(t.halfMultiplies, 3); // the whole point of Karatsuba
        EXPECT_EQ(t.clmulBlocks, 0);
    }
}

TEST(Karatsuba, UnsignedEdgeCases)
{
    KaratsubaUnit unit;
    const uint32_t cases[] = {0, 1, 2, 0xFFFF, 0x10000, 0xFFFFFFFF,
                              0x80000000, 0x7FFFFFFF, 0x0001FFFF};
    for (uint32_t a : cases) {
        for (uint32_t b : cases) {
            unit.execute(KaratsubaOp::Multu, a, b);
            uint64_t expect = static_cast<uint64_t>(a) * b;
            ASSERT_EQ(unit.lo(), static_cast<uint32_t>(expect))
                << a << " * " << b;
            ASSERT_EQ(unit.hi(), static_cast<uint32_t>(expect >> 32));
        }
    }
}

TEST(Karatsuba, SignedMultiplyMatches)
{
    KaratsubaUnit unit;
    Rng rng(0x5163ed);
    for (int i = 0; i < 2000; ++i) {
        int32_t a = static_cast<int32_t>(rng.next32());
        int32_t b = static_cast<int32_t>(rng.next32());
        unit.execute(KaratsubaOp::Mult, static_cast<uint32_t>(a),
                     static_cast<uint32_t>(b));
        int64_t expect = static_cast<int64_t>(a) * b;
        ASSERT_EQ(unit.lo(), static_cast<uint32_t>(expect)) << a << b;
        ASSERT_EQ(unit.hi(),
                  static_cast<uint32_t>(static_cast<uint64_t>(expect)
                                        >> 32));
    }
    // INT_MIN corner.
    unit.execute(KaratsubaOp::Mult, 0x80000000u, 0x80000000u);
    EXPECT_EQ(unit.hi(), 0x40000000u);
    EXPECT_EQ(unit.lo(), 0u);
}

TEST(Karatsuba, AccumulateTracksOvflo)
{
    KaratsubaUnit unit;
    unit.set(0, 0, 0);
    // Accumulate 5 maximal products: acc = 5 * (2^32-1)^2.
    for (int i = 0; i < 5; ++i)
        unit.execute(KaratsubaOp::Maddu, 0xFFFFFFFFu, 0xFFFFFFFFu);
    unsigned __int128 expect =
        static_cast<unsigned __int128>(0xFFFFFFFFull * 0xFFFFFFFFull)
        * 5;
    EXPECT_EQ(unit.lo(), static_cast<uint32_t>(expect));
    EXPECT_EQ(unit.hi(), static_cast<uint32_t>(expect >> 32));
    EXPECT_EQ(unit.ovflo(), static_cast<uint32_t>(expect >> 64));
}

TEST(Karatsuba, M2adduDoubles)
{
    KaratsubaUnit a, b;
    a.set(5, 6, 0);
    b.set(5, 6, 0);
    a.execute(KaratsubaOp::M2addu, 0x12345678u, 0x9ABCDEF0u);
    b.execute(KaratsubaOp::Maddu, 0x12345678u, 0x9ABCDEF0u);
    b.execute(KaratsubaOp::Maddu, 0x12345678u, 0x9ABCDEF0u);
    EXPECT_EQ(a.lo(), b.lo());
    EXPECT_EQ(a.hi(), b.hi());
    EXPECT_EQ(a.ovflo(), b.ovflo());
}

TEST(Karatsuba, CarrylessMatchesClmul)
{
    // The GF(2) Karatsuba identity: three 16x16 carry-less blocks
    // reproduce the full 32x32 carry-less product.
    KaratsubaUnit unit;
    Rng rng(0x6f2ca7);
    for (int i = 0; i < 3000; ++i) {
        uint32_t a = rng.next32(), b = rng.next32();
        KaratsubaTrace t = unit.execute(KaratsubaOp::Mulgf2, a, b);
        uint64_t expect = clmul32(a, b);
        ASSERT_EQ(unit.lo(), static_cast<uint32_t>(expect)) << a << b;
        ASSERT_EQ(unit.hi(), static_cast<uint32_t>(expect >> 32));
        EXPECT_EQ(unit.ovflo(), 0u);
        EXPECT_EQ(t.clmulBlocks, 3);
        EXPECT_EQ(t.halfMultiplies, 0); // the multiplexed block design
    }
}

TEST(Karatsuba, CarrylessAccumulateXors)
{
    KaratsubaUnit unit;
    unit.set(0xAAAAAAAA, 0x55555555, 0);
    unit.execute(KaratsubaOp::Maddgf2, 0xDEADBEEFu, 0xCAFEBABEu);
    uint64_t p = clmul32(0xDEADBEEFu, 0xCAFEBABEu);
    EXPECT_EQ(unit.lo(), 0x55555555u ^ static_cast<uint32_t>(p));
    EXPECT_EQ(unit.hi(), 0xAAAAAAAAu ^ static_cast<uint32_t>(p >> 32));
    // XOR accumulation is an involution.
    unit.execute(KaratsubaOp::Maddgf2, 0xDEADBEEFu, 0xCAFEBABEu);
    EXPECT_EQ(unit.lo(), 0x55555555u);
    EXPECT_EQ(unit.hi(), 0xAAAAAAAAu);
}

TEST(MultiplierFamily, ScheduleMatchesDescriptor)
{
    // KaratsubaTrace.cycles and the block activity are the default
    // descriptor's, per op class -- no duplicated "4"s anywhere.
    const MultiplierDesc &d = kKaratsubaDesc;
    KaratsubaUnit unit;
    KaratsubaTrace t = unit.execute(KaratsubaOp::Multu, 0x1234u, 0x5678u);
    EXPECT_EQ(t.cycles, static_cast<int>(d.multLatency));
    EXPECT_EQ(t.halfMultiplies, d.halfMultiplies);
    EXPECT_EQ(t.clmulBlocks, 0);

    t = unit.execute(KaratsubaOp::Maddu, 0x1234u, 0x5678u);
    EXPECT_EQ(t.cycles, static_cast<int>(d.macLatency));

    t = unit.execute(KaratsubaOp::Mulgf2, 0x1234u, 0x5678u);
    EXPECT_EQ(t.cycles, static_cast<int>(d.gf2Latency));
    EXPECT_EQ(t.clmulBlocks, d.clmulBlocks);
    EXPECT_EQ(t.halfMultiplies, 0);
}

TEST(Karatsuba, RandomOpStreamMatches128BitOracle)
{
    // The datapath computes the architectural Hi/Lo/OvFlo of every op:
    // random op streams against a 128-bit software oracle.
    Rng rng(0xd351);
    const unsigned __int128 kOvflo =
        ((unsigned __int128)1 << 96) - ((unsigned __int128)1 << 64);
    KaratsubaUnit unit;
    unsigned __int128 acc = 0;
    for (int i = 0; i < 20000; ++i) {
        uint32_t a = rng.next32(), b = rng.next32();
        KaratsubaOp op;
        switch (rng.next32() % 6) {
        case 0: op = KaratsubaOp::Mult; break;
        case 1: op = KaratsubaOp::Multu; break;
        case 2: op = KaratsubaOp::Maddu; break;
        case 3: op = KaratsubaOp::M2addu; break;
        case 4: op = KaratsubaOp::Mulgf2; break;
        default: op = KaratsubaOp::Maddgf2; break;
        }
        unit.execute(op, a, b);

        // Software oracle for the accumulator: OvFlo is a 32-bit
        // register above Hi:Lo that MULT/MULTU leave alone.
        switch (op) {
        case KaratsubaOp::Mult:
            acc = (acc & kOvflo)
                  | static_cast<uint64_t>(
                      static_cast<int64_t>(static_cast<int32_t>(a))
                      * static_cast<int32_t>(b));
            break;
        case KaratsubaOp::Multu:
            acc = (acc & kOvflo) | static_cast<uint64_t>(a) * b;
            break;
        case KaratsubaOp::Maddu:
            acc = (acc & (((unsigned __int128)1 << 96) - 1))
                  + static_cast<unsigned __int128>(a) * b;
            break;
        case KaratsubaOp::M2addu:
            // The paper's single 65-bit add of 2*rs*rt.
            acc = (acc & (((unsigned __int128)1 << 96) - 1))
                  + 2 * static_cast<unsigned __int128>(a) * b;
            break;
        case KaratsubaOp::Mulgf2:
            acc = clmul32(a, b);
            break;
        case KaratsubaOp::Maddgf2:
            acc = (acc & kOvflo)
                  | (static_cast<uint64_t>(acc) ^ clmul32(a, b));
            break;
        }
        ASSERT_EQ(unit.lo(), static_cast<uint32_t>(acc)) << "op " << i;
        ASSERT_EQ(unit.hi(), static_cast<uint32_t>(acc >> 32))
            << "op " << i;
        ASSERT_EQ(unit.ovflo(), static_cast<uint32_t>(acc >> 64))
            << "op " << i;
    }
}

TEST(MultiplierFamily, M2adduCarryMatches65BitAdd)
{
    // Satellite 2: M2ADDU is ONE 65-bit add of 2*rs*rt (the paper's
    // datapath), not two chained 64-bit adds -- the carry into OvFlo
    // must match the 128-bit reference exactly, including the case
    // where bit 63 of the product becomes the doubled carry.
    Rng rng(0x65b17add);
    for (int i = 0; i < 20000; ++i) {
        uint32_t hi = rng.next32(), lo = rng.next32();
        uint32_t ov = rng.next32() & 0xFF;
        uint32_t a = rng.next32() | 0x80000000u; // force large products
        uint32_t b = rng.next32() | 0x80000000u;
        KaratsubaUnit unit;
        unit.set(hi, lo, ov);
        unit.execute(KaratsubaOp::M2addu, a, b);
        unsigned __int128 ref =
            ((static_cast<unsigned __int128>(ov) << 64)
             | (static_cast<uint64_t>(hi) << 32) | lo)
            + 2 * static_cast<unsigned __int128>(a) * b;
        ASSERT_EQ(unit.lo(), static_cast<uint32_t>(ref));
        ASSERT_EQ(unit.hi(), static_cast<uint32_t>(ref >> 32));
        ASSERT_EQ(unit.ovflo(), static_cast<uint32_t>(ref >> 64));
    }
    // Pinned corner: product with bit 63 set, so doubling itself
    // carries out even before the accumulate.
    KaratsubaUnit unit;
    unit.set(0, 0, 0);
    unit.execute(KaratsubaOp::M2addu, 0xFFFFFFFFu, 0xFFFFFFFFu);
    unsigned __int128 ref = 2 * static_cast<unsigned __int128>(
                                    0xFFFFFFFFull * 0xFFFFFFFFull);
    EXPECT_EQ(unit.lo(), static_cast<uint32_t>(ref));
    EXPECT_EQ(unit.hi(), static_cast<uint32_t>(ref >> 32));
    EXPECT_EQ(unit.ovflo(), static_cast<uint32_t>(ref >> 64)); // == 1
}

TEST(MultiplierFamily, PeteConfigDefaultsComeFromDescriptor)
{
    // The single-source contract: a default PeteConfig is the karatsuba
    // design point, and each variant's PeteConfig::latency() is its
    // descriptor's schedule.
    PeteConfig cfg;
    EXPECT_EQ(cfg.multiplier, MultiplierVariant::Karatsuba);
    for (int i = 0; i < kMultiplierVariantCount; ++i) {
        MultiplierVariant v = static_cast<MultiplierVariant>(i);
        const MultiplierDesc &d = multiplierDesc(v);
        PeteConfig c;
        c.multiplier = v;
        EXPECT_EQ(c.latency(MultTimer::Mult), d.multLatency) << d.name;
        EXPECT_EQ(c.latency(MultTimer::Mac), d.macLatency) << d.name;
        EXPECT_EQ(c.latency(MultTimer::Gf2), d.gf2Latency) << d.name;
        EXPECT_EQ(c.latency(MultTimer::Addau), 2u) << d.name;
        EXPECT_EQ(c.latency(MultTimer::Div), 34u) << d.name;
        EXPECT_EQ(c.latency(MultTimer::None), 0u) << d.name;
        MultiplierVariant parsed;
        EXPECT_TRUE(parseMultiplierVariant(d.name, parsed)) << d.name;
        EXPECT_EQ(parsed, v) << d.name;
    }
    MultiplierVariant parsed;
    EXPECT_FALSE(parseMultiplierVariant("wallace-tree", parsed));
}

TEST(Karatsuba, MiddleTermStaysWithin17Bits)
{
    // The signed middle product must fit the 17x17 block: extremes.
    KaratsubaUnit unit;
    KaratsubaTrace t =
        unit.execute(KaratsubaOp::Multu, 0xFFFF0000u, 0x0000FFFFu);
    // (AH-AL) = 0xFFFF, (BL-BH) = 0xFFFF -> product fits in 33 bits.
    EXPECT_LE(t.subProducts[2], (1ll << 32));
    EXPECT_GE(t.subProducts[2], -(1ll << 32));
    uint64_t expect = 0xFFFF0000ull * 0x0000FFFFull;
    EXPECT_EQ(unit.lo(), static_cast<uint32_t>(expect));
    EXPECT_EQ(unit.hi(), static_cast<uint32_t>(expect >> 32));
}
