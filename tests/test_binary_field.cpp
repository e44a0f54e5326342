/**
 * @file
 * Unit and property tests for BinaryField GF(2^m) arithmetic.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/error.hh"
#include "mpint/binary_field.hh"
#include "test_util.hh"

using namespace ulecc;
using ulecc::test::Rng;

namespace
{

class BinaryFieldAll : public ::testing::TestWithParam<NistBinary>
{
};

} // namespace

TEST(BinaryField, Clmul32Basics)
{
    EXPECT_EQ(clmul32(0, 0xFFFFFFFF), 0u);
    EXPECT_EQ(clmul32(1, 0xDEADBEEF), 0xDEADBEEFull);
    EXPECT_EQ(clmul32(2, 0xDEADBEEF), 0xDEADBEEFull << 1);
    // (x+1)*(x+1) = x^2+1 (carry-less 3*3 = 5).
    EXPECT_EQ(clmul32(3, 3), 5u);
    // Highest bits: (x^31)*(x^31) = x^62.
    EXPECT_EQ(clmul32(0x80000000u, 0x80000000u), 1ull << 62);
    EXPECT_EQ(clmul32(0xFFFFFFFFu, 0x80000000u), 0xFFFFFFFFull << 31);
}

TEST(BinaryField, Clmul32BitByBitOracle)
{
    Rng rng(0xb17);
    for (int i = 0; i < 500; ++i) {
        uint32_t a = rng.next32(), b = rng.next32();
        uint64_t expect = 0;
        for (int bit = 0; bit < 32; ++bit) {
            if (b & (1u << bit))
                expect ^= static_cast<uint64_t>(a) << bit;
        }
        EXPECT_EQ(clmul32(a, b), expect) << a << " " << b;
    }
}

TEST(BinaryField, PaperWorkedExampleGF2_7)
{
    // Section 2.1.4 worked examples over GF(2^7), f = x^7 + x + 1.
    MpUint f;
    f.setBit(7);
    f.setBit(1);
    f.setBit(0);
    BinaryField gf(f);
    EXPECT_EQ(gf.degree(), 7);

    auto poly = [](std::initializer_list<int> exps) {
        MpUint p;
        for (int e : exps)
            p.setBit(e);
        return p;
    };
    // Addition: (x^6+x^4+x^3+1) + (x^5+x^4+x^2+1) = x^6+x^5+x^3+x^2.
    EXPECT_EQ(gf.add(poly({6, 4, 3, 0}), poly({5, 4, 2, 0})),
              poly({6, 5, 3, 2}));
    // Multiplication: (x^6+x^3+x)(x^6+x^2+1) mod f = x^3+x+1.
    EXPECT_EQ(gf.mul(poly({6, 3, 1}), poly({6, 2, 0})), poly({3, 1, 0}));
    // Squaring: (x^6+x^3+1)^2 mod f = x^5+1.
    EXPECT_EQ(gf.sqr(poly({6, 3, 0})), poly({5, 0}));
}

TEST_P(BinaryFieldAll, KindDetected)
{
    BinaryField f(GetParam());
    EXPECT_EQ(f.kind(), GetParam());
}

TEST_P(BinaryFieldAll, CombMatchesClmulScanning)
{
    BinaryField f(GetParam());
    Rng rng(0xc0b + static_cast<int>(GetParam()));
    for (int i = 0; i < 100; ++i) {
        MpUint a = rng.mp(1 + static_cast<int>(rng.below(f.degree())));
        MpUint b = rng.mp(1 + static_cast<int>(rng.below(f.degree())));
        EXPECT_EQ(f.polyMulComb(a, b), f.polyMulClmul(a, b))
            << "a=" << a.toHex() << " b=" << b.toHex();
        EXPECT_EQ(f.mul(a, b), f.mulClmul(a, b));
    }
}

TEST_P(BinaryFieldAll, CombMatchesClmulOnEdgeOperands)
{
    // All-ones, single-bit and top-degree operands: every comb window
    // and every row of the precomputed table, and the accumulator's
    // top word.
    BinaryField f(GetParam());
    const int m = f.degree();
    MpUint ones = MpUint::powerOfTwo(m).sub(MpUint(1));
    std::vector<MpUint> edges = {ones, MpUint(1), MpUint::powerOfTwo(m - 1),
                                 MpUint::powerOfTwo(m - 1).add(MpUint(1))};
    for (int bit : {1, 3, 4, 31, 32, 33, m - 4, m - 2})
        edges.push_back(MpUint::powerOfTwo(bit));
    for (const MpUint &a : edges) {
        for (const MpUint &b : edges) {
            EXPECT_EQ(f.polyMulComb(a, b), f.polyMulClmul(a, b))
                << "a=" << a.toHex() << " b=" << b.toHex();
            EXPECT_EQ(f.mul(a, b), f.mulClmul(a, b));
        }
    }
}

TEST(BinaryField, CombRowsCarryIntoExtraWord)
{
    // In every NIST field b*u stays inside the element's words; with
    // x^127 + x + 1 (4 words, one spare bit) the precomputed rows
    // spill into a fifth word.
    MpUint f;
    f.setBit(127);
    f.setBit(1);
    f.setBit(0);
    BinaryField gf(f);
    MpUint ones = MpUint::powerOfTwo(127).sub(MpUint(1));
    for (const MpUint &b : {ones, MpUint::powerOfTwo(126)}) {
        EXPECT_EQ(gf.polyMulComb(ones, b), gf.polyMulClmul(ones, b));
        EXPECT_EQ(gf.mul(b, ones), gf.mulClmul(b, ones));
    }
}

TEST(BinaryField, DegreeBeyondProductCapacityRejected)
{
    // Degree 640 (20 words) still fits a raw product; 641 does not.
    MpUint f = MpUint::powerOfTwo(640).add(MpUint(3));
    EXPECT_EQ(BinaryField(f).words(), 20);
    try {
        BinaryField too(MpUint::powerOfTwo(641).add(MpUint(3)));
        ADD_FAILURE() << "degree 641 accepted";
    } catch (const UleccError &e) {
        EXPECT_EQ(e.code(), Errc::InvalidInput);
    }
}

TEST_P(BinaryFieldAll, ReduceMatchesGeneric)
{
    BinaryField f(GetParam());
    Rng rng(0x4ed + static_cast<int>(GetParam()));
    for (int i = 0; i < 200; ++i) {
        MpUint wide = rng.mp(1 + static_cast<int>(
            rng.below(2 * f.degree() - 1)));
        EXPECT_EQ(f.reduce(wide), f.reduceGeneric(wide))
            << "wide=" << wide.toHex();
    }
    EXPECT_EQ(f.reduce(f.poly()).toHex(), "0");
}

TEST_P(BinaryFieldAll, SquareMatchesSelfMul)
{
    BinaryField f(GetParam());
    Rng rng(0x509 + static_cast<int>(GetParam()));
    for (int i = 0; i < 100; ++i) {
        MpUint a = rng.mp(1 + static_cast<int>(rng.below(f.degree())));
        EXPECT_EQ(f.sqr(a), f.mul(a, a)) << "a=" << a.toHex();
    }
}

TEST_P(BinaryFieldAll, FrobeniusLinearity)
{
    // (a + b)^2 == a^2 + b^2 in characteristic 2.
    BinaryField f(GetParam());
    Rng rng(0xf20 + static_cast<int>(GetParam()));
    for (int i = 0; i < 100; ++i) {
        MpUint a = rng.mp(1 + static_cast<int>(rng.below(f.degree())));
        MpUint b = rng.mp(1 + static_cast<int>(rng.below(f.degree())));
        EXPECT_EQ(f.sqr(f.add(a, b)), f.add(f.sqr(a), f.sqr(b)));
    }
}

TEST_P(BinaryFieldAll, Distributivity)
{
    BinaryField f(GetParam());
    Rng rng(0xd15 + static_cast<int>(GetParam()));
    for (int i = 0; i < 50; ++i) {
        MpUint a = rng.mp(f.degree());
        MpUint b = rng.mp(f.degree() / 2);
        MpUint c = rng.mp(f.degree() - 1);
        EXPECT_EQ(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
    }
}

TEST_P(BinaryFieldAll, InverseBothAlgorithms)
{
    BinaryField f(GetParam());
    Rng rng(0x144 + static_cast<int>(GetParam()));
    for (int i = 0; i < 10; ++i) {
        MpUint a = rng.mp(1 + static_cast<int>(rng.below(f.degree())));
        if (a.isZero())
            continue;
        MpUint ie = f.inv(a);
        EXPECT_EQ(f.mul(a, ie).toHex(), "1") << "a=" << a.toHex();
        EXPECT_EQ(f.invFermat(a), ie) << "a=" << a.toHex();
    }
}

TEST_P(BinaryFieldAll, ItohTsujiiMatchesEea)
{
    BinaryField f(GetParam());
    Rng rng(0x17 + static_cast<int>(GetParam()));
    for (int i = 0; i < 8; ++i) {
        MpUint a = rng.mp(1 + static_cast<int>(rng.below(f.degree())));
        if (a.isZero())
            continue;
        MpUint it = f.invItohTsujii(a);
        EXPECT_EQ(it, f.inv(a)) << "a=" << a.toHex();
        EXPECT_EQ(f.mul(a, it).toHex(), "1");
    }
    // The chain uses logarithmically many multiplications.
    int muls = BinaryField::itohTsujiiMulCount(f.degree());
    EXPECT_LT(muls, 16);
    EXPECT_GE(muls, 8);
}

TEST(BinaryField, ItohTsujiiMulCountFormula)
{
    // m-1 = 162 = 0b10100010: floor(log2) = 7, popcount = 3 -> 9.
    EXPECT_EQ(BinaryField::itohTsujiiMulCount(163), 9);
    // m-1 = 570 = 0b1000111010: floor(log2) = 9, popcount = 5 -> 13.
    EXPECT_EQ(BinaryField::itohTsujiiMulCount(571), 13);
}

TEST_P(BinaryFieldAll, TraceAndHalfTrace)
{
    BinaryField f(GetParam());
    Rng rng(0x7ace + static_cast<int>(GetParam()));
    int zeros = 0, ones = 0;
    for (int i = 0; i < 12; ++i) {
        MpUint a = rng.mp(1 + static_cast<int>(rng.below(f.degree())));
        int tr = f.trace(a);
        EXPECT_TRUE(tr == 0 || tr == 1);
        (tr ? ones : zeros)++;
        if (tr == 0) {
            // Half-trace solves z^2 + z = a.
            MpUint z = f.halfTrace(a);
            EXPECT_EQ(f.add(f.sqr(z), z), f.reduce(a))
                << "a=" << a.toHex();
        }
        // Trace is linear: Tr(a + b) = Tr(a) + Tr(b).
        MpUint b = rng.mp(f.degree() - 1);
        EXPECT_EQ(f.trace(f.add(a, b)), f.trace(a) ^ f.trace(b));
    }
    // Both trace values occur (probability of this failing ~2^-12).
    EXPECT_GT(zeros + ones, 0);
}

TEST_P(BinaryFieldAll, AddIsInvolution)
{
    BinaryField f(GetParam());
    Rng rng(0xabc + static_cast<int>(GetParam()));
    MpUint a = rng.mp(f.degree());
    MpUint b = rng.mp(f.degree());
    EXPECT_EQ(f.add(f.add(a, b), b), a);
    EXPECT_TRUE(f.add(a, a).isZero());
    EXPECT_EQ(f.sub(a, b), f.add(a, b));
}

INSTANTIATE_TEST_SUITE_P(AllNistBinary, BinaryFieldAll,
    ::testing::Values(NistBinary::B163, NistBinary::B233, NistBinary::B283,
                      NistBinary::B409, NistBinary::B571),
    [](const ::testing::TestParamInfo<NistBinary> &info) {
        switch (info.param) {
          case NistBinary::B163: return "B163";
          case NistBinary::B233: return "B233";
          case NistBinary::B283: return "B283";
          case NistBinary::B409: return "B409";
          case NistBinary::B571: return "B571";
          default: return "Generic";
        }
    });

TEST_P(BinaryFieldAll, NonInvertibleIsInvalidInput)
{
    // Zero and nonzero multiples of f(x) reduce to zero: like
    // PrimeField::inv(p), every inversion rejects them as bad input.
    BinaryField f(GetParam());
    const MpUint x = MpUint::powerOfTwo(3);
    for (const MpUint &a :
         {MpUint(), f.poly(), f.polyMulClmul(f.poly(), x)}) {
        for (int how = 0; how < 3; ++how) {
            try {
                how == 0   ? f.inv(a)
                : how == 1 ? f.invFermat(a)
                           : f.invItohTsujii(a);
                ADD_FAILURE() << "inverted " << a.toHex() << " " << how;
            } catch (const UleccError &e) {
                EXPECT_EQ(e.code(), Errc::InvalidInput) << a.toHex();
            }
        }
    }
    // An unreduced input inverts as its residue.
    MpUint one = MpUint(1);
    EXPECT_EQ(f.inv(f.poly().bitXor(one)), one);
    EXPECT_EQ(f.inv(f.poly().bitXor(x)), f.inv(x));
}

TEST(BinaryField, ToyFieldExhaustiveInverse)
{
    // GF(2^13), f = x^13 + x^4 + x^3 + x + 1 (a known irreducible).
    MpUint f;
    for (int e : {13, 4, 3, 1, 0})
        f.setBit(e);
    BinaryField gf(f);
    for (uint32_t v = 1; v < (1u << 13); v += 7) {
        MpUint a(v);
        MpUint ia = gf.inv(a);
        EXPECT_EQ(gf.mul(a, ia).toHex(), "1") << v;
    }
}

TEST(BinaryField, WordKernelSplitPoints)
{
    // mul/sqr/reduce work on 64-bit words and fold in place; check them
    // against the 32-bit CLMUL product and long division where the
    // word layout changes shape: m = 0 (mod 64), m just below and above
    // a word, top 64-bit words only half used (odd 32-bit word counts:
    // B-283, B-409), and reductions whose fold refills the word being
    // folded (m - a < 64).
    const std::vector<std::vector<int>> polys = {
        {128, 7, 2, 1, 0}, {64, 4, 3, 1, 0}, {63, 1, 0}, {65, 18, 0},
        {7, 1, 0},         {13, 4, 3, 1, 0}, {283, 12, 7, 5, 0},
        {409, 87, 0},      {640, 1, 0},
    };
    Rng rng(0x64b);
    for (const auto &exps : polys) {
        MpUint f;
        for (int e : exps)
            f.setBit(e);
        BinaryField gf(f);
        const int m = gf.degree();
        SCOPED_TRACE("m=" + std::to_string(m));
        const MpUint ones = MpUint::powerOfTwo(m).sub(MpUint(1));
        std::vector<MpUint> ops = {ones, MpUint::powerOfTwo(m - 1),
                                   MpUint::powerOfTwo(m - 1).add(MpUint(1)),
                                   MpUint(1), MpUint()};
        for (int i = 0; i < 6; ++i)
            ops.push_back(rng.mp(m));
        for (const MpUint &a : ops) {
            const MpUint sq = gf.polyMulClmul(a, a);
            EXPECT_EQ(gf.polySqr(a), sq) << "a=" << a.toHex();
            EXPECT_EQ(gf.sqr(a), gf.reduceGeneric(sq)) << "a=" << a.toHex();
            for (const MpUint &b : ops) {
                const MpUint p = gf.polyMulClmul(a, b);
                EXPECT_EQ(gf.polyMulComb(a, b), p)
                    << "a=" << a.toHex() << " b=" << b.toHex();
                EXPECT_EQ(gf.mul(a, b), gf.reduceGeneric(p))
                    << "a=" << a.toHex() << " b=" << b.toHex();
            }
        }
        // reduce() on all-ones and random inputs of every width up to
        // the full MpUint, past the 2m - 1 bits of a product.
        for (int bits = 1; bits < 32 * MpUint::maxLimbs;
             bits += (bits < 2 * m + 64 ? 1 : 61)) {
            for (const MpUint &w : {MpUint::powerOfTwo(bits).sub(MpUint(1)),
                                    rng.mp(bits)}) {
                EXPECT_EQ(gf.reduce(w), gf.reduceGeneric(w))
                    << "w=" << w.toHex();
            }
        }
        MpUint full;
        for (int i = 0; i < MpUint::maxLimbs; ++i)
            full.setLimb(i, 0xFFFFFFFFu);
        EXPECT_EQ(gf.reduce(full), gf.reduceGeneric(full));
    }
}
