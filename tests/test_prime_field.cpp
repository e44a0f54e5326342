/**
 * @file
 * Unit and property tests for PrimeField: word-level NIST reduction,
 * Montgomery (CIOS and FIPS) multiplication, inversion, square roots.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/error.hh"
#include "mpint/prime_field.hh"
#include "test_util.hh"

using namespace ulecc;
using ulecc::test::Rng;

namespace
{

class PrimeFieldAll : public ::testing::TestWithParam<NistPrime>
{
};

} // namespace

TEST(PrimeField, NistPrimeValues)
{
    // Spot check against the published hex forms.
    EXPECT_EQ(nistPrimeValue(NistPrime::P192).toHex(),
              "fffffffffffffffffffffffffffffffeffffffffffffffff");
    EXPECT_EQ(nistPrimeValue(NistPrime::P224).toHex(),
              "ffffffffffffffffffffffffffffffff000000000000000000000001");
    EXPECT_EQ(nistPrimeValue(NistPrime::P256).toHex(),
              "ffffffff00000001000000000000000000000000ffffffffffffffff"
              "ffffffff");
    EXPECT_EQ(nistPrimeValue(NistPrime::P521).bitLength(), 521);
    EXPECT_EQ(nistPrimeValue(NistPrime::P384).bitLength(), 384);
}

namespace
{

/**
 * The carry-bound inputs of the word-level reductions: (p-1)^2 (the
 * largest product mul() can form), 2^(2*bits) - 1, all-ones high half
 * over a zero low half, and the reverse.
 */
std::vector<MpUint>
carryBoundCases(const PrimeField &f)
{
    MpUint pm1 = f.modulus().sub(MpUint(1));
    MpUint half = MpUint::powerOfTwo(f.bits()).sub(MpUint(1));
    return {pm1.mul(pm1),
            MpUint::powerOfTwo(2 * f.bits()).sub(MpUint(1)),
            half.shiftLeft(f.bits()), half};
}

} // namespace

TEST_P(PrimeFieldAll, KindDetected)
{
    PrimeField f(GetParam());
    EXPECT_EQ(f.kind(), GetParam());
}

TEST_P(PrimeFieldAll, SolinasMatchesGeneric)
{
    PrimeField f(GetParam());
    Rng rng(0x5151 + static_cast<int>(GetParam()));
    for (int i = 0; i < 200; ++i) {
        // Random double-width values, including near-maximal ones.
        MpUint wide = rng.mp(1 + static_cast<int>(
            rng.below(2 * f.bits())));
        EXPECT_EQ(f.reduce(wide), f.reduceGeneric(wide))
            << "wide=" << wide.toHex();
    }
    // Extremes and carry bounds.
    for (const MpUint &wide : carryBoundCases(f))
        EXPECT_EQ(f.reduce(wide), f.reduceGeneric(wide))
            << "wide=" << wide.toHex();
    EXPECT_EQ(f.reduce(f.modulus()).toHex(), "0");
    EXPECT_EQ(f.reduce(MpUint(0)).toHex(), "0");
    MpUint pm1 = f.modulus().sub(MpUint(1));
    EXPECT_EQ(f.reduce(pm1), pm1);
    EXPECT_EQ(f.mul(pm1, pm1).toHex(), "1");
}

TEST_P(PrimeFieldAll, ReduceRejectsOverWideInput)
{
    PrimeField f(GetParam());
    for (const MpUint &wide :
         {MpUint::powerOfTwo(2 * f.bits()),
          MpUint::powerOfTwo(2 * f.bits() + 40).sub(MpUint(1))}) {
        try {
            f.reduce(wide);
            ADD_FAILURE() << "accepted wide=" << wide.toHex();
        } catch (const UleccError &e) {
            EXPECT_EQ(e.code(), Errc::InvalidInput);
        }
    }
}

TEST_P(PrimeFieldAll, AddSubNegLaws)
{
    PrimeField f(GetParam());
    Rng rng(0xadd + static_cast<int>(GetParam()));
    for (int i = 0; i < 100; ++i) {
        MpUint a = rng.mpBelow(f.modulus());
        MpUint b = rng.mpBelow(f.modulus());
        EXPECT_EQ(f.add(a, b), f.add(b, a));
        EXPECT_EQ(f.sub(f.add(a, b), b), a);
        EXPECT_EQ(f.add(a, f.neg(a)).toHex(), "0");
    }
}

TEST_P(PrimeFieldAll, MulMatchesOracle)
{
    PrimeField f(GetParam());
    Rng rng(0x30c0 + static_cast<int>(GetParam()));
    for (int i = 0; i < 100; ++i) {
        MpUint a = rng.mpBelow(f.modulus());
        MpUint b = rng.mpBelow(f.modulus());
        MpUint expect = a.mul(b).mod(f.modulus());
        EXPECT_EQ(f.mul(a, b), expect);
        EXPECT_EQ(f.mulProductScan(a, b), expect);
        EXPECT_EQ(f.sqr(a), a.mul(a).mod(f.modulus()));
    }
}

TEST_P(PrimeFieldAll, MontgomeryCiosMatchesPlain)
{
    PrimeField f(GetParam());
    Rng rng(0xc105 + static_cast<int>(GetParam()));
    for (int i = 0; i < 100; ++i) {
        MpUint a = rng.mpBelow(f.modulus());
        MpUint b = rng.mpBelow(f.modulus());
        MpUint am = f.toMont(a), bm = f.toMont(b);
        MpUint rm = f.montMulCios(am, bm);
        EXPECT_EQ(f.fromMont(rm), f.mul(a, b));
    }
    // Round trip.
    MpUint x = rng.mpBelow(f.modulus());
    EXPECT_EQ(f.fromMont(f.toMont(x)), x);
}

TEST_P(PrimeFieldAll, MontgomeryFipsMatchesCios)
{
    PrimeField f(GetParam());
    Rng rng(0xf1b5 + static_cast<int>(GetParam()));
    for (int i = 0; i < 100; ++i) {
        MpUint a = rng.mpBelow(f.modulus());
        MpUint b = rng.mpBelow(f.modulus());
        EXPECT_EQ(f.montMulFips(a, b), f.montMulCios(a, b))
            << "a=" << a.toHex() << " b=" << b.toHex();
    }
}

TEST_P(PrimeFieldAll, N0PrimeIdentity)
{
    PrimeField f(GetParam());
    // n0' * p[0] == -1 (mod 2^32)
    uint32_t prod = f.n0Prime() * f.modulus().limb(0);
    EXPECT_EQ(prod, 0xFFFFFFFFu);
}

TEST_P(PrimeFieldAll, InverseBothAlgorithms)
{
    PrimeField f(GetParam());
    Rng rng(0x111 + static_cast<int>(GetParam()));
    for (int i = 0; i < 20; ++i) {
        MpUint a = rng.mpBelow(f.modulus());
        if (a.isZero())
            continue;
        MpUint ie = f.inv(a);
        MpUint iferm = f.invFermat(a);
        EXPECT_EQ(ie, iferm) << "a=" << a.toHex();
        EXPECT_EQ(f.mul(a, ie).toHex(), "1");
    }
}

TEST_P(PrimeFieldAll, PowBasics)
{
    PrimeField f(GetParam());
    Rng rng(0x909 + static_cast<int>(GetParam()));
    MpUint a = rng.mpBelow(f.modulus());
    EXPECT_EQ(f.pow(a, MpUint(0)).toHex(), "1");
    EXPECT_EQ(f.pow(a, MpUint(1)), a);
    EXPECT_EQ(f.pow(a, MpUint(2)), f.sqr(a));
    EXPECT_EQ(f.pow(a, MpUint(3)), f.mul(f.sqr(a), a));
    // Fermat: a^(p-1) == 1.
    EXPECT_EQ(f.pow(a, f.modulus().sub(MpUint(1))).toHex(), "1");
}

TEST_P(PrimeFieldAll, SqrtOfSquares)
{
    PrimeField f(GetParam());
    Rng rng(0x5047 + static_cast<int>(GetParam()));
    for (int i = 0; i < 10; ++i) {
        MpUint a = rng.mpBelow(f.modulus());
        MpUint sq = f.sqr(a);
        MpUint root;
        ASSERT_TRUE(f.sqrt(sq, root)) << "a=" << a.toHex();
        EXPECT_EQ(f.sqr(root), sq);
    }
}

INSTANTIATE_TEST_SUITE_P(AllNistPrimes, PrimeFieldAll,
    ::testing::Values(NistPrime::P192, NistPrime::P224, NistPrime::P256,
                      NistPrime::P384, NistPrime::P521),
    [](const ::testing::TestParamInfo<NistPrime> &info) {
        switch (info.param) {
          case NistPrime::P192: return "P192";
          case NistPrime::P224: return "P224";
          case NistPrime::P256: return "P256";
          case NistPrime::P384: return "P384";
          case NistPrime::P521: return "P521";
          default: return "Generic";
        }
    });

TEST(PrimeField, P192LiteralReductionMatches)
{
    // reduce() on P-192 is paper Algorithm 4 (T = s1 + s2 + s3 + s4)
    // summed as 32-bit word columns.
    PrimeField f(NistPrime::P192);
    Rng rng(0x192);
    for (int i = 0; i < 200; ++i) {
        MpUint wide = rng.mp(1 + static_cast<int>(rng.below(384)));
        EXPECT_EQ(f.reduce(wide), f.reduceGeneric(wide))
            << "wide=" << wide.toHex();
    }
}

TEST(PrimeField, GenericPrimeFallback)
{
    // A non-NIST prime exercises the generic reduction path.
    PrimeField f(MpUint::fromHex("ffffffffffffffc5")); // 2^64 - 59
    EXPECT_EQ(f.kind(), NistPrime::Generic);
    Rng rng(0x9e9e);
    for (int i = 0; i < 50; ++i) {
        MpUint a = rng.mpBelow(f.modulus());
        MpUint b = rng.mpBelow(f.modulus());
        EXPECT_EQ(f.mul(a, b), a.mul(b).mod(f.modulus()));
        MpUint am = f.toMont(a), bm = f.toMont(b);
        EXPECT_EQ(f.fromMont(f.montMulCios(am, bm)), f.mul(a, b));
    }
    // The reduce() contract holds for the division path too.
    EXPECT_THROW(f.reduce(MpUint::powerOfTwo(128)), UleccError);
    EXPECT_EQ(f.reduce(MpUint::powerOfTwo(128).sub(MpUint(1))),
              MpUint::powerOfTwo(128).sub(MpUint(1)).mod(f.modulus()));
}

TEST(PrimeField, SmallPrimeExhaustive)
{
    // Tiny prime: exhaustively verify the full multiplication table.
    PrimeField f(MpUint(251));
    for (uint32_t a = 0; a < 251; ++a) {
        for (uint32_t b = a; b < 251; b += 17) {
            EXPECT_EQ(f.mul(MpUint(a), MpUint(b)).limb(0), (a * b) % 251);
        }
    }
    for (uint32_t a = 1; a < 251; ++a) {
        MpUint ia = f.inv(MpUint(a));
        EXPECT_EQ(f.mul(MpUint(a), ia).limb(0), 1u);
    }
}
