/**
 * @file
 * Unit and property tests for MpUint.
 */

#include <gtest/gtest.h>

#include "base/error.hh"
#include "mpint/mpuint.hh"
#include "test_util.hh"

using namespace ulecc;
using ulecc::test::Rng;

TEST(MpUint, ZeroDefault)
{
    MpUint z;
    EXPECT_TRUE(z.isZero());
    EXPECT_EQ(z.size(), 0);
    EXPECT_EQ(z.toHex(), "0");
    EXPECT_EQ(z.bitLength(), 0);
}

TEST(MpUint, FromUint64)
{
    EXPECT_EQ(MpUint(0x123456789ABCDEFull).toHex(), "123456789abcdef");
    EXPECT_EQ(MpUint(1).toHex(), "1");
    EXPECT_EQ(MpUint(0xFFFFFFFFull).size(), 1);
    EXPECT_EQ(MpUint(0x100000000ull).size(), 2);
}

TEST(MpUint, HexRoundTrip)
{
    const char *cases[] = {
        "1", "deadbeef", "ffffffffffffffff",
        "123456789abcdef0123456789abcdef0123456789abcdef",
        "8000000000000000000000000000000000000000000000000000000000001",
    };
    for (const char *c : cases)
        EXPECT_EQ(MpUint::fromHex(c).toHex(), c);
    EXPECT_EQ(MpUint::fromHex("0xDEAD_BEEF").toHex(), "deadbeef");
    EXPECT_EQ(MpUint::fromHex("00001").toHex(), "1");
}

TEST(MpUint, PowerOfTwo)
{
    EXPECT_EQ(MpUint::powerOfTwo(0).toHex(), "1");
    EXPECT_EQ(MpUint::powerOfTwo(33).toHex(), "200000000");
    EXPECT_EQ(MpUint::powerOfTwo(192).bitLength(), 193);
}

TEST(MpUint, CompareOrdering)
{
    MpUint a = MpUint::fromHex("ffffffff");
    MpUint b = MpUint::fromHex("100000000");
    EXPECT_LT(a.compare(b), 0);
    EXPECT_GT(b.compare(a), 0);
    EXPECT_EQ(a.compare(a), 0);
    EXPECT_TRUE(a < b);
    EXPECT_TRUE(b > a);
    EXPECT_TRUE(a <= a && a >= a);
}

TEST(MpUint, AddCarryChain)
{
    MpUint a = MpUint::fromHex("ffffffffffffffffffffffff");
    MpUint r = a.add(MpUint(1));
    EXPECT_EQ(r.toHex(), "1000000000000000000000000");
}

TEST(MpUint, SubBorrowChain)
{
    MpUint a = MpUint::fromHex("1000000000000000000000000");
    MpUint r = a.sub(MpUint(1));
    EXPECT_EQ(r.toHex(), "ffffffffffffffffffffffff");
}

TEST(MpUint, AddSubInverse)
{
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
        MpUint a = rng.mp(1 + static_cast<int>(rng.below(500)));
        MpUint b = rng.mp(1 + static_cast<int>(rng.below(500)));
        MpUint s = a.add(b);
        EXPECT_EQ(s.sub(b), a);
        EXPECT_EQ(s.sub(a), b);
    }
}

TEST(MpUint, ShiftRoundTrip)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        MpUint a = rng.mp(1 + static_cast<int>(rng.below(400)));
        int sh = static_cast<int>(rng.below(200));
        EXPECT_EQ(a.shiftLeft(sh).shiftRight(sh), a);
    }
}

TEST(MpUint, ShiftLeftSmall)
{
    EXPECT_EQ(MpUint(1).shiftLeft(4).toHex(), "10");
    EXPECT_EQ(MpUint::fromHex("ffffffff").shiftLeft(1).toHex(),
              "1fffffffe");
    EXPECT_EQ(MpUint::fromHex("12345678").shiftRight(8).toHex(), "123456");
}

TEST(MpUint, BitsExtraction)
{
    MpUint a = MpUint::fromHex("fedcba9876543210");
    EXPECT_EQ(a.bits(0, 4), 0x0u);
    EXPECT_EQ(a.bits(4, 4), 0x1u);
    EXPECT_EQ(a.bits(28, 8), 0x87u);
    EXPECT_EQ(a.bits(32, 32), 0xfedcba98u);
}

TEST(MpUint, MulKnownValues)
{
    MpUint a = MpUint::fromHex("ffffffffffffffff");
    MpUint b = MpUint::fromHex("ffffffffffffffff");
    EXPECT_EQ(a.mulOperandScan(b).toHex(),
              "fffffffffffffffe0000000000000001");
    EXPECT_EQ(MpUint(0).mulOperandScan(a).toHex(), "0");
    EXPECT_EQ(a.mulOperandScan(MpUint(1)), a);
}

TEST(MpUint, OperandVsProductScan)
{
    Rng rng(11);
    for (int i = 0; i < 300; ++i) {
        MpUint a = rng.mp(1 + static_cast<int>(rng.below(600)));
        MpUint b = rng.mp(1 + static_cast<int>(rng.below(600)));
        EXPECT_EQ(a.mulOperandScan(b), a.mulProductScan(b))
            << "a=" << a.toHex() << " b=" << b.toHex();
    }
}

TEST(MpUint, SquareMatchesMul)
{
    Rng rng(13);
    for (int i = 0; i < 300; ++i) {
        MpUint a = rng.mp(1 + static_cast<int>(rng.below(600)));
        EXPECT_EQ(a.sqr(), a.mulOperandScan(a)) << "a=" << a.toHex();
    }
}

TEST(MpUint, MulCommutativeAssociative)
{
    Rng rng(19);
    for (int i = 0; i < 50; ++i) {
        MpUint a = rng.mp(100), b = rng.mp(150), c = rng.mp(120);
        EXPECT_EQ(a.mul(b), b.mul(a));
        EXPECT_EQ(a.mul(b).mul(c), a.mul(b.mul(c)));
    }
}

TEST(MpUint, DivmodKnown)
{
    MpUint a = MpUint::fromHex("deadbeefcafebabe");
    MpUint d = MpUint::fromHex("12345");
    auto r = a.divmod(d);
    // Verify a == q*d + r, r < d.
    EXPECT_EQ(r.quotient.mul(d).add(r.remainder), a);
    EXPECT_LT(r.remainder.compare(d), 0);
}

TEST(MpUint, DivmodProperty)
{
    Rng rng(23);
    for (int i = 0; i < 200; ++i) {
        MpUint a = rng.mp(1 + static_cast<int>(rng.below(700)));
        MpUint d = rng.mp(1 + static_cast<int>(rng.below(400)));
        auto r = a.divmod(d);
        EXPECT_EQ(r.quotient.mul(d).add(r.remainder), a);
        EXPECT_LT(r.remainder.compare(d), 0);
    }
}

TEST(MpUint, DivmodEdgeCases)
{
    MpUint a = MpUint::fromHex("1000");
    EXPECT_EQ(a.divmod(a).quotient.toHex(), "1");
    EXPECT_TRUE(a.divmod(a).remainder.isZero());
    EXPECT_TRUE(MpUint(5).divmod(a).quotient.isZero());
    EXPECT_EQ(MpUint(5).divmod(a).remainder.toHex(), "5");
    EXPECT_EQ(a.divmod(MpUint(1)).quotient, a);
}

TEST(MpUint, ModInverseOdd)
{
    Rng rng(31);
    MpUint m = MpUint::fromHex("fffffffffffffffffffffffffffffffeffffffff"
                               "ffffffff");
    for (int i = 0; i < 50; ++i) {
        MpUint a = rng.mpBelow(m);
        if (a.isZero())
            continue;
        MpUint ai = a.modInverseOdd(m);
        EXPECT_EQ(a.mul(ai).mod(m).toHex(), "1")
            << "a=" << a.toHex();
    }
}

TEST(MpUint, ModInverseSmall)
{
    // 3 * 5 = 15 == 1 (mod 7)
    EXPECT_EQ(MpUint(3).modInverseOdd(MpUint(7)).toHex(), "5");
    EXPECT_EQ(MpUint(1).modInverseOdd(MpUint(7)).toHex(), "1");
}

TEST(MpUint, XorAndProperties)
{
    Rng rng(37);
    for (int i = 0; i < 100; ++i) {
        MpUint a = rng.mp(200), b = rng.mp(150);
        EXPECT_EQ(a.bitXor(b).bitXor(b), a);
        EXPECT_TRUE(a.bitXor(a).isZero());
    }
}

TEST(MpUint, ShiftLeftBitExactCapacity)
{
    // Regression: the capacity guard used to count limbs, rejecting
    // in-range shifts of wide values.  A 1248-bit value shifted by 32
    // lands exactly on the 1280-bit capacity and must succeed.
    std::string f1248(312, 'f');
    MpUint wide = MpUint::fromHex(f1248);
    MpUint shifted = wide.shiftLeft(32);
    EXPECT_EQ(shifted.bitLength(), MpUint::maxLimbs * 32);
    EXPECT_EQ(shifted.toHex(), f1248 + "00000000");
    EXPECT_EQ(shifted.shiftRight(32), wide);

    // ff << 1272 has bitLength 1280: the last shift that fits.
    EXPECT_EQ(MpUint::fromHex("ff").shiftLeft(1272).bitLength(), 1280);
    EXPECT_THROW(MpUint::fromHex("ff").shiftLeft(1273), UleccError);

    // Zero stays zero under any shift distance.
    EXPECT_TRUE(MpUint().shiftLeft(100000).isZero());

    MpUint full = MpUint::fromHex(std::string(320, 'f'));
    EXPECT_EQ(full.shiftLeft(0), full);
    EXPECT_THROW(full.shiftLeft(1), UleccError);
}

TEST(MpUint, MulBitExactCapacity)
{
    // Regression: mul used to reject any operand pair whose *limb*
    // counts summed past capacity, even when the product fits.  A
    // 260 x 988 bit product is 1248 bits but spans 9 + 31 + 1 limbs.
    MpUint a = MpUint::powerOfTwo(259);
    MpUint b = MpUint::powerOfTwo(987);
    EXPECT_EQ(a.mulOperandScan(b), MpUint::powerOfTwo(1246));
    EXPECT_EQ(a.mulProductScan(b), MpUint::powerOfTwo(1246));

    // Bit-width sum of capacity + 1 resolves via the top carry word:
    // 2^640 * 2^639 = 2^1279 fits...
    MpUint fits = MpUint::powerOfTwo(640).mulOperandScan(
        MpUint::powerOfTwo(639));
    EXPECT_EQ(fits, MpUint::powerOfTwo(1279));
    EXPECT_EQ(MpUint::powerOfTwo(640).mulProductScan(
                  MpUint::powerOfTwo(639)),
              fits);
    // ...while (2^641-1)(2^640-1) with the same width sum does not.
    MpUint c = MpUint::powerOfTwo(641).sub(MpUint(1));
    MpUint d = MpUint::powerOfTwo(640).sub(MpUint(1));
    EXPECT_THROW(c.mulOperandScan(d), UleccError);
    EXPECT_THROW(c.mulProductScan(d), UleccError);

    // Far-overflowing products are rejected by the width precheck.
    MpUint half = MpUint::powerOfTwo(800);
    EXPECT_THROW(half.mulOperandScan(half), UleccError);
    EXPECT_THROW(half.mulProductScan(half), UleccError);

    // A full-capacity operand is legal while the top carry stays
    // clear (multiplying a 1280-bit value by 1 must not throw).
    MpUint full = MpUint::fromHex(std::string(320, 'f'));
    EXPECT_EQ(full.mulOperandScan(MpUint(1)), full);
    EXPECT_TRUE(full.mulOperandScan(MpUint()).isZero());
    EXPECT_THROW(full.mulOperandScan(MpUint(2)), UleccError);
}

TEST(MpUint, WideDividendNarrowDivisor)
{
    // The shape that used to trip the limb-counted shiftLeft inside
    // divmod's normalisation: full-width dividend, tiny divisor.
    MpUint full = MpUint::fromHex(std::string(320, 'f')); // 2^1280 - 1
    EXPECT_TRUE(full.mod(MpUint(3)).isZero()); // 3 | 2^1280 - 1
    MpUint::DivResult qr = full.divmod(MpUint(0xb));
    EXPECT_TRUE(qr.remainder < MpUint(0xb));
    EXPECT_EQ(qr.quotient.mulOperandScan(MpUint(0xb)).add(qr.remainder), full);
    EXPECT_EQ(full.shiftRight(64).bitLength(), 1216);
}
