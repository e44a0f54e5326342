/**
 * @file
 * ECDH key-agreement tests.
 */

#include <gtest/gtest.h>

#include "ec/toy_curves.hh"
#include "ecdsa/ecdh.hh"
#include "test_util.hh"

using namespace ulecc;
using ulecc::test::Rng;

namespace
{

class EcdhCurves : public ::testing::TestWithParam<CurveId>
{
};

} // namespace

TEST_P(EcdhCurves, BothSidesDeriveTheSameKey)
{
    const Curve &c = standardCurve(GetParam());
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    Ecdh ecdh(c);
    Rng rng(0xd1f + static_cast<int>(GetParam()));
    MpUint da = rng.mpBelow(c.order());
    MpUint db = rng.mpBelow(c.order());
    if (da.isZero())
        da = MpUint(2);
    if (db.isZero())
        db = MpUint(3);
    AffinePoint qa = ecdh.publicPoint(da);
    AffinePoint qb = ecdh.publicPoint(db);

    Result<EcdhShared> sa = ecdh.agreeChecked(da, qb);
    Result<EcdhShared> sb = ecdh.agreeChecked(db, qa);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    EXPECT_EQ(sa.value().sharedX, sb.value().sharedX);
    EXPECT_EQ(sa.value().sessionKey, sb.value().sessionKey);
}

TEST_P(EcdhCurves, InvalidPeersRejected)
{
    const Curve &c = standardCurve(GetParam());
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    Ecdh ecdh(c);
    MpUint d(0x1235);
    // Infinity rejected.
    EXPECT_EQ(ecdh.agreeChecked(d, AffinePoint::makeInfinity()).code(),
              Errc::InvalidInput);
    // Off-curve point rejected (invalid-curve attack).
    AffinePoint bogus = c.generator();
    bogus.x = bogus.x.bitXor(MpUint(1));
    EXPECT_FALSE(ecdh.validatePeer(bogus));
    EXPECT_EQ(ecdh.agreeChecked(d, bogus).code(), Errc::InvalidInput);
    // Out-of-range private scalar rejected.
    EXPECT_EQ(ecdh.agreeChecked(c.order(), c.generator()).code(),
              Errc::InvalidInput);
    EXPECT_EQ(ecdh.agreeChecked(MpUint(0), c.generator()).code(),
              Errc::InvalidInput);
}

INSTANTIATE_TEST_SUITE_P(All, EcdhCurves,
    ::testing::Values(CurveId::P192, CurveId::P256, CurveId::P384,
                      CurveId::B163, CurveId::B283),
    [](const ::testing::TestParamInfo<CurveId> &info) {
        std::string n = curveIdName(info.param);
        n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
        return n;
    });

TEST(Ecdh, ToyCurveRoundTrip)
{
    auto toy = makeToyPrimeCurve();
    Ecdh ecdh(*toy);
    Rng rng(0x70e);
    for (int i = 0; i < 20; ++i) {
        MpUint da = rng.mpBelow(toy->order());
        MpUint db = rng.mpBelow(toy->order());
        if (da.isZero() || db.isZero())
            continue;
        Result<EcdhShared> sa = ecdh.agreeChecked(da, ecdh.publicPoint(db));
        Result<EcdhShared> sb = ecdh.agreeChecked(db, ecdh.publicPoint(da));
        ASSERT_EQ(sa.ok(), sb.ok());
        if (sa.ok()) {
            EXPECT_EQ(sa.value().sharedX, sb.value().sharedX);
        }
    }
}
