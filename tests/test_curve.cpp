/**
 * @file
 * Elliptic-curve group-law and scalar-multiplication tests, over both
 * the standard curves (self-verified parameters) and toy curves whose
 * orders are computed exhaustively in-tree.
 */

#include <gtest/gtest.h>

#include "ec/curve.hh"
#include "ec/scalar_mult.hh"
#include "ec/toy_curves.hh"
#include "test_util.hh"
#include "workload/op_trace.hh"

using namespace ulecc;
using ulecc::test::Rng;

namespace
{

class StandardCurves : public ::testing::TestWithParam<CurveId>
{
  protected:
    const Curve &curve() { return standardCurve(GetParam()); }
};

bool
samePoint(const AffinePoint &a, const AffinePoint &b)
{
    if (a.infinity || b.infinity)
        return a.infinity == b.infinity;
    return a.x == b.x && a.y == b.y;
}

/**
 * Finds a genuine point on y^2 + xy = x^3 + ax^2 + b via half-trace:
 * the search that chose the synthetic stand-in curves' generators.
 */
AffinePoint
findBinaryPoint(const BinaryField &f, const MpUint &a, const MpUint &b)
{
    for (uint32_t xv = 2; xv < 4096; ++xv) {
        MpUint x(xv);
        // Substitute y = x z:  z^2 + z = x + a + b / x^2.
        MpUint rhs = f.add(f.add(x, a), f.mul(b, f.inv(f.sqr(x))));
        if (f.trace(rhs) != 0)
            continue;
        MpUint z = f.halfTrace(rhs);
        MpUint y = f.mul(x, z);
        return {x, y};
    }
    ADD_FAILURE() << "findBinaryPoint: none found";
    return AffinePoint();
}

} // namespace

TEST(CurveRegistry, AllRealCurvesVerified)
{
    // Every non-synthetic embedded parameter set must pass the
    // n * G == infinity self-check, and exactly those: the ECDSA/ECDH
    // suites skip on synthetic() and rely on the two agreeing.
    std::vector<CurveId> ids = primeCurveIds();
    ids.insert(ids.end(), binaryCurveIds().begin(), binaryCurveIds().end());
    for (CurveId id : ids) {
        const Curve &c = standardCurve(id);
        EXPECT_TRUE(c.onCurve(c.generator())) << c.name();
        EXPECT_EQ(c.orderVerified(), !c.synthetic()) << c.name();
    }
}

TEST(CurveRegistry, SyntheticGeneratorsArePinned)
{
    // B-409s and B-571s embed the point the half-trace search returns
    // for y^2 + xy = x^3 + x^2 + 1, so no process re-derives it.
    for (CurveId id : {CurveId::B409, CurveId::B571}) {
        const auto &c = dynamic_cast<const BinaryCurve &>(standardCurve(id));
        ASSERT_TRUE(c.synthetic()) << c.name();
        ASSERT_EQ(c.a(), MpUint(1));
        ASSERT_EQ(c.b(), MpUint(1));
        AffinePoint found = findBinaryPoint(c.field(), c.a(), c.b());
        EXPECT_TRUE(samePoint(found, c.generator())) << c.name();
        EXPECT_TRUE(c.onCurve(found)) << c.name();
    }
}

TEST(CurveRegistry, ConstructionRunsNoFieldArithmetic)
{
    // Building a curve only stores its parameters; the order check
    // runs when orderVerified() is called, and only then.
    const auto &p521 =
        dynamic_cast<const PrimeCurve &>(standardCurve(CurveId::P521));
    const auto &b283 =
        dynamic_cast<const BinaryCurve &>(standardCurve(CurveId::B283));
    OpRecorder rec;
    OpObserverScope scope(&rec);
    PrimeCurve p("P-521", p521.field().kind(), p521.a(), p521.b(),
                 p521.generator(), p521.order());
    PrimeCurve pGeneric("P-521", p521.field().modulus(), p521.a(),
                        p521.b(), p521.generator(), p521.order());
    BinaryCurve b("B-283", b283.field().kind(), b283.a(), b283.b(),
                  b283.generator(), b283.order());
    BinaryCurve bGeneric("B-283", b283.field().poly(), b283.a(), b283.b(),
                         b283.generator(), b283.order());
    EXPECT_EQ(rec.counts.total(), 0u);
    EXPECT_TRUE(p.orderVerified());
    EXPECT_TRUE(b.orderVerified());
    EXPECT_GT(rec.counts.total(), 0u);
}

TEST(CurveRegistry, OrderCheckRejectsBadParameters)
{
    for (CurveId id : {CurveId::P192, CurveId::B163}) {
        const Curve &c = standardCurve(id);
        const AffinePoint &g = c.generator();
        AffinePoint offCurve = g;
        offCurve.x = offCurve.x.bitXor(MpUint(1));
        ASSERT_FALSE(c.onCurve(offCurve)) << c.name();

        auto rebuilt = [&](const AffinePoint &gen, const MpUint &n)
            -> std::unique_ptr<Curve> {
            if (const auto *pc = dynamic_cast<const PrimeCurve *>(&c))
                return std::make_unique<PrimeCurve>(
                    c.name(), pc->field().kind(), pc->a(), pc->b(), gen, n);
            const auto &bc = dynamic_cast<const BinaryCurve &>(c);
            return std::make_unique<BinaryCurve>(
                c.name(), bc.field().kind(), bc.a(), bc.b(), gen, n);
        };
        EXPECT_TRUE(rebuilt(g, c.order())->orderVerified()) << c.name();
        EXPECT_FALSE(rebuilt(g, c.order().add(MpUint(1)))->orderVerified())
            << c.name();
        EXPECT_FALSE(rebuilt(g, MpUint(0))->orderVerified()) << c.name();
        EXPECT_FALSE(rebuilt(offCurve, c.order())->orderVerified())
            << c.name();
    }
}

TEST(CurveRegistry, NamesAndBits)
{
    EXPECT_EQ(curveIdName(CurveId::P192), "P-192");
    EXPECT_EQ(curveIdBits(CurveId::P192), 192);
    EXPECT_EQ(curveIdBits(CurveId::B571), 571);
    EXPECT_EQ(primeCurveIds().size(), 5u);
    EXPECT_EQ(binaryCurveIds().size(), 5u);
}

TEST(CurveRegistry, BinaryPredicateMatchesConstructedCurve)
{
    // curveIdIsBinary exists so capability checks can skip curve
    // construction; it must never drift from the real field type.
    for (CurveId id : primeCurveIds()) {
        EXPECT_FALSE(curveIdIsBinary(id)) << curveIdName(id);
        EXPECT_FALSE(standardCurve(id).isBinary()) << curveIdName(id);
    }
    for (CurveId id : binaryCurveIds()) {
        EXPECT_TRUE(curveIdIsBinary(id)) << curveIdName(id);
        EXPECT_TRUE(standardCurve(id).isBinary()) << curveIdName(id);
    }
}

TEST_P(StandardCurves, GroupLawsAffine)
{
    const Curve &c = curve();
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    const AffinePoint &g = c.generator();
    AffinePoint g2 = c.doubleAffine(g);
    AffinePoint g3 = c.addAffine(g2, g);
    EXPECT_TRUE(c.onCurve(g2));
    EXPECT_TRUE(c.onCurve(g3));
    // Commutativity.
    EXPECT_TRUE(samePoint(c.addAffine(g, g2), c.addAffine(g2, g)));
    // Identity.
    EXPECT_TRUE(samePoint(c.addAffine(g, AffinePoint::makeInfinity()), g));
    // Inverse.
    EXPECT_TRUE(c.addAffine(g, c.negate(g)).infinity);
    // Associativity: (G + 2G) + 3G == G + (2G + 3G).
    EXPECT_TRUE(samePoint(c.addAffine(c.addAffine(g, g2), g3),
                          c.addAffine(g, c.addAffine(g2, g3))));
    // double(P) == P + P.
    EXPECT_TRUE(samePoint(c.doubleAffine(g2), c.addAffine(g2, g2)));
}

TEST_P(StandardCurves, ProjectiveMatchesAffine)
{
    const Curve &c = curve();
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    const AffinePoint &g = c.generator();
    // Chain of mixed operations, checked against affine oracle.
    const AffineElem ge = c.toElem(g);
    ProjPoint acc = c.toProj(ge);
    AffinePoint oracle = g;
    for (int i = 0; i < 10; ++i) {
        acc = c.doubleProj(acc);
        oracle = c.doubleAffine(oracle);
        ASSERT_TRUE(samePoint(c.toAffine(acc), oracle)) << i;
        acc = c.addMixed(acc, ge);
        oracle = c.addAffine(oracle, g);
        ASSERT_TRUE(samePoint(c.toAffine(acc), oracle)) << i;
    }
}

TEST_P(StandardCurves, ProjectiveDegenerateCases)
{
    const Curve &c = curve();
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    const AffinePoint &g = c.generator();
    // P + (-P) == infinity through the mixed path.
    const AffineElem ge = c.toElem(g);
    ProjPoint gp = c.toProj(ge);
    EXPECT_TRUE(c.addMixed(gp, c.negate(ge)).isInfinity());
    // P + P through the mixed path must detect doubling.
    AffinePoint d1 = c.toAffine(c.addMixed(gp, ge));
    AffinePoint d2 = c.doubleAffine(g);
    EXPECT_TRUE(samePoint(d1, d2));
    // Infinity + Q == Q.
    ProjPoint inf = c.toProj(AffineElem());
    EXPECT_TRUE(inf.isInfinity());
    EXPECT_TRUE(samePoint(c.toAffine(c.addMixed(inf, ge)), g));
    // double(infinity) == infinity.
    EXPECT_TRUE(c.doubleProj(inf).isInfinity());
}

TEST_P(StandardCurves, SlidingWindowMatchesNaive)
{
    const Curve &c = curve();
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    Rng rng(0x5ca1a + static_cast<int>(GetParam()));
    const AffinePoint &g = c.generator();
    for (uint64_t k : {1ull, 2ull, 3ull, 5ull, 16ull, 255ull, 65537ull}) {
        EXPECT_TRUE(samePoint(scalarMul(c, MpUint(k), g),
                              naiveScalarMul(c, MpUint(k), g)))
            << c.name() << " k=" << k;
    }
    // One large random scalar (naive oracle is slow; keep it single).
    MpUint k = rng.mpBelow(c.order());
    EXPECT_TRUE(samePoint(scalarMul(c, k, g), naiveScalarMul(c, k, g)))
        << c.name() << " k=" << k.toHex();
    // Order annihilates the generator.
    EXPECT_TRUE(scalarMul(c, c.order(), g).infinity) << c.name();
}

TEST_P(StandardCurves, TwinMulMatchesSeparate)
{
    const Curve &c = curve();
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    Rng rng(0x2f1a + static_cast<int>(GetParam()));
    const AffinePoint &g = c.generator();
    AffinePoint q = scalarMul(c, MpUint(7), g);
    for (int i = 0; i < 3; ++i) {
        MpUint u1 = rng.mpBelow(c.order());
        MpUint u2 = rng.mpBelow(c.order());
        AffinePoint expect = c.addAffine(scalarMul(c, u1, g),
                                         scalarMul(c, u2, q));
        EXPECT_TRUE(samePoint(twinScalarMul(c, u1, g, u2, q), expect))
            << c.name();
    }
    // Degenerate scalars.
    EXPECT_TRUE(samePoint(twinScalarMul(c, MpUint(0), g, MpUint(1), q),
                          q));
    EXPECT_TRUE(samePoint(twinScalarMul(c, MpUint(1), g, MpUint(0), q),
                          g));
    EXPECT_TRUE(twinScalarMul(c, MpUint(0), g, MpUint(0), q).infinity);
}

INSTANTIATE_TEST_SUITE_P(All, StandardCurves,
    ::testing::Values(CurveId::P192, CurveId::P224, CurveId::P256,
                      CurveId::P384, CurveId::P521, CurveId::B163,
                      CurveId::B233, CurveId::B283),
    [](const ::testing::TestParamInfo<CurveId> &info) {
        std::string n = curveIdName(info.param);
        n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
        return n;
    });

TEST(BinaryLadder, MatchesSlidingWindow)
{
    for (CurveId id : {CurveId::B163, CurveId::B233, CurveId::B283}) {
        const auto &c = dynamic_cast<const BinaryCurve &>(
            standardCurve(id));
        Rng rng(0x1ad + static_cast<int>(id));
        const AffinePoint &g = c.generator();
        for (uint64_t k : {1ull, 2ull, 3ull, 7ull, 1000ull}) {
            AffinePoint a = scalarMulLadder(c, MpUint(k), g);
            AffinePoint b = scalarMul(c, MpUint(k), g);
            ASSERT_FALSE(a.infinity != b.infinity) << c.name() << k;
            if (!a.infinity) {
                EXPECT_EQ(a.x, b.x) << c.name() << " k=" << k;
                EXPECT_EQ(a.y, b.y) << c.name() << " k=" << k;
            }
        }
        MpUint k = rng.mpBelow(c.order());
        AffinePoint a = scalarMulLadder(c, k, g);
        AffinePoint b = scalarMul(c, k, g);
        EXPECT_EQ(a.x, b.x) << c.name();
        EXPECT_EQ(a.y, b.y) << c.name();
    }
}

TEST(Recoding, NafReconstructs)
{
    Rng rng(0xaf);
    for (int i = 0; i < 100; ++i) {
        MpUint k = rng.mp(1 + static_cast<int>(rng.below(300)));
        auto digits = recodeNaf(k);
        // Accumulate against an offset: partial sums may dip negative.
        MpUint offset = MpUint::powerOfTwo(400);
        MpUint acc = offset;
        MpUint pow(1);
        for (int d : digits) {
            if (d > 0)
                acc = acc.add(pow);
            else if (d < 0)
                acc = acc.sub(pow);
            pow = pow.shiftLeft(1);
        }
        EXPECT_EQ(acc.sub(offset), k);
        // Non-adjacency property.
        for (size_t j = 0; j + 1 < digits.size(); ++j)
            EXPECT_FALSE(digits[j] != 0 && digits[j + 1] != 0);
    }
}

TEST(Recoding, Signed135Reconstructs)
{
    Rng rng(0x135);
    for (int i = 0; i < 200; ++i) {
        MpUint k = rng.mp(1 + static_cast<int>(rng.below(300)));
        auto digits = recodeSigned135(k);
        // Reconstruct with signed accumulation over a wide offset.
        MpUint offset = MpUint::powerOfTwo(400);
        MpUint acc = offset;
        MpUint pow(1);
        for (int d : digits) {
            EXPECT_TRUE(d == 0 || d == 1 || d == -1 || d == 3 || d == -3
                        || d == 5 || d == -5)
                << d;
            for (int rep = 0; rep < (d > 0 ? d : -d); ++rep)
                acc = (d > 0) ? acc.add(pow) : acc.sub(pow);
            pow = pow.shiftLeft(1);
        }
        EXPECT_EQ(acc.sub(offset), k);
    }
}

TEST(ToyCurves, PrimeToyEndToEnd)
{
    auto curve = makeToyPrimeCurve();
    ASSERT_TRUE(curve->orderVerified());
    const AffinePoint &g = curve->generator();
    EXPECT_TRUE(curve->onCurve(g));
    // Exhaustive check over the whole subgroup: k*G cycles with period n.
    uint64_t n = curve->order().limb(0);
    AffinePoint walk = AffinePoint::makeInfinity();
    for (uint64_t k = 0; k < n; ++k) {
        AffinePoint direct = scalarMul(*curve, MpUint(k), g);
        ASSERT_TRUE(samePoint(direct, walk)) << "k=" << k;
        walk = curve->addAffine(walk, g);
    }
    EXPECT_TRUE(walk.infinity); // n*G == infinity closes the cycle
}

TEST(ToyCurves, BinaryToyEndToEnd)
{
    auto curve = makeToyBinaryCurve();
    ASSERT_TRUE(curve->orderVerified());
    const AffinePoint &g = curve->generator();
    EXPECT_TRUE(curve->onCurve(g));
    uint64_t n = curve->order().limb(0);
    // Sampled walk (subgroup may be large).
    AffinePoint walk = AffinePoint::makeInfinity();
    uint64_t upto = std::min<uint64_t>(n, 500);
    for (uint64_t k = 0; k < upto; ++k) {
        AffinePoint direct = scalarMul(*curve, MpUint(k), g);
        ASSERT_TRUE(samePoint(direct, walk)) << "k=" << k;
        walk = curve->addAffine(walk, g);
    }
    EXPECT_TRUE(scalarMul(*curve, curve->order(), g).infinity);
    // Ladder agrees on the toy curve too.
    for (uint64_t k = 1; k < 40; ++k) {
        AffinePoint a = scalarMulLadder(*curve, MpUint(k), g);
        AffinePoint b = scalarMul(*curve, MpUint(k), g);
        ASSERT_TRUE(samePoint(a, b)) << "k=" << k;
    }
}
