/**
 * @file
 * Tests for the differential conformance harness: the RefInt oracle,
 * the hexfloat renderer, and the diffuzz engine
 * (rng determinism, case format, shrinker, golden-vector loading).
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "base/error.hh"
#include "check/diffuzz.hh"
#include "check/oracles.hh"
#include "check/refint.hh"
#include "core/hexfloat.hh"

using namespace ulecc;
using namespace ulecc::check;

#ifndef ULECC_GOLDEN_DIR
#define ULECC_GOLDEN_DIR "tests/golden"
#endif

TEST(RefInt, FixedArithmeticVectors)
{
    EXPECT_EQ(RefInt(0).toHex(), "0");
    EXPECT_EQ(RefInt::fromHex("00ff").toHex(), "ff");
    EXPECT_EQ(RefInt::fromHex("ffffffffffffffff")
                  .add(RefInt(1))
                  .toHex(),
              "10000000000000000");
    EXPECT_EQ(RefInt::fromHex("10000000000000000")
                  .sub(RefInt(1))
                  .toHex(),
              "ffffffffffffffff");
    EXPECT_EQ(RefInt::fromHex("123456789abcdef")
                  .mul(RefInt::fromHex("fedcba987654321"))
                  .toHex(),
              "121fa00ad77d7422236d88fe5618cf");
    EXPECT_EQ(RefInt::gcd(RefInt(0xdeadbeefcafebabeull),
                          RefInt(0x123456789ull))
                  .toHex(),
              "3");
    EXPECT_EQ(RefInt(1).shiftLeft(77).toHex(),
              RefInt::fromHex("20000000000000000000").toHex());
    EXPECT_EQ(RefInt::fromHex("20000000000000000001")
                  .shiftRight(77)
                  .toHex(),
              "1");
}

TEST(RefInt, KnuthDivisionVectors)
{
    // Shapes that exercise the qhat correction and add-back paths of
    // Algorithm D (values pinned against an independent computation).
    RefInt::DivResult qr = RefInt::fromHex("7fff800000000000")
                               .divmod(RefInt::fromHex("800000000001"));
    EXPECT_EQ(qr.quotient.toHex(), "fffe");
    EXPECT_EQ(qr.remainder.toHex(), "7fffffff0002");

    qr = RefInt::fromHex("800000000000000000000001")
             .divmod(RefInt::fromHex("80000000000000000001"));
    EXPECT_EQ(qr.quotient.toHex(), "ffff");
    EXPECT_EQ(qr.remainder.toHex(), "7fffffffffffffff0002");

    // Short-division path and the recomposition invariant.
    qr = RefInt::fromHex("123456789abcdef0123").divmod(RefInt(0x9973));
    EXPECT_EQ(qr.quotient.mul(RefInt(0x9973)).add(qr.remainder).toHex(),
              "123456789abcdef0123");
    EXPECT_THROW(RefInt(5).divmod(RefInt(0)), UleccError);
}

TEST(RefInt, RoundTripsWithMpUint)
{
    const char *vectors[] = {
        "0", "1", "ffffffff", "100000000",
        "123456789abcdef0123456789abcdef0123456789abcdef",
    };
    for (const char *v : vectors) {
        MpUint m = MpUint::fromHex(v);
        EXPECT_EQ(RefInt::fromMp(m).toHex(), m.toHex());
        EXPECT_EQ(RefInt::fromHex(v).toMp().toHex(), m.toHex());
    }
    // A value wider than MpUint's capacity converts one way only.
    RefInt wide = RefInt(1).shiftLeft(1280);
    EXPECT_EQ(wide.bitLength(), 1281);
    EXPECT_THROW(wide.toMp(), UleccError);
}

TEST(RefInt, PolynomialOps)
{
    // (x^7 + x^2 + 1)(x^4 + x + 1) and its residue mod the AES poly.
    RefInt prod = RefInt(0x85).polyMul(RefInt(0x13));
    EXPECT_EQ(prod.toHex(), "9df");
    EXPECT_EQ(prod.polyMod(RefInt(0x11b)).toHex(), "1c");
    EXPECT_TRUE(RefInt(0).polyMul(RefInt(0x13)).isZero());
    EXPECT_TRUE(RefInt(0x11b).polyMod(RefInt(0x11b)).isZero());
}

TEST(Hexfloat, BitExactRoundTrip)
{
    // strtod reads hexfloats bit-exactly; this process runs in the
    // "C" locale, where hexDouble's grammar is a subset of its input.
    const double inf = std::numeric_limits<double>::infinity();
    const double values[] = {0.0,     -0.0,   1.0,    -1.0,  0.1,
                             1.0 / 3, 1e308,  5e-324, 1e-308,
                             6.25e-2, 123456789.0, inf, -inf};
    for (double v : values) {
        std::string text = hexDouble(v);
        char *end = nullptr;
        double back = std::strtod(text.c_str(), &end);
        EXPECT_EQ(*end, '\0') << text;
        EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << text;
    }
    std::string nan = hexDouble(std::nan(""));
    EXPECT_EQ(nan, "nan");
    EXPECT_TRUE(std::isnan(std::strtod(nan.c_str(), nullptr)));
}

TEST(Diffuzz, RngIsDeterministicAndPerTargetIndependent)
{
    DiffRng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), b.next());
    // Seeding mixes the target name, so streams differ per target.
    DiffRng m(1 ^ fnv1a64("mpint")), f(1 ^ fnv1a64("field"));
    EXPECT_NE(m.next(), f.next());
    // edgeMp respects its width bound, including full capacity.
    DiffRng e(7);
    for (int i = 0; i < 500; ++i)
        EXPECT_LE(e.edgeMp(MpUint::maxLimbs * 32).bitLength(),
                  MpUint::maxLimbs * 32);
}

TEST(Diffuzz, CaseFormatRoundTrips)
{
    CaseInput c;
    c.op = "mulos";
    c.args = {"deadbeef", "ff"};
    std::string line = formatCase("mpint", c);
    EXPECT_EQ(line, "mpint mulos deadbeef ff");
    std::string target;
    CaseInput back;
    ASSERT_TRUE(parseCase(line, &target, &back));
    EXPECT_EQ(target, "mpint");
    EXPECT_EQ(back.op, c.op);
    EXPECT_EQ(back.args, c.args);
    EXPECT_FALSE(parseCase("# a comment", &target, &back));
    EXPECT_FALSE(parseCase("", &target, &back));
    EXPECT_FALSE(parseCase("loneword", &target, &back));
}

namespace
{

/** Fails whenever its first operand is longer than four characters. */
class LongArgTarget final : public Target
{
  public:
    std::string name() const override { return "longarg"; }

    CaseInput
    generate(DiffRng &) const override
    {
        return {"op", {"deadbeefdeadbeef"}};
    }

    std::optional<std::string>
    check(const CaseInput &c) const override
    {
        if (!c.args.empty() && c.args[0].size() > 4)
            return "arg too long";
        return std::nullopt;
    }
};

} // namespace

TEST(Diffuzz, ShrinkerConvergesToAMinimalReproducer)
{
    LongArgTarget target;
    CaseInput input{"op", {"deadbeefdeadbeef"}};
    uint64_t steps = 0;
    CaseInput shrunk = shrinkCase(target, input, &steps);
    // Greedy halving/dropping should land exactly at the threshold.
    EXPECT_EQ(shrunk.args[0].size(), 5u);
    EXPECT_GT(steps, 0u);
    EXPECT_TRUE(checkCaught(target, shrunk).has_value());
}

TEST(Diffuzz, GoldenVectorsAreLoaded)
{
    auto targets = makeTargets(ULECC_GOLDEN_DIR);
    ASSERT_EQ(targets.size(), 4u);
    size_t vectors = 0;
    for (const auto &t : targets)
        if (t->name() == "ecdsa")
            vectors = ecdsaTargetVectorCount(*t);
    // 8 curves x 2 messages in each of the two golden files.
    EXPECT_GE(vectors, 32u);
}

TEST(Diffuzz, ShortRunPassesWithByteStableJson)
{
    RunOptions opts;
    opts.seed = 1;
    opts.cases = 40;
    auto targets = makeTargets(ULECC_GOLDEN_DIR);
    RunReport r1 = runDiffuzz(targets, opts);
    for (const Failure &f : r1.failures)
        ADD_FAILURE() << formatCase(f.target, f.shrunk) << ": "
                      << f.detail;
    EXPECT_TRUE(r1.pass());
    RunReport r2 = runDiffuzz(targets, opts);
    // Same seed, same targets: the serialised reports must be
    // byte-identical (timings are deliberately not serialised).
    EXPECT_EQ(reportToJson(r1, opts).dump(2), reportToJson(r2, opts).dump(2));
}

TEST(Diffuzz, ReplayRejectsUnknownTargets)
{
    auto targets = makeTargets(ULECC_GOLDEN_DIR);
    EXPECT_TRUE(replayLine(targets, "notatarget op 123").has_value());
    EXPECT_FALSE(replayLine(targets, "# comment").has_value());
    EXPECT_FALSE(replayLine(targets, "mpint add 2 3").has_value());
    RunReport missing = replayFile(targets, "/nonexistent/corpus.case");
    EXPECT_FALSE(missing.pass());
}

TEST(Diffuzz, CheckedInCorpusReplaysClean)
{
    auto targets = makeTargets(ULECC_GOLDEN_DIR);
    RunReport r = replayFile(
        targets, std::string(ULECC_GOLDEN_DIR) + "/corpus/regressions.case");
    for (const Failure &f : r.failures)
        ADD_FAILURE() << formatCase(f.target, f.shrunk) << ": "
                      << f.detail;
    EXPECT_TRUE(r.pass());
    EXPECT_GT(r.stats.at(0).cases, 20u);
}
