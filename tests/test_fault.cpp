/**
 * @file
 * Tests for the structured error taxonomy (base/error.hh), the
 * checked crypto/sim entry points built on it, and the deterministic
 * fault injector.
 */

#include <gtest/gtest.h>

#include "asmkit/assembler.hh"
#include "base/error.hh"
#include "core/evaluator.hh"
#include "ecdsa/ecdh.hh"
#include "ecdsa/ecdsa.hh"
#include "fault/fault_injector.hh"
#include "sim/cpu.hh"
#include "golden.hh"

using namespace ulecc;

// ---------------------------------------------------------------- taxonomy

TEST(Result, HoldsValue)
{
    Result<int> r = 41;
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.code(), Errc::Ok);
    EXPECT_EQ(r.value(), 41);
    EXPECT_EQ(r.valueOr(7), 41);
}

TEST(Result, HoldsError)
{
    Result<int> r = Error{Errc::InvalidInput, "bad thing"};
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::InvalidInput);
    EXPECT_EQ(r.error().context, "bad thing");
    EXPECT_EQ(r.valueOr(7), 7);
}

TEST(Result, ValueThrowsStructuredErrorNotAbort)
{
    Result<int> r = Error{Errc::SimTimeout, "budget gone"};
    try {
        (void)r.value();
        FAIL() << "value() on an error must throw";
    } catch (const UleccError &e) {
        EXPECT_EQ(e.code(), Errc::SimTimeout);
        EXPECT_NE(std::string(e.what()).find("budget gone"),
                  std::string::npos);
    }
}

TEST(Result, VoidSpecialization)
{
    Result<void> good;
    EXPECT_TRUE(good.ok());
    Result<void> bad = Error{Errc::Internal, "x"};
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), Errc::Internal);
}

TEST(Error, StableCodeNames)
{
    EXPECT_STREQ(errcName(Errc::Ok), "ok");
    EXPECT_STREQ(errcName(Errc::InvalidInput), "invalid-input");
    EXPECT_STREQ(errcName(Errc::SimTimeout), "sim-timeout");
    EXPECT_STREQ(errcName(Errc::MemFault), "mem-fault");
    EXPECT_STREQ(errcName(Errc::FaultDetected), "fault-detected");
    EXPECT_STREQ(errcName(Errc::AsmSyntax), "asm-syntax");
}

TEST(Error, UleccErrorIsRuntimeError)
{
    // Back-compat: every call site that caught std::runtime_error
    // before the taxonomy existed still catches these.
    UleccError e(Errc::OutOfRange, "ctx");
    const std::runtime_error &base = e;
    EXPECT_NE(std::string(base.what()).find("ctx"), std::string::npos);
}

// ------------------------------------------------------------- sim checked

TEST(RunChecked, HaltIsOk)
{
    Pete cpu(assemble("li $v0, 5\nbreak\n"));
    Result<uint64_t> r = cpu.runChecked();
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.value(), 0u);
    EXPECT_EQ(cpu.reg(2), 5u);
}

TEST(RunChecked, InfiniteLoopIsSimTimeout)
{
    PeteConfig cfg;
    cfg.maxCycles = 500;
    Pete cpu(assemble("spin: j spin\nnop\n"), cfg);
    Result<uint64_t> r = cpu.runChecked();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::SimTimeout);
    // bool run() keeps its legacy contract: false on timeout.
    Pete cpu2(assemble("spin: j spin\nnop\n"), cfg);
    EXPECT_FALSE(cpu2.run());
}

TEST(RunChecked, UnmappedStoreIsMemFault)
{
    Pete cpu(assemble("li $t0, 0x20000000\nsw $t1, 0($t0)\nbreak\n"));
    Result<uint64_t> r = cpu.runChecked();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::MemFault);
}

TEST(RunChecked, RomStoreIsMemFault)
{
    Pete cpu(assemble("li $t0, 0x100\nsw $t1, 0($t0)\nbreak\n"));
    Result<uint64_t> r = cpu.runChecked();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::MemFault);
}

TEST(RunChecked, MisalignedLoadIsMemFault)
{
    Pete cpu(assemble("li $t0, 0x10000002\nlw $t1, 0($t0)\nbreak\n"));
    Result<uint64_t> r = cpu.runChecked();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::MemFault);
}

TEST(RunChecked, Cop2WithoutCoprocessorIsUnsupported)
{
    Pete cpu(assemble("cop2mul\nbreak\n"));
    Result<uint64_t> r = cpu.runChecked();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::Unsupported);
}

TEST(Memory, Corrupt32FlipsRamAndRom)
{
    Pete cpu(assemble("nop\nbreak\n"));
    cpu.mem().poke32(0x10000100, 0xAAAA5555u);
    cpu.mem().corrupt32(0x10000100, 0x1u);
    EXPECT_EQ(cpu.mem().peek32(0x10000100), 0xAAAA5554u);
    uint32_t before = cpu.mem().peek32(0);
    cpu.mem().corrupt32(0, 0x80000000u);
    EXPECT_EQ(cpu.mem().peek32(0), before ^ 0x80000000u);
}

// ---------------------------------------------------------- fault injector

TEST(FaultInjector, PlanIsDeterministicInSeed)
{
    FaultTargetSpace space;
    space.cycleHorizon = 5000;
    FaultInjector a(1234), b(1234), c(99);
    FaultSpec sa = a.plan(space);
    FaultSpec sb = b.plan(space);
    EXPECT_EQ(sa.kind, sb.kind);
    EXPECT_EQ(sa.triggerCycle, sb.triggerCycle);
    EXPECT_EQ(sa.target, sb.target);
    EXPECT_EQ(sa.mask, sb.mask);
    // A long plan sequence from a different seed must diverge.
    bool diverged = false;
    for (int i = 0; i < 16 && !diverged; ++i) {
        FaultSpec sc = c.plan(space);
        FaultSpec sd = a.plan(space);
        diverged = sc.kind != sd.kind || sc.triggerCycle != sd.triggerCycle
            || sc.target != sd.target || sc.mask != sd.mask;
    }
    EXPECT_TRUE(diverged);
}

TEST(FaultInjector, RegisterFlipFires)
{
    // A long counting loop: plenty of cycles for the trigger.
    Program prog = assemble(R"(
        li $t0, 2000
        loop: addiu $t0, $t0, -1
        bne $t0, $zero, loop
        nop
        break
    )");
    FaultInjector inj(7);
    FaultSpec spec;
    spec.kind = FaultKind::RegisterBitFlip;
    spec.triggerCycle = 50;
    spec.target = 8; // $t0, the live loop counter
    spec.mask = 1u << 30;
    inj.arm(spec);
    PeteConfig cfg;
    cfg.maxCycles = 100'000;
    Pete cpu(prog, cfg);
    cpu.attachStepHook(&inj);
    Result<uint64_t> r = cpu.runChecked();
    EXPECT_TRUE(inj.fired());
    // The poisoned counter forces ~2^30 extra iterations: the budget
    // check converts the upset into a structured timeout.
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::SimTimeout);
}

TEST(FaultInjector, CycleBudgetExhaustIsSimTimeout)
{
    FaultInjector inj(3);
    FaultSpec spec;
    spec.kind = FaultKind::CycleBudgetExhaust;
    spec.triggerCycle = 2;
    inj.arm(spec);
    Pete cpu(assemble("li $t0, 100\nloop: addiu $t0, $t0, -1\n"
                      "bne $t0, $zero, loop\nnop\nbreak\n"));
    cpu.attachStepHook(&inj);
    Result<uint64_t> r = cpu.runChecked();
    EXPECT_TRUE(inj.fired());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::SimTimeout);
}

TEST(FaultInjector, ArmedRunsMatchGolden)
{
    // 24 seeded plans against a store/load loop, some striking the
    // program text: each run's outcome and every PeteStats counter
    // are pinned in tests/golden/fault_injector_runs.txt.
    const char *src = R"(
        lui   $at, 0x1000
        addiu $t0, $zero, 200
        addiu $t1, $zero, 0
    loop:
        addiu $t1, $t1, 7
        sw    $t1, 0x400($at)
        lw    $t2, 0x400($at)
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )";
    Program prog = assemble(src);
    FaultTargetSpace space;
    space.cycleHorizon = 1500;
    space.romWords = static_cast<uint32_t>(prog.words.size());
    space.ramWords = 512;
    std::string actual;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        PeteConfig cfg;
        cfg.maxCycles = 100'000;
        Pete cpu(prog, cfg);
        FaultInjector inj(seed);
        inj.arm(inj.plan(space));
        cpu.attachStepHook(&inj);
        Result<uint64_t> r = cpu.runChecked();
        actual += "seed " + std::to_string(seed) + " "
            + errcName(r.ok() ? Errc::Ok : r.code()) + " "
            + test::statsLine(cpu.stats()) + "\n";
    }
    test::expectMatchesGolden("fault_injector_runs.txt", actual);
}

TEST(FaultInjector, KindNamesAreStable)
{
    EXPECT_STREQ(faultKindName(FaultKind::RegisterBitFlip),
                 "register-bit-flip");
    EXPECT_STREQ(faultKindName(FaultKind::IcacheLineCorrupt),
                 "icache-line-corrupt");
    EXPECT_STREQ(faultKindName(FaultKind::CycleBudgetExhaust),
                 "cycle-budget-exhaust");
}

// ----------------------------------------------------------- mpint guards

TEST(MpUintGuards, SetLimbOutOfRangeThrowsInRelease)
{
    // This guard must survive NDEBUG builds: it used to be an assert,
    // and the out-of-bounds write was reachable from fromBytesBe.
    MpUint v;
    EXPECT_THROW(v.setLimb(MpUint::maxLimbs, 1), UleccError);
    EXPECT_THROW(v.setLimb(-1, 1), UleccError);
}

TEST(MpUintGuards, NonInvertibleModInverseThrowsNotLoops)
{
    // gcd(3, 9) = 3: no inverse exists; must throw, not spin forever.
    EXPECT_THROW(MpUint(3).modInverseOdd(MpUint(9)), UleccError);
}

// ----------------------------------------------------------- octet strings

TEST(OctetStrings, RoundTrip)
{
    MpUint v = MpUint::fromHex("123456789abcdef0ff00");
    Result<std::vector<uint8_t>> enc = toBytesBeChecked(v, 24);
    ASSERT_TRUE(enc.ok());
    ASSERT_EQ(enc.value().size(), 24u);
    Result<MpUint> dec =
        fromBytesBeChecked(enc.value().data(), enc.value().size());
    ASSERT_TRUE(dec.ok());
    EXPECT_EQ(dec.value(), v);
}

TEST(OctetStrings, OversizedLengthIsOutOfRange)
{
    MpUint v(1);
    Result<std::vector<uint8_t>> r =
        toBytesBeChecked(v, MpUint::maxLimbs * 4 + 1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::OutOfRange);
    EXPECT_FALSE(toBytesBeChecked(v, -1).ok());

    std::vector<uint8_t> big(MpUint::maxLimbs * 4 + 1, 0xFF);
    Result<MpUint> d = fromBytesBeChecked(big.data(), big.size());
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.code(), Errc::OutOfRange);
}

// ------------------------------------------------------------ ecdsa / ecdh

class CheckedEcdsaTest : public ::testing::Test
{
  protected:
    const Curve &curve = standardCurve(CurveId::P192);
    Ecdsa ecdsa{curve};
    MpUint d = MpUint::fromHex("7842421379a5c6b2f33de0f3f5f39986a350061e"
                               "47cfbf41");
    Sha256Digest digest{};

    void
    SetUp() override
    {
        for (size_t i = 0; i < digest.size(); ++i)
            digest[i] = static_cast<uint8_t>(0xA0 + i);
    }
};

TEST_F(CheckedEcdsaTest, SignCheckedProducesVerifiableSignature)
{
    Result<Signature> sig = ecdsa.signDigestChecked(d, digest);
    ASSERT_TRUE(sig.ok());
    KeyPair kp = ecdsa.keyFromPrivate(d);
    Result<bool> v = ecdsa.verifyDigestChecked(kp.q, digest, sig.value());
    ASSERT_TRUE(v.ok());
    EXPECT_TRUE(v.value());
}

TEST_F(CheckedEcdsaTest, OutOfRangeScalarIsInvalidInput)
{
    EXPECT_EQ(ecdsa.signDigestChecked(MpUint(), digest).code(),
              Errc::InvalidInput);
    MpUint big = curve.order().add(MpUint(5));
    EXPECT_EQ(ecdsa.signDigestChecked(big, digest).code(),
              Errc::InvalidInput);
    EXPECT_EQ(ecdsa.keyFromPrivateChecked(MpUint()).code(),
              Errc::InvalidInput);
}

TEST_F(CheckedEcdsaTest, OffCurvePublicPointIsInvalidInput)
{
    KeyPair kp = ecdsa.keyFromPrivate(d);
    Signature sig = ecdsa.signDigest(d, digest);
    AffinePoint bad = kp.q;
    bad.y.setLimb(0, bad.y.limb(0) ^ 1u);
    Result<bool> v = ecdsa.verifyDigestChecked(bad, digest, sig);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.code(), Errc::InvalidInput);

    AffinePoint inf;
    EXPECT_EQ(ecdsa.verifyDigestChecked(inf, digest, sig).code(),
              Errc::InvalidInput);
}

TEST_F(CheckedEcdsaTest, CorruptedSignatureIsFalseNotError)
{
    KeyPair kp = ecdsa.keyFromPrivate(d);
    Signature sig = ecdsa.signDigest(d, digest);
    sig.s = sig.s.bitXor(MpUint::powerOfTwo(17));
    Result<bool> v = ecdsa.verifyDigestChecked(kp.q, digest, sig);
    ASSERT_TRUE(v.ok());
    EXPECT_FALSE(v.value());
}

TEST_F(CheckedEcdsaTest, EcdhAgreeCheckedMatchesBothSides)
{
    Ecdh ecdh(curve);
    MpUint d2 = MpUint::fromHex("1b2c3d4e5f60718293a4b5c6d7e8f90102030405"
                                "06070809");
    AffinePoint qa = ecdh.publicPoint(d);
    AffinePoint qb = ecdh.publicPoint(d2);
    Result<EcdhShared> ab = ecdh.agreeChecked(d, qb);
    Result<EcdhShared> ba = ecdh.agreeChecked(d2, qa);
    ASSERT_TRUE(ab.ok());
    ASSERT_TRUE(ba.ok());
    EXPECT_TRUE(ab.value().valid);
    EXPECT_EQ(ab.value().sharedX, ba.value().sharedX);
}

TEST_F(CheckedEcdsaTest, EcdhRejectsCorruptedPeerAndBadScalar)
{
    Ecdh ecdh(curve);
    AffinePoint peer = ecdh.publicPoint(d);
    peer.x.setLimb(0, peer.x.limb(0) ^ 4u);
    EXPECT_EQ(ecdh.agreeChecked(d, peer).code(), Errc::InvalidInput);
    AffinePoint good = ecdh.publicPoint(d);
    EXPECT_EQ(ecdh.agreeChecked(MpUint(), good).code(),
              Errc::InvalidInput);
}

// -------------------------------------------------------------- assembler

TEST(AssembleChecked, GoodSourceIsOk)
{
    Result<Program> p = assembleChecked("li $v0, 1\nbreak\n");
    ASSERT_TRUE(p.ok());
    EXPECT_GT(p.value().words.size(), 0u);
}

TEST(AssembleChecked, SyntaxErrorsCarryCodeAndLine)
{
    Result<Program> p = assembleChecked("nop\nbogus $t0\n");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.code(), Errc::AsmSyntax);
    EXPECT_NE(p.error().context.find("line 2"), std::string::npos);
}

// -------------------------------------------------------------- evaluator

TEST(EvaluateChecked, DesignSpaceViolationIsUnsupported)
{
    Result<EvalResult> r =
        evaluateChecked(MicroArch::Monte, CurveId::B163);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::Unsupported);
    Result<EvalResult> r2 =
        evaluateChecked(MicroArch::Billie, CurveId::P192);
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.code(), Errc::Unsupported);
}

TEST(EvaluateChecked, SupportedPointEvaluates)
{
    Result<EvalResult> r =
        evaluateChecked(MicroArch::Baseline, CurveId::P192);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.value().totalUj(), 0.0);
}
