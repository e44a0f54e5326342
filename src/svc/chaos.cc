/**
 * @file
 * Chaos-mode implementation: victim-kernel strikes and co-simulation.
 *
 * The memory layout constants match workload/asm_kernels.cc (the same
 * layout the offline fault campaigns target).
 */

#include "svc/chaos.hh"

#include <array>
#include <iterator>

#include "asmkit/assembler.hh"
#include "fault/fault_injector.hh"
#include "workload/asm_kernels.hh"

namespace ulecc
{

const char *
chaosClassName(ChaosClass cls)
{
    switch (cls) {
      case ChaosClass::None: return "none";
      case ChaosClass::Detected: return "detected";
      case ChaosClass::Masked: return "masked";
      case ChaosClass::SilentCaught: return "silent-caught";
    }
    return "unknown";
}

namespace
{

/** Memory layout shared with workload/asm_kernels.cc. */
constexpr uint32_t kAddrA = 0x10000400;
constexpr uint32_t kAddrB = 0x10000500;
constexpr uint32_t kAddrR = 0x10000600;

struct VictimCase
{
    AsmKernel kernel;
    int aLimbs; ///< operand A width in limbs
    int rLimbs; ///< result width in limbs
};

/** Small, fast victims: a few thousand simulated cycles each. */
constexpr VictimCase kVictims[] = {
    {AsmKernel::MpAdd, 6, 7},
    {AsmKernel::MulOs, 6, 12},
    {AsmKernel::RedP192, 12, 6},
};

MpUint
randomLimbs(SplitMix64 &rng, int limbs)
{
    MpUint v;
    for (int i = 0; i < limbs; ++i)
        v.setLimb(i, static_cast<uint32_t>(rng.next()));
    return v;
}

struct VictimRun
{
    Result<uint64_t> outcome{0ull};
    std::array<uint32_t, 16> result{};
    uint64_t cycles = 0;
    uint32_t romWords = 0;
};

VictimRun
runVictim(const VictimCase &vc, const MpUint &a, const MpUint &b,
          uint64_t maxCycles, FaultInjector *injector)
{
    Program prog = assemble(kernelSource(vc.kernel, 6));
    PeteConfig cfg;
    cfg.maxCycles = maxCycles;
    Pete cpu(prog, cfg);
    for (int i = 0; i < vc.aLimbs; ++i)
        cpu.mem().poke32(kAddrA + 4 * i, a.limb(i));
    for (int i = 0; i < 6; ++i)
        cpu.mem().poke32(kAddrB + 4 * i, b.limb(i));
    if (injector)
        cpu.attachStepHook(injector);
    VictimRun run;
    run.romWords = static_cast<uint32_t>(prog.words.size());
    run.outcome = cpu.runChecked();
    run.cycles = cpu.stats().cycles;
    if (run.outcome.ok()) {
        for (int i = 0; i < vc.rLimbs; ++i)
            run.result[i] = cpu.mem().peek32(kAddrR + 4 * i);
    }
    return run;
}

} // namespace

SimStrikeResult
chaosSimStrike(SplitMix64 &rng)
{
    const VictimCase &vc = kVictims[rng.below(std::size(kVictims))];
    MpUint a = randomLimbs(rng, vc.aLimbs);
    MpUint b = randomLimbs(rng, 6);

    SimStrikeResult res;

    // Golden fault-free run: reference output + strike horizon.
    VictimRun golden = runVictim(vc, a, b, 10'000'000, nullptr);
    if (!golden.outcome.ok()) {
        // The victim itself failed without a fault: a library bug.
        res.errc = Errc::Internal;
        res.cls = ChaosClass::SilentCaught;
        res.kind = "golden-failure";
        return res;
    }

    FaultInjector injector(rng.next());
    FaultTargetSpace space;
    space.cycleHorizon = golden.cycles;
    space.ramBase = kAddrA;
    space.ramWords = (kAddrR + 4 * 16 - kAddrA) / 4;
    space.romWords = golden.romWords;
    FaultSpec spec = injector.plan(space);
    injector.arm(spec);
    res.kind = faultKindName(spec.kind);

    // Budget: generous multiple of golden, so only genuine runaways
    // (corrupted control flow, budget-exhaust faults) time out -- and
    // the timeout itself is the safe-point cancellation: Pete checks
    // its budget before every instruction and stops with a structured
    // Errc::SimTimeout instead of hanging.
    VictimRun faulty =
        runVictim(vc, a, b, golden.cycles * 4 + 100'000, &injector);
    if (!faulty.outcome.ok()) {
        res.errc = faulty.outcome.error().code;
        res.cls = ChaosClass::Detected;
        return res;
    }
    bool same = true;
    for (int i = 0; i < vc.rLimbs; ++i)
        same = same && faulty.result[i] == golden.result[i];
    if (same) {
        res.errc = Errc::Ok;
        res.cls = ChaosClass::Masked;
    } else {
        // Wrong answer with a "successful" run: the golden cross-check
        // is the countermeasure that converts it to a structured,
        // retryable error.
        res.errc = Errc::FaultDetected;
        res.cls = ChaosClass::SilentCaught;
    }
    return res;
}

SimStrikeResult
chaosBudgetStrike(SplitMix64 &rng)
{
    const VictimCase &vc = kVictims[rng.below(std::size(kVictims))];
    MpUint a = randomLimbs(rng, vc.aLimbs);
    MpUint b = randomLimbs(rng, 6);

    SimStrikeResult res;
    res.kind = "cycle-budget-starved";
    // Every victim needs thousands of cycles; this budget cannot
    // suffice, so the run must stop at a safe point with SimTimeout.
    VictimRun run = runVictim(vc, a, b, 64 + rng.below(256), nullptr);
    if (!run.outcome.ok()) {
        res.errc = run.outcome.error().code;
        res.cls = ChaosClass::Detected;
    } else {
        res.errc = Errc::Ok;
        res.cls = ChaosClass::Masked;
    }
    return res;
}

uint64_t
chaosCosim(SplitMix64 &rng, bool *mismatch)
{
    // Multiply is the representative hot kernel; cross-check the
    // simulated product against the native operand-scanning bignum.
    MpUint a = randomLimbs(rng, 6);
    MpUint b = randomLimbs(rng, 6);
    KernelRun run = runKernel(AsmKernel::MulOs, a, b, 6);
    MpUint expect = a.mul(b);
    if (mismatch)
        *mismatch = !(run.result == expect);
    return run.cycles;
}

} // namespace ulecc
