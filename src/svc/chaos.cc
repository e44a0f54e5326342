/**
 * @file
 * Chaos-mode implementation: victim-kernel strikes and co-simulation.
 */

#include "svc/chaos.hh"

#include "fault/fault_injector.hh"

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

/** Small, fast victims: a few thousand simulated cycles each. */
constexpr AsmKernel kVictims[] = {AsmKernel::MpAdd, AsmKernel::MulOs,
                                  AsmKernel::RedP192};

} // namespace

SimStrikeResult
chaosSimStrike(SplitMix64 &rng)
{
    KernelStrike strike = strikeKernel(kVictims, rng);
    switch (strike.outcome) {
      case CampaignOutcome::Detected:
        return {strike.error.code, ChaosClass::Detected, strike.kind};
      case CampaignOutcome::Masked:
        return {Errc::Ok, ChaosClass::Masked, strike.kind};
      case CampaignOutcome::SilentlyCorrupted:
        // Wrong answer with a "successful" run: the golden cross-check
        // is the countermeasure that converts it to a structured,
        // retryable error.
        return {Errc::FaultDetected, ChaosClass::SilentCaught, strike.kind};
      default:
        // The victim itself failed without a fault: a library bug.
        return {Errc::Internal, ChaosClass::SilentCaught, "golden-failure"};
    }
}

SimStrikeResult
chaosBudgetStrike(SplitMix64 &rng)
{
    KernelVictim v = drawVictim(kVictims, rng);
    // Every victim needs thousands of cycles; this budget cannot
    // suffice, so the run must stop at a safe point with SimTimeout.
    PeteConfig cfg;
    cfg.maxCycles = 64 + rng.below(256);
    KernelSim run = simulateKernel(
        v.kernel, 6, assemble(kernelSource(v.kernel, 6)), cfg, v.a, v.b);
    return {run.outcome.code(),
            run.outcome.ok() ? ChaosClass::Masked : ChaosClass::Detected,
            "cycle-budget-starved"};
}

void
chaosCosim(SplitMix64 &rng, bool *mismatch)
{
    // Multiply is the representative hot kernel; cross-check the
    // simulated product against the native operand-scanning bignum.
    MpUint a = randomLimbs(rng, 6);
    MpUint b = randomLimbs(rng, 6);
    KernelSim run =
        simulateKernel(AsmKernel::MulOs, 6,
                       assemble(kernelSource(AsmKernel::MulOs, 6)), {}, a, b);
    if (mismatch)
        *mismatch = !run.outcome.ok() || run.result != a.mul(b);
}

} // namespace ulecc
