/**
 * @file
 * Deterministic fault injection for the simulated platform.
 *
 * Hardware ECC implementations are validated against injected faults
 * (bit flips in registers and memories, control-flow upsets, stall
 * storms); this subsystem brings the same discipline to the study's
 * simulator so the energy/cycle pipeline can be exercised under
 * corruption instead of trusting every run blindly.
 *
 * Everything is seeded and wall-clock free: the same seed plans and
 * fires the same fault at the same simulated cycle on every run, which
 * makes fault campaigns reproducible artifacts (the same property the
 * paper relies on for its RFC 6979 deterministic nonces).
 *
 * Injection uses only public hook points:
 *  - Pete::attachStepHook()  -- the injector is a StepHook fired at
 *    every instruction boundary;
 *  - MemorySystem::corrupt32 -- the particle-strike backdoor into ROM
 *    and RAM (also how i-cache line corruption is modelled: the
 *    backing line is corrupted so subsequent fetches of the cached
 *    line decode flipped bits);
 *  - Pete::addStall          -- stall storms and budget runaways.
 *
 * strikeKernel() is the one golden-vs-faulty procedure built on the
 * injector: tools/fault_campaign and svc chaos mode both call it and
 * differ only in their victim lists and outcome vocabularies.
 */

#ifndef ULECC_FAULT_FAULT_INJECTOR_HH
#define ULECC_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <span>
#include <string>

#include "base/prng.hh"
#include "fault/campaign_summary.hh"
#include "sim/cpu.hh"
#include "workload/asm_kernels.hh"

namespace ulecc
{

/** The modelled fault classes. */
enum class FaultKind
{
    RegisterBitFlip,    ///< one bit of one GPR
    MemoryBitFlip,      ///< one bit of one RAM word
    HiLoBitFlip,        ///< one bit of the Hi/Lo accumulator pair
    IcacheLineCorrupt,  ///< one 16-byte program line (i-cache image)
    Cop2StallStorm,     ///< coprocessor interlock storm for a window
    CycleBudgetExhaust, ///< simulated-time runaway: drains the budget
    NumKinds,
};

/** Stable short name of a fault kind (logs/JSON). */
const char *faultKindName(FaultKind kind);

/** One planned fault: what, where, and at which simulated cycle. */
struct FaultSpec
{
    FaultKind kind = FaultKind::RegisterBitFlip;
    uint64_t triggerCycle = 0;   ///< fires at the first step at/after
    uint32_t target = 0;         ///< reg index / address / 0=Hi 1=Lo
    uint32_t mask = 0;           ///< XOR mask applied to the target
    uint32_t durationCycles = 0; ///< stall-storm length

    /** One-line description, e.g. "register-bit-flip r7 mask=0x..". */
    std::string describe() const;
};

/** The victim program's footprint, used to plan plausible faults. */
struct FaultTargetSpace
{
    uint64_t cycleHorizon = 1000; ///< golden-run cycle count
    uint32_t ramBase = 0x10000000;
    uint32_t ramWords = 1024;     ///< words of live RAM after ramBase
    uint32_t romWords = 256;      ///< program image size in words
};

/**
 * Plans and injects one fault per armed run.  Implements StepHook; use
 * as
 *
 *     FaultInjector inj(seed);
 *     FaultSpec spec = inj.plan(space);
 *     inj.arm(spec);
 *     cpu.attachStepHook(&inj);
 *     Result<uint64_t> r = cpu.runChecked();
 *     // inj.fired() tells whether the trigger cycle was reached.
 */
class FaultInjector : public StepHook
{
  public:
    explicit FaultInjector(uint64_t seed) : rng_(seed) {}

    /** Draws a fault deterministically from the target space. */
    FaultSpec plan(const FaultTargetSpace &space);

    /** Arms @p spec for the next run (resets the fired latch). */
    void arm(const FaultSpec &spec);

    void onStep(Pete &cpu) override;

    bool fired() const { return fired_; }

  private:
    void inject(Pete &cpu);

    SplitMix64 rng_;
    FaultSpec spec_;
    bool armed_ = false;
    bool fired_ = false;
    uint64_t stormEndCycle_ = 0;
};

/** @p limbs random 32-bit limbs, one draw of @p rng each. */
MpUint randomLimbs(SplitMix64 &rng, int limbs);

/** A strike's victim kernel (at k = 6) and its operands. */
struct KernelVictim
{
    AsmKernel kernel = AsmKernel::MpAdd;
    MpUint a; ///< 12 limbs for RedP192, 6 otherwise
    MpUint b; ///< 6 limbs
};

/** Draws the victim from @p victims, then A, then B. */
KernelVictim drawVictim(std::span<const AsmKernel> victims,
                        SplitMix64 &rng);

/** How one golden-vs-faulty kernel strike resolved (Crashed: the
 *  fault-free golden run itself failed). */
struct KernelStrike
{
    const char *kind = "golden-failure"; ///< or faultKindName(spec.kind)
    CampaignOutcome outcome = CampaignOutcome::Crashed;
    Error error; ///< the failed run's error (Detected, Crashed)
    FaultSpec spec;
};

/**
 * One fault strike on a victim kernel, fully deterministic in @p rng:
 * draws the victim and its operands (drawVictim), runs it fault-free
 * under a 10M-cycle budget, plans one fault over that run with a
 * FaultInjector seeded from the next draw, and reruns it armed under
 * 4x the golden cycles + 100k.  A faulty run that fails is Detected;
 * one that completes is Masked when its result limbs equal golden and
 * SilentlyCorrupted otherwise.
 */
KernelStrike strikeKernel(std::span<const AsmKernel> victims,
                          SplitMix64 &rng);

} // namespace ulecc

#endif // ULECC_FAULT_FAULT_INJECTOR_HH
