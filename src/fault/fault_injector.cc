/**
 * @file
 * FaultInjector implementation.
 */

#include "fault/fault_injector.hh"

#include <sstream>

#include "asmkit/assembler.hh"

namespace ulecc
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::RegisterBitFlip: return "register-bit-flip";
      case FaultKind::MemoryBitFlip: return "memory-bit-flip";
      case FaultKind::HiLoBitFlip: return "hilo-bit-flip";
      case FaultKind::IcacheLineCorrupt: return "icache-line-corrupt";
      case FaultKind::Cop2StallStorm: return "cop2-stall-storm";
      case FaultKind::CycleBudgetExhaust: return "cycle-budget-exhaust";
      case FaultKind::NumKinds: break;
    }
    return "unknown";
}

std::string
FaultSpec::describe() const
{
    std::ostringstream os;
    os << faultKindName(kind) << " @cycle " << triggerCycle;
    switch (kind) {
      case FaultKind::RegisterBitFlip:
        os << " r" << target << " mask=0x" << std::hex << mask;
        break;
      case FaultKind::MemoryBitFlip:
      case FaultKind::IcacheLineCorrupt:
        os << " addr=0x" << std::hex << target << " mask=0x" << mask;
        break;
      case FaultKind::HiLoBitFlip:
        os << (target ? " lo" : " hi") << " mask=0x" << std::hex << mask;
        break;
      case FaultKind::Cop2StallStorm:
        os << " for " << durationCycles << " cycles";
        break;
      default:
        break;
    }
    return os.str();
}

FaultSpec
FaultInjector::plan(const FaultTargetSpace &space)
{
    FaultSpec spec;
    spec.kind = static_cast<FaultKind>(
        rng_.below(static_cast<uint64_t>(FaultKind::NumKinds)));
    // Strike somewhere inside the run (never exactly at retirement --
    // the last cycle may already be the halt).
    uint64_t horizon = space.cycleHorizon > 2 ? space.cycleHorizon : 2;
    spec.triggerCycle = rng_.below(horizon - 1);

    switch (spec.kind) {
      case FaultKind::RegisterBitFlip:
        // r0 is hardwired zero; strike r1..r31.
        spec.target = 1 + static_cast<uint32_t>(rng_.below(31));
        spec.mask = 1u << rng_.below(32);
        break;
      case FaultKind::MemoryBitFlip:
        spec.target = space.ramBase
            + 4 * static_cast<uint32_t>(
                  rng_.below(space.ramWords ? space.ramWords : 1));
        spec.mask = 1u << rng_.below(32);
        break;
      case FaultKind::HiLoBitFlip:
        spec.target = static_cast<uint32_t>(rng_.below(2));
        spec.mask = 1u << rng_.below(32);
        break;
      case FaultKind::IcacheLineCorrupt: {
        // Corrupt a whole aligned 16-byte line of the program image.
        uint32_t lines = space.romWords / 4;
        spec.target = 16 * static_cast<uint32_t>(
            rng_.below(lines ? lines : 1));
        spec.mask = static_cast<uint32_t>(rng_.next()) | 1u;
        break;
      }
      case FaultKind::Cop2StallStorm:
        spec.durationCycles =
            16 + static_cast<uint32_t>(rng_.below(1024));
        break;
      case FaultKind::CycleBudgetExhaust:
      default:
        break;
    }
    return spec;
}

void
FaultInjector::arm(const FaultSpec &spec)
{
    spec_ = spec;
    armed_ = true;
    fired_ = false;
    stormEndCycle_ = 0;
}

void
FaultInjector::onStep(Pete &cpu)
{
    // Storm tail: keep stalling until the window closes.
    if (stormEndCycle_ && cpu.cycle() < stormEndCycle_)
        cpu.addStall(spec_.durationCycles > 64 ? 64 : 4,
                     StallCause::External);
    if (!armed_ || fired_)
        return;
    if (cpu.cycle() < spec_.triggerCycle)
        return;
    fired_ = true;
    inject(cpu);
}

void
FaultInjector::inject(Pete &cpu)
{
    switch (spec_.kind) {
      case FaultKind::RegisterBitFlip:
        cpu.setReg(spec_.target, cpu.reg(spec_.target) ^ spec_.mask);
        break;
      case FaultKind::MemoryBitFlip:
        cpu.mem().corrupt32(spec_.target, spec_.mask);
        break;
      case FaultKind::HiLoBitFlip:
        if (spec_.target)
            cpu.setLo(cpu.lo() ^ spec_.mask);
        else
            cpu.setHi(cpu.hi() ^ spec_.mask);
        break;
      case FaultKind::IcacheLineCorrupt:
        // Flip bits across the four words of the line; the line stays
        // resident in the i-cache image (fetch peeks the backing ROM),
        // so the corruption is visible on the very next fetch of it.
        for (uint32_t w = 0; w < 4; ++w)
            cpu.mem().corrupt32(spec_.target + 4 * w, spec_.mask);
        break;
      case FaultKind::Cop2StallStorm:
        // Charge stall cycles at every step for the storm window
        // (models an accelerator wedged in queue-full/sync backoff;
        // also meaningful with no coprocessor attached).
        stormEndCycle_ = cpu.cycle() + spec_.durationCycles;
        break;
      case FaultKind::CycleBudgetExhaust:
        // A runaway device holds the pipeline until simulated time
        // drains the whole cycle budget; surfaces as Errc::SimTimeout.
        cpu.addStall(1ull << 62, StallCause::External);
        break;
      case FaultKind::NumKinds:
        break;
    }
}

MpUint
randomLimbs(SplitMix64 &rng, int limbs)
{
    MpUint v;
    for (int i = 0; i < limbs; ++i)
        v.setLimb(i, static_cast<uint32_t>(rng.next()));
    return v;
}

KernelVictim
drawVictim(std::span<const AsmKernel> victims, SplitMix64 &rng)
{
    KernelVictim v;
    v.kernel = victims[rng.below(victims.size())];
    v.a = randomLimbs(rng, v.kernel == AsmKernel::RedP192 ? 12 : 6);
    v.b = randomLimbs(rng, 6);
    return v;
}

KernelStrike
strikeKernel(std::span<const AsmKernel> victims, SplitMix64 &rng)
{
    KernelVictim v = drawVictim(victims, rng);
    Program program = assemble(kernelSource(v.kernel, 6));
    PeteConfig cfg;

    // Golden fault-free run: the reference output and the cycle
    // horizon for planning the strike.
    cfg.maxCycles = 10'000'000;
    KernelSim golden = simulateKernel(v.kernel, 6, program, cfg, v.a, v.b);
    KernelStrike strike;
    if (!golden.outcome.ok()) {
        // The victim failed without a fault: a library bug.
        strike.error = golden.outcome.error();
        return strike;
    }

    FaultInjector injector(rng.next());
    FaultTargetSpace space;
    space.cycleHorizon = golden.stats.cycles;
    space.ramBase = kKernelRamBase;
    space.ramWords = kKernelRamWords;
    space.romWords = static_cast<uint32_t>(program.words.size());
    strike.spec = injector.plan(space);
    injector.arm(strike.spec);
    strike.kind = faultKindName(strike.spec.kind);

    // Budget: a generous multiple of golden, so only genuine runaways
    // (corrupted control flow, budget-exhaust faults) time out -- and
    // the timeout itself is a safe-point stop: Pete checks its budget
    // before every instruction and returns Errc::SimTimeout.
    cfg.maxCycles = golden.stats.cycles * 4 + 100'000;
    KernelSim faulty =
        simulateKernel(v.kernel, 6, program, cfg, v.a, v.b, &injector);
    if (!faulty.outcome.ok()) {
        strike.outcome = CampaignOutcome::Detected;
        strike.error = faulty.outcome.error();
    } else if (faulty.result == golden.result) {
        strike.outcome = CampaignOutcome::Masked;
    } else {
        strike.outcome = CampaignOutcome::SilentlyCorrupted;
    }
    return strike;
}

} // namespace ulecc
