/**
 * @file
 * Pete implementation.
 */

#include "sim/cpu.hh"

namespace ulecc
{

const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
      case StallCause::LoadUse: return "load-use";
      case StallCause::BranchFlush: return "branch-flush";
      case StallCause::Jump: return "jump";
      case StallCause::MultBusy: return "mult-busy";
      case StallCause::IcacheFill: return "icache-fill";
      case StallCause::Cop2: return "cop2";
      case StallCause::External: return "external";
      case StallCause::NumCauses: break;
    }
    return "unknown";
}

uint64_t
stallCycles(const PeteStats &stats, StallCause cause)
{
    switch (cause) {
      case StallCause::LoadUse: return stats.loadUseStalls;
      case StallCause::BranchFlush: return stats.branchMispredicts;
      case StallCause::Jump: return stats.jumpStalls;
      case StallCause::MultBusy: return stats.multBusyStalls;
      case StallCause::IcacheFill: return stats.icacheStalls;
      case StallCause::Cop2: return stats.cop2Stalls;
      case StallCause::External: return stats.externalStalls;
      case StallCause::NumCauses: break;
    }
    return 0;
}

uint64_t
totalStallCycles(const PeteStats &stats)
{
    uint64_t total = 0;
    for (int c = 0; c < static_cast<int>(StallCause::NumCauses); ++c)
        total += stallCycles(stats, static_cast<StallCause>(c));
    return total;
}

void
Pete::addStall(uint64_t cycles, StallCause cause)
{
    stats_.cycles += cycles;
    switch (cause) {
      case StallCause::LoadUse: stats_.loadUseStalls += cycles; break;
      case StallCause::BranchFlush:
        stats_.branchMispredicts += cycles;
        break;
      case StallCause::Jump: stats_.jumpStalls += cycles; break;
      case StallCause::MultBusy: stats_.multBusyStalls += cycles; break;
      case StallCause::IcacheFill: stats_.icacheStalls += cycles; break;
      case StallCause::Cop2: stats_.cop2Stalls += cycles; break;
      case StallCause::External:
      case StallCause::NumCauses:
        stats_.externalStalls += cycles;
        break;
    }
}

Pete::Pete(const Program &program, const PeteConfig &config)
    : config_(config)
{
    mem_.loadRom(program.words);
    if (config_.icacheEnabled) {
        icache_ = std::make_unique<ICache>(config_.icache);
        icache_->invalidateAll();
    }
    predictor_.fill(1); // weakly not-taken
    // Bare-metal convention: stack at the top of RAM.
    regs_[29] = MemoryMap::ramBase + MemoryMap::ramSize - 16;
}

uint32_t
Pete::fetch(uint32_t addr)
{
    if (!icache_)
        return mem_.fetch(addr);
    // With a cache, the word is served out of the cache data array;
    // only line fills touch the ROM (through the 128-bit port).  The
    // cache tracks its own fill count; mirror it into the ROM wide-read
    // counter for the energy model and peek the word functionally.
    uint32_t stall = icache_->access(addr);
    stats_.icacheStalls += stall;
    stats_.cycles += stall;
    mem_.romFetchCounters().wideReads = icache_->romWideReads();
    return mem_.peek32(addr);
}

void
Pete::waitMultUnit()
{
    if (multReadyCycle_ > stats_.cycles) {
        stats_.multBusyStalls += multReadyCycle_ - stats_.cycles;
        stats_.cycles = multReadyCycle_;
    }
}

Error
Pete::budgetError() const
{
    return Error{Errc::SimTimeout,
                 "Pete: cycle budget ("
                 + std::to_string(config_.maxCycles)
                 + ") exhausted at pc=" + std::to_string(pc_)};
}

bool
Pete::step()
{
    if (halted_)
        return false;
    if (hook_)
        hook_->onStep(*this);
    if (budgetExhausted())
        throw UleccError(budgetError());

    // Always the word actually fetched, so a strike on program text
    // (mem().corrupt32, hooked or not) takes effect at its next fetch.
    const DecodedInst inst = decode(fetch(pc_));
    if (inst.op == Op::Invalid) {
        throw UleccError(Errc::IllegalInstruction,
                         "Pete: illegal instruction at pc="
                         + std::to_string(pc_));
    }

    stats_.cycles += 1;
    stats_.instructions += 1;

    // Load-use interlock: a consumer immediately after a load slips one
    // cycle (forwarding covers every other producer).
    if (lastLoadDest_ != 0 && lastLoadInstr_ + 1 == stats_.instructions) {
        int srcs[2];
        int n = srcGprs(inst, srcs);
        for (int i = 0; i < n; ++i) {
            if (srcs[i] == lastLoadDest_) {
                stats_.loadUseStalls++;
                stats_.cycles += 1;
                break;
            }
        }
    }
    const InstClass cls = classOf(inst.op);
    execute(inst, cls);

    lastLoadDest_ = cls == InstClass::Load ? destGpr(inst) : 0;
    lastLoadInstr_ = stats_.instructions;

    uint32_t cur = npc_;
    pc_ = cur;
    npc_ = npcAfter_;
    return !halted_;
}

Result<uint64_t>
Pete::runChecked()
{
    try {
        // One loop, hooked or not: the budget is checked before every
        // instruction, and again by step() after the hook (which may
        // stall the clock straight past it).
        while (!halted_) {
            if (budgetExhausted())
                return budgetError();
            step();
        }
    } catch (const UleccError &e) {
        return e.error();
    }
    return stats_.cycles;
}

bool
Pete::run()
{
    Result<uint64_t> r = runChecked();
    if (r.ok())
        return true;
    if (r.code() == Errc::SimTimeout)
        return false;
    throw UleccError(r.error());
}

void
Pete::execute(const DecodedInst &inst, InstClass cls)
{
    // Default successor of the delay slot.
    npcAfter_ = npc_ + 4;
    if (cls == InstClass::Cop2) {
        if (!cop2_)
            throw UleccError(Errc::Unsupported,
                             "Pete: COP2 with no coprocessor attached");
        uint64_t stall = cop2_->execute(inst, *this);
        addStall(stall, StallCause::Cop2);
        return;
    }
    if (cls == InstClass::System) {
        halted_ = true;
        return;
    }

    // The timing step, from the op's rules, around the effect step.
    const OpTiming &t = opTiming(inst.op);
    if (t.waitsMultUnit)
        waitMultUnit();
    const Successor next = effect(inst, pc_);
    if (t.predicted) {
        stats_.branches++;
        if (mispredicts(pc_, next.taken)) {
            stats_.branchMispredicts++;
            stats_.cycles += 1; // flush the speculatively fetched slot
        }
    }
    // A transfer redirects the instruction *after* the delay slot --
    // the MIPS branch-delay-slot contract.
    if (next.taken)
        npcAfter_ = next.target;
    if (t.timer != MultTimer::None) {
        multReadyCycle_ = stats_.cycles + config_.latency(t.timer);
        stats_.multIssues += t.multIssue;
        stats_.divIssues += t.divIssue;
    }
    if (t.jumpBubble) {
        stats_.jumpStalls++;
        stats_.cycles += 1;
    }
}

void
Pete::unimplementedOp(uint32_t pc)
{
    throw UleccError(Errc::IllegalInstruction,
                     "Pete: unimplemented op at pc=" + std::to_string(pc));
}

} // namespace ulecc
