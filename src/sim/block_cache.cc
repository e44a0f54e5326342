/**
 * @file
 * BlockCache implementation (the model is described in the header).
 *
 * Exactness argument, in one place: a Ready block is straight-line by
 * construction (body ops are non-control, the only exit is the
 * terminator), so a slow execution of it is fully determined by the
 * entry context the key captures -- except for the terminating
 * branch's direction and prediction, which replay resolves against
 * live registers and the real predictor array, and charges on the
 * spot.  Ops whose timing the key cannot pin down (Cop2, System,
 * Invalid, mult-unit ops in a conditional delay slot) never enter a
 * Ready block.  Recording is a real slow execution, so the captured
 * deltas are the slow path's own numbers, and mid-record faults
 * simply propagate with exact state.
 */

#include "sim/block_cache.hh"

#include <string>

#include "sim/cpu.hh"

namespace ulecc
{

BlockCacheMode
parseBlockCacheMode(const char *value)
{
    if (!value)
        return BlockCacheMode::On;
    std::string v(value);
    if (v == "0" || v == "off")
        return BlockCacheMode::Off;
    if (v == "verify" || v == "shadow")
        return BlockCacheMode::Verify;
    // "1" / "on" / empty / anything unrecognised: the default.  A
    // hostile value must never change simulated behaviour (replay is
    // bit-identical to slow stepping), so degrading to On is safe.
    return BlockCacheMode::On;
}

const char *
blockCacheModeName(BlockCacheMode mode)
{
    switch (mode) {
      case BlockCacheMode::On: return "on";
      case BlockCacheMode::Off: return "off";
      case BlockCacheMode::Verify: return "verify";
    }
    return "unknown";
}

bool
BlockCache::runBlock(Pete &cpu)
{
    stats_.lookups++;
    uint32_t pc = cpu.pc_;
    Block *b;
    if (pc == lastPc_ && lastBlock_
        && lastBlock_->generation == cpu.mem_.romGeneration()) {
        // One-entry dispatch memo: a hot loop re-enters the same block
        // back to back; its entry checks already passed last time.
        b = lastBlock_;
    } else {
        // A misaligned or non-ROM pc faults in fetch; one slow step
        // raises it with exact accounting and the exact message.
        if ((pc & 3) != 0 || !MemorySystem::inRom(pc))
            return slowWalk(cpu, 1);
        b = blockFor(cpu, pc);
        if (!b)
            return slowWalk(cpu, 1); // table full: degrade gracefully
    }
    if (b->state == Block::State::Unmemoizable)
        return slowWalk(cpu, b->insts.size());
    // Icache residency: replay is only valid when every line the
    // block touches would hit, because a hit is pure counter bumps
    // (no cache state changes).  The slow walk below warms the lines,
    // so the *next* visit records or replays.
    if (cpu.icache_) {
        uint32_t lineBytes = cpu.icache_->config().lineBytes;
        uint32_t first = pc & ~(lineBytes - 1);
        uint32_t last =
            (pc + 4 * (uint32_t(b->insts.size()) - 1)) & ~(lineBytes - 1);
        for (uint32_t la = first; la <= last; la += lineBytes) {
            if (!cpu.icache_->resident(la))
                return slowWalk(cpu, b->insts.size());
        }
    }
    // Entry timing context: mult-unit countdown (only when the block
    // interlocks on the unit) and load-use exposure of the first
    // instruction (the interlock only ever looks one step back).
    uint32_t countdown = 0;
    if (b->waitsMultUnit && cpu.multReadyCycle_ > cpu.stats_.cycles) {
        uint64_t cd = cpu.multReadyCycle_ - cpu.stats_.cycles;
        if (cd > kMaxCountdown)
            return slowWalk(cpu, b->insts.size());
        countdown = uint32_t(cd);
    }
    bool loadUse0 = cpu.lastLoadDest_ != 0
        && cpu.lastLoadInstr_ == cpu.stats_.instructions
        && ((b->src0Mask >> cpu.lastLoadDest_) & 1u) != 0;
    uint32_t key = countdown | (loadUse0 ? 1u << kCountdownBits : 0u);
    Timing *t = findTiming(*b, key);
    if (!t)
        return record(cpu, *b, key);
    if (mode_ == BlockCacheMode::Verify
        && ++verifyTick_ % kVerifyPeriod == 0)
        return shadowVerify(cpu, *b, *t);
    return replay(cpu, *b, *t);
}

BlockCache::Block *
BlockCache::blockFor(Pete &cpu, uint32_t pc)
{
    auto it = blocks_.find(pc);
    if (it == blocks_.end()) {
        if (blocks_.size() >= kMaxBlocks)
            return nullptr;
        it = blocks_.emplace(pc, Block{}).first;
        discover(cpu, it->second, pc);
    } else if (it->second.generation != cpu.mem_.romGeneration()) {
        // Text changed under us (a fault-injection strike through
        // mem().corrupt32): drop everything derived from the old
        // image and re-scan the current words.
        stats_.invalidations++;
        it->second = Block{};
        discover(cpu, it->second, pc);
    }
    lastPc_ = pc;
    lastBlock_ = &it->second; // stable: unordered_map nodes don't move
    return lastBlock_;
}

void
BlockCache::discover(Pete &cpu, Block &b, uint32_t pc)
{
    b.entryPc = pc;
    b.generation = cpu.mem_.romGeneration();
    b.state = Block::State::Unmemoizable;
    // Body scan: straight-line replayable ops up to the length cap.
    uint32_t p = pc;
    while (b.insts.size() < kMaxBlockLen) {
        if (!MemorySystem::inRom(p))
            return; // ran off the text; the slow walk faults exactly
        DecodedInst inst = decode(cpu.mem_.peek32(p));
        if (endsBasicBlock(inst.op)) {
            b.insts.push_back(inst);
            InstClass cls = classOf(inst.op);
            if (cls != InstClass::Branch && cls != InstClass::Jump)
                return; // Syscall/Break/Invalid: slow-walk territory
            b.termIndex = int(b.insts.size()) - 1;
            break;
        }
        if (!blockReplayable(inst.op)) {
            b.insts.push_back(inst); // Cop2: slow-walk through it
            return;
        }
        b.insts.push_back(inst);
        p += 4;
    }
    if (b.termIndex >= 0) {
        // The delay slot belongs to the block: it retires after the
        // branch but before the redirect takes effect.
        uint32_t dp = b.entryPc + 4 * uint32_t(b.termIndex) + 4;
        if (!MemorySystem::inRom(dp))
            return;
        DecodedInst ds = decode(cpu.mem_.peek32(dp));
        if (!blockReplayable(ds.op) || endsBasicBlock(ds.op))
            return; // control flow / cop2 / system in a delay slot
        Op term = b.insts[size_t(b.termIndex)].op;
        bool cond = opTiming(term).predicted;
        if (cond && opTiming(ds.op).waitsMultUnit)
            return; // its stall would depend on the branch outcome
        b.insts.push_back(ds);
        b.condBranch = cond;
        b.jumpStalls = opTiming(term).jumpBubble ? 1 : 0;
    }
    // A block that hits the cap with no terminator is a plain
    // straight-line run: perfectly memoizable, exits at entry + 4n.
    for (const DecodedInst &inst : b.insts) {
        const OpTiming &t = opTiming(inst.op);
        b.issuesMultUnit |= t.timer != MultTimer::None;
        b.waitsMultUnit |= t.waitsMultUnit;
        b.multIssues += t.multIssue;
        b.divIssues += t.divIssue;
    }
    int srcs[2];
    int n = srcGprs(b.insts[0], srcs);
    for (int i = 0; i < n; ++i)
        b.src0Mask |= 1u << srcs[i];
    const DecodedInst &last = b.insts.back();
    b.exitLoadDest = classOf(last.op) == InstClass::Load
        ? uint8_t(destGpr(last)) : 0;
    b.state = Block::State::Ready;
}

BlockCache::Timing *
BlockCache::findTiming(Block &b, uint32_t key)
{
    for (Timing &t : b.timings)
        if (t.key == key)
            return &t;
    return nullptr;
}

bool
BlockCache::slowWalk(Pete &cpu, size_t steps)
{
    // Walking a known extent without re-dispatching per pc is safe
    // because everything before a block's last instruction is
    // non-control by construction; faults and halts are the slow
    // path's own, hence exact.
    stats_.slowWalks++;
    if (steps == 0)
        steps = 1;
    for (size_t i = 0; i < steps; ++i)
        if (!cpu.stepUnchecked())
            return false;
    return true;
}

bool
BlockCache::record(Pete &cpu, Block &b, uint32_t key)
{
    // First visit under this context: execute through the slow path
    // (exact by definition) and capture what each step charged.
    PeteStats &s = cpu.stats_;
    const uint64_t entryCycles = s.cycles;
    Timing t;
    t.key = key;
    const size_t n = b.insts.size();
    t.steps.reserve(n);
    bool usable = true;
    for (size_t i = 0; i < n; ++i) {
        uint64_t c0 = s.cycles;
        uint64_t lu0 = s.loadUseStalls;
        uint64_t mb0 = s.multBusyStalls;
        uint64_t bm0 = s.branchMispredicts;
        uint64_t ic0 = s.icacheStalls;
        uint64_t mr0 = cpu.multReadyCycle_;
        bool alive = cpu.stepUnchecked(); // a fault propagates: exact
        StepTiming st;
        st.cycles = uint32_t(s.cycles - c0);
        st.loadUse = uint8_t(s.loadUseStalls - lu0);
        st.multBusy = uint32_t(s.multBusyStalls - mb0);
        st.multReadyRelAfter = cpu.multReadyCycle_ != mr0
            ? uint32_t(cpu.multReadyCycle_ - entryCycles)
            : kNoIssue;
        if (int(i) == b.termIndex) {
            // The mispredict flush is data-dependent; replay charges
            // it live after resolving the branch direction.
            st.cycles -= uint32_t(s.branchMispredicts - bm0);
        }
        // Defensive: residency was established at dispatch, so no
        // fill stall can appear; if one somehow does, the context
        // didn't capture this execution and the timing is unusable.
        if (s.icacheStalls != ic0 || !alive)
            usable = false;
        t.steps.push_back(st);
        t.totalCycles += st.cycles;
        t.totalLoadUse += st.loadUse;
        t.totalMultBusy += st.multBusy;
    }
    if (usable && b.issuesMultUnit)
        t.exitMultReadyRel = uint32_t(cpu.multReadyCycle_ - entryCycles);
    if (usable && b.timings.size() < kMaxTimingsPerBlock) {
        b.timings.push_back(std::move(t));
        stats_.records++;
    }
    return !cpu.halted_;
}

bool
BlockCache::replay(Pete &cpu, Block &b, const Timing &t)
{
    PeteStats &s = cpu.stats_;
    const uint64_t entryCycles = s.cycles;
    const size_t n = b.insts.size();
    const uint32_t entryPc = b.entryPc;
    bool mispredicted = false;
    uint32_t nextPc = entryPc + 4 * uint32_t(n);
    try {
        // Fault-point bookkeeping lives in members (not locals read
        // by the catch block), so the loop's induction variable can
        // stay in a register across the potentially-throwing memory
        // accesses; the only per-step overhead is one store.
        const DecodedInst *insts = b.insts.data();
        const size_t bodyEnd = b.termIndex >= 0 ? size_t(b.termIndex) : n;
        for (size_t i = 0; i < bodyEnd; ++i) {
            replayStep_ = i;
            cpu.effect(insts[i], entryPc + 4 * uint32_t(i));
        }
        if (b.termIndex >= 0) {
            // Semi-live terminator: the real predictor is consulted and
            // trained; its counters are charged below (in bulk, or by
            // the fault reconstruction).
            replayStep_ = bodyEnd;
            const uint32_t pc = entryPc + 4 * uint32_t(bodyEnd);
            const Pete::Successor next = cpu.effect(insts[bodyEnd], pc);
            if (b.condBranch)
                mispredicted = replayMispredicted_ =
                    cpu.mispredicts(pc, next.taken);
            nextPc = replayNextPc_ = next.taken ? next.target : pc + 8;
            if (bodyEnd + 1 < n) {
                replayStep_ = bodyEnd + 1; // the delay slot
                cpu.effect(insts[bodyEnd + 1], pc + 4);
            }
        }
    } catch (const UleccError &) {
        // Reconstruct the exact slow-path accounting at the fault
        // point: steps 0..i-1 retired fully; step i fetched, charged
        // its base cycle plus any load-use slip, then faulted in
        // execute.  Only memory ops throw out of the effect step, and
        // those charge nothing further before the access, so step
        // i's recorded deltas *are* its pre-fault deltas.
        const size_t i = replayStep_;
        const bool pastTerm = b.termIndex >= 0 && i > size_t(b.termIndex);
        for (size_t j = 0; j <= i && j < t.steps.size(); ++j) {
            s.cycles += t.steps[j].cycles;
            s.loadUseStalls += t.steps[j].loadUse;
            s.multBusyStalls += t.steps[j].multBusy;
        }
        s.instructions += i + 1;
        if (pastTerm) {
            if (b.condBranch) {
                s.branches++;
                if (replayMispredicted_) {
                    s.branchMispredicts++;
                    s.cycles++;
                }
            }
            s.jumpStalls += b.jumpStalls;
        }
        uint32_t mrel = kNoIssue;
        for (size_t j = 0; j < i && j < t.steps.size(); ++j) {
            const OpTiming &rule = opTiming(b.insts[j].op);
            s.multIssues += rule.multIssue;
            s.divIssues += rule.divIssue;
            if (t.steps[j].multReadyRelAfter != kNoIssue)
                mrel = t.steps[j].multReadyRelAfter;
        }
        if (mrel != kNoIssue)
            cpu.multReadyCycle_ = entryCycles + mrel;
        if (cpu.icache_)
            cpu.icache_->creditResidentFetches(i + 1);
        else
            cpu.mem_.romFetchCounters().reads += i + 1;
        if (i > 0) {
            const DecodedInst &prev = b.insts[i - 1];
            cpu.lastLoadDest_ = classOf(prev.op) == InstClass::Load
                ? destGpr(prev) : 0;
            cpu.lastLoadInstr_ = s.instructions - 1;
        }
        cpu.pc_ = entryPc + 4 * uint32_t(i);
        cpu.npc_ = (pastTerm && i + 1 == n) ? replayNextPc_ : cpu.pc_ + 4;
        throw;
    }
    s.cycles += t.totalCycles;
    s.instructions += n;
    s.loadUseStalls += t.totalLoadUse;
    s.multBusyStalls += t.totalMultBusy;
    s.jumpStalls += b.jumpStalls;
    if (b.condBranch) {
        s.branches++;
        if (mispredicted) {
            s.branchMispredicts++;
            s.cycles++;
        }
    }
    s.multIssues += b.multIssues;
    s.divIssues += b.divIssues;
    if (cpu.icache_)
        cpu.icache_->creditResidentFetches(n);
    else
        cpu.mem_.romFetchCounters().reads += n;
    if (b.issuesMultUnit)
        cpu.multReadyCycle_ = entryCycles + t.exitMultReadyRel;
    cpu.lastLoadDest_ = b.exitLoadDest;
    cpu.lastLoadInstr_ = s.instructions;
    cpu.pc_ = nextPc;
    cpu.npc_ = nextPc + 4;
    stats_.replays++;
    stats_.replayedInstructions += n;
    return true; // Ready blocks contain no halting op
}

bool
BlockCache::shadowVerify(Pete &cpu, Block &b, const Timing &t)
{
    // Execute through the slow path (authoritative), then cross-check
    // the memoized deltas against what it actually charged.  A
    // mismatch is a simulator invariant breach, not a simulated
    // fault: Errc::Internal.
    stats_.shadowVerifies++;
    PeteStats before = cpu.stats_;
    const size_t n = b.insts.size();
    for (size_t i = 0; i < n; ++i)
        if (!cpu.stepUnchecked())
            return false; // defensive; Ready blocks never halt
    const PeteStats &s = cpu.stats_;
    uint64_t mispredicts = s.branchMispredicts - before.branchMispredicts;
    bool okay = s.instructions - before.instructions == n
        && s.cycles - before.cycles == t.totalCycles + mispredicts
        && s.loadUseStalls - before.loadUseStalls == t.totalLoadUse
        && s.multBusyStalls - before.multBusyStalls == t.totalMultBusy
        && s.jumpStalls - before.jumpStalls == b.jumpStalls
        && s.branches - before.branches == (b.condBranch ? 1u : 0u)
        && s.icacheStalls == before.icacheStalls
        && s.multIssues - before.multIssues == b.multIssues
        && s.divIssues - before.divIssues == b.divIssues
        && (!b.issuesMultUnit
            || cpu.multReadyCycle_ == before.cycles + t.exitMultReadyRel);
    if (!okay)
        throw UleccError(Errc::Internal,
                         "BlockCache: shadow-verify divergence at pc="
                         + std::to_string(b.entryPc));
    return !cpu.halted_;
}

} // namespace ulecc
