/**
 * @file
 * Pete implementation.
 */

#include "sim/cpu.hh"

#include <cstdlib>

#include "mpint/binary_field.hh" // clmul32 for the GF(2) extensions
#include "sim/karatsuba_unit.hh"

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
    if (config_.blockCache) {
        BlockCacheMode mode =
            parseBlockCacheMode(std::getenv("ULECC_BLOCK_CACHE"));
        if (mode != BlockCacheMode::Off)
            blockCache_ = std::make_unique<BlockCache>(mode);
    }
    predictor_.fill(1); // weakly not-taken
    // Bare-metal convention: stack at the top of RAM.
    regs_[29] = MemoryMap::ramBase + MemoryMap::ramSize - 16;
}

void
Pete::setPc(uint32_t pc)
{
    pc_ = pc;
    npc_ = pc + 4;
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

void
Pete::doBranch(bool taken, int32_t disp)
{
    stats_.branches++;
    bool predicted = predictTaken(pc_);
    if (predicted != taken) {
        stats_.branchMispredicts++;
        stats_.cycles += 1; // flush the speculatively fetched slot
    }
    trainPredictor(pc_, taken);
    if (taken)
        npcAfter_ = pc_ + 4 + (static_cast<uint32_t>(disp) << 2);
    // npcAfter_ redirects the instruction *after* the delay slot --
    // the MIPS branch-delay-slot contract.
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
    return stepUnchecked();
}

bool
Pete::stepUnchecked()
{
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
    int load_dest = 0;

    execute(inst);

    if (classOf(inst.op) == InstClass::Load)
        load_dest = destGpr(inst);
    lastLoadDest_ = load_dest;
    lastLoadInstr_ = stats_.instructions;

    uint32_t cur = npc_;
    pc_ = cur;
    npc_ = npcAfter_;
    return !halted_;
}

namespace
{

/**
 * How many fast-path steps run between cycle-budget checks.  Every
 * step retires at least one cycle, so exhaustion is detected within
 * one interval of the exact step; the budget is a runaway guard
 * (default 500M cycles), not a precision timer, and the only
 * observable difference is how far past the limit a diverging program
 * coasts before Errc::SimTimeout surfaces.
 */
constexpr int kBudgetCheckInterval = 256;

} // namespace

Result<uint64_t>
Pete::runChecked()
{
    try {
        if (hook_) {
            // Observation/injection present: keep the exact per-step
            // hook and budget semantics (the hook may stall the clock
            // straight past the budget, which must surface before the
            // next instruction executes).
            while (!halted_) {
                if (budgetExhausted())
                    return budgetError();
                step();
            }
        } else if (blockCache_) {
            // Block-memoized fast path (hook-free only): hot basic
            // blocks retire as one memo lookup plus a lean
            // architectural replay.  The budget is polled once per
            // block, so a diverging program can coast at most one
            // block (BlockCache::kMaxBlockLen + 1 instructions) past
            // the limit -- tighter than the batched interval below.
            while (!halted_) {
                if (budgetExhausted())
                    return budgetError();
                blockCache_->runBlock(*this);
            }
        } else {
            // Hook-free fast path: the hook dispatch and the budget
            // check are hoisted out of the per-step loop.  Cycle
            // *accounting* is exact either way; only the budget poll
            // is batched.
            while (!halted_) {
                if (budgetExhausted())
                    return budgetError();
                for (int i = 0; i < kBudgetCheckInterval; ++i) {
                    if (!stepUnchecked())
                        break;
                }
            }
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
Pete::execute(const DecodedInst &inst)
{
    // Default successor of the delay slot.
    npcAfter_ = npc_ + 4;
    auto rs = [&] { return regs_[inst.rs]; };
    auto rt = [&] { return regs_[inst.rt]; };
    auto wr = [&](int r, uint32_t v) { setReg(r, v); };

    switch (inst.op) {
      case Op::Sll:
        wr(inst.rd, rt() << inst.shamt);
        break;
      case Op::Srl:
        wr(inst.rd, rt() >> inst.shamt);
        break;
      case Op::Sra:
        wr(inst.rd, static_cast<uint32_t>(
               static_cast<int32_t>(rt()) >> inst.shamt));
        break;
      case Op::Sllv:
        wr(inst.rd, rt() << (rs() & 31));
        break;
      case Op::Srlv:
        wr(inst.rd, rt() >> (rs() & 31));
        break;
      case Op::Srav:
        wr(inst.rd, static_cast<uint32_t>(
               static_cast<int32_t>(rt()) >> (rs() & 31)));
        break;
      case Op::Add:
      case Op::Addu:
        wr(inst.rd, rs() + rt());
        break;
      case Op::Sub:
      case Op::Subu:
        wr(inst.rd, rs() - rt());
        break;
      case Op::And:
        wr(inst.rd, rs() & rt());
        break;
      case Op::Or:
        wr(inst.rd, rs() | rt());
        break;
      case Op::Xor:
        wr(inst.rd, rs() ^ rt());
        break;
      case Op::Nor:
        wr(inst.rd, ~(rs() | rt()));
        break;
      case Op::Slt:
        wr(inst.rd, static_cast<int32_t>(rs()) < static_cast<int32_t>(rt())
           ? 1 : 0);
        break;
      case Op::Sltu:
        wr(inst.rd, rs() < rt() ? 1 : 0);
        break;
      case Op::Addi:
      case Op::Addiu:
        wr(inst.rt, rs() + static_cast<uint32_t>(inst.simm));
        break;
      case Op::Slti:
        wr(inst.rt, static_cast<int32_t>(rs()) < inst.simm ? 1 : 0);
        break;
      case Op::Sltiu:
        wr(inst.rt, rs() < static_cast<uint32_t>(inst.simm) ? 1 : 0);
        break;
      case Op::Andi:
        wr(inst.rt, rs() & inst.uimm);
        break;
      case Op::Ori:
        wr(inst.rt, rs() | inst.uimm);
        break;
      case Op::Xori:
        wr(inst.rt, rs() ^ inst.uimm);
        break;
      case Op::Lui:
        wr(inst.rt, inst.uimm << 16);
        break;
      case Op::Lb:
        wr(inst.rt, static_cast<uint32_t>(static_cast<int32_t>(
               static_cast<int8_t>(mem_.read8(rs() + inst.simm)))));
        break;
      case Op::Lbu:
        wr(inst.rt, mem_.read8(rs() + inst.simm));
        break;
      case Op::Lh:
        wr(inst.rt, static_cast<uint32_t>(static_cast<int32_t>(
               static_cast<int16_t>(mem_.read16(rs() + inst.simm)))));
        break;
      case Op::Lhu:
        wr(inst.rt, mem_.read16(rs() + inst.simm));
        break;
      case Op::Lw:
        wr(inst.rt, mem_.read32(rs() + inst.simm));
        break;
      case Op::Sb:
        mem_.write8(rs() + inst.simm, rt());
        break;
      case Op::Sh:
        mem_.write16(rs() + inst.simm, rt());
        break;
      case Op::Sw:
        mem_.write32(rs() + inst.simm, rt());
        break;
      case Op::Beq:
        doBranch(rs() == rt(), inst.simm);
        break;
      case Op::Bne:
        doBranch(rs() != rt(), inst.simm);
        break;
      case Op::Blez:
        doBranch(static_cast<int32_t>(rs()) <= 0, inst.simm);
        break;
      case Op::Bgtz:
        doBranch(static_cast<int32_t>(rs()) > 0, inst.simm);
        break;
      case Op::Bltz:
        doBranch(static_cast<int32_t>(rs()) < 0, inst.simm);
        break;
      case Op::Bgez:
        doBranch(static_cast<int32_t>(rs()) >= 0, inst.simm);
        break;
      case Op::J:
        npcAfter_ = ((pc_ + 4) & 0xF0000000) | (inst.target << 2);
        break;
      case Op::Jal:
        wr(31, pc_ + 8);
        npcAfter_ = ((pc_ + 4) & 0xF0000000) | (inst.target << 2);
        break;
      case Op::Jr:
        npcAfter_ = rs();
        stats_.jumpStalls++;
        stats_.cycles += 1;
        break;
      case Op::Jalr:
        wr(inst.rd, pc_ + 8);
        npcAfter_ = rs();
        stats_.jumpStalls++;
        stats_.cycles += 1;
        break;
      case Op::Mult:
      case Op::Multu: {
        // The multi-cycle Karatsuba unit (Section 5.1.2) performs the
        // product with three half-width multiplications.
        waitMultUnit();
        stats_.multIssues++;
        KaratsubaUnit unit;
        unit.set(hi_, lo_, ovflo_);
        unit.execute(inst.op == Op::Mult ? KaratsubaOp::Mult
                                         : KaratsubaOp::Multu,
                     rs(), rt());
        hi_ = unit.hi();
        lo_ = unit.lo();
        multReadyCycle_ = stats_.cycles + config_.multLatency;
        break;
      }
      case Op::Div: {
        waitMultUnit();
        stats_.divIssues++;
        int32_t a = static_cast<int32_t>(rs());
        int32_t b = static_cast<int32_t>(rt());
        lo_ = b ? static_cast<uint32_t>(a / b) : 0;
        hi_ = b ? static_cast<uint32_t>(a % b) : 0;
        multReadyCycle_ = stats_.cycles + config_.divLatency;
        break;
      }
      case Op::Divu: {
        waitMultUnit();
        stats_.divIssues++;
        uint32_t a = rs(), b = rt();
        lo_ = b ? a / b : 0;
        hi_ = b ? a % b : 0;
        multReadyCycle_ = stats_.cycles + config_.divLatency;
        break;
      }
      case Op::Mfhi:
        waitMultUnit();
        wr(inst.rd, hi_);
        break;
      case Op::Mflo:
        waitMultUnit();
        wr(inst.rd, lo_);
        break;
      case Op::Mthi:
        waitMultUnit();
        hi_ = rs();
        break;
      case Op::Mtlo:
        waitMultUnit();
        lo_ = rs();
        break;
      case Op::Maddu:
      case Op::M2addu: {
        waitMultUnit();
        stats_.multIssues++;
        KaratsubaUnit unit;
        unit.set(hi_, lo_, ovflo_);
        unit.execute(inst.op == Op::Maddu ? KaratsubaOp::Maddu
                                          : KaratsubaOp::M2addu,
                     rs(), rt());
        hi_ = unit.hi();
        lo_ = unit.lo();
        ovflo_ = unit.ovflo();
        multReadyCycle_ = stats_.cycles + config_.macLatency;
        break;
      }
      case Op::Addau: {
        waitMultUnit();
        uint64_t p = (static_cast<uint64_t>(rs()) << 32) | rt();
        uint64_t old = (static_cast<uint64_t>(hi_) << 32) | lo_;
        uint64_t sum = old + p;
        if (sum < old)
            ovflo_ += 1;
        lo_ = static_cast<uint32_t>(sum);
        hi_ = static_cast<uint32_t>(sum >> 32);
        multReadyCycle_ = stats_.cycles + config_.addauLatency;
        break;
      }
      case Op::Sha:
        waitMultUnit();
        lo_ = hi_;
        hi_ = ovflo_;
        ovflo_ = 0;
        break;
      case Op::Mulgf2:
      case Op::Maddgf2: {
        // The multiplexed 16x16 carry-less block (Fig 5.4).
        waitMultUnit();
        stats_.multIssues++;
        KaratsubaUnit unit;
        unit.set(hi_, lo_, ovflo_);
        unit.execute(inst.op == Op::Mulgf2 ? KaratsubaOp::Mulgf2
                                           : KaratsubaOp::Maddgf2,
                     rs(), rt());
        hi_ = unit.hi();
        lo_ = unit.lo();
        ovflo_ = unit.ovflo();
        multReadyCycle_ = stats_.cycles + config_.gf2Latency;
        break;
      }
      case Op::Ctc2:
      case Op::Cop2sync:
      case Op::Cop2lda:
      case Op::Cop2ldb:
      case Op::Cop2ldn:
      case Op::Cop2mul:
      case Op::Cop2add:
      case Op::Cop2sub:
      case Op::Cop2st:
      case Op::Bld:
      case Op::Bst:
      case Op::Bmul:
      case Op::Bsqr:
      case Op::Badd: {
        if (!cop2_)
            throw UleccError(Errc::Unsupported,
                             "Pete: COP2 with no coprocessor attached");
        uint64_t stall = cop2_->execute(inst, *this);
        addStall(stall, StallCause::Cop2);
        break;
      }
      case Op::Syscall:
      case Op::Break:
        halted_ = true;
        break;
      default:
        throw UleccError(Errc::IllegalInstruction,
                         "Pete: unimplemented op at pc="
                         + std::to_string(pc_));
    }
}

} // namespace ulecc
