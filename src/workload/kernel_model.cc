/**
 * @file
 * KernelModel implementation.
 */

#include "workload/kernel_model.hh"

#include "base/error.hh"
#include "base/once_map.hh"

#include <cassert>
#include <utility>

#include "accel/billie.hh"
#include "accel/monte.hh"
#include "workload/asm_kernels.hh"

namespace ulecc
{

const char *
microArchName(MicroArch arch)
{
    switch (arch) {
      case MicroArch::Baseline: return "Baseline";
      case MicroArch::IsaExt: return "ISA Ext";
      case MicroArch::IsaExtIcache: return "ISA Ext + I$";
      case MicroArch::Monte: return "W/ Monte";
      case MicroArch::Billie: return "W/ Billie";
    }
    return "?";
}

namespace
{

/** Simulator-measured kernels, memoized per word count. */
struct MeasuredKernels
{
    KernelRun add;
    KernelRun mulOs;
    KernelRun mulPs;
    KernelRun mulGf2;
};

const MeasuredKernels &
measuredKernels(int k, MultiplierVariant mult)
{
    // Keyed by word count AND multiplier design point: the same
    // kernel text takes different cycle counts against different
    // unit latencies (a shared entry would silently time every
    // variant like the default).
    using Key = std::pair<int, MultiplierVariant>;
    static OnceMap<Key, MeasuredKernels> cache;
    return cache.get(Key{k, mult}, [k, mult] {
        // Deterministic full-width operands.
        MpUint a, b;
        for (int i = 0; i < k; ++i) {
            a.setLimb(i, 0x9E3779B9u * (i + 1) ^ 0x5bd1e995u);
            b.setLimb(i, 0x85EBCA6Bu * (i + 3) ^ 0xc2b2ae35u);
        }
        MeasuredKernels m;
        m.add = runKernel(AsmKernel::MpAdd, a, b, k, nullptr, mult);
        m.mulOs = runKernel(AsmKernel::MulOs, a, b, k, nullptr, mult);
        m.mulPs = runKernel(AsmKernel::MulPsMaddu, a, b, k, nullptr,
                            mult);
        m.mulGf2 = runKernel(AsmKernel::MulGf2, a, b, k, nullptr, mult);
        return m;
    });
}

int
popcountMp(const MpUint &v)
{
    int c = 0;
    for (int i = 0; i < v.size(); ++i)
        c += __builtin_popcount(v.limb(i));
    return c;
}

OpCost
scaleCost(const OpCost &c, double f)
{
    OpCost r = c;
    r.cycles *= f;
    r.instructions *= f;
    r.multActiveCycles *= f;
    r.ramReads *= f;
    r.ramWrites *= f;
    r.monteFfauCycles *= f;
    r.monteDmaCycles *= f;
    r.monteBufAccesses *= f;
    r.billieActiveCycles *= f;
    return r;
}

} // namespace

KernelModel::KernelModel(MicroArch arch, CurveId curve,
                         const KernelModelOptions &options)
    : arch_(arch), curve_(curve), options_(options)
{
    const Curve &c = standardCurve(curve);
    binary_ = c.isBinary();
    bits_ = c.fieldBits();
    k_ = (bits_ + 31) / 32;
    kn_ = (c.order().bitLength() + 31) / 32;
    if (arch == MicroArch::Monte && binary_)
        throw UleccError(Errc::Unsupported,
                         "KernelModel: Monte accelerates prime fields only");
    if (arch == MicroArch::Billie && !binary_)
        throw UleccError(Errc::Unsupported,
                         "KernelModel: Billie accelerates binary "
                         "fields only");
    build();
}

const OpCost &
KernelModel::cost(OpDomain domain, FieldOp op) const
{
    return table_[static_cast<int>(domain)][static_cast<int>(op)];
}

OpCost
KernelModel::peteOp(double kernel_cycles, double ram_reads,
                    double ram_writes, double mult_cycles,
                    double glue) const
{
    OpCost c;
    c.cycles = kernel_cycles + glue;
    c.instructions = 0.93 * kernel_cycles + glue;
    c.multActiveCycles = mult_cycles;
    c.ramReads = ram_reads + 2;
    c.ramWrites = ram_writes + 1;
    return c;
}

OpCost
KernelModel::monteFieldOp(bool is_mul) const
{
    const int k = k_;
    const double dma = 2.4 * (k + 2); // ~1.4 loads + 1 store, forwarded
    const double ffau = is_mul
        ? static_cast<double>(ffauCiosCycles(k))
        : static_cast<double>(ffauAddSubCycles(k));
    OpCost c;
    if (options_.monteDoubleBuffer) {
        // Loads of the next operands and the previous store overlap
        // the FFAU microprogram.
        c.cycles = std::max(ffau, dma + 6.0) + 4.0;
    } else {
        // A single shared buffer fully serialises the two loads, the
        // computation and the store, plus a per-op sync.
        c.cycles = ffau + 3.0 * (k + 2) + 10.0;
    }
    c.instructions = 10;
    c.ramReads = 1.7 * k;
    c.ramWrites = k;
    c.monteFfauCycles = ffau;
    c.monteDmaCycles = dma;
    c.monteBufAccesses = is_mul ? 2.5 * ffau : 3.0 * k;
    return c;
}

OpCost
KernelModel::billieFieldOp(FieldOp op) const
{
    const int m = bits_;
    OpCost c;
    double lat = 1;
    switch (op) {
      case FieldOp::Mul:
        lat = static_cast<double>(
            billieMulCycles(m, options_.billieDigit));
        break;
      case FieldOp::Sqr:
        lat = 2;
        break;
      default:
        lat = 1;
        break;
    }
    c.cycles = lat + 2;   // queue issue + writeback arbitration
    c.instructions = 3;   // Pete feeds the queue and walks the program
    c.ramReads = 0.4 * k_; // amortised operand loads/stores
    c.ramWrites = 0.2 * k_;
    c.billieActiveCycles = lat;
    return c;
}

void
KernelModel::build()
{
    const bool isa = arch_ == MicroArch::IsaExt
        || arch_ == MicroArch::IsaExtIcache;
    const int k = k_;
    const MeasuredKernels &mk = measuredKernels(k, options_.multiplier);
    const MeasuredKernels &mkn =
        measuredKernels(kn_, options_.multiplier);
    // The analytic occupancy terms below charge this descriptor's
    // per-issue busy cycles -- the same contract Pete's timing model
    // consumes (sim/multiplier.hh).  The default Karatsuba descriptor
    // reproduces the historical constants exactly (4, 8k+10, 3 = 0.75
    // x 4, ...), so the paper's design points are bit-identical.
    const MultiplierDesc &md = multiplierDesc(options_.multiplier);
    const double mul_occ = isa ? md.macLatency : md.multLatency;
    const double gf2_occ = md.gf2Latency;
    const double glue = (arch_ == MicroArch::Monte
                         || arch_ == MicroArch::Billie) ? 6.0 : 16.0;

    // --- Reduction (analytic, paper-anchored: 97 cy @ k=6 prime,
    //     100 cy @ k=6 binary) -----------------------------------------
    const double red_p = 13.0 * k + 19.0;
    const double red_b = 13.0 * k + 22.0;

    auto &curve_tbl = table_[static_cast<int>(OpDomain::CurveField)];
    auto set = [&](FieldOp op, const OpCost &c) {
        curve_tbl[static_cast<int>(op)] = c;
    };

    if (arch_ == MicroArch::Monte) {
        OpCost mul = monteFieldOp(true);
        set(FieldOp::Mul, mul);
        set(FieldOp::Sqr, mul); // no dedicated squarer in the FFAU
        OpCost add = monteFieldOp(false);
        set(FieldOp::Add, add);
        set(FieldOp::Sub, add);
        set(FieldOp::Reduce, monteFieldOp(false));
        // Fermat inversion in microcode: x^(p-2) as a square-and-
        // multiply chain of CIOS operations with forwarded operands
        // (DMA only touches shared RAM at the ends).
        const MpUint &p =
            dynamic_cast<const PrimeCurve &>(standardCurve(curve_))
                .field().modulus();
        MpUint e = p.sub(MpUint(2));
        int n_sq = e.bitLength() - 1;
        int n_mul = popcountMp(e) - 1;
        OpCost chain_op = mul;
        chain_op.ramReads = 0.2 * k; // forwarding keeps data inside
        chain_op.ramWrites = 0.1 * k;
        chain_op.monteDmaCycles = 0.8 * (k + 2);
        chain_op.cycles = std::max(chain_op.monteFfauCycles,
                                   chain_op.monteDmaCycles) + 4.0;
        set(FieldOp::Inv, scaleCost(chain_op, n_sq + n_mul));
    } else if (arch_ == MicroArch::Billie) {
        set(FieldOp::Mul, billieFieldOp(FieldOp::Mul));
        set(FieldOp::Sqr, billieFieldOp(FieldOp::Sqr));
        set(FieldOp::Add, billieFieldOp(FieldOp::Add));
        set(FieldOp::Sub, billieFieldOp(FieldOp::Sub));
        set(FieldOp::Reduce, billieFieldOp(FieldOp::Add));
        // Fermat inversion on the accelerator: (m-1) squarings and
        // (m-2) multiplications, register-resident.
        OpCost inv = scaleCost(billieFieldOp(FieldOp::Mul), bits_ - 2);
        OpCost sqs = scaleCost(billieFieldOp(FieldOp::Sqr), bits_ - 1);
        inv.cycles += sqs.cycles;
        inv.instructions += sqs.instructions;
        inv.billieActiveCycles += sqs.billieActiveCycles;
        set(FieldOp::Inv, inv);
    } else if (!binary_) {
        // Software prime field on Pete.
        const KernelRun &mul_k = isa ? mk.mulPs : mk.mulOs;
        double sqr_f = isa ? 0.65 : 0.80; // M2ADDU / diagonal shortcut
        set(FieldOp::Mul,
            peteOp(mul_k.cycles + red_p, mul_k.ramReads + 2 * k + 6,
                   mul_k.ramWrites + k, mul_occ * k * k, glue));
        set(FieldOp::Sqr,
            peteOp(sqr_f * mul_k.cycles + red_p,
                   sqr_f * mul_k.ramReads + 2 * k + 6,
                   sqr_f * mul_k.ramWrites + k,
                   mul_occ * (k * k + k) / 2.0, glue));
        // Modular add/sub: raw add + conditional correction.
        set(FieldOp::Add,
            peteOp(1.4 * mk.add.cycles, 2.5 * k, 1.2 * k, 0, glue));
        set(FieldOp::Sub,
            peteOp(1.4 * mk.add.cycles, 2.5 * k, 1.2 * k, 0, glue));
        set(FieldOp::Reduce,
            peteOp(red_p, 2 * k + 6, k, 0, glue));
        // Binary EEA inversion: ~2*bits iterations of shift/sub.
        double it = 2.0 * bits_;
        set(FieldOp::Inv,
            peteOp(it * (2.2 * k + 14.0), it * 1.5 * k, it * 0.75 * k,
                   0, glue));
    } else {
        // Software binary field on Pete.
        if (isa) {
            set(FieldOp::Mul,
                peteOp(mk.mulGf2.cycles + red_b,
                       mk.mulGf2.ramReads + 2 * k + 6,
                       mk.mulGf2.ramWrites + k, gf2_occ * k * k, glue));
            // Squaring through the carry-less multiplier: k MULGF2s,
            // each costing the unit's occupancy plus ~4 glue cycles.
            set(FieldOp::Sqr,
                peteOp((4.0 + gf2_occ) * k + 10 + red_b, 3.0 * k + 6,
                       3.0 * k, gf2_occ * k, glue));
        } else {
            // Left-to-right comb, w = 4 (Algorithm 6): the costly
            // software-only path -- the per-multiplication Bu
            // precomputation plus eight accumulate/shift passes over
            // the double-width result dominate.
            double comb = 105.0 * k * k + 160.0 * k + 300.0;
            set(FieldOp::Mul,
                peteOp(comb + red_b, 12.0 * k * k + 24 * k,
                       10.0 * k * k + 30 * k, 0, glue));
            // Table-based squaring (Section 4.2.3).
            set(FieldOp::Sqr,
                peteOp(24.0 * k + 30 + red_b, 5.0 * k + 6, 3.0 * k,
                       0, glue));
        }
        set(FieldOp::Add,
            peteOp(7.0 * k + 10, 2.0 * k, k, 0, glue));
        set(FieldOp::Sub,
            peteOp(7.0 * k + 10, 2.0 * k, k, 0, glue));
        set(FieldOp::Reduce, peteOp(red_b, 2 * k + 6, k, 0, glue));
        double it = 2.0 * bits_;
        set(FieldOp::Inv,
            peteOp(it * (2.2 * k + 12.0), it * 1.5 * k, it * 0.75 * k,
                   0, glue));
    }

    // --- Order-field arithmetic (always on Pete; the group order is
    //     a generic prime, so reduction costs more than NIST fast
    //     reduction -- Barrett-style, ~2.5x) -----------------------------
    auto &order_tbl = table_[static_cast<int>(OpDomain::OrderField)];
    auto oset = [&](FieldOp op, const OpCost &c) {
        order_tbl[static_cast<int>(op)] = c;
    };
    const bool pete_isa = isa; // accel configs leave Pete unextended
    const KernelRun &omul_k = pete_isa ? mkn.mulPs : mkn.mulOs;
    const double ored = 2.5 * (13.0 * kn_ + 19.0);
    const double oglue = 16.0;
    oset(FieldOp::Mul,
         peteOp(omul_k.cycles + ored, omul_k.ramReads + 3 * kn_ + 6,
                omul_k.ramWrites + kn_, mul_occ * kn_ * kn_, oglue));
    oset(FieldOp::Sqr,
         peteOp(0.8 * omul_k.cycles + ored,
                0.8 * omul_k.ramReads + 3 * kn_ + 6,
                0.8 * omul_k.ramWrites + kn_,
                0.75 * mul_occ * kn_ * kn_, oglue));
    oset(FieldOp::Add,
         peteOp(1.4 * mkn.add.cycles, 2.5 * kn_, 1.2 * kn_, 0, oglue));
    oset(FieldOp::Sub,
         peteOp(1.4 * mkn.add.cycles, 2.5 * kn_, 1.2 * kn_, 0, oglue));
    oset(FieldOp::Reduce,
         peteOp(ored, 2 * kn_ + 6, kn_, 0, oglue));
    int obits = standardCurve(curve_).order().bitLength();
    double oit = 2.0 * obits;
    oset(FieldOp::Inv,
         peteOp(oit * (2.2 * kn_ + 14.0), oit * 1.5 * kn_,
                oit * 0.75 * kn_, 0, oglue));
}

OpCost
KernelModel::fixedOverhead(bool sign) const
{
    // Hashing, deterministic nonce derivation (sign only), scalar
    // recoding, stack/frame setup -- all on Pete.
    OpCost c;
    double cycles = sign
        ? 9000.0 + 30.0 * bits_ + 3000.0
        : 1500.0 + 60.0 * bits_ + 3000.0;
    c.cycles = cycles;
    c.instructions = 0.9 * cycles;
    c.ramReads = 0.15 * cycles;
    c.ramWrites = 0.08 * cycles;
    return c;
}

} // namespace ulecc
