/**
 * @file
 * The multi-cycle Karatsuba multiply-accumulate unit behind Pete's
 * Hi/Lo registers (paper Section 5.1.1/5.1.2, Figures 5.2-5.4).
 *
 * Rationale: a full single-cycle 32x32 array multiplier is costly in
 * area and power; Karatsuba's identity
 *
 *   P = (AH*BH) << 32 + [(AH-AL)*(BL-BH)] << 16 + (AL*BL)
 *
 * needs only THREE half-width products instead of four, so one
 * 17x17-bit signed multiplication block reused over four cycles
 * replaces the array.  The ISA-extension variants (Fig 5.3/5.4) widen
 * the four-port adder, add the (OvFlo,Hi,Lo) accumulate paths, and
 * multiplex in a separate 16x16 carry-less block for MULGF2/MADDGF2
 * (in GF(2), subtraction is XOR, so the middle Karatsuba term becomes
 * (AH^AL) (x) (BH^BL) ^ AH(x)BH ^ AL(x)BL).
 *
 * This model executes the schedule cycle by cycle; Pete's timing model
 * charges the same occupancy through the shared MultiplierDesc
 * (sim/multiplier.hh -- the single source of the timing contract),
 * and the unit tests pin the functional results to plain 64-bit
 * multiplication.  Alternative family members (schoolbook, depth-2
 * Karatsuba, wide clmul) plug in through the variant overload of
 * execute(); all are architecturally identical.
 */

#ifndef ULECC_SIM_KARATSUBA_UNIT_HH
#define ULECC_SIM_KARATSUBA_UNIT_HH

#include <cstdint>

#include "sim/multiplier.hh"

namespace ulecc
{

/** Operating modes of the unit (grows left to right in Fig 5.2-5.4). */
enum class KaratsubaOp : uint8_t
{
    Mult,    ///< (Hi,Lo) = rs * rt, signed
    Multu,   ///< (Hi,Lo) = rs * rt, unsigned
    Maddu,   ///< (OvFlo,Hi,Lo) += rs * rt          (Table 5.1)
    M2addu,  ///< (OvFlo,Hi,Lo) += 2 * rs * rt
    Mulgf2,  ///< (OvFlo,Hi,Lo)  = rs (x) rt        (Table 5.2)
    Maddgf2, ///< (OvFlo,Hi,Lo) ^= rs (x) rt
};

/**
 * The schedule a variant charges for one op -- the SAME descriptor
 * field Pete's timing model arms `multReadyCycle_` with, so the trace
 * and the pipeline can never drift apart again.
 */
constexpr uint32_t
multiplierOpLatency(const MultiplierDesc &d, KaratsubaOp op)
{
    switch (op) {
      case KaratsubaOp::Mult:
      case KaratsubaOp::Multu:
        return d.multLatency;
      case KaratsubaOp::Maddu:
      case KaratsubaOp::M2addu:
        return d.macLatency;
      default:
        return d.gf2Latency;
    }
}

/** Cycle-by-cycle trace of one operation (for tests/visualisation). */
struct KaratsubaTrace
{
    int cycles = 0;           ///< the variant's per-op occupancy
    int halfMultiplies = 0;   ///< integer block activations
    int clmulBlocks = 0;      ///< carry-less block activations
    int64_t subProducts[3]{}; ///< AL*BL, AH*BH, middle term
};

/** The multiply-accumulate unit state (mirrors Pete's Hi/Lo/OvFlo). */
class KaratsubaUnit
{
  public:
    /**
     * Executes one operation over its four-cycle schedule.
     *
     * The integer datapath is inline so callers that discard the trace
     * (the simulator's retirement loop) compile down to just the three
     * half-products and the recombine;
     * the carry-less variants stay out of line with their clmul32
     * dependency.
     */
    KaratsubaTrace
    execute(KaratsubaOp op, uint32_t rs, uint32_t rt)
    {
        KaratsubaTrace trace;
        trace.cycles =
            static_cast<int>(multiplierOpLatency(kKaratsubaDesc, op));
        switch (op) {
          case KaratsubaOp::Mult: {
            // Signed: run the unsigned datapath on magnitudes; the
            // sign fix-up shares the final adder cycle.
            bool neg = (static_cast<int32_t>(rs) < 0)
                != (static_cast<int32_t>(rt) < 0);
            uint32_t ma = static_cast<int32_t>(rs) < 0 ? 0u - rs : rs;
            uint32_t mb = static_cast<int32_t>(rt) < 0 ? 0u - rt : rt;
            uint64_t p = karatsubaU32(ma, mb, trace);
            if (neg)
                p = 0ull - p;
            lo_ = static_cast<uint32_t>(p);
            hi_ = static_cast<uint32_t>(p >> 32);
            break;
          }
          case KaratsubaOp::Multu: {
            uint64_t p = karatsubaU32(rs, rt, trace);
            lo_ = static_cast<uint32_t>(p);
            hi_ = static_cast<uint32_t>(p >> 32);
            break;
          }
          case KaratsubaOp::Maddu:
          case KaratsubaOp::M2addu: {
            uint64_t p = karatsubaU32(rs, rt, trace);
            accumulate(p, op == KaratsubaOp::M2addu);
            break;
          }
          default:
            executeGf2(op, rs, rt, trace);
            break;
        }
        return trace;
    }

    /**
     * Executes one operation on a family variant's datapath
     * (sim/multiplier.hh).  Architecturally identical to the default
     * Karatsuba path -- only the trace's schedule and block-activity
     * counts differ.  Out of line: the simulator's hot loops never
     * call it (variants change timing through PeteConfig, not
     * results), only tests and the design-space sweep do.
     */
    KaratsubaTrace execute(KaratsubaOp op, uint32_t rs, uint32_t rt,
                           MultiplierVariant variant);

    uint32_t hi() const { return hi_; }
    uint32_t lo() const { return lo_; }
    uint32_t ovflo() const { return ovflo_; }

    void
    set(uint32_t hi, uint32_t lo, uint32_t ovflo = 0)
    {
        hi_ = hi;
        lo_ = lo;
        ovflo_ = ovflo;
    }

  private:
    /**
     * MADDU/M2ADDU accumulate (Table 5.1): one wide add of p or 2p
     * into (OvFlo,Hi,Lo).  For M2ADDU the addend 2p is 65 bits; its
     * shifted-out top bit plus the 64-bit sum's carry-out give the
     * 0-2 OvFlo increment.  This is provably the same count two
     * sequential 64-bit adds of p produce -- write acc + p =
     * c1*2^64 + r1 and r1 + p = c2*2^64 + r2, then acc + 2p =
     * (c1+c2)*2^64 + r2 -- so the paper's one-wide-add reading and
     * the iterated-adder reading cannot disagree (the diffuzz mpint
     * "m2acc" oracle and test_karatsuba pin this against a 128-bit
     * reference).
     */
    void
    accumulate(uint64_t p, bool doubled)
    {
        uint64_t acc = (static_cast<uint64_t>(hi_) << 32) | lo_;
        uint32_t carry = doubled ? static_cast<uint32_t>(p >> 63) : 0;
        uint64_t addend = doubled ? p << 1 : p;
        uint64_t sum = acc + addend;
        ovflo_ += carry + (sum < acc ? 1u : 0u);
        lo_ = static_cast<uint32_t>(sum);
        hi_ = static_cast<uint32_t>(sum >> 32);
    }

    /** Unsigned 32x32 product via three 17x17 products (Eq. 5.1). */
    static uint64_t
    karatsubaU32(uint32_t a, uint32_t b, KaratsubaTrace &trace)
    {
        uint32_t ah = a >> 16, al = a & 0xFFFF;
        uint32_t bh = b >> 16, bl = b & 0xFFFF;
        // Cycle 1: low product.
        int64_t p_lo = static_cast<int64_t>(al) * bl;
        // Cycle 2: high product.
        int64_t p_hi = static_cast<int64_t>(ah) * bh;
        // Cycle 3: signed middle product (AH-AL)*(BL-BH), 17x17.
        int64_t p_mid = (static_cast<int64_t>(ah) - al)
            * (static_cast<int64_t>(bl) - bh);
        trace.halfMultiplies += 3;
        trace.subProducts[0] = p_lo;
        trace.subProducts[1] = p_hi;
        trace.subProducts[2] = p_mid;
        // Cycle 4: the four-port adder recombines:
        //   P = p_hi << 32 + (p_mid + p_hi + p_lo) << 16 + p_lo.
        int64_t mid = p_mid + p_hi + p_lo; // == AH*BL + AL*BH
        return static_cast<uint64_t>(
            (static_cast<int64_t>(p_hi) << 32)
            + (mid << 16) + p_lo);
    }

    /** MULGF2/MADDGF2 (out of line: needs the clmul32 block). */
    void executeGf2(KaratsubaOp op, uint32_t rs, uint32_t rt,
                    KaratsubaTrace &trace);

    uint32_t hi_ = 0;
    uint32_t lo_ = 0;
    uint32_t ovflo_ = 0;
};

} // namespace ulecc

#endif // ULECC_SIM_KARATSUBA_UNIT_HH
