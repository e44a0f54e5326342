/**
 * @file
 * The non-default multiplier family datapaths (sim/multiplier.hh).
 *
 * Each variant computes the SAME architectural product through a
 * different block structure -- the property tests and the diffuzz
 * mpint oracle hold every variant's Hi/Lo/OvFlo bit-identical to the
 * default Karatsuba unit; only KaratsubaTrace's schedule and block
 * activity differ.  The hot simulator loops never come through here
 * (a variant changes Pete's timing via PeteConfig::latency() only), so
 * these paths optimize for being obviously-correct models, not speed.
 */

#include "sim/multiplier.hh"

#include <cstring>

#include "mpint/binary_field.hh" // clmul32
#include "sim/karatsuba_unit.hh"

namespace ulecc
{

bool
parseMultiplierVariant(std::string_view name, MultiplierVariant &out)
{
    for (int i = 0; i < kMultiplierVariantCount; ++i) {
        if (name == kMultiplierDescs[i].name) {
            out = static_cast<MultiplierVariant>(i);
            return true;
        }
    }
    return false;
}

namespace
{

/** Schoolbook: all four 16x16 half-products, one extra adder pass. */
uint64_t
schoolbookU32(uint32_t a, uint32_t b, KaratsubaTrace &trace)
{
    uint64_t ah = a >> 16, al = a & 0xFFFF;
    uint64_t bh = b >> 16, bl = b & 0xFFFF;
    uint64_t p_ll = al * bl;
    uint64_t p_lh = al * bh;
    uint64_t p_hl = ah * bl;
    uint64_t p_hh = ah * bh;
    trace.halfMultiplies += 4;
    trace.subProducts[0] = static_cast<int64_t>(p_ll);
    trace.subProducts[1] = static_cast<int64_t>(p_hh);
    trace.subProducts[2] = static_cast<int64_t>(p_lh + p_hl);
    return (p_hh << 32) + ((p_lh + p_hl) << 16) + p_ll;
}

/** One 16x16 product via three 9x9 signed products (inner level). */
uint64_t
karatsuba16(uint32_t a, uint32_t b, KaratsubaTrace &trace)
{
    int64_t ah = a >> 8, al = a & 0xFF;
    int64_t bh = b >> 8, bl = b & 0xFF;
    int64_t p_lo = al * bl;
    int64_t p_hi = ah * bh;
    int64_t p_mid = (ah - al) * (bl - bh);
    trace.halfMultiplies += 3;
    int64_t mid = p_mid + p_hi + p_lo; // == AH*BL + AL*BH
    return static_cast<uint64_t>((p_hi << 16) + (mid << 8) + p_lo);
}

/**
 * Depth-2 Karatsuba: the outer level's three half-products are each
 * produced by the 8-bit inner level -- nine 9x9 blocks total.  The
 * outer middle term (AH-AL)*(BL-BH) runs sign-magnitude so the inner
 * level stays an unsigned 16x16 product.
 */
uint64_t
karatsuba2U32(uint32_t a, uint32_t b, KaratsubaTrace &trace)
{
    uint32_t ah = a >> 16, al = a & 0xFFFF;
    uint32_t bh = b >> 16, bl = b & 0xFFFF;
    uint64_t p_lo = karatsuba16(al, bl, trace);
    uint64_t p_hi = karatsuba16(ah, bh, trace);
    uint32_t ma = ah >= al ? ah - al : al - ah;
    uint32_t mb = bl >= bh ? bl - bh : bh - bl;
    bool neg = (ah < al) != (bl < bh);
    int64_t p_mid = static_cast<int64_t>(karatsuba16(ma, mb, trace));
    if (neg)
        p_mid = -p_mid;
    trace.subProducts[0] = static_cast<int64_t>(p_lo);
    trace.subProducts[1] = static_cast<int64_t>(p_hi);
    trace.subProducts[2] = p_mid;
    int64_t mid =
        p_mid + static_cast<int64_t>(p_hi) + static_cast<int64_t>(p_lo);
    return static_cast<uint64_t>(
        (static_cast<int64_t>(p_hi) << 32) + (mid << 16)
        + static_cast<int64_t>(p_lo));
}

/** Schoolbook carry-less product: four 16x16 carry-less blocks. */
uint64_t
schoolbookGf2(uint32_t a, uint32_t b, KaratsubaTrace &trace)
{
    uint32_t ah = a >> 16, al = a & 0xFFFF;
    uint32_t bh = b >> 16, bl = b & 0xFFFF;
    uint64_t p_ll = clmul32(al, bl);
    uint64_t p_lh = clmul32(al, bh);
    uint64_t p_hl = clmul32(ah, bl);
    uint64_t p_hh = clmul32(ah, bh);
    trace.clmulBlocks += 4;
    trace.subProducts[0] = static_cast<int64_t>(p_ll);
    trace.subProducts[1] = static_cast<int64_t>(p_hh);
    trace.subProducts[2] = static_cast<int64_t>(p_lh ^ p_hl);
    return (p_hh << 32) ^ ((p_lh ^ p_hl) << 16) ^ p_ll;
}

/** The wide array: one full 32x32 carry-less block. */
uint64_t
wideGf2(uint32_t a, uint32_t b, KaratsubaTrace &trace)
{
    uint64_t p = clmul32(a, b);
    trace.clmulBlocks += 1;
    trace.subProducts[0] = static_cast<int64_t>(p);
    return p;
}

} // namespace

KaratsubaTrace
KaratsubaUnit::execute(KaratsubaOp op, uint32_t rs, uint32_t rt,
                       MultiplierVariant variant)
{
    if (variant == MultiplierVariant::Karatsuba)
        return execute(op, rs, rt);

    const MultiplierDesc &d = multiplierDesc(variant);
    KaratsubaTrace trace;
    trace.cycles = static_cast<int>(multiplierOpLatency(d, op));

    // ClmulWide shares the default unit's integer datapath; the other
    // variants swap in their own product core.
    auto product = [&](uint32_t a, uint32_t b) {
        switch (variant) {
          case MultiplierVariant::Schoolbook:
            return schoolbookU32(a, b, trace);
          case MultiplierVariant::Karatsuba2:
            return karatsuba2U32(a, b, trace);
          default:
            return karatsubaU32(a, b, trace);
        }
    };
    auto productGf2 = [&](uint32_t a, uint32_t b) {
        switch (variant) {
          case MultiplierVariant::Schoolbook:
            return schoolbookGf2(a, b, trace);
          case MultiplierVariant::ClmulWide:
            return wideGf2(a, b, trace);
          default: {
            // Karatsuba2 keeps the default 3-block carry-less path
            // (GF(2) recursion saves nothing below 16 bits).
            KaratsubaUnit ref;
            KaratsubaTrace sub = ref.execute(KaratsubaOp::Mulgf2, a, b);
            trace.clmulBlocks += sub.clmulBlocks;
            std::memcpy(trace.subProducts, sub.subProducts,
                        sizeof(trace.subProducts));
            return (static_cast<uint64_t>(ref.hi()) << 32) | ref.lo();
          }
        }
    };

    switch (op) {
      case KaratsubaOp::Mult: {
        bool neg = (static_cast<int32_t>(rs) < 0)
            != (static_cast<int32_t>(rt) < 0);
        uint32_t ma = static_cast<int32_t>(rs) < 0 ? 0u - rs : rs;
        uint32_t mb = static_cast<int32_t>(rt) < 0 ? 0u - rt : rt;
        uint64_t p = product(ma, mb);
        if (neg)
            p = 0ull - p;
        lo_ = static_cast<uint32_t>(p);
        hi_ = static_cast<uint32_t>(p >> 32);
        break;
      }
      case KaratsubaOp::Multu: {
        uint64_t p = product(rs, rt);
        lo_ = static_cast<uint32_t>(p);
        hi_ = static_cast<uint32_t>(p >> 32);
        break;
      }
      case KaratsubaOp::Maddu:
      case KaratsubaOp::M2addu: {
        uint64_t p = product(rs, rt);
        accumulate(p, op == KaratsubaOp::M2addu);
        break;
      }
      case KaratsubaOp::Mulgf2: {
        uint64_t p = productGf2(rs, rt);
        lo_ = static_cast<uint32_t>(p);
        hi_ = static_cast<uint32_t>(p >> 32);
        ovflo_ = 0;
        break;
      }
      case KaratsubaOp::Maddgf2: {
        uint64_t p = productGf2(rs, rt);
        lo_ ^= static_cast<uint32_t>(p);
        hi_ ^= static_cast<uint32_t>(p >> 32);
        break;
      }
    }
    return trace;
}

} // namespace ulecc
