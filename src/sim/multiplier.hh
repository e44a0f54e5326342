/**
 * @file
 * The multiplier micro-architecture family behind Pete's Hi/Lo unit.
 *
 * The paper evaluates one fixed design point: the 4-cycle Karatsuba
 * multiply-accumulate unit of Section 5.1.1 (three 17x17 signed
 * half-products recombined through a four-port adder).  This header
 * generalizes that point into a small family in the spirit of
 * iteratively-applied Karatsuba (Dyka & Langendoerfer, arxiv
 * 0710.4810) and the schoolbook/Karatsuba/carry-less trade-offs of
 * the Rashidi ECC-hardware survey (arxiv 1710.08336):
 *
 *   karatsuba   the paper's unit: 3 half-products over 4 cycles, a
 *               16x16 carry-less block multiplexed in for GF(2^m);
 *   schoolbook  4 unsynthesized-trick 16x16 half-products plus one
 *               extra adder pass: 5 cycles, smaller block, no signed
 *               middle-term datapath;
 *   karatsuba2  Karatsuba applied at recursion depth 2 (8-bit
 *               segments): 9 tiny 9x9 products over 6 cycles -- least
 *               switched capacitance per product, most recombination;
 *   clmulwide   the integer datapath of `karatsuba` next to a
 *               dedicated full-width 32x32 carry-less array that
 *               finishes MULGF2/MADDGF2 in 2 cycles.
 *
 * Every variant is architecturally identical -- same Hi/Lo/OvFlo
 * results for every op (tests/test_karatsuba.cpp pins this across the
 * diffuzz mpint oracle) -- and differs only in its timing schedule
 * and calibrated energy/area coefficients.  One MultiplierDesc per
 * variant is the SINGLE SOURCE of that contract: PeteConfig::latency(),
 * KaratsubaTrace cycle counts, the block cache's
 * timing-context encoding, the kernel cost model's occupancy
 * formulas, and the eval-cache key all consume it.  Nothing may
 * hardcode a 4 again.
 */

#ifndef ULECC_SIM_MULTIPLIER_HH
#define ULECC_SIM_MULTIPLIER_HH

#include <cstdint>
#include <string_view>

namespace ulecc
{

/** The swept multiplier micro-architectures. */
enum class MultiplierVariant : uint8_t
{
    Karatsuba = 0, ///< the paper's unit (default design point)
    Schoolbook,    ///< 4 half-products, 1 extra adder pass
    Karatsuba2,    ///< depth-2 Karatsuba, 9 x (9x9) products
    ClmulWide,     ///< karatsuba integer path + wide 32x32 clmul array
};

inline constexpr int kMultiplierVariantCount = 4;

/**
 * The per-variant timing/energy contract.  Latencies are busy cycles
 * charged to `multReadyCycle_` per issue; the activity counts feed
 * the KaratsubaTrace bookkeeping; the energy/area coefficients scale
 * the calibrated `peteMultMw` baseline (karatsuba == 1.0 exactly, so
 * the default design point's energy numbers are bit-identical to the
 * pre-family model).
 */
struct MultiplierDesc
{
    const char *name;       ///< CLI/journal spelling
    uint32_t multLatency;   ///< MULT/MULTU occupancy, cycles
    uint32_t macLatency;    ///< MADDU/M2ADDU occupancy, cycles
    uint32_t gf2Latency;    ///< MULGF2/MADDGF2 occupancy, cycles
    int halfMultiplies;     ///< integer block activations per product
    int clmulBlocks;        ///< carry-less block activations per product
    double multMwScale;     ///< active power vs the peteMultMw baseline
    double areaKge;         ///< synthesized area estimate, kGE
};

/**
 * The family table.  Energy/area coefficients are calibrated against
 * the paper's 45 nm point the same way peteMultMw itself is: the
 * 17x17 signed block burns ~1 unit/cycle; a 16x16 unsigned block is
 * ~7% cheaper per cycle but fires four times; 9x9 blocks switch ~4x
 * less capacitance each; a full 32x32 carry-less array pays ~35% more
 * power and ~45% more area for its 2-cycle GF(2^m) product.
 */
inline constexpr MultiplierDesc kMultiplierDescs[kMultiplierVariantCount] = {
    {"karatsuba", 4, 4, 4, 3, 3, 1.00, 11.2},
    {"schoolbook", 5, 5, 5, 4, 4, 0.93, 9.6},
    {"karatsuba2", 6, 6, 4, 9, 3, 0.58, 13.9},
    {"clmulwide", 4, 4, 2, 3, 1, 1.35, 16.4},
};

constexpr const MultiplierDesc &
multiplierDesc(MultiplierVariant v)
{
    return kMultiplierDescs[static_cast<int>(v)];
}

/** The default design point (the paper's Karatsuba unit). */
inline constexpr const MultiplierDesc &kKaratsubaDesc =
    kMultiplierDescs[0];

/** Widest busy timer any variant can arm (sizes countdown encodings). */
inline constexpr uint32_t kMaxMultiplierLatency = [] {
    uint32_t m = 0;
    for (const MultiplierDesc &d : kMultiplierDescs) {
        for (uint32_t l : {d.multLatency, d.macLatency, d.gf2Latency})
            m = l > m ? l : m;
    }
    return m;
}();

constexpr const char *
multiplierVariantName(MultiplierVariant v)
{
    return multiplierDesc(v).name;
}

/** Parses a CLI/journal spelling; false leaves @p out untouched. */
bool parseMultiplierVariant(std::string_view name,
                            MultiplierVariant &out);

} // namespace ulecc

#endif // ULECC_SIM_MULTIPLIER_HH
