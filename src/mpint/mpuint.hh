/**
 * @file
 * Multi-precision unsigned integer on 32-bit limbs.
 *
 * This is the substrate for all finite-field arithmetic in the library.
 * The paper's embedded software performs all multi-precision computation
 * one 32-bit word at a time (w = 32, Section 4.2); MpUint mirrors that
 * limb granularity so that operation counts and per-word algorithms
 * (operand scanning, product scanning, CIOS Montgomery, comb
 * multiplication) translate one-to-one into the simulated kernels.
 *
 * Values are stored little-endian (limb 0 is least significant) in a
 * fixed-capacity array so no heap allocation ever happens on the hot
 * path.  Capacity covers double-width products of the largest field in
 * the study (571-bit binary -> 18 limbs -> 37-limb products).
 */

#ifndef ULECC_MPINT_MPUINT_HH
#define ULECC_MPINT_MPUINT_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace ulecc
{

/** Fixed-capacity multi-precision unsigned integer (little-endian limbs). */
class MpUint
{
  public:
    /** Maximum number of 32-bit limbs storable (covers 2x571-bit). */
    static constexpr int maxLimbs = 40;

    /** Constructs zero. */
    MpUint() : n_(0) { limbs_.fill(0); }

    /** Constructs from a 64-bit value. */
    explicit MpUint(uint64_t v);

    /**
     * Parses a hexadecimal string (optionally "0x"-prefixed, case
     * insensitive, underscores and spaces ignored).
     */
    static MpUint fromHex(std::string_view hex);

    /** Returns the canonical lowercase hex representation ("0" for zero). */
    std::string toHex() const;

    /** Returns 2^bit. */
    static MpUint powerOfTwo(int bit);

    /** Number of significant limbs (0 for the value zero). */
    int size() const { return n_; }

    /** True iff the value is zero. */
    bool isZero() const { return n_ == 0; }

    /** True iff the value is odd. */
    bool isOdd() const { return n_ > 0 && (limbs_[0] & 1u); }

    /** Returns limb @p i, or 0 beyond the significant length. */
    uint32_t limb(int i) const
    {
        return (i >= 0 && i < maxLimbs) ? limbs_[i] : 0;
    }

    /**
     * Unchecked limb read: @p i must be in [0, maxLimbs).  For the
     * field kernels' inner loops, whose indices are already bounded
     * by the field's word count -- there the checked accessor's
     * range branch is the hottest instruction in the profile.
     */
    uint32_t limbU(int i) const { return limbs_[size_t(i)]; }

    /** Sets limb @p i (extending the significant length as needed). */
    void setLimb(int i, uint32_t v);

    /** Number of significant bits (highest set bit + 1), or 0 for zero. */
    int bitLength() const;

    /** Returns bit @p i (0 or 1). */
    int bit(int i) const
    {
        if (i < 0 || i >= maxLimbs * 32)
            return 0;
        return (limbs_[i / 32] >> (i % 32)) & 1u;
    }

    /** Sets bit @p i to 1. */
    void setBit(int i);

    /** Extracts @p count bits starting at bit @p pos as a uint32_t. */
    uint32_t bits(int pos, int count) const;

    /** Three-way comparison: -1, 0, or +1. */
    int compare(const MpUint &other) const;

    bool operator==(const MpUint &o) const { return compare(o) == 0; }
    bool operator!=(const MpUint &o) const { return compare(o) != 0; }
    bool operator<(const MpUint &o) const { return compare(o) < 0; }
    bool operator<=(const MpUint &o) const { return compare(o) <= 0; }
    bool operator>(const MpUint &o) const { return compare(o) > 0; }
    bool operator>=(const MpUint &o) const { return compare(o) >= 0; }

    /** Returns this + other (asserts no overflow past maxLimbs). */
    MpUint add(const MpUint &other) const;

    /** Returns this - other (asserts this >= other). */
    MpUint sub(const MpUint &other) const;

    /** Returns this << bits. */
    MpUint shiftLeft(int bits) const;

    /** Returns this >> bits. */
    MpUint shiftRight(int bits) const;

    /** Returns this XOR other (carry-less / GF(2) addition). */
    MpUint bitXor(const MpUint &other) const;

    /** Returns this AND other. */
    MpUint bitAnd(const MpUint &other) const;

    /**
     * Schoolbook "operand scanning" multiplication (paper Algorithm 2).
     * The traditional pencil-and-paper method: the outer loop iterates
     * over the multiplier, the inner loop over the multiplicand, using a
     * succession of multiply-add steps.
     */
    MpUint mulOperandScan(const MpUint &other) const;

    /**
     * "Product scanning" (Comba) multiplication (paper Algorithm 3).
     * Iterates over the result, accumulating column products in a
     * three-word (t,u,v) accumulator -- the form accelerated by the
     * paper's MADDU/SHA instruction-set extensions.
     */
    MpUint mulProductScan(const MpUint &other) const;

    /** Multiplication (dispatches to operand scanning). */
    MpUint mul(const MpUint &other) const { return mulOperandScan(other); }

    /** Multiplies by a single 32-bit word. */
    MpUint mulWord(uint32_t w) const;

    /** Squaring (via product scanning with the M2ADDU-style shortcut). */
    MpUint sqr() const;

    struct DivResult;

    /**
     * Division with remainder via binary shift-subtract long division.
     * O(bits^2); used only for generic reduction, test oracles, and
     * setup, never on the modelled hot path.
     */
    DivResult divmod(const MpUint &divisor) const;

    /** Returns this mod m. */
    MpUint mod(const MpUint &m) const;

    /** Returns (this + other) mod m, assuming both operands < m. */
    MpUint addMod(const MpUint &other, const MpUint &m) const;

    /** Returns (this - other) mod m, assuming both operands < m. */
    MpUint subMod(const MpUint &other, const MpUint &m) const;

    /**
     * Modular inverse for an odd modulus via the binary inversion
     * algorithm (Guide to ECC, Algorithm 2.22).  Asserts gcd == 1.
     */
    MpUint modInverseOdd(const MpUint &m) const;

  private:
    void trim();

    std::array<uint32_t, maxLimbs> limbs_;
    int n_;
};

/** Quotient/remainder pair returned by MpUint::divmod. */
struct MpUint::DivResult
{
    MpUint quotient;
    MpUint remainder;
};

} // namespace ulecc

#endif // ULECC_MPINT_MPUINT_HH
