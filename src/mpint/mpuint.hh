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
 * fixed-capacity array with a significant-limb count.  Capacity covers
 * double-width products of the widest field (640 bits -> 20 limbs ->
 * 40-limb products).  MpUint is the integer type of the API boundary,
 * of protocol code and of the oracles; the native field arithmetic and
 * the point formulas run on FieldElem, the fixed-width element below,
 * and convert to and from MpUint once per public operation.
 */

#ifndef ULECC_MPINT_MPUINT_HH
#define ULECC_MPINT_MPUINT_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ulecc
{

/**
 * A field element: the operand of PrimeField's and BinaryField's
 * element arithmetic and of the point formulas in ec/.  Little-endian
 * 32-bit limbs with no length field: the field's word count k bounds
 * every loop, and limbs k and above are always zero, so equality and
 * zero tests read the whole array.  20 limbs (80 bytes) hold the
 * widest field either class accepts (GF(2^640)).  The field that made
 * an element gives its value as an MpUint (PrimeField::value,
 * BinaryField::value).
 */
struct FieldElem
{
    static constexpr int maxLimbs = 20;

    std::array<uint32_t, maxLimbs> limb{};

    /** The element with value @p v; @p v must be below the modulus. */
    static FieldElem
    word(uint32_t v)
    {
        FieldElem e;
        e.limb[0] = v;
        return e;
    }

    bool
    isZero() const
    {
        uint32_t any = 0;
        for (uint32_t w : limb)
            any |= w;
        return any == 0;
    }

    bool operator==(const FieldElem &o) const = default;
};

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

    /**
     * Unchecked read of 64-bit word @p i (limbs 2i and 2i+1): @p i must
     * be in [0, maxLimbs / 2).  For the binary-field kernels, which
     * work on 64-bit words.
     */
    uint64_t limb64U(int i) const
    {
        return limbs_[size_t(2 * i)]
            | (static_cast<uint64_t>(limbs_[size_t(2 * i + 1)]) << 32);
    }

    /**
     * Builds a value from @p count 64-bit words, least significant
     * first; @p count must be in [0, maxLimbs / 2].
     */
    static MpUint fromWords64(const uint64_t *words, int count);

    /**
     * The value of element @p e, whose limbs at @p count and above are
     * zero (a field's elements: count is its word count).
     */
    static MpUint
    fromElem(const FieldElem &e, int count)
    {
        MpUint r(NoFill{});
        std::memcpy(r.limbs_.data(), e.limb.data(), sizeof e.limb);
        std::memset(r.limbs_.data() + FieldElem::maxLimbs, 0,
                    sizeof r.limbs_ - sizeof e.limb);
        r.n_ = count;
        r.trim();
        return r;
    }

    /**
     * This value as an element's limbs; size() must be at most
     * FieldElem::maxLimbs (the field conversions reduce first).
     */
    FieldElem
    toElem() const
    {
        FieldElem e;
        std::memcpy(e.limb.data(), limbs_.data(), sizeof e.limb);
        return e;
    }

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

    /**
     * Modular inverse for an odd modulus of up to 40 limbs via the
     * word-level binary inversion algorithm (Guide to ECC, Algorithm
     * 2.22; words::invOdd).  Throws Errc::InvalidInput for an even
     * modulus or when gcd(this, m) != 1 (this == 0 mod m included).
     */
    MpUint modInverseOdd(const MpUint &m) const;

  private:
    /** Tag of the constructor that leaves the limbs unwritten. */
    struct NoFill
    {
    };

    explicit MpUint(NoFill) : n_(0) {}

    /**
     * Builds a value from @p count 32-bit limbs, least significant
     * first; @p count must be in [0, maxLimbs].
     */
    static MpUint fromLimbs(const uint32_t *limbs, int count);

    void
    trim()
    {
        while (n_ > 0 && limbs_[size_t(n_ - 1)] == 0)
            --n_;
    }

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
