/**
 * @file
 * Independent reference big integer for differential conformance.
 *
 * RefInt exists to *disagree* with MpUint when MpUint is wrong.  It is
 * deliberately built differently along every axis that matters:
 *
 *   - base-2^16 digits in a growable std::vector (MpUint: fixed-array
 *     base-2^32 limbs), so carry, normalization, and capacity logic
 *     share nothing;
 *   - schoolbook multiplication only (MpUint: operand/product scanning
 *     with the paper's accumulator tricks);
 *   - Knuth Algorithm D division (MpUint: binary shift-subtract);
 *   - no modular fast paths at all (MpUint/PrimeField: NIST reductions,
 *     CIOS/FIPS Montgomery).
 *
 * It also carries the GF(2) polynomial reference operations (shift-xor
 * multiply, long-division reduce) that BinaryField's comb and CLMUL
 * paths are checked against.
 *
 * Performance is a non-goal; being an *oracle* is the goal.  Every
 * routine favours the obviously-correct formulation.
 */

#ifndef ULECC_CHECK_REFINT_HH
#define ULECC_CHECK_REFINT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mpint/mpuint.hh"

namespace ulecc::check
{

/** Arbitrary-precision unsigned integer on base-2^16 digits. */
class RefInt
{
  public:
    RefInt() = default;

    explicit RefInt(uint64_t v);

    /** Parses lowercase/uppercase hex (no prefix handling needed). */
    static RefInt fromHex(std::string_view hex);

    /** Converts from the production type (by digit extraction). */
    static RefInt fromMp(const MpUint &v);

    /** Canonical lowercase hex, "0" for zero (same form as MpUint). */
    std::string toHex() const;

    /** Converts to the production type; throws if it cannot fit. */
    MpUint toMp() const;

    bool isZero() const { return d_.empty(); }

    int bitLength() const;

    /** Bit @p i (0 or 1). */
    int bit(int i) const;

    int compare(const RefInt &o) const;

    bool operator==(const RefInt &o) const { return compare(o) == 0; }
    bool operator!=(const RefInt &o) const { return compare(o) != 0; }
    bool operator<(const RefInt &o) const { return compare(o) < 0; }
    bool operator>=(const RefInt &o) const { return compare(o) >= 0; }

    RefInt add(const RefInt &o) const;

    /** Requires *this >= o. */
    RefInt sub(const RefInt &o) const;

    /** Schoolbook product. */
    RefInt mul(const RefInt &o) const;

    RefInt shiftLeft(int bits) const;
    RefInt shiftRight(int bits) const;

    struct DivResult;

    /** Knuth Algorithm D; throws on division by zero. */
    DivResult divmod(const RefInt &divisor) const;

    RefInt mod(const RefInt &m) const;

    /** Binary GCD (for validating "not invertible" claims). */
    static RefInt gcd(RefInt a, RefInt b);

    /** @name GF(2) polynomial reference operations */
    /** @{ */

    /** Carry-less product via bit-by-bit shift-and-xor. */
    RefInt polyMul(const RefInt &o) const;

    /** Polynomial remainder modulo @p f via long division (XOR). */
    RefInt polyMod(const RefInt &f) const;

    /** @} */

  private:
    void trim();

    std::vector<uint16_t> d_; ///< little-endian base-2^16 digits
};

/** Quotient/remainder pair returned by RefInt::divmod. */
struct RefInt::DivResult
{
    RefInt quotient;
    RefInt remainder;
};

} // namespace ulecc::check

#endif // ULECC_CHECK_REFINT_HH
