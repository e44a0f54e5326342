/**
 * @file
 * Prime-field GF(p) arithmetic.
 *
 * Implements the software algorithms the paper evaluates (Section 4.2.1):
 *
 *  - operand-scanning and product-scanning multi-precision multiplication
 *    (MpUint) followed by NIST fast reduction, used by the baseline and
 *    ISA-extended microarchitectures;
 *  - CIOS Montgomery multiplication (paper Algorithm 5), the algorithm
 *    microcoded into the Monte accelerator's FFAU;
 *  - FIPS (finely integrated product scanning) Montgomery multiplication,
 *    the variant the ISA extensions were compared against;
 *  - binary-EEA inversion (used on Pete) and Fermat-little-theorem
 *    inversion (used on the accelerators).
 *
 * The five NIST primes of the study (P-192/224/256/384/521, paper
 * Eq. 4.3-4.7) are recognised and reduced word by word on fixed-width
 * stack arrays: P-192 by the paper's Algorithm 4, P-224/256/384 by the
 * FIPS 186 signed column sums, P-521 by mask-and-add.  Any other odd
 * prime reduces by division.
 */

#ifndef ULECC_MPINT_PRIME_FIELD_HH
#define ULECC_MPINT_PRIME_FIELD_HH

#include <string>

#include "mpint/mpuint.hh"

namespace ulecc
{

/** The NIST primes of the study, plus Generic for everything else. */
enum class NistPrime
{
    P192,
    P224,
    P256,
    P384,
    P521,
    Generic,
};

/** Returns the prime value for a named NIST prime. */
MpUint nistPrimeValue(NistPrime which);

/** GF(p) field context. */
class PrimeField
{
  public:
    /** Constructs a field for an odd prime @p p. */
    explicit PrimeField(const MpUint &p);

    /** Convenience constructor from a named NIST prime. */
    explicit PrimeField(NistPrime which);

    const MpUint &modulus() const { return p_; }

    /** Field size in bits. */
    int bits() const { return bits_; }

    /** Number of 32-bit words per element (k = ceil(bits/32)). */
    int words() const { return words_; }

    /** Which NIST prime this is (Generic if unrecognised). */
    NistPrime kind() const { return kind_; }

    /** (a + b) mod p; inputs must be < p. */
    MpUint add(const MpUint &a, const MpUint &b) const;

    /** (a - b) mod p; inputs must be < p. */
    MpUint sub(const MpUint &a, const MpUint &b) const;

    /** (-a) mod p. */
    MpUint neg(const MpUint &a) const;

    /** (a * b) mod p via operand scanning + fast reduction. */
    MpUint mul(const MpUint &a, const MpUint &b) const;

    /** (a * b) mod p via product scanning + fast reduction. */
    MpUint mulProductScan(const MpUint &a, const MpUint &b) const;

    /** a^2 mod p. */
    MpUint sqr(const MpUint &a) const;

    /** a^-1 mod p via the binary extended Euclidean algorithm. */
    MpUint inv(const MpUint &a) const;

    /** a^-1 mod p via Fermat's little theorem (a^(p-2)). */
    MpUint invFermat(const MpUint &a) const;

    /** a^e mod p (left-to-right binary, Montgomery domain inside). */
    MpUint pow(const MpUint &a, const MpUint &e) const;

    /**
     * Reduces a double-width value mod p: the word-level NIST fast
     * reduction for the five NIST primes, division otherwise.
     *
     * Contract: @p wide < 2^(2*bits()), which covers every product of
     * two elements < p.  Anything wider throws Errc::InvalidInput.
     */
    MpUint reduce(const MpUint &wide) const;

    /** Generic reduction via division (test oracle / fallback). */
    MpUint reduceGeneric(const MpUint &wide) const;

    /** @name Montgomery arithmetic (R = 2^(32*words)) */
    /** @{ */

    /** -p^-1 mod 2^32 (the CIOS n0' constant). */
    uint32_t n0Prime() const { return n0prime_; }

    /** R mod p. */
    const MpUint &montR() const { return rModP_; }

    /** R^2 mod p (for conversion into the Montgomery domain). */
    const MpUint &montR2() const { return r2ModP_; }

    /** Converts into the Montgomery domain: a*R mod p. */
    MpUint toMont(const MpUint &a) const;

    /** Converts out of the Montgomery domain: a*R^-1 mod p. */
    MpUint fromMont(const MpUint &a) const;

    /**
     * CIOS Montgomery multiplication (paper Algorithm 5): returns
     * a*b*R^-1 mod p.  This is exactly the loop structure microcoded
     * into Monte's FFAU.
     */
    MpUint montMulCios(const MpUint &a, const MpUint &b) const;

    /**
     * FIPS (finely integrated product scanning) Montgomery
     * multiplication: same result as montMulCios, product-scanning
     * loop structure (the form suited to the MADDU/ADDAU/SHA ISA
     * extensions).
     */
    MpUint montMulFips(const MpUint &a, const MpUint &b) const;

    /** @} */

    /** Square root mod p (Tonelli-Shanks; shortcut for p % 4 == 3). */
    bool sqrt(const MpUint &a, MpUint &root) const;

  private:
    MpUint p_;
    int bits_;
    int words_;
    NistPrime kind_;
    uint32_t n0prime_;
    MpUint rModP_;
    MpUint r2ModP_;
};

} // namespace ulecc

#endif // ULECC_MPINT_PRIME_FIELD_HH
