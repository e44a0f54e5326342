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
 * The arithmetic runs on FieldElem, the fixed-width element of
 * mpint/mpuint.hh, through word kernels instantiated per word count k
 * (so every loop has a constant bound).  The five NIST primes of the
 * study (P-192/224/256/384/521, paper Eq. 4.3-4.7) are recognised and
 * reduced word by word: P-192 by the paper's Algorithm 4,
 * P-224/256/384 by the FIPS 186 signed column sums, P-521 by
 * mask-and-add.  Any other odd modulus (the ECDSA group orders, the
 * toy curves) reduces by Montgomery REDC followed by one CIOS multiply
 * by R^2.  Each MpUint operation converts its operands in, runs the
 * element operation and converts the result out.
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
    /**
     * Constructs a field for an odd prime @p p of at most
     * FieldElem::maxLimbs words (Errc::InvalidInput otherwise).
     */
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

    /**
     * @name Element arithmetic (the native hot path)
     * Operands are elements of this field (values < p); each operation
     * notifies the op observer once.
     */
    /** @{ */

    /** a mod p as an element. */
    FieldElem elem(const MpUint &a) const;

    /** The value of element @p a. */
    MpUint value(const FieldElem &a) const;

    /** (a + b) mod p. */
    FieldElem add(const FieldElem &a, const FieldElem &b) const;

    /** (a - b) mod p. */
    FieldElem sub(const FieldElem &a, const FieldElem &b) const;

    /** (-a) mod p (notified as a subtraction). */
    FieldElem neg(const FieldElem &a) const;

    /** (a * b) mod p: operand scanning, then the reduction. */
    FieldElem mul(const FieldElem &a, const FieldElem &b) const;

    /** a^2 mod p: the doubled-cross-term square, then the reduction. */
    FieldElem sqr(const FieldElem &a) const;

    /**
     * a^-1 mod p by the word-level binary EEA (words::invOdd);
     * Errc::InvalidInput when a is zero (or shares a factor with a
     * composite modulus).
     */
    FieldElem inv(const FieldElem &a) const;

    /** @} */

    /** @name MpUint forms: elem(), the element operation, value() */
    /** @{ */
    MpUint add(const MpUint &a, const MpUint &b) const;
    MpUint sub(const MpUint &a, const MpUint &b) const;
    MpUint neg(const MpUint &a) const;
    MpUint mul(const MpUint &a, const MpUint &b) const;
    MpUint sqr(const MpUint &a) const;
    MpUint inv(const MpUint &a) const;
    /** @} */

    /** (a * b) mod p via product scanning + fast reduction. */
    MpUint mulProductScan(const MpUint &a, const MpUint &b) const;


    /**
     * a^-1 mod p via Fermat's little theorem (a^(p-2));
     * Errc::InvalidInput when a == 0 (mod p), like inv().
     */
    MpUint invFermat(const MpUint &a) const;

    /** a^e mod p (left-to-right binary, Montgomery domain inside). */
    MpUint pow(const MpUint &a, const MpUint &e) const;

    /**
     * Reduces a double-width value mod p: the word-level NIST fast
     * reduction for the five NIST primes, Montgomery REDC otherwise.
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
    /** The word kernels of one (reduction, word count) pair. */
    struct Kernels;

    MpUint p_;
    int bits_;
    int words_;
    NistPrime kind_;
    uint32_t n0prime_;
    MpUint r2ModP_; ///< R^2 mod p (toMont)
    FieldElem pElem_;  ///< p
    FieldElem r2Elem_; ///< R^2 mod p
    const Kernels *kern_;
};

} // namespace ulecc

#endif // ULECC_MPINT_PRIME_FIELD_HH
