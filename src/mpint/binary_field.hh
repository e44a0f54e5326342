/**
 * @file
 * Binary-field GF(2^m) arithmetic.
 *
 * Implements the paper's binary-field software suite (Sections 4.2.2 -
 * 4.2.4): carry-less "addition" (XOR), left-to-right comb multiplication
 * with 4-bit windows (paper Algorithm 6 -- the software-only path),
 * carry-less word multiplication (the MULGF2/MADDGF2 ISA-extension
 * path), table-accelerated squaring, word-level fast reduction by the
 * trinomial or pentanomial (Eq. 4.8 - 4.12 for the five NIST fields),
 * and inversion by the polynomial extended Euclidean algorithm and by
 * Fermat's little theorem (the accelerator path).
 *
 * The native hot path runs on FieldElem (mpint/mpuint.hh) and on
 * 64-bit words: the comb runs on ceil(m/64) words, squaring spreads
 * bits straight into a 64-bit product buffer, one in-place word fold
 * reduces that buffer for mul, sqr and reduce, and inversion is the
 * polynomial EEA in place on 64-bit words.  Each MpUint operation
 * converts its operands in, runs the element operation and converts
 * the result out.  The CLMUL path keeps the paper's 32-bit words: it
 * models the ISA extension and is the tests' reference.
 */

#ifndef ULECC_MPINT_BINARY_FIELD_HH
#define ULECC_MPINT_BINARY_FIELD_HH

#include <cstdint>
#include <vector>

#include "mpint/mpuint.hh"

namespace ulecc
{

/** The NIST binary fields of the study, plus Generic. */
enum class NistBinary
{
    B163,
    B233,
    B283,
    B409,
    B571,
    Generic,
};

/** Returns the reduction polynomial f(x) for a named NIST binary field. */
MpUint nistBinaryPoly(NistBinary which);

/** Carry-less 32x32 -> 64 multiplication (software CLMUL). */
uint64_t clmul32(uint32_t a, uint32_t b);

/** GF(2^m) field context with reduction polynomial f(x). */
class BinaryField
{
  public:
    /**
     * Constructs a field from an irreducible polynomial @p f of degree m
     * (a trinomial or pentanomial; degree defines the field size).
     */
    explicit BinaryField(const MpUint &f);

    /** Convenience constructor from a named NIST binary field. */
    explicit BinaryField(NistBinary which);

    /** Field degree m. */
    int degree() const { return m_; }

    /** Field size in bits (== degree). */
    int bits() const { return m_; }

    /** Number of 32-bit words per element. */
    int words() const { return words_; }

    NistBinary kind() const { return kind_; }

    const MpUint &poly() const { return f_; }

    /**
     * @name Element arithmetic (the native hot path)
     * Operands are elements of this field (degree < m); each operation
     * notifies the op observer once.
     */
    /** @{ */

    /** a mod f(x) as an element. */
    FieldElem elem(const MpUint &a) const;

    /** The value of element @p a. */
    MpUint value(const FieldElem &a) const;

    /** Field addition == subtraction == XOR. */
    FieldElem add(const FieldElem &a, const FieldElem &b) const;

    /**
     * Field multiplication via the left-to-right comb method with 4-bit
     * windows (paper Algorithm 6, on 64-bit words) followed by the
     * in-place word fold.  This is the software-only algorithm whose
     * cost makes unassisted binary ECC impractical.
     */
    FieldElem mul(const FieldElem &a, const FieldElem &b) const;

    /**
     * Field squaring: the 8->16 bit spread table fills a 64-bit product
     * buffer, which the word fold reduces in place.
     */
    FieldElem sqr(const FieldElem &a) const;

    /**
     * Inversion by the polynomial extended Euclidean algorithm (Guide
     * to ECC, Algorithm 2.48) in place on 64-bit words;
     * Errc::InvalidInput when a is zero.
     */
    FieldElem inv(const FieldElem &a) const;

    /** @} */

    /** @name MpUint forms: elem(), the element operation, value() */
    /** @{ */
    MpUint add(const MpUint &a, const MpUint &b) const;
    /** Alias of add (binary fields are characteristic 2). */
    MpUint sub(const MpUint &a, const MpUint &b) const { return add(a, b); }
    MpUint mul(const MpUint &a, const MpUint &b) const;
    MpUint sqr(const MpUint &a) const;
    /** a mod f(x) inverted; Errc::InvalidInput when that is zero. */
    MpUint inv(const MpUint &a) const;
    /** @} */

    /**
     * Field multiplication built on word-level carry-less multiply
     * (product scanning with MULGF2/MADDGF2) -- the ISA-extension
     * algorithm.  Bit-identical result to mul().
     */
    MpUint mulClmul(const MpUint &a, const MpUint &b) const;

    /** Inversion via Fermat: a^(2^m - 2) by square-and-multiply. */
    MpUint invFermat(const MpUint &a) const;

    /**
     * Inversion via the Itoh-Tsujii addition chain: a^(2^m - 2) using
     * only ~log2(m) multiplications plus m-1 squarings (the paper's
     * Chapter 8 future work on accelerating modular inversion --
     * Billie's cheap squarer makes this chain dramatically faster
     * than plain Fermat on the accelerator).
     */
    MpUint invItohTsujii(const MpUint &a) const;

    /**
     * Multiplication count of the Itoh-Tsujii chain for degree m
     * (floor(log2(m-1)) + popcount(m-1) - 1).
     */
    static int itohTsujiiMulCount(int m);

    /**
     * Reduces any MpUint (commonly a product, degree < 2m) modulo f(x)
     * by the word fold mul() and sqr() use.
     */
    MpUint reduce(const MpUint &wide) const;

    /** Reduction oracle via polynomial long division (tests only). */
    MpUint reduceGeneric(const MpUint &wide) const;

    /** Field trace Tr(a) = sum a^(2^i); returns 0 or 1. */
    int trace(const MpUint &a) const;

    /**
     * Half-trace H(a) = sum a^(2^(2i)) for odd m: solves z^2 + z = a
     * when Tr(a) == 0 (used to find curve points / decompress y).
     */
    MpUint halfTrace(const MpUint &a) const;

    /**
     * Raw polynomial product (no reduction), comb method on 64-bit
     * words; reads the low ceil(m/64) 64-bit words of each operand.
     */
    MpUint polyMulComb(const MpUint &a, const MpUint &b) const;

    /** Raw polynomial product (no reduction), word CLMUL scanning. */
    MpUint polyMulClmul(const MpUint &a, const MpUint &b) const;

    /**
     * Raw polynomial square (bit spreading, no reduction) of an operand
     * of at most 640 bits; wider throws Errc::OutOfRange.
     */
    MpUint polySqr(const MpUint &a) const;

  private:
    /** sqr() without the op notification (the inversions' chains). */
    FieldElem square(const FieldElem &a) const;
    MpUint square(const MpUint &a) const { return value(square(elem(a))); }

    /** The element made of the low words64_ words of @p w. */
    FieldElem fromWords(const uint64_t *w) const;

    /**
     * Reduces the n-word polynomial c modulo f(x) in place; n must be
     * > words64_.  The result is c[0 .. words64_).
     */
    void fold(uint64_t *c, int n) const;

    MpUint f_;
    int m_;
    int words_;
    int words64_;
    NistBinary kind_;
    /** f's non-leading exponents, descending: f = x^m + x^a + x^b +
     * x^c + 1 stores {a, b, c} (a trinomial just {a}). */
    std::vector<int> mid_;
};

} // namespace ulecc

#endif // ULECC_MPINT_BINARY_FIELD_HH
