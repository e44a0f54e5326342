/**
 * @file
 * PrimeField implementation.
 */

#include "mpint/prime_field.hh"

#include "base/error.hh"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "mpint/op_observer.hh"
#include "mpint/words.hh"

namespace ulecc
{

MpUint
nistPrimeValue(NistPrime which)
{
    // Paper Eq. 4.3 - 4.7.
    switch (which) {
      case NistPrime::P192:
        return MpUint::powerOfTwo(192).sub(MpUint::powerOfTwo(64))
            .sub(MpUint(1));
      case NistPrime::P224:
        return MpUint::powerOfTwo(224).sub(MpUint::powerOfTwo(96))
            .add(MpUint(1));
      case NistPrime::P256:
        return MpUint::powerOfTwo(256).sub(MpUint::powerOfTwo(224))
            .add(MpUint::powerOfTwo(192)).add(MpUint::powerOfTwo(96))
            .sub(MpUint(1));
      case NistPrime::P384:
        return MpUint::powerOfTwo(384).sub(MpUint::powerOfTwo(128))
            .sub(MpUint::powerOfTwo(96)).add(MpUint::powerOfTwo(32))
            .sub(MpUint(1));
      case NistPrime::P521:
        return MpUint::powerOfTwo(521).sub(MpUint(1));
      default:
        throw UleccError(Errc::InvalidInput,
                         "nistPrimeValue: not a NIST prime");
    }
}

namespace
{

/** One fold term of a NIST column sum: coef * (input word src). */
struct FoldTerm
{
    int8_t coef;
    uint8_t src;
};

/*
 * Word-level NIST fast reduction tables.  For a 2k-word input c, output
 * column i is c[i] plus the fold terms of row i; each row ends at {0, 0}.
 * The rows are the FIPS 186-4 (Appendix D.2) signed sums regrouped by
 * 32-bit column.  A column's terms have at most 8 positive and 4
 * negative unit weights, so the carry out of the top column is small.
 */

// Paper Algorithm 4 on 32-bit words: T = s1 + s2 + s3 + s4 with
// s1 = (c2,c1,c0), s2 = (0,c3,c3), s3 = (c4,c4,0), s4 = (c5,c5,c5) in
// 64-bit chunks.
constexpr FoldTerm kP192Fold[] = {
    {1, 6}, {1, 10}, {0, 0},
    {1, 7}, {1, 11}, {0, 0},
    {1, 6}, {1, 8}, {1, 10}, {0, 0},
    {1, 7}, {1, 9}, {1, 11}, {0, 0},
    {1, 8}, {1, 10}, {0, 0},
    {1, 9}, {1, 11}, {0, 0},
};

// T = t + s1 + s2 - d1 - d2.
constexpr FoldTerm kP224Fold[] = {
    {-1, 7}, {-1, 11}, {0, 0},
    {-1, 8}, {-1, 12}, {0, 0},
    {-1, 9}, {-1, 13}, {0, 0},
    {1, 7}, {-1, 10}, {1, 11}, {0, 0},
    {1, 8}, {-1, 11}, {1, 12}, {0, 0},
    {1, 9}, {-1, 12}, {1, 13}, {0, 0},
    {1, 10}, {-1, 13}, {0, 0},
};

// T = t + 2s1 + 2s2 + s3 + s4 - d1 - d2 - d3 - d4.
constexpr FoldTerm kP256Fold[] = {
    {1, 8}, {1, 9}, {-1, 11}, {-1, 12}, {-1, 13}, {-1, 14}, {0, 0},
    {1, 9}, {1, 10}, {-1, 12}, {-1, 13}, {-1, 14}, {-1, 15}, {0, 0},
    {1, 10}, {1, 11}, {-1, 13}, {-1, 14}, {-1, 15}, {0, 0},
    {-1, 8}, {-1, 9}, {2, 11}, {2, 12}, {1, 13}, {-1, 15}, {0, 0},
    {-1, 9}, {-1, 10}, {2, 12}, {2, 13}, {1, 14}, {0, 0},
    {-1, 10}, {-1, 11}, {2, 13}, {2, 14}, {1, 15}, {0, 0},
    {-1, 8}, {-1, 9}, {1, 13}, {3, 14}, {2, 15}, {0, 0},
    {1, 8}, {-1, 10}, {-1, 11}, {-1, 12}, {-1, 13}, {3, 15}, {0, 0},
};

// T = t + 2s1 + s2 + s3 + s4 + s5 + s6 - d1 - d2 - d3.
constexpr FoldTerm kP384Fold[] = {
    {1, 12}, {1, 20}, {1, 21}, {-1, 23}, {0, 0},
    {-1, 12}, {1, 13}, {-1, 20}, {1, 22}, {1, 23}, {0, 0},
    {-1, 13}, {1, 14}, {-1, 21}, {1, 23}, {0, 0},
    {1, 12}, {-1, 14}, {1, 15}, {1, 20}, {1, 21}, {-1, 22}, {-1, 23},
    {0, 0},
    {1, 12}, {1, 13}, {-1, 15}, {1, 16}, {1, 20}, {2, 21}, {1, 22},
    {-2, 23}, {0, 0},
    {1, 13}, {1, 14}, {-1, 16}, {1, 17}, {1, 21}, {2, 22}, {1, 23},
    {0, 0},
    {1, 14}, {1, 15}, {-1, 17}, {1, 18}, {1, 22}, {2, 23}, {0, 0},
    {1, 15}, {1, 16}, {-1, 18}, {1, 19}, {1, 23}, {0, 0},
    {1, 16}, {1, 17}, {-1, 19}, {1, 20}, {0, 0},
    {1, 17}, {1, 18}, {-1, 20}, {1, 21}, {0, 0},
    {1, 18}, {1, 19}, {-1, 21}, {1, 22}, {0, 0},
    {1, 19}, {1, 20}, {-1, 22}, {1, 23}, {0, 0},
};

/** A fold table as weights: column i gains w[i][j] * (input word K + j). */
template <int K>
struct FoldMatrix
{
    int8_t w[K][K];
};

/** Expands a {0, 0}-delimited row table (every source word >= K). */
template <int K>
constexpr FoldMatrix<K>
foldMatrix(const FoldTerm *fold)
{
    FoldMatrix<K> m{};
    for (int i = 0; i < K; ++i) {
        for (; fold->coef; ++fold)
            m.w[i][fold->src - K] += fold->coef;
        ++fold;
    }
    return m;
}

/** Word count of the widest element. */
constexpr int kMaxWords = FieldElem::maxLimbs;

/** r += b over K words; returns the carry out. */
template <int K>
int
addWords(uint32_t *r, const uint32_t *b)
{
    uint64_t c = 0;
    for (int i = 0; i < K; ++i) {
        c += static_cast<uint64_t>(r[i]) + b[i];
        r[i] = static_cast<uint32_t>(c);
        c >>= 32;
    }
    return static_cast<int>(c);
}

/** r -= b over K words; returns the borrow out. */
template <int K>
int
subWords(uint32_t *r, const uint32_t *b)
{
    uint32_t borrow = 0;
    for (int i = 0; i < K; ++i) {
        uint64_t d = static_cast<uint64_t>(r[i]) - b[i] - borrow;
        r[i] = static_cast<uint32_t>(d);
        borrow = static_cast<uint32_t>(d >> 63);
    }
    return static_cast<int>(borrow);
}

/** True iff r (K words) >= p. */
template <int K>
bool
geqWords(const uint32_t *r, const uint32_t *p)
{
    for (int i = K - 1; i >= 0; --i) {
        if (r[i] != p[i])
            return r[i] > p[i];
    }
    return true;
}

/**
 * Brings r + carry * 2^(32K) into [0, p).  Each add or subtract of p
 * moves the carry towards zero at least every second step, because
 * p > 2^(32K-1) for the four column primes; with the carry at zero,
 * r < 2^(32K) and r < 2^522 (P-521) are both below 3p.  The carry is
 * bounded by the weights of one column, so every loop is bounded.
 */
template <int K>
void
normalise(uint32_t *r, int64_t carry, const uint32_t *p)
{
    while (carry < 0)
        carry += addWords<K>(r, p);
    while (carry > 0)
        carry -= subWords<K>(r, p);
    while (geqWords<K>(r, p))
        subWords<K>(r, p);
}

NistPrime
detectKind(const MpUint &p)
{
    for (NistPrime k : {NistPrime::P192, NistPrime::P224, NistPrime::P256,
                        NistPrime::P384, NistPrime::P521}) {
        if (p == nistPrimeValue(k))
            return k;
    }
    return NistPrime::Generic;
}

} // namespace

/**
 * Every kernel reads and writes K-word arrays (element limbs, or 2K
 * words for a double-width value); the K-word results leave the limbs
 * above K untouched, so they stay zero.
 */
struct PrimeField::Kernels
{
    using Reduce = void (*)(const PrimeField &, const uint32_t *,
                            uint32_t *);
    using Binary = void (*)(const PrimeField &, const uint32_t *,
                            const uint32_t *, uint32_t *);

    Reduce reduce;
    Binary mul;
    void (*sqr)(const PrimeField &, const uint32_t *, uint32_t *);
    Binary add;
    Binary sub;
    Binary montMul;

    /** A NIST prime: the product, then the prime's own reduction. */
    template <int K, Reduce R>
    static constexpr Kernels
    make()
    {
        return {R, &mulK<K, R>, &sqrK<K, R>, &addK<K>, &subK<K>,
                &montMulK<K>};
    }

    /**
     * Any other odd modulus: a*b = CIOS(CIOS(a, b), R^2 mod p), two
     * Montgomery multiplications and no product buffer.
     */
    template <int K>
    static constexpr Kernels
    makeMont()
    {
        return {&reduceMont<K>, &montMul2K<K>, &montSqr2K<K>, &addK<K>,
                &subK<K>, &montMulK<K>};
    }

    template <int K, Reduce R>
    static void
    mulK(const PrimeField &f, const uint32_t *a, const uint32_t *b,
         uint32_t *r)
    {
        uint32_t c[2 * K];
        words::mulOperandScan(a, K, b, K, c);
        R(f, c, r);
    }

    template <int K, Reduce R>
    static void
    sqrK(const PrimeField &f, const uint32_t *a, uint32_t *r)
    {
        uint32_t c[2 * K];
        words::sqr(a, K, c);
        R(f, c, r);
    }

    template <int K>
    static void
    addK(const PrimeField &f, const uint32_t *a, const uint32_t *b,
         uint32_t *r)
    {
        const uint32_t *p = f.pElem_.limb.data();
        std::copy(a, a + K, r);
        if (addWords<K>(r, b) || geqWords<K>(r, p))
            subWords<K>(r, p);
    }

    template <int K>
    static void
    subK(const PrimeField &f, const uint32_t *a, const uint32_t *b,
         uint32_t *r)
    {
        std::copy(a, a + K, r);
        if (subWords<K>(r, b))
            addWords<K>(r, f.pElem_.limb.data());
    }

    /**
     * CIOS Montgomery multiplication (paper Algorithm 5, Koc et al.),
     * word width w = 32: r = a*b*R^-1 mod p for a*b < R*p.  This is
     * exactly the loop structure microcoded into Monte's FFAU.  Kept
     * out of line: the generic product calls it twice, and inlining
     * both copies for each of the 20 word counts tripled the code.
     */
    template <int K>
    [[gnu::noinline]] static void
    montMulK(const PrimeField &f, const uint32_t *a, const uint32_t *b,
             uint32_t *r)
    {
        const uint32_t *p = f.pElem_.limb.data();
        uint32_t t[K + 2] = {};
        for (int i = 0; i < K; ++i) {
            // Multiplication sweep: t += a * b[i].
            uint64_t c = 0;
            const uint64_t bi = b[i];
            for (int j = 0; j < K; ++j) {
                uint64_t s = static_cast<uint64_t>(a[j]) * bi + t[j] + c;
                t[j] = static_cast<uint32_t>(s);
                c = s >> 32;
            }
            uint64_t s = static_cast<uint64_t>(t[K]) + c;
            t[K] = static_cast<uint32_t>(s);
            t[K + 1] = static_cast<uint32_t>(s >> 32);
            // Reduction sweep: fold with m = t[0] * n0' mod 2^32.
            const uint32_t m = t[0] * f.n0prime_;
            s = static_cast<uint64_t>(t[0]) + static_cast<uint64_t>(m) * p[0];
            c = s >> 32;
            for (int j = 1; j < K; ++j) {
                s = static_cast<uint64_t>(t[j])
                    + static_cast<uint64_t>(m) * p[j] + c;
                t[j - 1] = static_cast<uint32_t>(s);
                c = s >> 32;
            }
            s = static_cast<uint64_t>(t[K]) + c;
            t[K - 1] = static_cast<uint32_t>(s);
            t[K] = t[K + 1] + static_cast<uint32_t>(s >> 32);
        }
        // t < 2p: one subtraction brings it below p.
        if (t[K] || geqWords<K>(t, p))
            subWords<K>(t, p);
        for (int i = 0; i < K; ++i)
            r[i] = t[i];
    }

    template <int K>
    static void
    montMul2K(const PrimeField &f, const uint32_t *a, const uint32_t *b,
              uint32_t *r)
    {
        uint32_t t[K];
        montMulK<K>(f, a, b, t);
        montMulK<K>(f, t, f.r2Elem_.limb.data(), r);
    }

    template <int K>
    static void
    montSqr2K(const PrimeField &f, const uint32_t *a, uint32_t *r)
    {
        montMul2K<K>(f, a, a, r);
    }

    /**
     * Sums the column table @p Fold over the 2K input words, then
     * normalises the signed carry out of the top column.  The table is
     * expanded at compile time into a K x K matrix of weights on the
     * high words, so the unrolled sums keep only the nonzero terms.
     */
    template <int K, const FoldTerm *Fold>
    static void
    reduceColumns(const PrimeField &f, const uint32_t *wide, uint32_t *r)
    {
        static constexpr FoldMatrix<K> kFold = foldMatrix<K>(Fold);
        int64_t acc = 0;
#pragma GCC unroll 12
        for (int i = 0; i < K; ++i) {
            acc += wide[i];
#pragma GCC unroll 12
            for (int j = 0; j < K; ++j) {
                if (kFold.w[i][j])
                    acc += kFold.w[i][j] * static_cast<int64_t>(wide[K + j]);
            }
            r[i] = static_cast<uint32_t>(acc);
            acc >>= 32; // arithmetic: the carry is signed
        }
        normalise<K>(r, acc, f.pElem_.limb.data());
    }

    /**
     * P-521 mask-and-add: 2^521 == 1, so the bits above 521 add onto
     * the low 521 bits.  For wide < 2^1042 the sum is < 2^522 and fits
     * the 17 words with no carry out.
     */
    static void
    reduceP521(const PrimeField &f, const uint32_t *wide, uint32_t *r)
    {
        uint64_t acc = 0;
        for (int i = 0; i < 17; ++i) {
            uint32_t lo = i < 16 ? wide[i] : wide[16] & 0x1FFu;
            uint32_t hi = (wide[16 + i] >> 9) | (wide[17 + i] << 23);
            acc += static_cast<uint64_t>(lo) + hi;
            r[i] = static_cast<uint32_t>(acc);
            acc >>= 32;
        }
        normalise<17>(r, 0, f.pElem_.limb.data());
    }

    /**
     * Any odd modulus: Montgomery REDC of the 2K-word input gives
     * t = wide * R^-1 mod p, and one CIOS multiply by R^2 mod p turns
     * it into wide mod p.  REDC leaves t < wide / R + p; with
     * wide < 2^(2 * bits) and bits <= 32K that is below 3p, so at most
     * two subtractions of p bring t below p.
     */
    template <int K>
    static void
    reduceMont(const PrimeField &f, const uint32_t *wide, uint32_t *r)
    {
        const uint32_t *p = f.pElem_.limb.data();
        uint32_t t[2 * K];
        for (int i = 0; i < 2 * K; ++i)
            t[i] = wide[i];
        uint32_t top = 0; // bit 64K of t
        for (int i = 0; i < K; ++i) {
            const uint32_t m = t[i] * f.n0prime_;
            uint64_t c = 0;
            for (int j = 0; j < K; ++j) {
                c += static_cast<uint64_t>(m) * p[j] + t[i + j];
                t[i + j] = static_cast<uint32_t>(c);
                c >>= 32;
            }
            c += static_cast<uint64_t>(t[i + K]) + top;
            t[i + K] = static_cast<uint32_t>(c);
            top = static_cast<uint32_t>(c >> 32);
        }
        uint32_t *h = t + K;
        while (top || geqWords<K>(h, p))
            top -= subWords<K>(h, p);
        montMulK<K>(f, h, f.r2Elem_.limb.data(), r);
    }

    template <int... I>
    static constexpr std::array<Kernels, sizeof...(I)>
    montTable(std::integer_sequence<int, I...>)
    {
        return {makeMont<I + 1>()...};
    }

    /** The kernels of a field: by NIST prime, else by word count. */
    static const Kernels *
    select(NistPrime kind, int k)
    {
        static constexpr Kernels kP192 =
            make<6, &reduceColumns<6, kP192Fold>>();
        static constexpr Kernels kP224 =
            make<7, &reduceColumns<7, kP224Fold>>();
        static constexpr Kernels kP256 =
            make<8, &reduceColumns<8, kP256Fold>>();
        static constexpr Kernels kP384 =
            make<12, &reduceColumns<12, kP384Fold>>();
        static constexpr Kernels kP521 = make<17, &reduceP521>();
        static constexpr auto kMont =
            montTable(std::make_integer_sequence<int, kMaxWords>{});
        switch (kind) {
          case NistPrime::P192: return &kP192;
          case NistPrime::P224: return &kP224;
          case NistPrime::P256: return &kP256;
          case NistPrime::P384: return &kP384;
          case NistPrime::P521: return &kP521;
          default: return &kMont[size_t(k - 1)];
        }
    }
};

PrimeField::PrimeField(const MpUint &p)
    : p_(p),
      bits_(p.bitLength()),
      words_((p.bitLength() + 31) / 32),
      kind_(detectKind(p))
{
    if (!p_.isOdd())
        throw UleccError(Errc::InvalidInput,
                         "PrimeField: modulus must be odd");
    if (words_ > kMaxWords)
        throw UleccError(Errc::InvalidInput,
                         "PrimeField: modulus wider than "
                             + std::to_string(32 * kMaxWords) + " bits");
    n0prime_ = words::negInverse32(p_.limb(0));
    // R = 2^(32*words).
    MpUint rModP = MpUint::powerOfTwo(32 * words_).mod(p_);
    r2ModP_ = rModP.mul(rModP).mod(p_);
    for (int i = 0; i < words_; ++i) {
        pElem_.limb[size_t(i)] = p_.limbU(i);
        r2Elem_.limb[size_t(i)] = r2ModP_.limbU(i);
    }
    kern_ = Kernels::select(kind_, words_);
}

PrimeField::PrimeField(NistPrime which)
    : PrimeField(nistPrimeValue(which))
{
}

FieldElem
PrimeField::elem(const MpUint &a) const
{
    return a < p_ ? a.toElem() : a.mod(p_).toElem();
}

MpUint
PrimeField::value(const FieldElem &a) const
{
    return MpUint::fromElem(a, words_);
}

FieldElem
PrimeField::add(const FieldElem &a, const FieldElem &b) const
{
    notifyFieldOp(FieldOp::Add, bits_, false);
    FieldElem r;
    kern_->add(*this, a.limb.data(), b.limb.data(), r.limb.data());
    return r;
}

FieldElem
PrimeField::sub(const FieldElem &a, const FieldElem &b) const
{
    notifyFieldOp(FieldOp::Sub, bits_, false);
    FieldElem r;
    kern_->sub(*this, a.limb.data(), b.limb.data(), r.limb.data());
    return r;
}

FieldElem
PrimeField::neg(const FieldElem &a) const
{
    notifyFieldOp(FieldOp::Sub, bits_, false);
    FieldElem r;
    const FieldElem zero;
    kern_->sub(*this, zero.limb.data(), a.limb.data(), r.limb.data());
    return r;
}

FieldElem
PrimeField::mul(const FieldElem &a, const FieldElem &b) const
{
    notifyFieldOp(FieldOp::Mul, bits_, false);
    FieldElem r;
    kern_->mul(*this, a.limb.data(), b.limb.data(), r.limb.data());
    return r;
}

FieldElem
PrimeField::sqr(const FieldElem &a) const
{
    notifyFieldOp(FieldOp::Sqr, bits_, false);
    FieldElem r;
    kern_->sqr(*this, a.limb.data(), r.limb.data());
    return r;
}

FieldElem
PrimeField::inv(const FieldElem &a) const
{
    notifyFieldOp(FieldOp::Inv, bits_, false);
    FieldElem r = a;
    if (!words::invOdd(r.limb.data(), pElem_.limb.data(), words_,
                       n0prime_))
        throw UleccError(Errc::InvalidInput,
                         a.isZero() ? "PrimeField::inv: inverse of zero"
                                    : "PrimeField::inv: not invertible");
    return r;
}

MpUint
PrimeField::add(const MpUint &a, const MpUint &b) const
{
    return value(add(elem(a), elem(b)));
}

MpUint
PrimeField::sub(const MpUint &a, const MpUint &b) const
{
    return value(sub(elem(a), elem(b)));
}

MpUint
PrimeField::neg(const MpUint &a) const
{
    return value(neg(elem(a)));
}

MpUint
PrimeField::mul(const MpUint &a, const MpUint &b) const
{
    return value(mul(elem(a), elem(b)));
}

MpUint
PrimeField::sqr(const MpUint &a) const
{
    return value(sqr(elem(a)));
}

MpUint
PrimeField::inv(const MpUint &a) const
{
    return value(inv(elem(a)));
}

MpUint
PrimeField::mulProductScan(const MpUint &a, const MpUint &b) const
{
    notifyFieldOp(FieldOp::Mul, bits_, false);
    return reduce(a.mulProductScan(b));
}

MpUint
PrimeField::invFermat(const MpUint &a) const
{
    notifyFieldOp(FieldOp::Inv, bits_, false);
    if (a.mod(p_).isZero())
        throw UleccError(Errc::InvalidInput,
                         "PrimeField::invFermat: inverse of zero");
    return pow(a, p_.sub(MpUint(2)));
}

MpUint
PrimeField::pow(const MpUint &a, const MpUint &e) const
{
    // Left-to-right binary exponentiation in the Montgomery domain.
    if (e.isZero())
        return MpUint(1);
    MpUint base = toMont(a.mod(p_));
    MpUint acc = base;
    for (int i = e.bitLength() - 2; i >= 0; --i) {
        acc = montMulCios(acc, acc);
        if (e.bit(i))
            acc = montMulCios(acc, base);
    }
    return fromMont(acc);
}

MpUint
PrimeField::reduce(const MpUint &wide) const
{
    if (32 * wide.size() > 2 * bits_ && wide.bitLength() > 2 * bits_)
        throw UleccError(Errc::InvalidInput,
                         "PrimeField::reduce: input wider than 2*"
                             + std::to_string(bits_) + " bits");
    uint32_t w[2 * kMaxWords];
    for (int i = 0; i < 2 * words_; ++i)
        w[i] = wide.limbU(i);
    FieldElem r;
    kern_->reduce(*this, w, r.limb.data());
    return value(r);
}

MpUint
PrimeField::reduceGeneric(const MpUint &wide) const
{
    return wide.mod(p_);
}

MpUint
PrimeField::toMont(const MpUint &a) const
{
    return montMulCios(a, r2ModP_);
}

MpUint
PrimeField::fromMont(const MpUint &a) const
{
    return montMulCios(a, MpUint(1));
}

MpUint
PrimeField::montMulCios(const MpUint &a, const MpUint &b) const
{
    FieldElem r;
    kern_->montMul(*this, elem(a).limb.data(), elem(b).limb.data(),
                   r.limb.data());
    return value(r);
}

MpUint
PrimeField::montMulFips(const MpUint &a, const MpUint &b) const
{
    // Finely Integrated Product Scanning Montgomery multiplication:
    // column-wise accumulation interleaving a*b and m*n partial
    // products (the form the MADDU/ADDAU/SHA extensions accelerate).
    const int k = words_;
    uint32_t m[MpUint::maxLimbs] = {0};
    uint32_t x[MpUint::maxLimbs + 1] = {0};
    uint64_t uv = 0;
    uint32_t t = 0;
    auto acc = [&](uint32_t p, uint32_t q) {
        uint64_t prod = static_cast<uint64_t>(p) * q;
        uint64_t prev = uv;
        uv += prod;
        if (uv < prev)
            ++t;
    };
    auto shift = [&]() {
        uv = (uv >> 32) | (static_cast<uint64_t>(t) << 32);
        t = 0;
    };
    for (int i = 0; i < k; ++i) {
        for (int j = 0; j < i; ++j) {
            acc(a.limbU(j), b.limbU(i - j));
            acc(m[j], p_.limbU(i - j));
        }
        acc(a.limbU(i), b.limbU(0));
        m[i] = static_cast<uint32_t>(uv) * n0prime_;
        acc(m[i], p_.limbU(0));
        shift();
    }
    for (int i = k; i < 2 * k; ++i) {
        for (int j = i - k + 1; j < k; ++j) {
            acc(a.limbU(j), b.limbU(i - j));
            acc(m[j], p_.limbU(i - j));
        }
        x[i - k] = static_cast<uint32_t>(uv);
        shift();
    }
    x[k] = static_cast<uint32_t>(uv);
    MpUint r;
    for (int i = 0; i <= k; ++i)
        r.setLimb(i, x[i]);
    if (r >= p_)
        r = r.sub(p_);
    return r;
}

bool
PrimeField::sqrt(const MpUint &a, MpUint &root) const
{
    MpUint v = a.mod(p_);
    if (v.isZero()) {
        root = MpUint();
        return true;
    }
    MpUint candidate;
    if (p_.bits(0, 2) == 3) {
        // p == 3 (mod 4): root = a^((p+1)/4).
        candidate = pow(v, p_.add(MpUint(1)).shiftRight(2));
    } else {
        // Tonelli-Shanks.  Write p-1 = q * 2^s with q odd.
        MpUint q = p_.sub(MpUint(1));
        int s = 0;
        while (!q.isOdd()) {
            q = q.shiftRight(1);
            ++s;
        }
        // Find a quadratic non-residue z.
        MpUint half = p_.sub(MpUint(1)).shiftRight(1);
        MpUint z(2);
        while (pow(z, half) == MpUint(1))
            z = z.add(MpUint(1));
        MpUint c = pow(z, q);
        MpUint x = pow(v, q.add(MpUint(1)).shiftRight(1));
        MpUint tt = pow(v, q);
        int mexp = s;
        const MpUint one(1);
        while (tt != one) {
            // Find least i with t^(2^i) == 1.
            int i = 0;
            MpUint t2 = tt;
            while (t2 != one && i < mexp) {
                t2 = t2.mul(t2).mod(p_);
                ++i;
            }
            if (i == mexp)
                return false; // non-residue
            MpUint b = c;
            for (int j = 0; j < mexp - i - 1; ++j)
                b = b.mul(b).mod(p_);
            x = x.mul(b).mod(p_);
            c = b.mul(b).mod(p_);
            tt = tt.mul(c).mod(p_);
            mexp = i;
        }
        candidate = x;
    }
    if (candidate.mul(candidate).mod(p_) != v)
        return false;
    root = candidate;
    return true;
}

} // namespace ulecc
