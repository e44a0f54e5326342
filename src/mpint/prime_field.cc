/**
 * @file
 * PrimeField implementation.
 */

#include "mpint/prime_field.hh"

#include "base/error.hh"

#include <stdexcept>

#include "mpint/op_observer.hh"

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

/** Largest element width in words (P-521: 17). */
constexpr int kMaxWords = 17;

/**
 * Sums the column table @p fold over the 2k input words into r[0..k);
 * returns the signed carry out of the top column, so that the value is
 * r + carry * 2^(32k).
 */
int64_t
foldColumns(const FoldTerm *fold, const MpUint &wide, int k, uint32_t *r)
{
    int64_t acc = 0;
    for (int i = 0; i < k; ++i) {
        acc += wide.limbU(i);
        for (; fold->coef; ++fold)
            acc += fold->coef * static_cast<int64_t>(wide.limbU(fold->src));
        ++fold;
        r[i] = static_cast<uint32_t>(acc);
        acc >>= 32; // arithmetic: the carry is signed
    }
    return acc;
}

/**
 * P-521 mask-and-add: 2^521 == 1, so the bits above 521 add onto the
 * low 521 bits.  For wide < 2^1042 the sum is < 2^522 and fits the 17
 * words with no carry out.
 */
void
foldP521(const MpUint &wide, uint32_t *r)
{
    uint64_t acc = 0;
    for (int i = 0; i < 17; ++i) {
        uint32_t lo = i < 16 ? wide.limbU(i) : wide.limbU(16) & 0x1FFu;
        uint32_t hi = (wide.limbU(16 + i) >> 9) | (wide.limbU(17 + i) << 23);
        acc += static_cast<uint64_t>(lo) + hi;
        r[i] = static_cast<uint32_t>(acc);
        acc >>= 32;
    }
}

/** r += p over k words; returns the carry out. */
int
addWords(uint32_t *r, const MpUint &p, int k)
{
    uint64_t c = 0;
    for (int i = 0; i < k; ++i) {
        c += static_cast<uint64_t>(r[i]) + p.limbU(i);
        r[i] = static_cast<uint32_t>(c);
        c >>= 32;
    }
    return static_cast<int>(c);
}

/** r -= p over k words; returns the borrow out. */
int
subWords(uint32_t *r, const MpUint &p, int k)
{
    uint32_t borrow = 0;
    for (int i = 0; i < k; ++i) {
        uint64_t d = static_cast<uint64_t>(r[i]) - p.limbU(i) - borrow;
        r[i] = static_cast<uint32_t>(d);
        borrow = static_cast<uint32_t>(d >> 63);
    }
    return static_cast<int>(borrow);
}

/** True iff r (k words) >= p. */
bool
geqWords(const uint32_t *r, const MpUint &p, int k)
{
    for (int i = k - 1; i >= 0; --i) {
        if (r[i] != p.limbU(i))
            return r[i] > p.limbU(i);
    }
    return true;
}

/**
 * Brings r + carry * 2^(32k) into [0, p).  Each add or subtract of p
 * moves the carry towards zero at least every second step, because
 * p > 2^(32k-1) for the four column primes; with the carry at zero,
 * r < 2^(32k) and r < 2^522 (P-521) are both below 3p.  The carry is
 * bounded by the weights of one column, so every loop is bounded.
 */
void
normalise(uint32_t *r, int64_t carry, const MpUint &p, int k)
{
    while (carry < 0)
        carry += addWords(r, p, k);
    while (carry > 0)
        carry -= subWords(r, p, k);
    while (geqWords(r, p, k))
        subWords(r, p, k);
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

PrimeField::PrimeField(const MpUint &p)
    : p_(p),
      bits_(p.bitLength()),
      words_((p.bitLength() + 31) / 32),
      kind_(detectKind(p))
{
    if (!p_.isOdd())
        throw UleccError(Errc::InvalidInput,
                         "PrimeField: modulus must be odd");
    // n0' = -p^-1 mod 2^32 via Newton iteration on the low word.
    uint32_t p0 = p_.limb(0);
    uint32_t inv = p0; // correct to 3 bits
    for (int i = 0; i < 4; ++i)
        inv *= 2u - p0 * inv;
    n0prime_ = static_cast<uint32_t>(0u - inv);
    // R = 2^(32*words).
    MpUint r = MpUint::powerOfTwo(32 * words_);
    rModP_ = r.mod(p_);
    r2ModP_ = rModP_.mul(rModP_).mod(p_);
}

PrimeField::PrimeField(NistPrime which)
    : PrimeField(nistPrimeValue(which))
{
}

MpUint
PrimeField::add(const MpUint &a, const MpUint &b) const
{
    notifyFieldOp(FieldOp::Add, bits_, false);
    return a.addMod(b, p_);
}

MpUint
PrimeField::sub(const MpUint &a, const MpUint &b) const
{
    notifyFieldOp(FieldOp::Sub, bits_, false);
    return a.subMod(b, p_);
}

MpUint
PrimeField::neg(const MpUint &a) const
{
    notifyFieldOp(FieldOp::Sub, bits_, false);
    if (a.isZero())
        return a;
    return p_.sub(a);
}

MpUint
PrimeField::mul(const MpUint &a, const MpUint &b) const
{
    notifyFieldOp(FieldOp::Mul, bits_, false);
    return reduce(a.mulOperandScan(b));
}

MpUint
PrimeField::mulProductScan(const MpUint &a, const MpUint &b) const
{
    notifyFieldOp(FieldOp::Mul, bits_, false);
    return reduce(a.mulProductScan(b));
}

MpUint
PrimeField::sqr(const MpUint &a) const
{
    notifyFieldOp(FieldOp::Sqr, bits_, false);
    return reduce(a.sqr());
}

MpUint
PrimeField::inv(const MpUint &a) const
{
    notifyFieldOp(FieldOp::Inv, bits_, false);
    return a.modInverseOdd(p_);
}

MpUint
PrimeField::invFermat(const MpUint &a) const
{
    notifyFieldOp(FieldOp::Inv, bits_, false);
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
    const FoldTerm *fold = nullptr;
    switch (kind_) {
      case NistPrime::P192: fold = kP192Fold; break;
      case NistPrime::P224: fold = kP224Fold; break;
      case NistPrime::P256: fold = kP256Fold; break;
      case NistPrime::P384: fold = kP384Fold; break;
      case NistPrime::P521: break;
      default: return reduceGeneric(wide);
    }
    uint32_t r[kMaxWords];
    int64_t carry = 0;
    if (fold)
        carry = foldColumns(fold, wide, words_, r);
    else
        foldP521(wide, r);
    normalise(r, carry, p_, words_);
    MpUint out;
    for (int i = 0; i < words_; ++i)
        out.setLimb(i, r[i]);
    return out;
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
    // Paper Algorithm 5 (Koc et al. CIOS), word width w = 32.
    const int k = words_;
    uint32_t t[MpUint::maxLimbs + 2] = {0};
    for (int i = 0; i < k; ++i) {
        // Multiplication sweep: t += a * b[i].
        uint64_t c = 0;
        uint64_t bi = b.limbU(i);
        for (int j = 0; j < k; ++j) {
            uint64_t s = static_cast<uint64_t>(a.limbU(j)) * bi + t[j] + c;
            t[j] = static_cast<uint32_t>(s);
            c = s >> 32;
        }
        uint64_t s = static_cast<uint64_t>(t[k]) + c;
        t[k] = static_cast<uint32_t>(s);
        t[k + 1] = static_cast<uint32_t>(s >> 32);
        // Reduction sweep: fold with m = t[0] * n0' mod 2^32.
        uint32_t m = t[0] * n0prime_;
        s = static_cast<uint64_t>(t[0])
            + static_cast<uint64_t>(m) * p_.limbU(0);
        c = s >> 32;
        for (int j = 1; j < k; ++j) {
            s = static_cast<uint64_t>(t[j])
                + static_cast<uint64_t>(m) * p_.limbU(j) + c;
            t[j - 1] = static_cast<uint32_t>(s);
            c = s >> 32;
        }
        s = static_cast<uint64_t>(t[k]) + c;
        t[k - 1] = static_cast<uint32_t>(s);
        t[k] = t[k + 1] + static_cast<uint32_t>(s >> 32);
    }
    MpUint r;
    for (int i = 0; i <= k; ++i)
        r.setLimb(i, t[i]);
    if (r >= p_)
        r = r.sub(p_);
    return r;
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
