/**
 * @file
 * BinaryField implementation.
 */

#include "mpint/binary_field.hh"

#include "base/error.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "mpint/op_observer.hh"

namespace ulecc
{

MpUint
nistBinaryPoly(NistBinary which)
{
    // Paper Eq. 4.8 - 4.12.
    auto poly = [](std::initializer_list<int> exps) {
        MpUint f;
        for (int e : exps)
            f.setBit(e);
        return f;
    };
    switch (which) {
      case NistBinary::B163:
        return poly({163, 7, 6, 3, 0});
      case NistBinary::B233:
        return poly({233, 74, 0});
      case NistBinary::B283:
        return poly({283, 12, 7, 5, 0});
      case NistBinary::B409:
        return poly({409, 87, 0});
      case NistBinary::B571:
        return poly({571, 10, 5, 2, 0});
      default:
        throw UleccError(Errc::InvalidInput,
                         "nistBinaryPoly: not a NIST field");
    }
}

uint64_t
clmul32(uint32_t a, uint32_t b)
{
    // 4-bit windowed software carry-less multiply.
    uint64_t tbl[16];
    tbl[0] = 0;
    tbl[1] = a;
    for (int i = 2; i < 16; i += 2) {
        tbl[i] = tbl[i / 2] << 1;
        tbl[i + 1] = tbl[i] ^ a;
    }
    uint64_t r = 0;
    for (int i = 28; i >= 0; i -= 4)
        r = (r << 4) ^ tbl[(b >> i) & 0xF];
    // No bit leaves the 64-bit window: each table entry is < 2^35 and
    // is shifted left by at most 28 more bits.
    return r;
}

namespace
{

NistBinary
detectBinaryKind(const MpUint &f)
{
    for (NistBinary k : {NistBinary::B163, NistBinary::B233,
                         NistBinary::B283, NistBinary::B409,
                         NistBinary::B571}) {
        if (f == nistBinaryPoly(k))
            return k;
    }
    return NistBinary::Generic;
}

/** 8-bit -> 16-bit zero-interleaving table for fast squaring. */
const std::array<uint16_t, 256> &
squareSpreadTable()
{
    static const std::array<uint16_t, 256> table = [] {
        std::array<uint16_t, 256> t{};
        for (int v = 0; v < 256; ++v) {
            uint16_t s = 0;
            for (int b = 0; b < 8; ++b) {
                if (v & (1 << b))
                    s |= 1u << (2 * b);
            }
            t[v] = s;
        }
        return t;
    }();
    return table;
}

} // namespace

BinaryField::BinaryField(const MpUint &f)
    : f_(f),
      m_(f.bitLength() - 1),
      words_((f.bitLength() + 30) / 32),
      kind_(detectBinaryKind(f))
{
    if (m_ < 2)
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: degree too small");
    // A raw product takes 2 * words_ limbs.
    if (2 * words_ > MpUint::maxLimbs)
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: degree too large");
    if (f.bit(0) != 1)
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: reduction polynomial needs +1 term");
    for (int i = m_ - 1; i >= 1; --i) {
        if (f.bit(i))
            mid_.push_back(i);
    }
}

BinaryField::BinaryField(NistBinary which)
    : BinaryField(nistBinaryPoly(which))
{
}

MpUint
BinaryField::add(const MpUint &a, const MpUint &b) const
{
    notifyFieldOp(FieldOp::Add, m_, true);
    return a.bitXor(b);
}

MpUint
BinaryField::mul(const MpUint &a, const MpUint &b) const
{
    notifyFieldOp(FieldOp::Mul, m_, true);
    return reduce(polyMulComb(a, b));
}

MpUint
BinaryField::mulClmul(const MpUint &a, const MpUint &b) const
{
    notifyFieldOp(FieldOp::Mul, m_, true);
    return reduce(polyMulClmul(a, b));
}

MpUint
BinaryField::sqr(const MpUint &a) const
{
    notifyFieldOp(FieldOp::Sqr, m_, true);
    return reduce(polySqr(a));
}

MpUint
BinaryField::inv(const MpUint &a) const
{
    // Polynomial extended Euclidean algorithm
    // (Guide to ECC, Algorithm 2.48).
    notifyFieldOp(FieldOp::Inv, m_, true);
    if (a.isZero())
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: inverse of zero");
    MpUint u = reduce(a), v = f_;
    MpUint g1(1), g2;
    const MpUint one(1);
    while (u != one && !u.isZero()) {
        int j = u.bitLength() - v.bitLength();
        if (j < 0) {
            std::swap(u, v);
            std::swap(g1, g2);
            j = -j;
        }
        u = u.bitXor(v.shiftLeft(j));
        g1 = g1.bitXor(g2.shiftLeft(j));
    }
    if (u != one)
        throw UleccError(Errc::Internal,
                         "BinaryField::inv: element not invertible "
                         "(reducible polynomial?)");
    return reduce(g1);
}

MpUint
BinaryField::invFermat(const MpUint &a) const
{
    // a^(2^m - 2) = a^(2 * (2^(m-1) - 1)): simple square-and-multiply
    // chain of (m-1) squarings and (m-2) multiplications.
    notifyFieldOp(FieldOp::Inv, m_, true);
    if (a.isZero())
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: inverse of zero");
    MpUint x = reduce(a);
    MpUint acc = x;
    for (int i = 0; i < m_ - 2; ++i) {
        acc = reduce(polySqr(acc));
        acc = reduce(polyMulClmul(acc, x));
    }
    return reduce(polySqr(acc));
}

MpUint
BinaryField::invItohTsujii(const MpUint &a) const
{
    // Compute b = a^(2^(m-1) - 1), then inv = b^2.  Maintain
    // t = a^(2^n - 1); scanning the bits of e = m-1 from the top:
    //   always:   t <- t^(2^n) * t        (n doubles)
    //   bit set:  t <- t^2 * a            (n += 1)
    notifyFieldOp(FieldOp::Inv, m_, true);
    if (a.isZero())
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: inverse of zero");
    MpUint x = reduce(a);
    const int e = m_ - 1;
    int top = 31;
    while (top > 0 && !((e >> top) & 1))
        --top;
    MpUint t = x;
    int n = 1;
    for (int i = top - 1; i >= 0; --i) {
        MpUint u = t;
        for (int s = 0; s < n; ++s)
            u = reduce(polySqr(u));
        t = reduce(polyMulClmul(u, t));
        n *= 2;
        if ((e >> i) & 1) {
            t = reduce(polyMulClmul(reduce(polySqr(t)), x));
            n += 1;
        }
    }
    assert(n == e);
    return reduce(polySqr(t));
}

int
BinaryField::itohTsujiiMulCount(int m)
{
    int e = m - 1;
    int floor_log = 0;
    while ((1 << (floor_log + 1)) <= e)
        ++floor_log;
    return floor_log + __builtin_popcount(e) - 1;
}

MpUint
BinaryField::reduce(const MpUint &wide) const
{
    // Word-level fold: each word above the boundary distributes through
    // the reduction terms x^m == x^a + x^b + x^c + 1 (paper Algorithm 7
    // generalised to any NIST trinomial/pentanomial).
    uint32_t c[2 * MpUint::maxLimbs] = {0};
    int top_words = (wide.bitLength() + 31) / 32;
    assert(top_words <= 2 * MpUint::maxLimbs);
    for (int i = 0; i < top_words; ++i)
        c[i] = wide.limbU(i);

    auto fold_word = [&](uint32_t t, int bitpos) {
        // XOR t into bit position bitpos.
        int w = bitpos / 32, s = bitpos % 32;
        c[w] ^= t << s;
        if (s)
            c[w + 1] ^= t >> (32 - s);
    };

    int boundary_word = m_ / 32;
    bool again = true;
    while (again) {
        again = false;
        for (int i = top_words - 1; i > boundary_word; --i) {
            uint32_t t = c[i];
            if (!t)
                continue;
            c[i] = 0;
            int base = i * 32 - m_;
            fold_word(t, base);
            for (int e : mid_)
                fold_word(t, base + e);
        }
        // Partial boundary word: bits m .. 32*(boundary_word+1)-1.
        int sh = m_ % 32;
        uint32_t t = (sh == 0) ? c[boundary_word]
                               : (c[boundary_word] >> sh);
        if (t) {
            if (sh == 0)
                c[boundary_word] = 0;
            else
                c[boundary_word] &= (1u << sh) - 1;
            fold_word(t, 0);
            for (int e : mid_)
                fold_word(t, e);
            // Folding may have re-set bits >= m when e + width(t)
            // crosses the boundary; re-check.
            for (int i = top_words - 1; i >= boundary_word; --i) {
                uint32_t hi = (i > boundary_word)
                    ? c[i]
                    : (sh ? (c[i] >> sh) : c[i]);
                if (hi) {
                    again = true;
                    break;
                }
            }
        }
    }
    MpUint r;
    for (int i = 0; i <= boundary_word && i < MpUint::maxLimbs; ++i)
        r.setLimb(i, c[i]);
    assert(r.bitLength() <= m_);
    return r;
}

MpUint
BinaryField::reduceGeneric(const MpUint &wide) const
{
    MpUint r = wide;
    while (r.bitLength() > m_) {
        int j = r.bitLength() - f_.bitLength();
        r = r.bitXor(f_.shiftLeft(j));
    }
    return r;
}

int
BinaryField::trace(const MpUint &a) const
{
    MpUint t = reduce(a);
    MpUint acc = t;
    for (int i = 1; i < m_; ++i) {
        t = reduce(polySqr(t));
        acc = acc.bitXor(t);
    }
    assert(acc.isZero() || acc == MpUint(1));
    return acc.isZero() ? 0 : 1;
}

MpUint
BinaryField::halfTrace(const MpUint &a) const
{
    assert((m_ % 2) == 1 && "half-trace requires odd m");
    MpUint t = reduce(a);
    MpUint acc = t;
    for (int i = 1; i <= (m_ - 1) / 2; ++i) {
        t = reduce(polySqr(reduce(polySqr(t))));
        acc = acc.bitXor(t);
    }
    return acc;
}

MpUint
BinaryField::polyMulComb(const MpUint &a, const MpUint &b) const
{
    // Paper Algorithm 6: left-to-right comb with windows of width
    // w = 4.  Precompute Bu = u(x) * b(x) for all 16 window values,
    // then scan the multiplier a window-column at a time, XORing rows
    // into the accumulator C{i} and shifting C left by w in place.
    constexpr int w = 4;
    constexpr int kMax = MpUint::maxLimbs / 2; // words_ <= kMax
    const int k = words_;
    uint32_t bu[1 << w][kMax + 1];
    for (int i = 0; i < k; ++i) {
        bu[0][i] = 0;
        bu[1][i] = b.limbU(i);
    }
    bu[0][k] = bu[1][k] = 0;
    for (int u = 2; u < (1 << w); u += 2) {
        // bu[u] = bu[u/2] << 1, bu[u+1] = bu[u] ^ b.
        uint32_t in = 0;
        for (int i = 0; i <= k; ++i) {
            uint32_t v = bu[u / 2][i];
            bu[u][i] = (v << 1) | in;
            bu[u + 1][i] = bu[u][i] ^ bu[1][i];
            in = v >> 31;
        }
    }
    uint32_t c[2 * kMax];
    std::fill(c, c + 2 * k, 0u);
    for (int j = (32 / w) - 1; j >= 0; --j) {
        for (int i = 0; i < k; ++i) {
            uint32_t u = (a.limbU(i) >> (w * j)) & ((1 << w) - 1);
            const uint32_t *row = bu[u];
            for (int t = 0; t <= k; ++t)
                c[i + t] ^= row[t];
        }
        if (j != 0) {
            for (int t = 2 * k - 1; t > 0; --t)
                c[t] = (c[t] << w) | (c[t - 1] >> (32 - w));
            c[0] <<= w;
        }
    }
    MpUint out;
    for (int i = 0; i < 2 * k; ++i)
        out.setLimb(i, c[i]);
    return out;
}

MpUint
BinaryField::polyMulClmul(const MpUint &a, const MpUint &b) const
{
    // Product scanning with word carry-less multiplies -- the loop the
    // MULGF2/MADDGF2 ISA extensions make efficient (paper Table 5.2).
    const int ka = (a.bitLength() + 31) / 32;
    const int kb = (b.bitLength() + 31) / 32;
    if (ka == 0 || kb == 0)
        return MpUint();
    uint32_t r[2 * MpUint::maxLimbs] = {0};
    for (int i = 0; i < ka; ++i) {
        for (int j = 0; j < kb; ++j) {
            uint64_t p = clmul32(a.limbU(i), b.limbU(j));
            r[i + j] ^= static_cast<uint32_t>(p);
            r[i + j + 1] ^= static_cast<uint32_t>(p >> 32);
        }
    }
    MpUint out;
    for (int i = 0; i < ka + kb && i < MpUint::maxLimbs; ++i)
        out.setLimb(i, r[i]);
    return out;
}

MpUint
BinaryField::polySqr(const MpUint &a) const
{
    // Zero-interleave each byte via the 256-entry spread table
    // (Section 4.2.3).
    const auto &tbl = squareSpreadTable();
    const int k = (a.bitLength() + 31) / 32;
    MpUint r;
    for (int i = 0; i < k; ++i) {
        uint32_t v = a.limb(i);
        uint32_t lo = tbl[v & 0xFF] | (static_cast<uint32_t>(
            tbl[(v >> 8) & 0xFF]) << 16);
        uint32_t hi = tbl[(v >> 16) & 0xFF] | (static_cast<uint32_t>(
            tbl[(v >> 24) & 0xFF]) << 16);
        if (lo)
            r.setLimb(2 * i, lo);
        if (hi)
            r.setLimb(2 * i + 1, hi);
    }
    return r;
}

} // namespace ulecc
