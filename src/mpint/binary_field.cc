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
#include <string>
#include <utility>

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

/** Words of the widest element (degree <= 640) and of its raw product. */
constexpr int kMaxWords64 = MpUint::maxLimbs / 4;
constexpr int kMaxWide64 = 2 * kMaxWords64;

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

/**
 * Paper Algorithm 6 on K 64-bit words: left-to-right comb with windows
 * of width w = 4.  Precompute Bu = u(x) * b(x) for all 16 window
 * values, then scan the multiplier a one window column at a time from
 * the top, XORing the rows its windows select into the accumulator C
 * and shifting C left by w.  Each column builds C one output word at a
 * time with the shift folded in, so every word is stored once per
 * column, and with K fixed every loop unrolls.  (XORing whole rows into
 * C in place stalls on overlapping read-modify-writes; on 64-bit words
 * that form ran about 2x slower.)
 */
template <int K>
void
combWords(const uint64_t *a, const uint64_t *b, uint64_t *out)
{
    constexpr int w = 4;
    uint64_t bu[1 << w][K + 1];
    for (int i = 0; i < K; ++i) {
        bu[0][i] = 0;
        bu[1][i] = b[i];
    }
    bu[0][K] = bu[1][K] = 0;
    for (int u = 2; u < (1 << w); u += 2) {
        // bu[u] = bu[u/2] << 1, bu[u+1] = bu[u] ^ b.
        uint64_t in = 0;
        for (int i = 0; i <= K; ++i) {
            uint64_t v = bu[u / 2][i];
            bu[u][i] = (v << 1) | in;
            bu[u + 1][i] = bu[u][i] ^ bu[1][i];
            in = v >> 63;
        }
    }
    uint64_t c[2 * K] = {};
    for (int j = 64 / w - 1; j >= 0; --j) {
        const uint64_t *row[K];
        for (int i = 0; i < K; ++i)
            row[i] = bu[(a[i] >> (w * j)) & ((1 << w) - 1)];
        const int sh = j ? w : 0;
        uint64_t carry = 0;
#pragma GCC unroll 32
        for (int s = 0; s < 2 * K; ++s) {
            uint64_t acc = c[s];
#pragma GCC unroll 16
            for (int i = 0; i < K; ++i) {
                if (s - i >= 0 && s - i <= K)
                    acc ^= row[i][s - i];
            }
            c[s] = (acc << sh) | carry;
            carry = acc >> (63 - sh) >> 1;
        }
    }
    std::copy(c, c + 2 * K, out);
}

using CombFn = void (*)(const uint64_t *, const uint64_t *, uint64_t *);

template <int... I>
constexpr std::array<CombFn, sizeof...(I)>
combTable(std::integer_sequence<int, I...>)
{
    return {&combWords<I + 1>...};
}

/** combWords<K> at index K - 1, for every element width. */
constexpr auto kCombByWords =
    combTable(std::make_integer_sequence<int, kMaxWords64>{});

} // namespace

BinaryField::BinaryField(const MpUint &f)
    : f_(f),
      m_(f.bitLength() - 1),
      words_((f.bitLength() + 30) / 32),
      words64_((words_ + 1) / 2),
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
    uint64_t c[kMaxWide64];
    combMul(a, b, c);
    fold(c, 2 * words64_);
    return MpUint::fromWords64(c, words64_);
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
    return square(a);
}

MpUint
BinaryField::square(const MpUint &a) const
{
    uint64_t c[kMaxWide64];
    const int n = spread(a, c);
    fold(c, n);
    return MpUint::fromWords64(c, words64_);
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
        acc = square(acc);
        acc = reduce(polyMulClmul(acc, x));
    }
    return square(acc);
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
            u = square(u);
        t = reduce(polyMulClmul(u, t));
        n *= 2;
        if ((e >> i) & 1) {
            t = reduce(polyMulClmul(square(t), x));
            n += 1;
        }
    }
    assert(n == e);
    return square(t);
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
    // Any MpUint fits the 2 * kMaxWords64-word buffer; read at least
    // words64_ + 1 words so fold() may touch word words64_.
    uint64_t c[kMaxWide64];
    const int n = std::max((wide.size() + 1) / 2, words64_ + 1);
    for (int i = 0; i < n; ++i)
        c[i] = wide.limb64U(i);
    fold(c, n);
    return MpUint::fromWords64(c, words64_);
}

void
BinaryField::fold(uint64_t *c, int n) const
{
    // Word-level fold (paper Algorithm 7 generalised to any trinomial
    // or pentanomial): a word t at bit 64i >= m stands for
    // t * x^(64i - m) * (x^a + x^b + x^c + 1).  A fold lands at most
    // 63 - (m - a) bits above its source word's base, so it can only
    // refill the word being folded when m - a < 64 (small toy fields):
    // each word is folded until it stays zero.
    auto xorAt = [c](uint64_t t, int bit) {
        const unsigned w = unsigned(bit) / 64, s = unsigned(bit) % 64;
        c[w] ^= t << s;
        c[w + 1] ^= t >> (63 - s) >> 1;
    };
    for (int i = n - 1; i >= words64_; --i) {
        while (uint64_t t = c[i]) {
            c[i] = 0;
            const int base = 64 * i - m_;
            xorAt(t, base);
            for (int e : mid_)
                xorAt(t, base + e);
        }
    }
    // Bits m .. 64 * words64_ - 1 of the top element word.  They fold
    // below bit 64 * words64_ - 1, so word words64_ only sees zeros.
    const int sh = m_ % 64;
    if (!sh)
        return;
    uint64_t &top = c[words64_ - 1];
    while (uint64_t t = top >> sh) {
        top &= (uint64_t(1) << sh) - 1;
        xorAt(t, 0);
        for (int e : mid_)
            xorAt(t, e);
    }
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
        t = square(t);
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
        t = square(square(t));
        acc = acc.bitXor(t);
    }
    return acc;
}

MpUint
BinaryField::polyMulComb(const MpUint &a, const MpUint &b) const
{
    uint64_t c[kMaxWide64];
    combMul(a, b, c);
    return MpUint::fromWords64(c, 2 * words64_);
}

void
BinaryField::combMul(const MpUint &a, const MpUint &b, uint64_t *c) const
{
    uint64_t aw[kMaxWords64], bw[kMaxWords64];
    for (int i = 0; i < words64_; ++i) {
        aw[i] = a.limb64U(i);
        bw[i] = b.limb64U(i);
    }
    kCombByWords[words64_ - 1](aw, bw, c);
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
    uint64_t c[kMaxWide64];
    const int n = spread(a, c);
    return MpUint::fromWords64(c, n);
}

int
BinaryField::spread(const MpUint &a, uint64_t *c) const
{
    // Zero-interleave each byte via the 256-entry spread table
    // (Section 4.2.3): word i of a becomes words 2i and 2i + 1.
    const int k = std::max((a.size() + 1) / 2, words64_);
    if (k > kMaxWords64)
        throw UleccError(Errc::OutOfRange,
                         "BinaryField: square of an operand over "
                         + std::to_string(64 * kMaxWords64) + " bits");
    const auto &tbl = squareSpreadTable();
    auto spread32 = [&tbl](uint32_t v) {
        return uint64_t(tbl[v & 0xFF])
            | (uint64_t(tbl[(v >> 8) & 0xFF]) << 16)
            | (uint64_t(tbl[(v >> 16) & 0xFF]) << 32)
            | (uint64_t(tbl[v >> 24]) << 48);
    };
    for (int i = 0; i < k; ++i) {
        const uint64_t v = a.limb64U(i);
        c[2 * i] = spread32(static_cast<uint32_t>(v));
        c[2 * i + 1] = spread32(static_cast<uint32_t>(v >> 32));
    }
    return 2 * k;
}

} // namespace ulecc
