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
 * Paper Algorithm 6 on K 64-bit words (read from 2K 32-bit limbs per
 * operand): left-to-right comb with windows
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
combWords(const uint32_t *al, const uint32_t *bl, uint64_t *out)
{
    constexpr int w = 4;
    uint64_t a[K], b[K];
    for (int i = 0; i < K; ++i) {
        a[i] = al[2 * i] | (static_cast<uint64_t>(al[2 * i + 1]) << 32);
        b[i] = bl[2 * i] | (static_cast<uint64_t>(bl[2 * i + 1]) << 32);
    }
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

using CombFn = void (*)(const uint32_t *, const uint32_t *, uint64_t *);

template <int... I>
constexpr std::array<CombFn, sizeof...(I)>
combTable(std::integer_sequence<int, I...>)
{
    return {&combWords<I + 1>...};
}

/** combWords<K> at index K - 1, for every element width. */
constexpr auto kCombByWords =
    combTable(std::make_integer_sequence<int, kMaxWords64>{});

/**
 * Raw square of the n-limb polynomial l into c[0 .. n): zero-
 * interleave each byte via the 256-entry spread table (Section 4.2.3),
 * so 32-bit limb j becomes 64-bit word j.
 */
void
spreadLimbs(const uint32_t *l, int n, uint64_t *c)
{
    const auto &tbl = squareSpreadTable();
    auto spread32 = [&tbl](uint32_t v) {
        return uint64_t(tbl[v & 0xFF])
            | (uint64_t(tbl[(v >> 8) & 0xFF]) << 16)
            | (uint64_t(tbl[(v >> 16) & 0xFF]) << 32)
            | (uint64_t(tbl[v >> 24]) << 48);
    };
    for (int j = 0; j < n; ++j)
        c[j] = spread32(l[j]);
}

/** Degree of the n-word polynomial w, or -1 for zero. */
int
degreeOf(const uint64_t *w, int n)
{
    for (int i = n - 1; i >= 0; --i) {
        if (w[i])
            return 64 * i + 63 - __builtin_clzll(w[i]);
    }
    return -1;
}

/** w ^= o * x^j over n words (no bit of the result lies past word n). */
void
xorShifted(uint64_t *w, const uint64_t *o, int j, int n)
{
    const int ws = j / 64, bs = j % 64;
    if (bs == 0) {
        for (int i = ws; i < n; ++i)
            w[i] ^= o[i - ws];
        return;
    }
    w[ws] ^= o[0] << bs;
    for (int i = ws + 1; i < n; ++i)
        w[i] ^= (o[i - ws] << bs) | (o[i - ws - 1] >> (64 - bs));
}

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

FieldElem
BinaryField::elem(const MpUint &a) const
{
    return a.bitLength() > m_ ? reduce(a).toElem() : a.toElem();
}

MpUint
BinaryField::value(const FieldElem &a) const
{
    return MpUint::fromElem(a, words_);
}

FieldElem
BinaryField::fromWords(const uint64_t *w) const
{
    FieldElem e;
    for (int i = 0; i < words64_; ++i) {
        e.limb[size_t(2 * i)] = static_cast<uint32_t>(w[i]);
        e.limb[size_t(2 * i + 1)] = static_cast<uint32_t>(w[i] >> 32);
    }
    return e;
}

FieldElem
BinaryField::add(const FieldElem &a, const FieldElem &b) const
{
    notifyFieldOp(FieldOp::Add, m_, true);
    FieldElem r;
    for (int i = 0; i < FieldElem::maxLimbs; ++i)
        r.limb[size_t(i)] = a.limb[size_t(i)] ^ b.limb[size_t(i)];
    return r;
}

FieldElem
BinaryField::mul(const FieldElem &a, const FieldElem &b) const
{
    notifyFieldOp(FieldOp::Mul, m_, true);
    uint64_t c[kMaxWide64];
    kCombByWords[size_t(words64_ - 1)](a.limb.data(), b.limb.data(), c);
    fold(c, 2 * words64_);
    return fromWords(c);
}

FieldElem
BinaryField::sqr(const FieldElem &a) const
{
    notifyFieldOp(FieldOp::Sqr, m_, true);
    return square(a);
}

FieldElem
BinaryField::square(const FieldElem &a) const
{
    uint64_t c[kMaxWide64];
    spreadLimbs(a.limb.data(), 2 * words64_, c);
    fold(c, 2 * words64_);
    return fromWords(c);
}

FieldElem
BinaryField::inv(const FieldElem &a) const
{
    // Polynomial extended Euclidean algorithm (Guide to ECC,
    // Algorithm 2.48) on 64-bit words.  With u = a * g1 and
    // v = a * g2 (mod f), deg(g1) + deg(v) <= m and deg(g2) + deg(u)
    // <= m hold throughout, so every operand fits words64_ + 1 words
    // (f itself needs the extra word when 64 divides m), and the
    // result g1 has degree < m.
    notifyFieldOp(FieldOp::Inv, m_, true);
    const int n = words64_ + 1;
    uint64_t bu[kMaxWords64 + 1] = {}, bv[kMaxWords64 + 1] = {};
    uint64_t b1[kMaxWords64 + 1] = {}, b2[kMaxWords64 + 1] = {};
    for (int i = 0; i < words64_; ++i)
        bu[i] = a.limb[size_t(2 * i)]
            | (static_cast<uint64_t>(a.limb[size_t(2 * i + 1)]) << 32);
    for (int i = 0; i < n; ++i)
        bv[i] = f_.limb64U(i);
    b1[0] = 1;
    uint64_t *u = bu, *v = bv, *g1 = b1, *g2 = b2;
    int du = degreeOf(u, n), dv = m_;
    if (du < 0)
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: inverse of zero");
    while (du > 0) {
        int j = du - dv;
        if (j < 0) {
            std::swap(u, v);
            std::swap(g1, g2);
            std::swap(du, dv);
            j = -j;
        }
        xorShifted(u, v, j, n);
        xorShifted(g1, g2, j, n);
        du = degreeOf(u, du / 64 + 1);
        if (du < 0)
            throw UleccError(Errc::InvalidInput,
                             "BinaryField::inv: element not invertible "
                             "(reducible polynomial)");
    }
    return fromWords(g1);
}

MpUint
BinaryField::add(const MpUint &a, const MpUint &b) const
{
    return value(add(elem(a), elem(b)));
}

MpUint
BinaryField::mul(const MpUint &a, const MpUint &b) const
{
    return value(mul(elem(a), elem(b)));
}

MpUint
BinaryField::sqr(const MpUint &a) const
{
    return value(sqr(elem(a)));
}

MpUint
BinaryField::inv(const MpUint &a) const
{
    return value(inv(elem(a)));
}

MpUint
BinaryField::mulClmul(const MpUint &a, const MpUint &b) const
{
    notifyFieldOp(FieldOp::Mul, m_, true);
    return reduce(polyMulClmul(a, b));
}

MpUint
BinaryField::invFermat(const MpUint &a) const
{
    // a^(2^m - 2) = a^(2 * (2^(m-1) - 1)): simple square-and-multiply
    // chain of (m-1) squarings and (m-2) multiplications.
    notifyFieldOp(FieldOp::Inv, m_, true);
    MpUint x = reduce(a);
    if (x.isZero())
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: inverse of zero");
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
    MpUint x = reduce(a);
    if (x.isZero())
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: inverse of zero");
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
    uint32_t al[2 * kMaxWords64], bl[2 * kMaxWords64];
    for (int i = 0; i < 2 * words64_; ++i) {
        al[i] = a.limbU(i);
        bl[i] = b.limbU(i);
    }
    uint64_t c[kMaxWide64];
    kCombByWords[size_t(words64_ - 1)](al, bl, c);
    return MpUint::fromWords64(c, 2 * words64_);
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
    const int k = std::max((a.size() + 1) / 2, words64_);
    if (k > kMaxWords64)
        throw UleccError(Errc::OutOfRange,
                         "BinaryField: square of an operand over "
                         + std::to_string(64 * kMaxWords64) + " bits");
    uint32_t l[2 * kMaxWords64];
    for (int j = 0; j < 2 * k; ++j)
        l[j] = a.limbU(j);
    uint64_t c[kMaxWide64];
    spreadLimbs(l, 2 * k, c);
    return MpUint::fromWords64(c, 2 * k);
}

} // namespace ulecc
