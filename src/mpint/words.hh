/**
 * @file
 * Word-array kernels shared by MpUint and the field elements.
 *
 * Each routine is the one body of its algorithm.  They take explicit
 * word counts and are forced inline, so MpUint calls them with its
 * run-time lengths while the field kernels, instantiated per word
 * count k, get a copy whose loops the compiler unrolls completely (the
 * unroll pragmas cover the widest field, 20 words).
 */

#ifndef ULECC_MPINT_WORDS_HH
#define ULECC_MPINT_WORDS_HH

#include <cstdint>
#include <utility>

#include "base/compiler.hh"

namespace ulecc::words
{

/**
 * r[0 .. na + nb) = a * b by operand scanning (paper Algorithm 2): for
 * each multiplier word b_i, sweep the multiplicand accumulating
 * (u,v) <- a_j * b_i + p_{i+j} + u.  @p r must not overlap a or b.
 */
ULECC_ALWAYS_INLINE void
mulOperandScan(const uint32_t *a, int na, const uint32_t *b, int nb,
               uint32_t *r)
{
#pragma GCC unroll 40
    for (int j = 0; j < na + nb; ++j)
        r[j] = 0;
#pragma GCC unroll 20
    for (int i = 0; i < nb; ++i) {
        uint64_t u = 0;
        const uint64_t bi = b[i];
#pragma GCC unroll 20
        for (int j = 0; j < na; ++j) {
            uint64_t t = static_cast<uint64_t>(a[j]) * bi + r[i + j] + u;
            r[i + j] = static_cast<uint32_t>(t);
            u = t >> 32;
        }
        r[i + na] = static_cast<uint32_t>(u);
    }
}

/**
 * r[0 .. 2n) = a^2 with the doubled-cross-term shortcut (what the
 * paper's M2ADDU extension accelerates): each a_j * a_i with j < i is
 * formed once, the sum doubled, then the diagonal squares added.
 * @p r must not overlap a.
 */
ULECC_ALWAYS_INLINE void
sqr(const uint32_t *a, int n, uint32_t *r)
{
#pragma GCC unroll 40
    for (int i = 0; i < 2 * n; ++i)
        r[i] = 0;
#pragma GCC unroll 20
    for (int i = 1; i < n; ++i) {
        uint64_t carry = 0;
#pragma GCC unroll 20
        for (int j = 0; j < i; ++j) {
            uint64_t t = static_cast<uint64_t>(a[j]) * a[i] + r[i + j]
                + carry;
            r[i + j] = static_cast<uint32_t>(t);
            carry = t >> 32;
        }
        r[2 * i] = static_cast<uint32_t>(carry);
    }
    // The cross sum is below 2^(64n - 1), so doubling cannot carry out,
    // and neither can adding the diagonal to a value below a^2.
    uint32_t carryBit = 0;
#pragma GCC unroll 40
    for (int i = 0; i < 2 * n; ++i) {
        uint32_t next = r[i] >> 31;
        r[i] = (r[i] << 1) | carryBit;
        carryBit = next;
    }
    uint64_t carry = 0;
#pragma GCC unroll 20
    for (int i = 0; i < n; ++i) {
        uint64_t sq = static_cast<uint64_t>(a[i]) * a[i];
        uint64_t lo = static_cast<uint64_t>(r[2 * i])
            + static_cast<uint32_t>(sq) + carry;
        r[2 * i] = static_cast<uint32_t>(lo);
        uint64_t hi = static_cast<uint64_t>(r[2 * i + 1])
            + static_cast<uint32_t>(sq >> 32) + (lo >> 32);
        r[2 * i + 1] = static_cast<uint32_t>(hi);
        carry = hi >> 32;
    }
}

/** -m^-1 mod 2^32 for odd @p m0 (the CIOS n0' constant), by Newton. */
inline uint32_t
negInverse32(uint32_t m0)
{
    uint32_t inv = m0; // correct to 3 bits
    for (int i = 0; i < 4; ++i)
        inv *= 2u - m0 * inv;
    return 0u - inv;
}

/** Largest modulus the inversion below takes, in 32-bit words. */
constexpr int kInvMaxWords = 40;

/**
 * In-place modular inverse for an odd modulus: a <- a^-1 mod m, with
 * m > 1 odd of @p k 32-bit words (its top word may be zero), a < m,
 * and n0 = negInverse32(m[0]).  Returns false, leaving @p a
 * unspecified, when a == 0 or gcd(a, m) != 1.
 *
 * This is the binary extended Euclidean algorithm (Guide to ECC,
 * Algorithm 2.22) with its steps batched as in Pornin, "Optimized
 * Binary GCD for Modular Inversion" (2020).  Each step of the plain
 * algorithm looks at a's parity and compares a with b:
 *
 *     if a is odd: if a < b, swap (a, u) with (b, v); a -= b; u -= v
 *     a /= 2; u /= 2 (mod m)
 *
 * keeping a = u y and b = v y (mod m) until a == 0 and b = gcd.  The
 * parities of 31 consecutive steps depend only on a's and b's low 31
 * bits, and the comparisons almost only on their top bits, so 31
 * steps run on 64-bit approximations of a and b (exact once both fit
 * one word) and collect a signed 2x2 matrix; one pass over the 64-bit
 * words then applies it to (a, b) and, with a Montgomery-style exact
 * division by 2^31 mod m, to (u, v).  A wrong comparison can only make
 * a or b negative, which flips a sign; Pornin shows the count of steps
 * stays within 2 * bits(m) + 31.
 */
ULECC_ALWAYS_INLINE bool
invOdd(uint32_t *a32, const uint32_t *m32, int k, uint32_t n0)
{
    constexpr int kW = kInvMaxWords / 2;
    constexpr uint64_t kLow31 = (uint64_t(1) << 31) - 1;
    const int n = (k + 1) / 2;
    uint64_t m[kW], a[kW], b[kW], u[kW], v[kW];
    for (int i = 0; i < n; ++i) {
        const bool hi = 2 * i + 1 < k;
        a[i] = a32[2 * i] | (uint64_t(hi ? a32[2 * i + 1] : 0) << 32);
        m[i] = m32[2 * i] | (uint64_t(hi ? m32[2 * i + 1] : 0) << 32);
        b[i] = m[i];
        u[i] = 0;
        v[i] = 0;
    }
    u[0] = 1;
    // -m^-1 mod 2^64, lifted from n0 by one Newton step.
    uint64_t minv = uint64_t(0u - n0);
    minv *= 2 - m[0] * minv;
    const uint64_t n064 = 0 - minv;

    auto bitLength = [n](const uint64_t *w) {
        for (int i = n - 1; i >= 0; --i) {
            if (w[i])
                return 64 * i + 64 - __builtin_clzll(w[i]);
        }
        return 0;
    };
    // The 33 bits of w starting at bit pos.
    auto bits33 = [](const uint64_t *w, int pos) {
        const int wi = pos / 64, s = pos % 64;
        uint64_t x = w[wi] >> s;
        if (s > 31)
            x |= w[wi + 1] << (64 - s);
        return x & ((uint64_t(1) << 33) - 1);
    };
    // t (L + 1 words, two's complement) -> |t| / 2^31 into dst[0 .. L).
    auto shiftOut = [](uint64_t *t, int L, bool negative, uint64_t *dst) {
        if (negative) {
            uint64_t carry = 1;
            for (int i = 0; i <= L; ++i) {
                t[i] = ~t[i] + carry;
                carry = carry && t[i] == 0;
            }
        }
        for (int i = 0; i < L; ++i)
            dst[i] = (t[i] >> 31) | (t[i + 1] << 33);
    };
    // dst = (u f + v g) / 2^31 mod m, for |f| + |g| <= 2^31.
    auto modCombine = [&](int64_t f, int64_t g, uint64_t *dst) {
        // q m cancels the low 31 bits; the quotient lies in (-m, 2m).
        const __int128 low = static_cast<__int128>(u[0]) * f
            + static_cast<__int128>(v[0]) * g;
        const uint64_t q = (static_cast<uint64_t>(low) * n064) & kLow31;
        uint64_t t[kW + 1];
        __int128 c = 0;
        for (int i = 0; i < n; ++i) {
            c += static_cast<__int128>(u[i]) * f
                + static_cast<__int128>(v[i]) * g
                + static_cast<__int128>(q) * m[i];
            t[i] = static_cast<uint64_t>(c);
            c >>= 64;
        }
        t[n] = static_cast<uint64_t>(c);
        for (int i = 0; i < n; ++i)
            t[i] = (t[i] >> 31) | (t[i + 1] << 33);
        const int64_t top = static_cast<int64_t>(t[n]) >> 31;
        bool subtract = top > 0;
        if (!subtract && top == 0) {
            subtract = true; // t >= m
            for (int i = n - 1; i >= 0; --i) {
                if (t[i] != m[i]) {
                    subtract = t[i] > m[i];
                    break;
                }
            }
        }
        unsigned __int128 c2 = 0;
        if (top < 0) {
            for (int i = 0; i < n; ++i) {
                c2 += static_cast<unsigned __int128>(t[i]) + m[i];
                t[i] = static_cast<uint64_t>(c2);
                c2 >>= 64;
            }
        } else if (subtract) {
            for (int i = 0; i < n; ++i) {
                c2 = static_cast<unsigned __int128>(t[i]) - m[i] - c2;
                t[i] = static_cast<uint64_t>(c2);
                c2 = (c2 >> 64) & 1;
            }
        }
        for (int i = 0; i < n; ++i)
            dst[i] = t[i];
    };

    if (bitLength(a) == 0)
        return false;
    for (int batch = 0; batch < 2 * 64 * kW / 31 + 4; ++batch) {
        const int la = bitLength(a), lb = bitLength(b);
        if (la == 0) {
            if (lb != 1)
                return false; // b = gcd(a, m) > 1
            for (int i = 0; i < k; ++i)
                a32[i] = static_cast<uint32_t>(v[i / 2] >> (32 * (i & 1)));
            return true;
        }
        const int len = la > lb ? la : lb;
        uint64_t ab = a[0], bb = b[0];
        if (len > 64) {
            ab = (ab & kLow31) | (bits33(a, len - 33) << 31);
            bb = (bb & kLow31) | (bits33(b, len - 33) << 31);
        }
        int64_t f0 = 1, g0 = 0, f1 = 0, g1 = 1;
        for (int j = 0; j < 31; ++j) {
            if (ab & 1) {
                if (ab < bb) {
                    std::swap(ab, bb);
                    std::swap(f0, f1);
                    std::swap(g0, g1);
                }
                ab -= bb;
                f0 -= f1;
                g0 -= g1;
            }
            ab >>= 1;
            f1 *= 2;
            g1 *= 2;
        }
        // (a, b) <- ((a f0 + b g0) / 2^31, (a f1 + b g1) / 2^31).
        const int L = (len + 63) / 64;
        uint64_t ta[kW + 1], tb[kW + 1];
        __int128 ca = 0, cb = 0;
        for (int i = 0; i < L; ++i) {
            ca += static_cast<__int128>(a[i]) * f0
                + static_cast<__int128>(b[i]) * g0;
            cb += static_cast<__int128>(a[i]) * f1
                + static_cast<__int128>(b[i]) * g1;
            ta[i] = static_cast<uint64_t>(ca);
            tb[i] = static_cast<uint64_t>(cb);
            ca >>= 64;
            cb >>= 64;
        }
        ta[L] = static_cast<uint64_t>(ca);
        tb[L] = static_cast<uint64_t>(cb);
        shiftOut(ta, L, ca < 0, a);
        shiftOut(tb, L, cb < 0, b);
        if (ca < 0) {
            f0 = -f0;
            g0 = -g0;
        }
        if (cb < 0) {
            f1 = -f1;
            g1 = -g1;
        }
        uint64_t nu[kW], nv[kW];
        modCombine(f0, g0, nu);
        modCombine(f1, g1, nv);
        for (int i = 0; i < n; ++i) {
            u[i] = nu[i];
            v[i] = nv[i];
        }
    }
    return false; // unreachable: the step count is bounded
}

} // namespace ulecc::words

#endif // ULECC_MPINT_WORDS_HH
