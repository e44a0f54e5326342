/**
 * @file
 * MpUint implementation.
 */

#include "mpint/mpuint.hh"

#include <cctype>

#include "base/error.hh"
#include "mpint/words.hh"

namespace ulecc
{

MpUint::MpUint(uint64_t v)
{
    limbs_.fill(0);
    limbs_[0] = static_cast<uint32_t>(v);
    limbs_[1] = static_cast<uint32_t>(v >> 32);
    n_ = limbs_[1] ? 2 : (limbs_[0] ? 1 : 0);
}

MpUint
MpUint::fromHex(std::string_view hex)
{
    MpUint r;
    if (hex.size() >= 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X'))
        hex.remove_prefix(2);
    int bit = 0;
    for (auto it = hex.rbegin(); it != hex.rend(); ++it) {
        char c = *it;
        if (c == '_' || c == ' ' || c == '\n' || c == '\t')
            continue;
        uint32_t v;
        if (c >= '0' && c <= '9')
            v = c - '0';
        else if (c >= 'a' && c <= 'f')
            v = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            v = c - 'A' + 10;
        else
            throw UleccError(Errc::InvalidInput,
                             "MpUint::fromHex: bad digit");
        if (bit / 32 >= maxLimbs)
            throw UleccError(Errc::OutOfRange,
                             "MpUint::fromHex: too long");
        r.limbs_[bit / 32] |= v << (bit % 32);
        bit += 4;
    }
    r.n_ = (bit + 31) / 32;
    r.trim();
    return r;
}

MpUint
MpUint::fromWords64(const uint64_t *words, int count)
{
    MpUint r;
    for (int i = 0; i < count; ++i) {
        r.limbs_[size_t(2 * i)] = static_cast<uint32_t>(words[i]);
        r.limbs_[size_t(2 * i + 1)] = static_cast<uint32_t>(words[i] >> 32);
    }
    r.n_ = 2 * count;
    r.trim();
    return r;
}

MpUint
MpUint::fromLimbs(const uint32_t *limbs, int count)
{
    MpUint r;
    for (int i = 0; i < count; ++i)
        r.limbs_[size_t(i)] = limbs[i];
    r.n_ = count;
    r.trim();
    return r;
}

std::string
MpUint::toHex() const
{
    if (n_ == 0)
        return "0";
    static const char digits[] = "0123456789abcdef";
    std::string s;
    bool leading = true;
    for (int i = n_ - 1; i >= 0; --i) {
        for (int sh = 28; sh >= 0; sh -= 4) {
            uint32_t d = (limbs_[i] >> sh) & 0xF;
            if (leading && d == 0)
                continue;
            leading = false;
            s.push_back(digits[d]);
        }
    }
    return s;
}

MpUint
MpUint::powerOfTwo(int bit)
{
    MpUint r;
    r.setBit(bit);
    return r;
}

void
MpUint::setLimb(int i, uint32_t v)
{
    if (i < 0 || i >= maxLimbs)
        throw UleccError(Errc::OutOfRange,
                         "MpUint::setLimb: limb index "
                         + std::to_string(i));
    limbs_[i] = v;
    if (v && i + 1 > n_)
        n_ = i + 1;
    else if (!v && i + 1 == n_)
        trim();
}

int
MpUint::bitLength() const
{
    if (n_ == 0)
        return 0;
    uint32_t top = limbs_[n_ - 1];
    int b = 32 * (n_ - 1);
    while (top) {
        ++b;
        top >>= 1;
    }
    return b;
}

void
MpUint::setBit(int i)
{
    if (i < 0 || i >= maxLimbs * 32)
        throw UleccError(Errc::OutOfRange,
                         "MpUint::setBit: bit index " + std::to_string(i));
    limbs_[i / 32] |= 1u << (i % 32);
    if (i / 32 + 1 > n_)
        n_ = i / 32 + 1;
}

uint32_t
MpUint::bits(int pos, int count) const
{
    if (count <= 0 || count > 32)
        throw UleccError(Errc::InvalidInput,
                         "MpUint::bits: bad count " + std::to_string(count));
    uint64_t lo = limb(pos / 32);
    uint64_t hi = limb(pos / 32 + 1);
    uint64_t v = (lo | (hi << 32)) >> (pos % 32);
    if (count == 32)
        return static_cast<uint32_t>(v);
    return static_cast<uint32_t>(v & ((1ull << count) - 1));
}

int
MpUint::compare(const MpUint &other) const
{
    if (n_ != other.n_)
        return n_ < other.n_ ? -1 : 1;
    for (int i = n_ - 1; i >= 0; --i) {
        if (limbs_[i] != other.limbs_[i])
            return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
    return 0;
}

MpUint
MpUint::add(const MpUint &other) const
{
    MpUint r;
    int n = std::max(n_, other.n_);
    uint64_t carry = 0;
    for (int i = 0; i < n; ++i) {
        uint64_t s = static_cast<uint64_t>(limbs_[i]) + other.limbs_[i]
            + carry;
        r.limbs_[i] = static_cast<uint32_t>(s);
        carry = s >> 32;
    }
    if (carry) {
        if (n >= maxLimbs)
            throw UleccError(Errc::OutOfRange, "MpUint::add overflow");
        r.limbs_[n] = static_cast<uint32_t>(carry);
        ++n;
    }
    r.n_ = n;
    r.trim();
    return r;
}

MpUint
MpUint::sub(const MpUint &other) const
{
    if (compare(other) < 0)
        throw UleccError(Errc::InvalidInput, "MpUint::sub underflow");
    MpUint r;
    uint64_t borrow = 0;
    for (int i = 0; i < n_; ++i) {
        uint64_t d = static_cast<uint64_t>(limbs_[i]) - other.limbs_[i]
            - borrow;
        r.limbs_[i] = static_cast<uint32_t>(d);
        borrow = (d >> 32) & 1;
    }
    r.n_ = n_;
    r.trim();
    return r;
}

MpUint
MpUint::shiftLeft(int bits) const
{
    if (bits < 0)
        throw UleccError(Errc::InvalidInput,
                         "MpUint::shiftLeft: negative count");
    if (n_ == 0 || bits == 0)
        return bits == 0 ? *this : MpUint();
    // Overflow iff the *result* exceeds capacity; a limb-count estimate
    // would spuriously reject in-range shifts whose top limb does not
    // spill (e.g. a 39-limb value shifted by a limb multiple).
    if (bitLength() + bits > maxLimbs * 32)
        throw UleccError(Errc::OutOfRange, "MpUint::shiftLeft overflow");
    int limb_shift = bits / 32;
    int bit_shift = bits % 32;
    MpUint r;
    for (int i = n_ - 1; i >= 0; --i) {
        uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
        if (i + limb_shift + 1 < maxLimbs)
            r.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
        r.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    }
    r.n_ = std::min(n_ + limb_shift + 1, maxLimbs);
    r.trim();
    return r;
}

MpUint
MpUint::shiftRight(int bits) const
{
    if (bits < 0)
        throw UleccError(Errc::InvalidInput,
                         "MpUint::shiftRight: negative count");
    if (n_ == 0 || bits == 0)
        return bits == 0 ? *this : MpUint();
    int limb_shift = bits / 32;
    int bit_shift = bits % 32;
    if (limb_shift >= n_)
        return MpUint();
    MpUint r;
    for (int i = limb_shift; i < n_; ++i) {
        uint64_t v = (static_cast<uint64_t>(limb(i + 1)) << 32) | limbs_[i];
        r.limbs_[i - limb_shift] = static_cast<uint32_t>(v >> bit_shift);
    }
    r.n_ = n_ - limb_shift;
    r.trim();
    return r;
}

MpUint
MpUint::bitXor(const MpUint &other) const
{
    MpUint r;
    int n = std::max(n_, other.n_);
    for (int i = 0; i < n; ++i)
        r.limbs_[i] = limbs_[i] ^ other.limbs_[i];
    r.n_ = n;
    r.trim();
    return r;
}

MpUint
MpUint::mulOperandScan(const MpUint &other) const
{
    // Capacity is judged on bit widths: limb-count sums over-estimate
    // the product width by up to 31 bits and used to reject in-range
    // products (e.g. 260 x 988 bits).  A bit-width sum of exactly
    // capacity + 1 may still fit, so that case is resolved by the top
    // product words below.
    if (bitLength() + other.bitLength() > 32 * maxLimbs + 1)
        throw UleccError(Errc::OutOfRange, "MpUint::mul overflow");
    uint32_t r[2 * maxLimbs];
    const int n = n_ + other.n_;
    words::mulOperandScan(limbs_.data(), n_, other.limbs_.data(),
                          other.n_, r);
    for (int i = maxLimbs; i < n; ++i) {
        if (r[i] != 0)
            throw UleccError(Errc::OutOfRange, "MpUint::mul overflow");
    }
    return fromLimbs(r, std::min(n, maxLimbs));
}

MpUint
MpUint::mulProductScan(const MpUint &other) const
{
    // Paper Algorithm 3: column-wise accumulation into a (t,u,v)
    // triple-word accumulator; each column step is one MADDU, each
    // column finish is one SHA in the ISA-extended microarchitecture.
    // Same bit-exact capacity policy as mulOperandScan.
    if (bitLength() + other.bitLength() > 32 * maxLimbs + 1)
        throw UleccError(Errc::OutOfRange, "MpUint::mul overflow");
    if (n_ == 0 || other.n_ == 0)
        return MpUint();
    MpUint r;
    uint64_t uv = 0; // (u,v)
    uint32_t t = 0;
    int cols = n_ + other.n_ - 1;
    for (int col = 0; col < cols; ++col) {
        int jlo = std::max(0, col - other.n_ + 1);
        int jhi = std::min(col, n_ - 1);
        for (int j = jlo; j <= jhi; ++j) {
            uint64_t p = static_cast<uint64_t>(limbs_[j])
                * other.limbs_[col - j];
            uint64_t prev = uv;
            uv += p;
            if (uv < prev)
                ++t; // carry into the OvFlo register
        }
        r.limbs_[col] = static_cast<uint32_t>(uv);
        uv = (uv >> 32) | (static_cast<uint64_t>(t) << 32);
        t = 0;
    }
    if (cols < maxLimbs) {
        r.limbs_[cols] = static_cast<uint32_t>(uv);
        r.n_ = cols + 1;
    } else if (uv != 0) {
        throw UleccError(Errc::OutOfRange, "MpUint::mul overflow");
    } else {
        r.n_ = maxLimbs;
    }
    r.trim();
    return r;
}

MpUint
MpUint::sqr() const
{
    if (2 * n_ > maxLimbs)
        throw UleccError(Errc::OutOfRange, "MpUint::sqr overflow");
    uint32_t r[maxLimbs];
    words::sqr(limbs_.data(), n_, r);
    return fromLimbs(r, 2 * n_);
}

MpUint::DivResult
MpUint::divmod(const MpUint &divisor) const
{
    if (divisor.isZero())
        throw UleccError(Errc::InvalidInput, "MpUint::divmod by zero");
    DivResult res;
    if (compare(divisor) < 0) {
        res.remainder = *this;
        return res;
    }
    int shift = bitLength() - divisor.bitLength();
    MpUint d = divisor.shiftLeft(shift);
    MpUint rem = *this;
    for (int i = shift; i >= 0; --i) {
        if (rem.compare(d) >= 0) {
            rem = rem.sub(d);
            res.quotient.setBit(i);
        }
        d = d.shiftRight(1);
    }
    res.remainder = rem;
    return res;
}

MpUint
MpUint::mod(const MpUint &m) const
{
    return divmod(m).remainder;
}

MpUint
MpUint::modInverseOdd(const MpUint &m) const
{
    if (!m.isOdd())
        throw UleccError(Errc::InvalidInput,
                         "MpUint::modInverseOdd: even modulus");
    uint32_t a[maxLimbs];
    const MpUint r = mod(m);
    for (int i = 0; i < m.n_; ++i)
        a[i] = r.limbs_[size_t(i)];
    if (!words::invOdd(a, m.limbs_.data(), m.n_,
                       words::negInverse32(m.limbs_[0])))
        throw UleccError(Errc::InvalidInput,
                         r.isZero()
                             ? "MpUint::modInverseOdd: inverse of zero"
                             : "MpUint::modInverseOdd: not invertible");
    return fromLimbs(a, m.n_);
}

} // namespace ulecc
