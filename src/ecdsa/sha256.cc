/**
 * @file
 * SHA-256 / HMAC-SHA256 implementation.
 */

#include "ecdsa/sha256.hh"

#include <cstring>

namespace ulecc
{

namespace
{

constexpr std::array<uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t
rotr(uint32_t v, int n)
{
    return (v >> n) | (v << (32 - n));
}

} // namespace

void
Sha256::reset()
{
    h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    bufLen_ = 0;
    totalLen_ = 0;
}

void
Sha256::processBlock(const uint8_t *block)
{
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (uint32_t(block[4 * i]) << 24)
            | (uint32_t(block[4 * i + 1]) << 16)
            | (uint32_t(block[4 * i + 2]) << 8)
            | uint32_t(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18)
            ^ (w[i - 15] >> 3);
        uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19)
            ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
    uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
    for (int i = 0; i < 64; ++i) {
        uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        uint32_t ch = (e & f) ^ (~e & g);
        uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
        uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
    h_[5] += f;
    h_[6] += g;
    h_[7] += h;
}

void
Sha256::update(const uint8_t *data, size_t len)
{
    totalLen_ += len;
    while (len > 0) {
        size_t take = std::min(len, buf_.size() - bufLen_);
        std::memcpy(buf_.data() + bufLen_, data, take);
        bufLen_ += take;
        data += take;
        len -= take;
        if (bufLen_ == buf_.size()) {
            processBlock(buf_.data());
            bufLen_ = 0;
        }
    }
}

Sha256Digest
Sha256::final()
{
    uint64_t bit_len = totalLen_ * 8;
    uint8_t pad = 0x80;
    update(&pad, 1);
    uint8_t zero = 0;
    while (bufLen_ != 56)
        update(&zero, 1);
    uint8_t len_be[8];
    for (int i = 0; i < 8; ++i)
        len_be[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
    update(len_be, 8);
    Sha256Digest out;
    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
        out[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
        out[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
        out[4 * i + 3] = static_cast<uint8_t>(h_[i]);
    }
    return out;
}

Sha256Digest
sha256(const uint8_t *data, size_t len)
{
    Sha256 ctx;
    ctx.update(data, len);
    return ctx.final();
}

Sha256Digest
sha256(std::string_view s)
{
    return sha256(reinterpret_cast<const uint8_t *>(s.data()), s.size());
}

Sha256Digest
hmacSha256(const uint8_t *key, size_t keyLen, const uint8_t *data,
           size_t dataLen)
{
    std::array<uint8_t, 64> k{};
    if (keyLen > 64) {
        Sha256Digest kd = sha256(key, keyLen);
        std::memcpy(k.data(), kd.data(), kd.size());
    } else {
        std::memcpy(k.data(), key, keyLen);
    }
    std::array<uint8_t, 64> ipad, opad;
    for (int i = 0; i < 64; ++i) {
        ipad[i] = k[i] ^ 0x36;
        opad[i] = k[i] ^ 0x5c;
    }
    Sha256 inner;
    inner.update(ipad.data(), ipad.size());
    inner.update(data, dataLen);
    Sha256Digest id = inner.final();
    Sha256 outer;
    outer.update(opad.data(), opad.size());
    outer.update(id.data(), id.size());
    return outer.final();
}

Sha256Digest
hmacSha256Multi(const std::vector<uint8_t> &key,
                const std::vector<std::vector<uint8_t>> &parts)
{
    std::vector<uint8_t> data;
    for (const auto &p : parts)
        data.insert(data.end(), p.begin(), p.end());
    return hmacSha256(key.data(), key.size(), data.data(), data.size());
}

} // namespace ulecc
