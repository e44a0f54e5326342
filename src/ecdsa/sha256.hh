/**
 * @file
 * SHA-256 (FIPS 180-4) and HMAC-SHA256.
 *
 * ECDSA signs the hash of a message; the paper's benchmark is a
 * signature + verification pair, so the hash substrate is part of the
 * reproduced software stack (its cost is negligible next to the scalar
 * multiplications, as in the paper).
 */

#ifndef ULECC_ECDSA_SHA256_HH
#define ULECC_ECDSA_SHA256_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ulecc
{

/** A 32-byte SHA-256 digest. */
using Sha256Digest = std::array<uint8_t, 32>;

/** Incremental SHA-256 context. */
class Sha256
{
  public:
    Sha256() { reset(); }

    /** Re-initialises the context. */
    void reset();

    /** Absorbs @p len bytes from @p data. */
    void update(const uint8_t *data, size_t len);

    /** Convenience overload for string data. */
    void update(std::string_view s)
    {
        update(reinterpret_cast<const uint8_t *>(s.data()), s.size());
    }

    /** Finalises and returns the digest (context must be reset after). */
    Sha256Digest final();

  private:
    void processBlock(const uint8_t *block);

    std::array<uint32_t, 8> h_;
    std::array<uint8_t, 64> buf_;
    size_t bufLen_;
    uint64_t totalLen_;
};

/** One-shot SHA-256 of a byte buffer. */
Sha256Digest sha256(const uint8_t *data, size_t len);

/** One-shot SHA-256 of a string. */
Sha256Digest sha256(std::string_view s);

/** HMAC-SHA256 (FIPS 198-1). */
Sha256Digest hmacSha256(const uint8_t *key, size_t keyLen,
                        const uint8_t *data, size_t dataLen);

/** HMAC-SHA256 over the concatenation of several byte spans. */
Sha256Digest hmacSha256Multi(
    const std::vector<uint8_t> &key,
    const std::vector<std::vector<uint8_t>> &parts);

} // namespace ulecc

#endif // ULECC_ECDSA_SHA256_HH
