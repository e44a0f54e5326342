/**
 * @file
 * The Elliptic Curve Digital Signature Algorithm (paper Section 4.1).
 *
 * ECDSA is the study's benchmark: a signature is one single scalar
 * point multiplication (X = kG) plus arithmetic modulo the group
 * order; a verification is one twin scalar multiplication
 * (X = u1*G + u2*Q) plus modular arithmetic.  Nonces are deterministic
 * (RFC 6979 style HMAC-DRBG) so every run is reproducible.
 */

#ifndef ULECC_ECDSA_ECDSA_HH
#define ULECC_ECDSA_ECDSA_HH

#include <optional>
#include <vector>

#include "base/error.hh"
#include "ec/curve.hh"
#include "ecdsa/sha256.hh"

namespace ulecc
{

/** An ECDSA signature pair. */
struct Signature
{
    MpUint r;
    MpUint s;
};

/** An ECDSA key pair. */
struct KeyPair
{
    MpUint d;      ///< private scalar, 1 <= d < n
    AffinePoint q; ///< public point, Q = d*G
};

/**
 * Big-endian octet-string encoding of @p v, left-padded to @p len.
 * Throws UleccError(Errc::OutOfRange) when @p len is negative or
 * exceeds the MpUint limb capacity.
 */
std::vector<uint8_t> toBytesBe(const MpUint &v, int len);

/**
 * Decodes a big-endian octet string.  Throws
 * UleccError(Errc::OutOfRange) when @p len exceeds the limb capacity.
 */
MpUint fromBytesBe(const uint8_t *data, size_t len);

/** Non-throwing form of toBytesBe. */
Result<std::vector<uint8_t>> toBytesBeChecked(const MpUint &v, int len);

/**
 * Deterministic nonce generation per RFC 6979 (HMAC-SHA256 DRBG):
 * k = drbg(private key, message digest) with 1 <= k < n.
 */
MpUint rfc6979Nonce(const MpUint &d, const Sha256Digest &digest,
                    const MpUint &n);

/** ECDSA engine bound to one curve. */
class Ecdsa
{
  public:
    explicit Ecdsa(const Curve &curve);

    const Curve &curve() const { return curve_; }

    /**
     * Derives the key pair for private scalar @p d.  Throws
     * UleccError(Errc::InvalidInput) when d is out of [1, n).
     */
    KeyPair keyFromPrivate(const MpUint &d) const;

    /**
     * Signs a 32-byte digest.  If @p nonce is not provided the RFC 6979
     * deterministic nonce is used.
     */
    Signature signDigest(const MpUint &d, const Sha256Digest &digest,
                         const std::optional<MpUint> &nonce = {}) const;

    /**
     * Hardened signing entry point with fault countermeasures:
     *  - scalar-range validation of d (and of an explicit nonce):
     *    Errc::InvalidInput;
     *  - verify-after-sign: the fresh signature is verified against
     *    the signer's public point @p q before release -- the standard
     *    check against glitched scalar multiplications, which also
     *    catches a d that no longer matches q; a mismatch is
     *    Errc::FaultDetected and the signature is withheld.
     */
    Result<Signature>
    signDigestChecked(const MpUint &d, const AffinePoint &q,
                      const Sha256Digest &digest,
                      const std::optional<MpUint> &nonce = {}) const;

    /**
     * signDigestChecked() against Q = dG, computed here (one scalar
     * multiplication more) after d passes the range check.
     */
    Result<Signature>
    signDigestChecked(const MpUint &d, const Sha256Digest &digest,
                      const std::optional<MpUint> &nonce = {}) const;

    /** Verifies a signature over a 32-byte digest. */
    bool verifyDigest(const AffinePoint &pub, const Sha256Digest &digest,
                      const Signature &sig) const;

    /**
     * Checked verification: validates the public point first (finite,
     * on curve: Errc::InvalidInput otherwise) and then returns the
     * verdict.  A bad signature is a valid `false`, not an error.
     */
    Result<bool>
    verifyDigestChecked(const AffinePoint &pub,
                        const Sha256Digest &digest,
                        const Signature &sig) const;

    /** Hashes @p message with SHA-256 and signs. */
    Signature sign(const MpUint &d, std::string_view message) const;

    /** Hashes @p message with SHA-256 and verifies. */
    bool verify(const AffinePoint &pub, std::string_view message,
                const Signature &sig) const;

    /** Truncates a digest to the order's bit length (bits2int). */
    MpUint digestToScalar(const Sha256Digest &digest) const;

  private:
    const Curve &curve_;
    /**
     * Arithmetic modulo the group order.  Kept as a field object so the
     * op observer sees protocol-level work in the OrderField domain --
     * this is the part of ECDSA that never maps onto an accelerator
     * (paper Sections 4.1 and 7.2).
     */
    PrimeField orderField_;
};

} // namespace ulecc

#endif // ULECC_ECDSA_ECDSA_HH
