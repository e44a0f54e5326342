/**
 * @file
 * Elliptic-curve Diffie-Hellman key agreement.
 *
 * The paper's motivating protocol stack (Section 2.1.1): asymmetric
 * cryptography establishes a session key which symmetric encryption
 * then amortises over the communication session.  ECDH is the
 * establishment half; it costs one scalar point multiplication per
 * side, so every latency/energy result for the scalar multiplication
 * applies directly.
 */

#ifndef ULECC_ECDSA_ECDH_HH
#define ULECC_ECDSA_ECDH_HH

#include "base/error.hh"
#include "ec/curve.hh"
#include "ecdsa/sha256.hh"

namespace ulecc
{

/** Result of one side's key agreement. */
struct EcdhShared
{
    MpUint sharedX;       ///< x-coordinate of d_A * Q_B
    Sha256Digest sessionKey; ///< KDF(x): SHA-256 of the x octets
};

/** ECDH engine bound to one curve. */
class Ecdh
{
  public:
    explicit Ecdh(const Curve &curve) : curve_(curve) {}

    /** Derives the public point for private scalar @p d. */
    AffinePoint publicPoint(const MpUint &d) const;

    /**
     * Computes the shared secret d * peer and derives a session key.
     * Performs full public-key validation (on-curve, non-infinity,
     * order check) before use -- invalid-curve attacks are exactly the
     * kind of thing an implantable device must not fall to.  A failure
     * is Errc::InvalidInput with context naming the private scalar or
     * the peer point.
     */
    Result<EcdhShared> agreeChecked(const MpUint &d,
                                    const AffinePoint &peer) const;

    /** Public-key validation only. */
    bool validatePeer(const AffinePoint &peer) const;

  private:
    const Curve &curve_;
};

} // namespace ulecc

#endif // ULECC_ECDSA_ECDH_HH
