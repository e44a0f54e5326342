/**
 * @file
 * ECDH implementation.
 */

#include "ecdsa/ecdh.hh"

#include "ec/scalar_mult.hh"
#include "ecdsa/ecdsa.hh" // toBytesBe
#include "mpint/op_observer.hh"

namespace ulecc
{

AffinePoint
Ecdh::publicPoint(const MpUint &d) const
{
    return scalarMul(curve_, d, curve_.generator());
}

bool
Ecdh::validatePeer(const AffinePoint &peer) const
{
    if (peer.infinity)
        return false;
    if (!curve_.onCurve(peer))
        return false;
    // Full order check: n * P == infinity (rules out small-subgroup
    // points on cofactor > 1 curves).
    return scalarMul(curve_, curve_.order(), peer).infinity;
}

Result<EcdhShared>
Ecdh::agreeChecked(const MpUint &d, const AffinePoint &peer) const
{
    TraceScope span("ecdh.agree", "protocol");
    if (d.isZero() || d >= curve_.order())
        return Error{Errc::InvalidInput,
                     "agree: private scalar out of [1, n)"};
    if (!validatePeer(peer))
        return Error{Errc::InvalidInput,
                     "agree: peer point failed public-key validation "
                     "(off-curve, infinity, or wrong order)"};
    AffinePoint shared = scalarMul(curve_, d, peer);
    if (shared.infinity)
        return Error{Errc::InvalidInput,
                     "agree: shared point is infinity"};
    EcdhShared out;
    out.sharedX = shared.x;
    int len = (curve_.fieldBits() + 7) / 8;
    std::vector<uint8_t> octets = toBytesBe(out.sharedX, len);
    out.sessionKey = sha256(octets.data(), octets.size());
    return out;
}

} // namespace ulecc
