/**
 * @file
 * ECDSA implementation.
 */

#include "ecdsa/ecdsa.hh"

#include "ec/scalar_mult.hh"
#include "mpint/op_observer.hh"

namespace ulecc
{

namespace
{

/** Octet-string length cap: the MpUint limb capacity in bytes. */
constexpr int kMaxBytes = MpUint::maxLimbs * 4;

} // namespace

std::vector<uint8_t>
toBytesBe(const MpUint &v, int len)
{
    if (len < 0 || len > kMaxBytes)
        throw UleccError(Errc::OutOfRange,
                         "toBytesBe: length " + std::to_string(len)
                         + " exceeds " + std::to_string(kMaxBytes)
                         + "-byte capacity");
    std::vector<uint8_t> out(len, 0);
    for (int i = 0; i < len; ++i) {
        int byte = len - 1 - i; // index from least-significant byte
        uint32_t limb = v.limb(byte / 4);
        out[i] = static_cast<uint8_t>(limb >> (8 * (byte % 4)));
    }
    return out;
}

MpUint
fromBytesBe(const uint8_t *data, size_t len)
{
    if (len > static_cast<size_t>(kMaxBytes))
        throw UleccError(Errc::OutOfRange,
                         "fromBytesBe: length " + std::to_string(len)
                         + " exceeds " + std::to_string(kMaxBytes)
                         + "-byte capacity");
    MpUint v;
    for (size_t i = 0; i < len; ++i) {
        int byte = static_cast<int>(len - 1 - i);
        uint32_t limb = v.limb(byte / 4);
        limb |= static_cast<uint32_t>(data[i]) << (8 * (byte % 4));
        v.setLimb(byte / 4, limb);
    }
    return v;
}

Result<std::vector<uint8_t>>
toBytesBeChecked(const MpUint &v, int len)
{
    if (len < 0 || len > kMaxBytes)
        return Error{Errc::OutOfRange,
                     "toBytesBe: length " + std::to_string(len)
                     + " exceeds capacity"};
    return toBytesBe(v, len);
}

namespace
{

/** bits2int: leftmost qlen bits of the octet string, as an integer. */
MpUint
bits2int(const uint8_t *data, size_t len, int qlen)
{
    MpUint v = fromBytesBe(data, len);
    int blen = static_cast<int>(len) * 8;
    if (blen > qlen)
        v = v.shiftRight(blen - qlen);
    return v;
}

} // namespace

MpUint
rfc6979Nonce(const MpUint &d, const Sha256Digest &digest, const MpUint &n)
{
    const int qlen = n.bitLength();
    const int rlen = (qlen + 7) / 8;

    // bits2octets(h1) = int2octets(bits2int(h1) mod n).
    MpUint z1 = bits2int(digest.data(), digest.size(), qlen);
    MpUint z2 = z1.mod(n);
    std::vector<uint8_t> h1o = toBytesBe(z2, rlen);
    std::vector<uint8_t> x = toBytesBe(d, rlen);

    std::vector<uint8_t> v(32, 0x01);
    std::vector<uint8_t> k(32, 0x00);

    auto hmac = [&](const std::vector<uint8_t> &key,
                    std::vector<std::vector<uint8_t>> parts) {
        Sha256Digest out = hmacSha256Multi(key, parts);
        return std::vector<uint8_t>(out.begin(), out.end());
    };

    k = hmac(k, {v, {0x00}, x, h1o});
    v = hmac(k, {v});
    k = hmac(k, {v, {0x01}, x, h1o});
    v = hmac(k, {v});

    for (int guard = 0; guard < 1000; ++guard) {
        std::vector<uint8_t> t;
        while (static_cast<int>(t.size()) < rlen) {
            v = hmac(k, {v});
            t.insert(t.end(), v.begin(), v.end());
        }
        MpUint cand = bits2int(t.data(), t.size(), qlen);
        if (!cand.isZero() && cand < n)
            return cand;
        k = hmac(k, {v, {0x00}});
        v = hmac(k, {v});
    }
    throw UleccError(Errc::Internal, "rfc6979Nonce: no candidate found");
}

Ecdsa::Ecdsa(const Curve &curve)
    : curve_(curve), orderField_(curve.order())
{
}

KeyPair
Ecdsa::keyFromPrivate(const MpUint &d) const
{
    TraceScope span("ecdsa.keygen", "protocol");
    if (d.isZero() || d >= curve_.order())
        throw UleccError(Errc::InvalidInput,
                         "keyFromPrivate: scalar out of [1, n)");
    return {d, scalarMul(curve_, d, curve_.generator())};
}

MpUint
Ecdsa::digestToScalar(const Sha256Digest &digest) const
{
    return bits2int(digest.data(), digest.size(),
                    curve_.order().bitLength()).mod(curve_.order());
}

Signature
Ecdsa::signDigest(const MpUint &d, const Sha256Digest &digest,
                  const std::optional<MpUint> &nonce) const
{
    TraceScope span("ecdsa.sign", "protocol");
    const MpUint &n = curve_.order();
    const PrimeField &fn = orderField_;
    if (d.isZero() || d >= n)
        throw UleccError(Errc::InvalidInput,
                         "signDigest: private scalar out of [1, n)");
    MpUint e = digestToScalar(digest);
    MpUint k = nonce ? *nonce : rfc6979Nonce(d, digest, n);
    for (int guard = 0; guard < 64; ++guard) {
        if (k.isZero() || k >= n)
            throw UleccError(Errc::InvalidInput,
                             "signDigest: nonce out of [1, n)");
        AffinePoint kg = scalarMul(curve_, k, curve_.generator());
        // Arithmetic modulo the group order: protocol work that stays
        // on the main processor in every hardware configuration.
        OpDomainScope scope(OpDomain::OrderField);
        MpUint r = kg.x.mod(n);
        if (!r.isZero()) {
            // s = k^-1 (e + r d) mod n -- extended Euclidean inversion.
            MpUint kinv = fn.inv(k);
            MpUint s = fn.mul(kinv, fn.add(e, fn.mul(r, d)));
            if (!s.isZero())
                return {r, s};
        }
        // Degenerate nonce (vanishingly rare): re-derive.
        k = k.add(MpUint(1));
        if (k >= n)
            k = MpUint(1);
    }
    throw UleccError(Errc::Internal, "ECDSA sign: nonce search failed");
}

Result<Signature>
Ecdsa::signDigestChecked(const MpUint &d, const Sha256Digest &digest,
                         const std::optional<MpUint> &nonce) const
{
    if (d.isZero() || d >= curve_.order())
        return Error{Errc::InvalidInput,
                     "signDigest: private scalar out of [1, n)"};
    try {
        return signDigestChecked(
            d, scalarMul(curve_, d, curve_.generator()), digest, nonce);
    } catch (const UleccError &e) {
        return e.error();
    }
}

Result<Signature>
Ecdsa::signDigestChecked(const MpUint &d, const AffinePoint &q,
                         const Sha256Digest &digest,
                         const std::optional<MpUint> &nonce) const
{
    const MpUint &n = curve_.order();
    if (d.isZero() || d >= n)
        return Error{Errc::InvalidInput,
                     "signDigest: private scalar out of [1, n)"};
    if (nonce && (nonce->isZero() || *nonce >= n))
        return Error{Errc::InvalidInput,
                     "signDigest: nonce out of [1, n)"};
    try {
        Signature sig = signDigest(d, digest, nonce);
        // Verify-after-sign: a glitched scalar multiplication (the
        // classic ECDSA fault attack leaking the private key through a
        // faulty r) produces a signature that does not verify against
        // our own public point.  Withhold it.
        if (!verifyDigest(q, digest, sig))
            return Error{Errc::FaultDetected,
                         "signDigest: verify-after-sign mismatch "
                         "(corrupted signing computation)"};
        return sig;
    } catch (const UleccError &e) {
        return e.error();
    }
}

bool
Ecdsa::verifyDigest(const AffinePoint &pub, const Sha256Digest &digest,
                    const Signature &sig) const
{
    TraceScope span("ecdsa.verify", "protocol");
    const MpUint &n = curve_.order();
    const PrimeField &fn = orderField_;
    if (sig.r.isZero() || sig.s.isZero() || sig.r >= n || sig.s >= n)
        return false;
    MpUint e = digestToScalar(digest);
    MpUint u1, u2;
    {
        OpDomainScope scope(OpDomain::OrderField);
        MpUint w = fn.inv(sig.s);
        u1 = fn.mul(e, w);
        u2 = fn.mul(sig.r, w);
    }
    AffinePoint x = twinScalarMul(curve_, u1, curve_.generator(), u2, pub);
    if (x.infinity)
        return false;
    return x.x.mod(n) == sig.r;
}

Result<bool>
Ecdsa::verifyDigestChecked(const AffinePoint &pub,
                           const Sha256Digest &digest,
                           const Signature &sig) const
{
    // Point validation ahead of use: a corrupted or adversarial public
    // point must be rejected as bad input, not folded into the group
    // arithmetic (invalid-curve attacks).
    if (pub.infinity)
        return Error{Errc::InvalidInput,
                     "verifyDigest: public point is infinity"};
    if (!curve_.onCurve(pub))
        return Error{Errc::InvalidInput,
                     "verifyDigest: public point not on curve"};
    try {
        return verifyDigest(pub, digest, sig);
    } catch (const UleccError &e) {
        return e.error();
    }
}

Signature
Ecdsa::sign(const MpUint &d, std::string_view message) const
{
    return signDigest(d, sha256(message));
}

bool
Ecdsa::verify(const AffinePoint &pub, std::string_view message,
              const Signature &sig) const
{
    return verifyDigest(pub, sha256(message), sig);
}

} // namespace ulecc
