/**
 * @file
 * Quickstart: sign and verify a message with ECDSA over NIST P-256
 * using the library's public API.
 *
 * Build tree usage:  ./build/examples/quickstart
 */

#include <cstdio>

#include "ec/curve.hh"
#include "ecdsa/ecdsa.hh"

using namespace ulecc;

int
main()
{
    // 1. Pick a standard curve.  orderVerified() runs the parameter
    //    self-check (n * G == infinity) on request; building the curve
    //    only stores its constants.
    const Curve &curve = standardCurve(CurveId::P256);
    std::printf("curve: %s (%d-bit, parameters %s)\n",
                curve.name().c_str(), curve.fieldBits(),
                curve.orderVerified() ? "verified" : "UNVERIFIED");

    // 2. Make a key pair from a private scalar.
    Ecdsa ecdsa(curve);
    MpUint d = MpUint::fromHex(
        "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721");
    KeyPair key = ecdsa.keyFromPrivate(d);
    std::printf("public key x: %s\n", key.q.x.toHex().c_str());

    // 3. Sign a message (RFC 6979 deterministic nonce: same message,
    //    same signature, no RNG required -- embedded friendly).
    const char *message = "attach pacemaker telemetry frame 0x2a";
    Signature sig = ecdsa.sign(d, message);
    std::printf("r: %s\ns: %s\n", sig.r.toHex().c_str(),
                sig.s.toHex().c_str());

    // 4. Verify.
    bool ok = ecdsa.verify(key.q, message, sig);
    std::printf("verify(original) = %s\n", ok ? "ACCEPT" : "REJECT");

    // 5. Any tampering is rejected.
    bool bad = ecdsa.verify(key.q, "attach pacemaker telemetry frame "
                                   "0x2b", sig);
    std::printf("verify(tampered) = %s\n", bad ? "ACCEPT" : "REJECT");

    return ok && !bad ? 0 : 1;
}
