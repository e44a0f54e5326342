/**
 * @file
 * Trace capture implementation.
 */

#include "workload/op_trace.hh"

#include "base/once_map.hh"
#include "ecdsa/ecdsa.hh"

namespace ulecc
{

uint64_t
OpCounts::total() const
{
    uint64_t t = 0;
    for (const auto &d : counts) {
        for (uint64_t v : d)
            t += v;
    }
    return t;
}

namespace
{

EcdsaTrace
recordTrace(CurveId id)
{
    const Curve &curve = standardCurve(id);
    Ecdsa ecdsa(curve);

    // Deterministic private key: a curve-size constant reduced mod n.
    MpUint d = MpUint::fromHex(
        "6c0ffee15600dbadc0dedeadbeefcafebabe0123456789abcdef022"
        "81ee7ab1e5a11ab0a7ab1e5deadd00dfeedface8badf00d15ca1ab1")
        .mod(curve.order());
    if (d.isZero())
        d = MpUint(2);
    const char *message = "the design space of ultra-low energy "
                          "asymmetric cryptography";

    EcdsaTrace trace;
    trace.curve = id;

    KeyPair kp = ecdsa.keyFromPrivate(d); // not traced

    {
        OpRecorder rec;
        OpObserverScope scope(&rec);
        Signature sig = ecdsa.sign(d, message);
        trace.sign = rec.counts;
        trace.signSeq = std::move(rec.seq);

        OpRecorder vrec;
        setOpObserver(&vrec);
        trace.verifyOutcome = ecdsa.verify(kp.q, message, sig);
        trace.verify = vrec.counts;
        trace.verifySeq = std::move(vrec.seq);
    }

    return trace;
}

} // namespace

const EcdsaTrace &
ecdsaTrace(CurveId id)
{
    static OnceMap<CurveId, EcdsaTrace> cache;
    return cache.get(id, [id] { return recordTrace(id); });
}

} // namespace ulecc
