/**
 * @file
 * Functional ECDSA runs with exact field-operation accounting.
 *
 * The composition methodology (DESIGN.md): a full ECDSA sign/verify
 * pair executes functionally (bit-exact, RFC 6979 deterministic) while
 * an observer records every finite-field operation with its domain
 * (curve field vs. group-order arithmetic).  Operation counts and the
 * ordered sequence drive the per-configuration latency/energy
 * composition and the instruction-fetch trace replay.
 */

#ifndef ULECC_WORKLOAD_OP_TRACE_HH
#define ULECC_WORKLOAD_OP_TRACE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "ec/curve.hh"
#include "mpint/op_observer.hh"

namespace ulecc
{

/** Operation counts split by (domain, op). */
struct OpCounts
{
    std::array<std::array<uint64_t, 6>, 2> counts{};

    uint64_t &
    at(OpDomain d, FieldOp op)
    {
        return counts[static_cast<int>(d)][static_cast<int>(op)];
    }

    uint64_t
    get(OpDomain d, FieldOp op) const
    {
        return counts[static_cast<int>(d)][static_cast<int>(op)];
    }

    uint64_t total() const;
};

/** One recorded operation (packed domain + op). */
struct OpEvent
{
    uint8_t packed;

    OpDomain domain() const { return static_cast<OpDomain>(packed >> 3); }
    FieldOp op() const { return static_cast<FieldOp>(packed & 7); }

    static OpEvent
    make(OpDomain d, FieldOp op)
    {
        return {static_cast<uint8_t>((static_cast<int>(d) << 3)
                                     | static_cast<int>(op))};
    }
};

/** The full trace of an ECDSA signature + verification. */
struct EcdsaTrace
{
    CurveId curve;
    OpCounts sign;
    OpCounts verify;
    std::vector<OpEvent> signSeq;
    std::vector<OpEvent> verifySeq;
    bool verifyOutcome = false; ///< functional result (true for real
                                ///< curves; synthetic params may fail)
};

/**
 * Captures (and memoizes) the deterministic ECDSA trace for a curve.
 * The same fixed key/message is used everywhere, so every consumer
 * sees identical counts.
 */
const EcdsaTrace &ecdsaTrace(CurveId id);

/** Counting observer, usable standalone in tests. */
class OpRecorder : public OpObserver
{
  public:
    void
    onFieldOp(FieldOp op, int bits, bool binary) override
    {
        (void)bits;
        (void)binary;
        OpDomain d = opDomain();
        counts.at(d, op)++;
        seq.push_back(OpEvent::make(d, op));
    }

    OpCounts counts;
    std::vector<OpEvent> seq;
};

} // namespace ulecc

#endif // ULECC_WORKLOAD_OP_TRACE_HH
