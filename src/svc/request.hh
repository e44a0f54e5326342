/**
 * @file
 * The service request vocabulary shared between the engine
 * (svc/service) and the batch former (svc/batch): operation kinds and
 * the synthetic request record itself.  Split out so the former can
 * group requests without dragging in the whole Server interface.
 */

#ifndef ULECC_SVC_REQUEST_HH
#define ULECC_SVC_REQUEST_HH

#include <cstdint>

#include "core/evaluator.hh"

namespace ulecc
{

/** Request operation. */
enum class OpKind
{
    Sign,
    Verify,
    Ecdh,
};

/** Virtual nanoseconds per modelled cycle: the 333 MHz system clock
 * that converts modelled cycles into service time. */
constexpr double kSvcClockNs = 3.0;

/** Number of OpKind values (array sizing). */
constexpr int kNumOps = 3;

/** Stable short name (logs/JSON). */
const char *opKindName(OpKind op);

/** @p ns (>= 0) in whole nanoseconds, saturating at UINT64_MAX: a
 * budget of 2^64 ns or more is as good as none, where the plain cast
 * would be undefined. */
inline uint64_t
saturatingNs(double ns)
{
    return ns >= 0x1p64 ? UINT64_MAX : static_cast<uint64_t>(ns);
}

/** @p a + @p b, saturating at UINT64_MAX. */
inline uint64_t
saturatingAdd(uint64_t a, uint64_t b)
{
    return b > UINT64_MAX - a ? UINT64_MAX : a + b;
}

/** One synthetic request (attempt state included). */
struct Request
{
    uint64_t id = 0;
    uint64_t userId = 0;
    OpKind op = OpKind::Sign;
    CurveId curve = CurveId::P192;
    MicroArch arch = MicroArch::Baseline;
    uint32_t attempt = 1;
    uint64_t firstArrivalNs = 0;
    uint64_t deadlineNs = 0; ///< absolute, end-to-end across retries
};

} // namespace ulecc

#endif // ULECC_SVC_REQUEST_HH
