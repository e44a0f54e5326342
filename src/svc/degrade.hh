/**
 * @file
 * Graceful degradation: fidelity tiers selected by load.
 *
 * The expensive part of serving a request in this system is not the
 * host-side cryptography -- it is the *simulation fidelity* of the
 * per-request cost attribution.  Under load the engine sheds fidelity
 * before it sheds correctness:
 *
 *   FullSim   (light load)    the evaluator cost model plus one Pete
 *                             co-simulation anchor per batch pass: a
 *                             representative field kernel cross-
 *                             checked against the native bignum;
 *   Memoized  (elevated load) the same evaluator cost model, read from
 *                             the process-wide evaluation memo, with
 *                             no co-simulation anchor -- the anchor is
 *                             the only difference from FullSim;
 *   Analytic  (overload)      closed-form scaling model anchored once
 *                             per microarchitecture at startup; no
 *                             evaluator call at all on the request
 *                             path.
 *
 * The cryptographic work itself (checked sign/verify/ECDH with all
 * countermeasures) is never degraded: fidelity tiers trade telemetry
 * precision for headroom, not answers for throughput.
 */

#ifndef ULECC_SVC_DEGRADE_HH
#define ULECC_SVC_DEGRADE_HH

#include <cstddef>

#include "core/evaluator.hh"

namespace ulecc
{

/** Service fidelity tier, highest fidelity first. */
enum class ServiceTier
{
    FullSim,
    Memoized,
    Analytic,
};

/** Stable short name (logs/JSON). */
const char *serviceTierName(ServiceTier tier);

/** Load thresholds mapping queue depth to a tier. */
struct DegradePolicy
{
    size_t memoizedDepth = 8;  ///< depth at/above which FullSim drops
    size_t analyticDepth = 32; ///< depth at/above which Memoized drops

    ServiceTier
    select(size_t queueDepth) const
    {
        if (queueDepth >= analyticDepth)
            return ServiceTier::Analytic;
        if (queueDepth >= memoizedDepth)
            return ServiceTier::Memoized;
        return ServiceTier::FullSim;
    }
};

/**
 * Closed-form cost model for the Analytic tier (and for admission-
 * control wait estimates, which must never touch the evaluator).
 *
 * Calibrated once per microarchitecture from the smallest curve of
 * each field family via the (memoized) evaluator, then extrapolated
 * by bits^2.585: one scalar multiplication is O(bits) field
 * multiplications of Karatsuba cost O(words^1.585).  A coarse model
 * by design -- its accuracy band is pinned by tests, its purpose is
 * bounded-cost estimation under overload.
 */
class AnalyticModel
{
  public:
    struct Estimate
    {
        double cycles = 0;
        double uj = 0;
    };

    /**
     * Builds the per-arch anchors (deterministic; uses the evaluation
     * memo, so repeated calibrations are free).  Combinations whose
     * anchor evaluation fails are left uncalibrated and fall back to
     * a fixed pessimistic constant in estimate().
     */
    void calibrate();

    bool calibrated() const { return calibrated_; }

    /** Estimated cost of one operation (verify or sign; ECDH uses the
     * sign anchor -- both are one scalar multiplication). */
    Estimate estimate(MicroArch arch, CurveId curve,
                      bool verifyOp) const;

  private:
    struct Anchor
    {
        bool valid = false;
        double bits = 0;
        Estimate sign;
        Estimate verify;
    };

    static constexpr int kNumArch = 5;
    // [arch][0 = prime family, 1 = binary family]
    Anchor anchors_[kNumArch][2];
    bool calibrated_ = false;
};

} // namespace ulecc

#endif // ULECC_SVC_DEGRADE_HH
