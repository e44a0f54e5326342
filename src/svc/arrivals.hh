/**
 * @file
 * Synthetic request-arrival processes, in virtual time.
 *
 * The service engine drives its admission control and deadline
 * machinery from a modelled arrival stream rather than the wall
 * clock, so overload scenarios are reproducible artifacts: the same
 * seed produces the same arrival timestamps on every run, serial or
 * parallel.
 *
 * Three processes are modelled:
 *
 *  - Poisson: memoryless arrivals at a constant rate -- the baseline
 *    open-loop traffic assumption;
 *  - Bursty: a piecewise-constant modulated Poisson process that
 *    alternates between a burst phase (rate x burstFactor) and an
 *    idle phase (rate / burstFactor).  Phase boundaries exploit the
 *    exponential's memorylessness: a draw that crosses a boundary is
 *    re-drawn from the boundary at the new rate, which is exact for a
 *    piecewise-constant intensity.
 *  - ClosedLoop: N clients, each issuing its next request only after
 *    the previous one resolved plus a deterministic exponential think
 *    time.  Closed-loop issuance needs completion feedback, so it is
 *    driven by the service coordinator (see Server); this module only
 *    carries its parameters and the think-time draw.
 *
 * Independently of the process, a *diurnal* rate modulation can be
 * layered on the open-loop generators: a quantized sinusoidal day
 * curve (piecewise-constant over diurnalSteps segments per dayNs
 * period) multiplies the instantaneous rate.  Because the combined
 * intensity is still piecewise-constant, the same boundary-redraw
 * trick keeps the thinning exact -- the generator redraws at
 * whichever boundary (burst phase or diurnal segment) comes first.
 */

#ifndef ULECC_SVC_ARRIVALS_HH
#define ULECC_SVC_ARRIVALS_HH

#include <cstdint>

#include "base/prng.hh"

namespace ulecc
{

/** Arrival process selector. */
enum class ArrivalKind
{
    Poisson,
    Bursty,
    ClosedLoop,
};

/** Stable short name (logs/JSON). */
const char *arrivalKindName(ArrivalKind kind);

/** Arrival process parameters (rates are virtual-time rates). */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    double ratePerSec = 500.0;    ///< mean arrival rate
    double burstFactor = 8.0;     ///< bursty: burst/idle rate multiplier
    uint64_t burstNs = 20'000'000; ///< bursty: burst phase length
    uint64_t idleNs = 80'000'000;  ///< bursty: idle phase length

    /** Closed-loop: concurrent clients and mean think time between a
     * final resolution and the client's next request. */
    uint32_t clients = 8;
    uint64_t thinkNs = 5'000'000;

    /** Diurnal day-curve modulation of the open-loop generators. */
    bool diurnal = false;
    uint64_t dayNs = 1'000'000'000; ///< one virtual "day"
    double diurnalAmp = 0.6;        ///< rate swings 1 +- amp
    uint32_t diurnalSteps = 24;     ///< piecewise segments per day
};

/**
 * Deterministic arrival-timestamp generator (open-loop kinds).  The
 * config must satisfy SvcConfig::validate() (svc/service.hh): a
 * finite positive rate, burstFactor >= 1, diurnalAmp in [0, 0.95]
 * and, with diurnal on, 1 <= diurnalSteps <= dayNs.
 */
class ArrivalGen
{
  public:
    ArrivalGen(const ArrivalConfig &config, uint64_t seed);

    /** Next arrival timestamp in virtual ns (non-decreasing). */
    uint64_t next();

  private:
    double currentRate(uint64_t tNs) const;
    double diurnalFactor(uint64_t tNs) const;
    uint64_t nextBoundary(uint64_t tNs) const;
    double expDrawSeconds(double rate);

    ArrivalConfig cfg_;
    SplitMix64 rng_;
    uint64_t tNs_ = 0;
};

/**
 * Deterministic exponential think-time draw for closed-loop clients:
 * a pure function of (seed, request id), so the issuance schedule is
 * byte-identical across serial/parallel runs.
 */
uint64_t closedLoopThinkNs(uint64_t seed, uint64_t requestId,
                           uint64_t meanNs);

} // namespace ulecc

#endif // ULECC_SVC_ARRIVALS_HH
