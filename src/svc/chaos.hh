/**
 * @file
 * Chaos mode: deterministic fault injection on live request paths.
 *
 * With chaos enabled, a seeded fraction of requests is struck by one
 * fault drawn from the same vocabulary the offline fault campaigns
 * use -- bit flips, program-line corruption, stall storms, and budget
 * runaways on a victim field kernel simulated on Pete (the same
 * fault/strikeKernel() procedure tools/fault_campaign runs), plus
 * crypto-layer corruptions (glitched signatures, corrupted peer
 * points, out-of-range scalars) handled in the service executor.
 *
 * The contract the soak test pins: a struck request must still end in
 * a *correct result or a structured error*.  The classification:
 *
 *   Detected     a structured error or countermeasure caught it;
 *   Masked       the fault landed in dead state, output bit-identical
 *                to golden -- a correct result;
 *   SilentCaught the simulated run "succeeded" with a wrong result
 *                and the service's golden cross-check converted it to
 *                Errc::FaultDetected -- the countermeasure that turns
 *                silent corruption into a structured, retryable error.
 *
 * Strikes are pure functions of (campaign seed, request id, attempt):
 * the same seed replays the same faults whatever the thread count.
 */

#ifndef ULECC_SVC_CHAOS_HH
#define ULECC_SVC_CHAOS_HH

#include <cstdint>

#include "base/error.hh"
#include "base/prng.hh"

namespace ulecc
{

/** Chaos-mode parameters. */
struct ChaosConfig
{
    /** Percentage (0-100) of request attempts struck by a fault. */
    uint32_t percent = 0;
};

/** How a struck request resolved (None = not struck). */
enum class ChaosClass
{
    None,
    Detected,
    Masked,
    SilentCaught,
};

/** Stable short name (logs/JSON). */
const char *chaosClassName(ChaosClass cls);

/** Outcome of one simulator-level strike. */
struct SimStrikeResult
{
    Errc errc = Errc::Ok;         ///< structured error, Ok if masked
    ChaosClass cls = ChaosClass::None;
    const char *kind = "none";    ///< fault kind name (stable string)
};

/**
 * One fault/strikeKernel() strike on a victim field kernel (MpAdd,
 * MulOs or RedP192), its outcome mapped onto the service vocabulary:
 * Detected keeps the run's Errc, Masked is Errc::Ok, SilentlyCorrupted
 * becomes Errc::FaultDetected / SilentCaught, and a failed golden run
 * is Errc::Internal / SilentCaught ("golden-failure").  Fully
 * deterministic in @p rng's state.
 */
SimStrikeResult chaosSimStrike(SplitMix64 &rng);

/**
 * Budget-exhaust strike: runs the victim kernel under a deliberately
 * starved cycle budget.  Expected outcome: Errc::SimTimeout, raised
 * at the simulator's next budget safe point (before every
 * instruction) -- the service's model of timeout cancellation inside
 * a real simulation.
 */
SimStrikeResult chaosBudgetStrike(SplitMix64 &rng);

/**
 * Fault-free co-simulation of the MulOs kernel (the FullSim tier's
 * per-request simulation anchor), cross-checked against the native
 * bignum implementation.  Sets @p mismatch when the simulator and the
 * native result disagree -- which the service reports as a caught
 * silent corruption.
 */
void chaosCosim(SplitMix64 &rng, bool *mismatch);

} // namespace ulecc

#endif // ULECC_SVC_CHAOS_HH
