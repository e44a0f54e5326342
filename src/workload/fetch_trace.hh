/**
 * @file
 * Structural instruction-fetch trace replay for the I-cache study
 * (paper Sections 5.3 and 7.5).
 *
 * The cache experiments need a realistic whole-program fetch stream:
 * tight kernel loops that hit, interleaved with transitions between
 * the point-arithmetic routines, the scalar-multiplication driver,
 * the protocol code and the hash -- a working set of roughly 4 KB
 * (the paper finds the energy-optimal cache is exactly that size).
 *
 * This module lays the software suite out as a static code map (region
 * sizes taken from the assembled kernels and typical -O2 code), then
 * walks the recorded ECDSA field-operation sequence over it as
 * straight-line blocks and loops (walkFetchTrace).  replayFetchTrace
 * feeds that walk through the real ICache model at line granularity:
 * one access per run of words in the same line, the rest of the run
 * credited as hits, and a loop's remaining passes credited in closed
 * form once a pass records no miss.  Both shortcuts are exact -- the
 * ICacheStats and fetch count equal a word-by-word replay of the same
 * walk, which the tests keep as the oracle.
 */

#ifndef ULECC_WORKLOAD_FETCH_TRACE_HH
#define ULECC_WORKLOAD_FETCH_TRACE_HH

#include "sim/icache.hh"
#include "workload/kernel_model.hh"
#include "workload/op_trace.hh"

namespace ulecc
{

/** Outcome of replaying one sign+verify fetch stream. */
struct FetchReplayResult
{
    ICacheStats stats;
    uint64_t fetches = 0;

    double
    missRate() const
    {
        return stats.accesses
            ? double(stats.misses - stats.prefetchHits)
                / double(stats.accesses)
            : 0.0;
    }

    /** Misses that actually stall (stream-buffer hits don't). */
    uint64_t
    stallingMisses() const
    {
        return stats.misses - stats.prefetchHits;
    }
};

/**
 * Receives the fetch stream of the code-map walk.  A loop is exactly
 * @p iters back-to-back block(base, body) calls; a sink may count it
 * faster but not differently.
 */
class FetchSink
{
  public:
    virtual ~FetchSink() = default;
    /** Fetches @p words sequential instructions from @p base. */
    virtual void block(uint32_t base, int words) = 0;
    /** A loop: @p body words from @p base executed @p iters times. */
    virtual void loop(uint32_t base, int body, int iters) = 0;
};

/**
 * Drives @p sink with the ECDSA sign+verify fetch stream of @p curve
 * over the code map.  The one copy of the walk: replayFetchTrace and
 * the word-level test oracle both consume it.
 */
void walkFetchTrace(CurveId curve, FetchSink &sink);

/**
 * Replays the ECDSA sign+verify fetch stream of (curve, arch) through
 * a cache with configuration @p config.  Deterministic; results are
 * memoized by the callers that need them repeatedly.
 */
FetchReplayResult replayFetchTrace(CurveId curve, MicroArch arch,
                                   const ICacheConfig &config);

} // namespace ulecc

#endif // ULECC_WORKLOAD_FETCH_TRACE_HH
