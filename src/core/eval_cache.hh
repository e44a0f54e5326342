/**
 * @file
 * Process-wide memoization of design-point evaluations.
 *
 * evaluate() is a pure function of (arch, curve, options), and the
 * reproduction suite revisits the same design points constantly --
 * Baseline/P-192 alone appears in a dozen figure harnesses.  The memo
 * makes every revisit within one process free: a hit returns the very
 * EvalResult the first evaluation computed, so bench text output
 * cannot drift.  It is the only whole-point memo; the bench
 * SweepDriver and the svc warm-up fill it through SweepRunner and then
 * read it through evaluate().
 */

#ifndef ULECC_CORE_EVAL_CACHE_HH
#define ULECC_CORE_EVAL_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "core/evaluator.hh"

namespace ulecc
{

/**
 * Exact, order-stable identity of one design point.  Every field of
 * EvalOptions (kernel knobs and all power-model coefficients)
 * participates, doubles rendered as hexfloats, so two keys are equal
 * iff evaluate() would compute the same result.
 */
std::string evalPointKey(MicroArch arch, CurveId curve,
                         const EvalOptions &options);

/** Hit/miss accounting (exposed for tests and the simspeed bench). */
struct EvalCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t persistedLoads = 0; ///< always 0: the memo is in-process
};

/** The process-wide evaluation memo (thread-safe). */
class EvalCache
{
  public:
    static EvalCache &instance();

    /** Cached result for @p key, if present (counts a hit/miss). */
    std::optional<EvalResult> lookup(const std::string &key);

    /** Memoizes @p result (the first store of a key wins). */
    void store(const std::string &key, const EvalResult &result);

    EvalCacheStats stats() const;

    /** Test seam: drops every entry and resets statistics. */
    void clear();

  private:
    EvalCache() = default;

    class Impl;
    Impl &impl() const;
};

} // namespace ulecc

#endif // ULECC_CORE_EVAL_CACHE_HH
