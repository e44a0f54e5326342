/**
 * @file
 * Parallel design-space sweep runner.
 *
 * The paper's contribution is a sweep -- five security levels, two
 * field types, five acceleration points -- and every cell is one pure
 * evaluateChecked(arch, curve, options) call.  SweepRunner fans the
 * cells out over a fixed ThreadPool and reassembles the results in
 * deterministic submission order, so a parallel sweep is
 * indistinguishable from a serial one except in wall-clock time:
 * identical Result values, identical ordering, identical downstream
 * text (the bench harnesses pin this byte-for-byte).
 *
 * Points are submitted round-robin across curves, largest field
 * first, so the workers fill different curves' memos at once; each
 * result still lands in its input-order slot.
 *
 * Thread-safety relies on two properties of the layers below: every
 * global memo is safe to call concurrently (the curve registry, op
 * traces, measured kernels and fetch replays fill each key once
 * through a per-key OnceMap slot; the evaluation cache is
 * mutex-guarded), and the field-op observer hooks are thread-local.
 */

#ifndef ULECC_PAR_SWEEP_HH
#define ULECC_PAR_SWEEP_HH

#include <vector>

#include "core/evaluator.hh"

namespace ulecc
{

/** One design-space cell. */
struct SweepPoint
{
    MicroArch arch = MicroArch::Baseline;
    CurveId curve = CurveId::P192;
    EvalOptions options;
};

/** Sweep execution parameters. */
struct SweepConfig
{
    /**
     * Worker count: 0 sizes from $ULECC_JOBS / hardware concurrency;
     * 1 evaluates inline on the calling thread (no pool at all).
     */
    unsigned jobs = 0;
    /** Force inline evaluation regardless of @c jobs (--serial). */
    bool serial = false;
};

/** Fans design points out over a thread pool, in order. */
class SweepRunner
{
  public:
    explicit SweepRunner(const SweepConfig &config = {});

    /**
     * Evaluates every point and returns the results in input order:
     * result[i] corresponds to points[i] whatever the submission or
     * completion order was.  Unsupported cells come back as their
     * usual structured errors (Errc::Unsupported etc.), never as
     * exceptions.
     */
    std::vector<Result<EvalResult>>
    run(const std::vector<SweepPoint> &points) const;

    /** Workers run() will use (1 when serial). */
    unsigned jobs() const { return jobs_; }

  private:
    unsigned jobs_;
};

} // namespace ulecc

#endif // ULECC_PAR_SWEEP_HH
