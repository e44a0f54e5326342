/**
 * @file
 * Sweep runner implementation.
 */

#include "par/sweep.hh"

#include <functional>
#include <map>
#include <utility>

#include "ec/curve.hh"
#include "par/thread_pool.hh"

namespace ulecc
{

namespace
{

/**
 * Submission order for a parallel run: round-robin across curves,
 * largest field first, input order within a curve.  A curve's first
 * point fills its op trace and fetch replays, and callers list every
 * arch of a curve side by side; submitted as listed, all workers
 * would queue on that one curve's memo slot.  Interleaved, each
 * worker fills a different curve, and the longest fills start first.
 */
std::vector<size_t>
curveInterleavedOrder(const std::vector<SweepPoint> &points)
{
    std::map<std::pair<int, CurveId>, std::vector<size_t>,
             std::greater<>> byCurve;
    for (size_t i = 0; i < points.size(); ++i) {
        CurveId c = points[i].curve;
        byCurve[{curveIdBits(c), c}].push_back(i);
    }
    std::vector<size_t> order;
    order.reserve(points.size());
    for (size_t round = 0; order.size() < points.size(); ++round) {
        for (const auto &entry : byCurve) {
            if (round < entry.second.size())
                order.push_back(entry.second[round]);
        }
    }
    return order;
}

} // namespace

SweepRunner::SweepRunner(const SweepConfig &config)
    : jobs_(config.serial ? 1
                          : config.jobs ? config.jobs
                                        : ThreadPool::defaultThreads())
{
}

std::vector<Result<EvalResult>>
SweepRunner::run(const std::vector<SweepPoint> &points) const
{
    std::vector<Result<EvalResult>> results;
    results.reserve(points.size());

    if (jobs_ <= 1 || points.size() <= 1) {
        for (const SweepPoint &p : points)
            results.push_back(
                evaluateChecked(p.arch, p.curve, p.options));
        return results;
    }

    // Pre-size, then let each task write its own input-order slot:
    // the result order is the input order whatever the submission
    // order, with no reassembly pass and no shared mutable state
    // between tasks.
    for (size_t i = 0; i < points.size(); ++i)
        results.push_back(Error{Errc::Internal, "sweep: not run"});

    ThreadPool pool(jobs_);
    for (size_t i : curveInterleavedOrder(points)) {
        pool.submit([&results, &points, i] {
            const SweepPoint &p = points[i];
            // evaluateChecked never throws; ThreadPool tasks must not.
            results[i] = evaluateChecked(p.arch, p.curve, p.options);
        });
    }
    pool.wait();
    return results;
}

} // namespace ulecc
