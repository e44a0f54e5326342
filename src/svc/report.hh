/**
 * @file
 * The svc campaign report: the timing-free "ulecc.svc.v1" JSON
 * document and its human-readable summary, as functions of what the
 * campaign ran (config and batch policy) and what it counted.
 */

#ifndef ULECC_SVC_REPORT_HH
#define ULECC_SVC_REPORT_HH

#include <cstdint>
#include <string>

#include "core/json.hh"
#include "energy/power_model.hh"
#include "obs/hdr_histogram.hh"
#include "svc/service.hh"

namespace ulecc
{

/**
 * The coordinator's timing-free totals beyond SvcCounters: latency
 * and occupancy histograms, device events and energy by account, and
 * the session and virtual-time figures read at the end of the run.
 * Accumulated only by the coordinator, in deterministic event order.
 */
struct SvcTotals
{
    HdrHistogram okLatency;
    HdrHistogram batchOccupancy; ///< live members per executed pass
    EventCounts opEvents[kNumOps];
    double opUj[kNumOps] = {0, 0, 0};
    uint64_t opServed[kNumOps] = {0, 0, 0};
    double analyticUj = 0;
    double cancelledUj = 0;
    uint64_t busyNs = 0; ///< charged worker-busy virtual time
    uint64_t sessionDerivations = 0;
    uint64_t sessionHits = 0;
    /** Time of the last event acted on. */
    uint64_t virtualEndNs = 0;

    /** All charged energy, summed in one fixed order (analytic,
     * cancelled, then each op) so every reader gets the same bits. */
    double
    totalUj() const
    {
        double total = analyticUj + cancelledUj;
        for (double uj : opUj)
            total += uj;
        return total;
    }
};

/** The "ulecc.svc.v1" report.  @p policy is the batch policy that
 * ran, which differs from cfg.batch when zero linger forced size 1. */
Json svcReport(const SvcConfig &cfg, const BatchPolicy &policy,
               const SvcCounters &counters, const SvcTotals &totals);

/** The summary printed by svc_run. */
std::string svcReportText(const SvcCounters &counters,
                          const SvcTotals &totals);

} // namespace ulecc

#endif // ULECC_SVC_REPORT_HH
