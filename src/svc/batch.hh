/**
 * @file
 * Deadline-aware request batching for the service engine.
 *
 * The serving cost of a request splits into shared pass setup
 * (session/eval-context establishment, device datapath configuration,
 * the FullSim tier's co-simulation anchor) and per-request work.
 * Requests that share a (curve, microarch, op, degradation tier)
 * shape can ride one modelled device pass and amortize the setup --
 * the same lever a unified hardware accelerator pulls by keeping one
 * datapath hot across operations.
 *
 * The BatchFormer runs *on the discrete-event coordinator in virtual
 * time*: requests admitted by the service join the open batch for
 * their shape key, and a batch closes -- becoming ready for dispatch
 * as a single pooled task -- when the first of three triggers fires:
 *
 *  - size:     the batch reached maxSize members;
 *  - linger:   lingerNs of virtual time passed since the batch
 *              opened (a deadline the open batch itself carries; the
 *              coordinator merges the earliest one into its event
 *              order, so a batch that closes earlier leaves nothing
 *              behind);
 *  - deadline: the tightest member deadline no longer leaves
 *              deadlineSlack x the estimated pass length, so waiting
 *              any longer would convert latency into timeouts.
 *
 * Every decision is a pure function of coordinator state, so batch
 * composition -- and therefore every report/telemetry artifact -- is
 * byte-identical across serial runs and pools of any width.
 * With maxSize == 1 each request closes its own batch at join time,
 * reproducing the unbatched engine exactly.
 */

#ifndef ULECC_SVC_BATCH_HH
#define ULECC_SVC_BATCH_HH

#include <compare>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "svc/degrade.hh"
#include "svc/request.hh"

namespace ulecc
{

/** The coalescing shape: requests batch only within one key. */
struct BatchKey
{
    CurveId curve = CurveId::P192;
    MicroArch arch = MicroArch::Baseline;
    OpKind op = OpKind::Sign;
    ServiceTier tier = ServiceTier::FullSim;

    bool operator==(const BatchKey &) const = default;
};

/** Close policy + modelled amortization parameters. */
struct BatchPolicy
{
    uint32_t maxSize = 8;          ///< close trigger: member count
    /** Close trigger: virtual linger.  SvcConfig::validate() caps it
     * at 1e15 ns so openNs + lingerNs cannot wrap. */
    uint64_t lingerNs = 2'000'000;
    /** Close when the tightest deadline leaves less than this many
     * estimated pass lengths of headroom. */
    double deadlineSlack = 1.0;
    /**
     * Modelled fraction of a solo pass that is shared setup: a batch
     * of N costs (setup + N x work) where setup = fraction x solo and
     * work = solo - setup.  SvcConfig::validate() keeps it in
     * [0, 0.5) so even a fully amortized pass can never undercut half
     * a solo pass (deadline semantics of pathological sub-estimate
     * budgets are preserved).
     */
    double setupFraction = 0.25;
};

/** One request waiting inside a batch. */
struct BatchMember
{
    Request req;
    uint64_t estNs = 0;      ///< analytic solo estimate (shared shape)
    uint64_t enqueuedNs = 0; ///< virtual join time
};

/** A formed (closed or still open) batch. */
struct Batch
{
    uint64_t id = 0; ///< formation sequence number
    BatchKey key;
    std::vector<BatchMember> members;
    uint64_t openNs = 0;
    /** The linger deadline's place in the coordinator's (t, seq)
     * event order; it fires at openNs + lingerNs. */
    uint64_t lingerSeq = 0;
    const char *closeReason = "open";
};

/**
 * Coordinator-side batch former: groups admitted requests by shape
 * key and closes batches by size/linger/deadline pressure.  Not
 * thread-safe by design -- only the coordinator touches it.
 */
class BatchFormer
{
  public:
    /** @p policy must satisfy SvcConfig::validate() (maxSize >= 1).
     * Zero linger closes every batch at join: policy().maxSize is
     * then 1, whatever @p policy asked for. */
    explicit BatchFormer(const BatchPolicy &policy);

    /**
     * Adds an admitted request to the open batch for its shape
     * (opening one if needed).  A fresh batch that can linger
     * (maxSize > 1) takes its deadline's seq from @p nextSeq, the
     * coordinator's event sequence.  When the join itself closes the
     * batch (size or deadline pressure) the batch moves to the ready
     * queue, deadline and all, before this returns true.
     */
    bool join(const Request &req, ServiceTier tier, uint64_t estNs,
              uint64_t now, uint64_t &nextSeq);

    /** A pending linger deadline in the coordinator's event order. */
    struct Linger
    {
        uint64_t t = 0;
        uint64_t seq = 0;

        auto operator<=>(const Linger &) const = default;
    };

    /** The earliest (t, seq) linger deadline: the oldest open
     * batch's.  Empty when no batch is open. */
    std::optional<Linger> nextLinger() const;

    /** Closes the batch whose deadline nextLinger() reports, with
     * reason "linger".  Requires an open batch. */
    void closeNextLinger();

    /** Open batches: each one holds a pending linger deadline. */
    size_t openBatches() const { return open_.size(); }

    bool hasReady() const { return !ready_.empty(); }

    /** Pops the oldest ready batch (FIFO by close time). */
    Batch takeReady();

    /** Requests waiting (open batches + ready queue): the admission
     * depth the degradation/shedding policies see. */
    uint64_t waitingMembers() const { return waitingMembers_; }

    /** Sum of solo estimates over waiting requests (start-delay
     * estimation for deadline-budget shedding). */
    uint64_t waitingEstSumNs() const { return waitingEstSumNs_; }

    // Formation statistics (report counters).
    uint64_t closedTotal() const { return closedTotal_; }
    uint64_t closedBySize() const { return closedBySize_; }
    uint64_t closedByLinger() const { return closedByLinger_; }
    uint64_t closedByDeadline() const { return closedByDeadline_; }

    /** The policy that runs (the report echoes it). */
    const BatchPolicy &policy() const { return policy_; }

    /**
     * Modelled virtual-time length of one pass serving @p n members
     * whose solo cost is @p soloNs: setup once, work per member.
     */
    uint64_t passNs(uint64_t soloNs, uint64_t n) const;

  private:
    void close(std::vector<Batch>::iterator it, const char *reason);

    BatchPolicy policy_;
    /** Open batches, oldest first.  Joins come in event order and
     * every batch lingers the same lingerNs, so this is also (t, seq)
     * deadline order. */
    std::vector<Batch> open_;
    std::deque<Batch> ready_;
    uint64_t nextId_ = 0;
    uint64_t waitingMembers_ = 0;
    uint64_t waitingEstSumNs_ = 0;
    uint64_t closedTotal_ = 0;
    uint64_t closedBySize_ = 0;
    uint64_t closedByLinger_ = 0;
    uint64_t closedByDeadline_ = 0;
};

} // namespace ulecc

#endif // ULECC_SVC_BATCH_HH
