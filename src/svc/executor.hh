/**
 * @file
 * The svc host executor: the real work behind each batch pass.
 *
 * The coordinator (svc/service.cc) decides everything in virtual
 * time and hands the executor the live members of each dispatched
 * pass.  The executor runs them -- checked sign/verify/ECDH against
 * lazily derived user sessions, chaos strikes, and for the FullSim
 * tier one co-simulation anchor per pass -- as pure functions of
 * (seed, id, attempt), on a work-stealing pool unless the run is
 * serial, and returns one future per pass.  It owns the curves'
 * signers and server keys, the session cache and the pool; the
 * coordinator sees only the arch list per curve and the outcomes.
 */

#ifndef ULECC_SVC_EXECUTOR_HH
#define ULECC_SVC_EXECUTOR_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "par/thread_pool.hh"
#include "svc/chaos.hh"
#include "svc/degrade.hh"
#include "svc/request.hh"

namespace ulecc
{

struct CurveCtx;
class SessionCache;
struct SvcConfig;

/** Outcome of one real execution (pure in (seed, id, attempt)). */
struct ExecOutcome
{
    Errc errc = Errc::Ok;
    ChaosClass chaos = ChaosClass::None;
    const char *chaosKind = "none";
    bool wrongAnswer = false;    ///< oracle mismatch, no structured error
    bool unstructured = false;   ///< a non-UleccError escaped
};

/** What one pass's real execution returns through its future. */
struct BatchExecResult
{
    std::vector<ExecOutcome> outcomes; ///< in launch order
    bool anchorMismatch = false; ///< shared FullSim co-sim disagreed
};

/** Runs batch passes for real; see the file comment. */
class Executor
{
  public:
    /** Builds a signer, ECDH context and server key for each curve of
     * @p config and records which archs model it. */
    explicit Executor(const SvcConfig &config);
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** The archs that model @p curve, in MicroArch order. */
    const std::vector<MicroArch> &archs(CurveId curve) const;

    /** Starts the pool (none for a serial run, which executes each
     * pass inline in launch()). */
    void start();

    /**
     * Launches one pass over @p reqs (non-empty) as a single pooled
     * task.  The task runs the shared setup once -- for the FullSim
     * tier, one co-simulation anchor cross-checking Pete against the
     * native bignum, a pure function of @p batchId -- then fans the
     * members out as subtasks on its worker's own deque, where idle
     * workers steal them.
     */
    std::future<BatchExecResult> launch(std::vector<Request> reqs,
                                        ServiceTier tier,
                                        uint64_t batchId);

    /** Waits for every launched pass and stops the pool. */
    void drain();

    /** Sessions derived and cache hits so far. */
    uint64_t sessionDerivations() const;
    uint64_t sessionHits() const;

  private:
    ExecOutcome execMember(const Request &req);

    uint64_t seed_;
    uint32_t chaosPercent_;
    unsigned jobs_;
    bool serial_;
    std::map<CurveId, std::unique_ptr<CurveCtx>> curves_;
    std::unique_ptr<SessionCache> sessions_;
    std::optional<ThreadPool> pool_;
};

} // namespace ulecc

#endif // ULECC_SVC_EXECUTOR_HH
