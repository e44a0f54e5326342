/**
 * @file
 * A small fixed-size work-stealing thread pool: the task substrate for
 * the parallel sweep runner and the crypto-as-a-service engine.
 *
 * Each worker owns a deque, external producers push to a global
 * injection queue, and an idle worker pops its own deque LIFO, then
 * the injection queue FIFO, then steals FIFO from a victim's deque
 * (scanning from its right-hand neighbour).  Tasks submitted *from
 * inside* a worker stay on that worker's deque, so uneven fan-out (a
 * batch that spawns follow-on work, a wide sweep with ragged task
 * sizes) does not serialize behind one queue position.
 *
 * The workloads this serves are coarse, CPU-bound tasks (whole
 * design-point evaluations, whole service batches -- tens of
 * microseconds to tens of milliseconds each), so one mutex guarding
 * every deque is contention-free in practice and keeps the scheduler
 * easy to reason about; the stealing is about *placement*, not about
 * lock-free throughput.  Sized explicitly, via $ULECC_JOBS, or from
 * the host's hardware concurrency.
 *
 * Robustness contract (pinned by tests/test_par.cpp):
 *
 *  - The queue may be *bounded*.  A bounded pool exerts backpressure
 *    on the total of queued-not-started tasks across every deque:
 *    submit() blocks until space frees, trySubmit() refuses instead of
 *    blocking -- the primitive admission control builds load shedding
 *    on.  An unbounded pool (the default) never blocks a producer.
 *  - Shutdown is *explicit and deterministic*.  shutdown(Drain) -- and
 *    the destructor, which calls it -- runs every queued task before
 *    the workers exit.  shutdown(Cancel) discards tasks that have not
 *    started and returns how many were dropped; tasks already
 *    executing always run to completion.  After either,
 *    submit()/trySubmit() refuse new work instead of deadlocking.
 *  - wait() observes cancellation: discarded tasks count as finished.
 */

#ifndef ULECC_PAR_THREAD_POOL_HH
#define ULECC_PAR_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ulecc
{

/** Fixed pool of workers over work-stealing deques. */
class ThreadPool
{
  public:
    /**
     * Starts @p threads workers (0 = defaultThreads()).  A pool of
     * one still runs tasks on its worker, preserving the submit/wait
     * contract; callers that want true inline execution should simply
     * not use a pool.
     *
     * @param maxQueued  Bound on *queued* (not yet executing) tasks,
     *                   summed across every deque; 0 = unbounded.
     *                   When the bound is reached, submit() blocks and
     *                   trySubmit() returns false.
     */
    explicit ThreadPool(unsigned threads = 0, size_t maxQueued = 0);

    /** Equivalent to shutdown(Shutdown::Drain). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** How shutdown treats tasks still sitting in the queue. */
    enum class Shutdown
    {
        Drain,  ///< run every queued task, then join the workers
        Cancel, ///< discard queued tasks, finish running ones, join
    };

    /**
     * Hard ceiling on pool width.  $ULECC_JOBS values above this clamp
     * down to it; explicit constructor arguments do too.  Far above any
     * sensible sweep width, low enough that a fat-fingered environment
     * cannot exhaust process resources spawning threads.
     */
    static constexpr unsigned maxThreads = 256;

    /**
     * Pool width the environment asks for: $ULECC_JOBS when it parses
     * cleanly as an integer >= 1 (clamped to maxThreads), otherwise the
     * hardware concurrency (>= 1).  Zero, negative, overflowing, or
     * non-numeric $ULECC_JOBS values fall back to the hardware width --
     * they can never produce a zero-worker pool (which would deadlock
     * submit/wait) or a resource-exhausting one.
     */
    static unsigned defaultThreads();

    /**
     * Enqueues one task, blocking while a bounded queue is full
     * (backpressure).  Returns false -- without running or keeping the
     * task -- if the pool has been shut down.  A task submitted from
     * inside one of this pool's workers lands on that worker's own
     * deque; external submissions land on the injection queue.  Tasks
     * must not throw; wrap fallible work in a Result-shaped closure
     * (SweepRunner and the service engine do exactly this).
     */
    bool submit(std::function<void()> task);

    /**
     * Non-blocking submit: false when the queue is full or the pool
     * has been shut down.  The admission-control primitive: a refused
     * task is the caller's cue to shed load instead of queueing it.
     */
    bool trySubmit(std::function<void()> task);

    /** Blocks until every submitted task has finished running (tasks
     * discarded by Cancel count as finished). */
    void wait();

    /**
     * Stops the pool.  Drain runs the queue dry first; Cancel discards
     * queued-not-started tasks.  Idempotent; concurrent submitters are
     * woken and refused.  Returns the number of tasks discarded (always
     * 0 for Drain).
     */
    size_t shutdown(Shutdown mode);

    /**
     * Discards every queued-not-started task without stopping the
     * workers; returns how many were dropped.  Currently-executing
     * tasks finish normally and the pool accepts new work afterwards.
     */
    size_t cancelPending();

    /** Tasks queued but not yet picked up by a worker (all deques). */
    size_t queueDepth() const;

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** The queue bound this pool was built with (0 = unbounded). */
    size_t maxQueued() const { return maxQueued_; }

    /** Tasks a worker took from another worker's deque. */
    uint64_t steals() const;

    /** Tasks a worker popped from its own deque. */
    uint64_t localPops() const;

    /** Tasks taken from the global injection queue. */
    uint64_t injectionPops() const;

  private:
    void workerLoop(unsigned me);
    bool takeTask(unsigned me, std::function<void()> &task);
    void enqueueLocked(std::function<void()> &&task);
    size_t queuedLocked() const { return queued_; }
    size_t dropQueuedLocked();

    mutable std::mutex mtx_;
    std::condition_variable wake_;    ///< workers: work available/stop
    std::condition_variable drained_; ///< waiters: all tasks finished
    std::condition_variable space_;   ///< producers: queue below bound
    std::deque<std::function<void()>> injection_;
    std::vector<std::deque<std::function<void()>>> local_;
    std::vector<std::thread> workers_;
    size_t maxQueued_ = 0; ///< 0 = unbounded
    size_t queued_ = 0;    ///< queued-not-started, across all deques
    size_t inFlight_ = 0;  ///< queued + currently executing
    uint64_t steals_ = 0;
    uint64_t localPops_ = 0;
    uint64_t injectionPops_ = 0;
    bool stop_ = false;
};

} // namespace ulecc

#endif // ULECC_PAR_THREAD_POOL_HH
