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
 * Contract (pinned by tests/test_par.cpp):
 *
 *  - The queues are unbounded and submit() never blocks or refuses.
 *  - The destructor is the only way to stop the pool: it runs every
 *    queued task, then joins the workers.  A task submitted by a
 *    running pool task always runs, also while the destructor drains,
 *    because it lands on that worker's own deque and the worker pops
 *    it before it exits.
 *  - Submitting from outside the pool once destruction has begun is a
 *    caller bug.
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
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Runs every queued task (and whatever those tasks submit), then
     * joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

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
     * Enqueues one task.  A task submitted from inside one of this
     * pool's workers lands on that worker's own deque; external
     * submissions land on the injection queue.  Tasks must not throw;
     * wrap fallible work in a Result-shaped closure (SweepRunner and
     * the service engine do exactly this).
     */
    void submit(std::function<void()> task);

    /** Blocks until every submitted task has finished running. */
    void wait();

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Tasks a worker took from another worker's deque. */
    uint64_t steals() const;

    /** Tasks a worker popped from its own deque. */
    uint64_t localPops() const;

    /** Tasks taken from the global injection queue. */
    uint64_t injectionPops() const;

  private:
    void workerLoop(unsigned me);
    bool takeTask(unsigned me, std::function<void()> &task);

    mutable std::mutex mtx_;
    std::condition_variable wake_;    ///< workers: work available/stop
    std::condition_variable drained_; ///< waiters: all tasks finished
    std::deque<std::function<void()>> injection_;
    std::vector<std::deque<std::function<void()>>> local_;
    std::vector<std::thread> workers_;
    size_t queued_ = 0;    ///< queued-not-started, across all deques
    size_t inFlight_ = 0;  ///< queued + currently executing
    uint64_t steals_ = 0;
    uint64_t localPops_ = 0;
    uint64_t injectionPops_ = 0;
    bool stop_ = false;
};

} // namespace ulecc

#endif // ULECC_PAR_THREAD_POOL_HH
