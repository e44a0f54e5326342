/**
 * @file
 * A small fixed-size thread pool over one FIFO run queue: the task
 * substrate for the parallel sweep runner and the crypto-as-a-service
 * engine.
 *
 * Every submit() appends to the one queue and idle workers take from
 * its front, so tasks start in submission order.  The workloads this
 * serves are coarse, CPU-bound, independent tasks (whole design-point
 * evaluations, whole service batch members -- tens of microseconds to
 * tens of milliseconds each), all submitted from outside the pool, so
 * one mutex around one queue is contention-free in practice and keeps
 * the scheduler easy to reason about.  Sized explicitly, via
 * $ULECC_JOBS, or from the host's hardware concurrency.
 *
 * Contract (pinned by tests/test_par.cpp):
 *
 *  - The queue is unbounded and submit() never blocks or refuses.
 *  - The destructor is the only way to stop the pool: it runs every
 *    queued task, then joins the workers.  A task submitted by a
 *    running pool task always runs, also while the destructor drains,
 *    because the submitting worker is still live and takes it before
 *    it exits.
 *  - Submitting from outside the pool once destruction has begun is a
 *    caller bug.
 */

#ifndef ULECC_PAR_THREAD_POOL_HH
#define ULECC_PAR_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ulecc
{

/** Fixed pool of workers over one FIFO run queue. */
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
     * Appends one task to the run queue.  Tasks must not throw; wrap
     * fallible work in a Result-shaped closure (SweepRunner and the
     * service executor do exactly this).
     */
    void submit(std::function<void()> task);

    /** Blocks until every submitted task has finished running. */
    void wait();

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop();

    std::mutex mtx_;
    std::condition_variable wake_;    ///< workers: work available/stop
    std::condition_variable drained_; ///< waiters: all tasks finished
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    size_t inFlight_ = 0;  ///< queued + currently executing
    bool stop_ = false;
};

} // namespace ulecc

#endif // ULECC_PAR_THREAD_POOL_HH
