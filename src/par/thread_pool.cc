/**
 * @file
 * Work-stealing thread pool implementation.
 */

#include "par/thread_pool.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace ulecc
{

namespace
{

/**
 * Identity of the pool worker running on this thread, if any: lets a
 * nested submit() land on the submitting worker's own deque instead
 * of the injection queue.
 */
struct WorkerIdentity
{
    ThreadPool *pool = nullptr;
    unsigned index = 0;
};

thread_local WorkerIdentity tlsWorker;

} // namespace

unsigned
ThreadPool::defaultThreads()
{
    // Strict parse: the whole string must be one base-10 integer.  A
    // partial parse ("8x"), an empty value, or an out-of-long-range
    // value is a configuration error and falls back to the hardware
    // width rather than guessing.  The historical bug here was
    // `static_cast<unsigned>(strtol(env))`: ULECC_JOBS=4294967296
    // wrapped to a zero-worker pool (submit/wait deadlock) and
    // ULECC_JOBS=1000000 tried to spawn a million threads.
    if (const char *env = std::getenv("ULECC_JOBS")) {
        char *end = nullptr;
        errno = 0;
        long n = std::strtol(env, &end, 10);
        bool clean = end != env && end != nullptr && *end == '\0'
            && errno != ERANGE;
        if (clean && n >= 1)
            return static_cast<unsigned>(
                std::min<long>(n, maxThreads));
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads, size_t maxQueued)
    : maxQueued_(maxQueued)
{
    if (threads == 0)
        threads = defaultThreads();
    threads = std::min(threads, maxThreads);
    local_.resize(threads);
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    shutdown(Shutdown::Drain);
}

void
ThreadPool::enqueueLocked(std::function<void()> &&task)
{
    if (tlsWorker.pool == this) {
        // Nested submission: keep the task hot on the submitting
        // worker's own deque (popped LIFO by that worker, stolen FIFO
        // by idle ones).
        local_[tlsWorker.index].push_back(std::move(task));
    } else {
        injection_.push_back(std::move(task));
    }
    ++queued_;
    ++inFlight_;
}

bool
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mtx_);
        if (maxQueued_)
            space_.wait(lock, [this] {
                return stop_ || queued_ < maxQueued_;
            });
        if (stop_)
            return false;
        enqueueLocked(std::move(task));
    }
    wake_.notify_one();
    return true;
}

bool
ThreadPool::trySubmit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mtx_);
        if (stop_ || (maxQueued_ && queued_ >= maxQueued_))
            return false;
        enqueueLocked(std::move(task));
    }
    wake_.notify_one();
    return true;
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mtx_);
    drained_.wait(lock, [this] { return inFlight_ == 0; });
}

size_t
ThreadPool::dropQueuedLocked()
{
    size_t dropped = injection_.size();
    injection_.clear();
    for (auto &dq : local_) {
        dropped += dq.size();
        dq.clear();
    }
    queued_ -= dropped;
    inFlight_ -= dropped;
    return dropped;
}

size_t
ThreadPool::shutdown(Shutdown mode)
{
    size_t dropped = 0;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        if (mode == Shutdown::Cancel)
            dropped = dropQueuedLocked();
        stop_ = true;
        if (inFlight_ == 0)
            drained_.notify_all();
    }
    wake_.notify_all();
    space_.notify_all();
    for (std::thread &w : workers_) {
        if (w.joinable())
            w.join();
    }
    return dropped;
}

size_t
ThreadPool::cancelPending()
{
    size_t dropped = 0;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        dropped = dropQueuedLocked();
        if (inFlight_ == 0)
            drained_.notify_all();
    }
    space_.notify_all();
    return dropped;
}

size_t
ThreadPool::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return queued_;
}

uint64_t
ThreadPool::steals() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return steals_;
}

uint64_t
ThreadPool::localPops() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return localPops_;
}

uint64_t
ThreadPool::injectionPops() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return injectionPops_;
}

bool
ThreadPool::takeTask(unsigned me, std::function<void()> &task)
{
    // Own deque first, newest task first: nested work stays cache-hot
    // on the worker that created it.
    if (!local_[me].empty()) {
        task = std::move(local_[me].back());
        local_[me].pop_back();
        ++localPops_;
        --queued_;
        return true;
    }
    // Then the global injection queue, in submission order.
    if (!injection_.empty()) {
        task = std::move(injection_.front());
        injection_.pop_front();
        ++injectionPops_;
        --queued_;
        return true;
    }
    // Finally steal: scan victims starting at the right-hand
    // neighbour, taking their *oldest* task (FIFO end) -- the one
    // most likely to be cold for the victim and largest-grained.
    unsigned n = static_cast<unsigned>(local_.size());
    for (unsigned k = 1; k < n; ++k) {
        unsigned victim = (me + k) % n;
        if (!local_[victim].empty()) {
            task = std::move(local_[victim].front());
            local_[victim].pop_front();
            ++steals_;
            --queued_;
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(unsigned me)
{
    tlsWorker.pool = this;
    tlsWorker.index = me;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mtx_);
            wake_.wait(lock, [this] { return stop_ || queued_ != 0; });
            if (!takeTask(me, task))
                return; // stop_ set and nothing left anywhere
        }
        space_.notify_one();
        task();
        {
            std::lock_guard<std::mutex> lock(mtx_);
            if (--inFlight_ == 0)
                drained_.notify_all();
        }
    }
}

} // namespace ulecc
