/**
 * @file
 * FIFO thread pool implementation.
 */

#include "par/thread_pool.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace ulecc
{

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

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    threads = std::min(threads, maxThreads);
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mtx_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mtx_);
        queue_.push_back(std::move(task));
        ++inFlight_;
    }
    wake_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mtx_);
    drained_.wait(lock, [this] { return inFlight_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mtx_);
            wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to run
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mtx_);
            if (--inFlight_ == 0)
                drained_.notify_all();
        }
    }
}

} // namespace ulecc
