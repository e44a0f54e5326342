/**
 * @file
 * OnceMap: a process-wide memo that fills each key exactly once,
 * with fills of distinct keys running in parallel.
 *
 * The map mutex is held only to find or insert a key's slot
 * (std::map nodes never move, so the slot reference stays valid);
 * the slot is then filled under its own mutex.  A worker computing
 * one key therefore never blocks a worker that wants another, and
 * callers racing on the same key wait for the single fill instead of
 * repeating it.
 *
 * A fill that throws leaves its slot empty and the exception
 * propagates; the next get() for that key retries -- the semantics
 * std::call_once specifies.  The slot uses a mutex and a ready flag
 * rather than std::once_flag because ThreadSanitizer's pthread_once
 * interceptor never releases a flag whose callable threw: the retry
 * would spin forever under the TSan preset.
 */

#ifndef ULECC_BASE_ONCE_MAP_HH
#define ULECC_BASE_ONCE_MAP_HH

#include <atomic>
#include <map>
#include <mutex>
#include <optional>

namespace ulecc
{

template <typename K, typename V>
class OnceMap
{
  public:
    /**
     * The value for @p key, computed by @p fill() on the first call
     * that finds the slot empty.  The reference stays valid for the
     * map's lifetime.
     */
    template <typename Fill>
    const V &
    get(const K &key, Fill &&fill)
    {
        Slot *slot;
        {
            std::lock_guard<std::mutex> lock(mtx_);
            slot = &slots_[key];
        }
        if (!slot->ready.load(std::memory_order_acquire)) {
            std::lock_guard<std::mutex> lock(slot->mtx);
            if (!slot->ready.load(std::memory_order_relaxed)) {
                slot->value.emplace(fill());
                slot->ready.store(true, std::memory_order_release);
            }
        }
        return *slot->value;
    }

  private:
    struct Slot
    {
        std::mutex mtx;
        std::atomic<bool> ready{false};
        std::optional<V> value;
    };

    std::mutex mtx_;
    std::map<K, Slot> slots_;
};

} // namespace ulecc

#endif // ULECC_BASE_ONCE_MAP_HH
