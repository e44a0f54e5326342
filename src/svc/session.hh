/**
 * @file
 * Sharded per-user session cache with lazy key derivation.
 *
 * The service fronts synthetic populations of up to millions of
 * users; materialising every key pair up front would dwarf the
 * traffic itself.  Instead a user's session -- private scalar, public
 * point, canonical message digest, and a known-good signature over it
 * -- is derived deterministically from (campaign seed, user id,
 * curve) on first touch and cached in a mutex-sharded map.
 *
 * Determinism across serial and parallel execution: the derivation is
 * a pure function of its key, and it runs *under the shard lock*, so
 * two racing requests for the same new user produce exactly one
 * derivation (the second is a hit).  Hit/miss counters therefore
 * depend only on which users the traffic touches, never on thread
 * interleaving.
 */

#ifndef ULECC_SVC_SESSION_HH
#define ULECC_SVC_SESSION_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "ecdsa/ecdsa.hh"

namespace ulecc
{

/** One user's cached cryptographic material on one curve. */
struct Session
{
    KeyPair key;
    Sha256Digest digest;  ///< the user's canonical message digest
    Signature goldenSig;  ///< known-good signature over digest
};

/** Lazily-derived, mutex-sharded (user, curve) -> Session cache. */
class SessionCache
{
  public:
    /** Lock shards (a power of two); the report echoes it. */
    static constexpr unsigned kShards = 16;

    explicit SessionCache(uint64_t seed) : seed_(seed) {}

    /**
     * The session for @p userId on @p ecdsa's curve, deriving it on
     * first touch.  Returned by value: the copy is what makes the
     * reference safe to use outside the shard lock.
     */
    Session get(const Ecdsa &ecdsa, CurveId curve, uint64_t userId);

    /** Sessions derived (== distinct (user, curve) pairs touched). */
    uint64_t derivations() const { return derivations_.load(); }

    /** Lookups served from cache. */
    uint64_t hits() const { return hits_.load(); }

  private:
    struct Shard
    {
        std::mutex mtx;
        std::unordered_map<uint64_t, Session> map;
    };

    uint64_t seed_;
    Shard shards_[kShards];
    std::atomic<uint64_t> derivations_{0};
    std::atomic<uint64_t> hits_{0};
};

} // namespace ulecc

#endif // ULECC_SVC_SESSION_HH
