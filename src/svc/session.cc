/**
 * @file
 * Session cache implementation.
 */

#include "svc/session.hh"

#include <string>

#include "base/prng.hh"

namespace ulecc
{

namespace
{

/** Cache key: curve id in the top bits, user id below. */
uint64_t
sessionKey(CurveId curve, uint64_t userId)
{
    return (static_cast<uint64_t>(curve) << 56)
        ^ (userId & 0x00FFFFFFFFFFFFFFull);
}

/** Derives the user's private scalar: nonzero, < n, seed-stable. */
MpUint
derivePrivate(uint64_t seed, CurveId curve, uint64_t userId,
              const MpUint &n, int limbs)
{
    SplitMix64 rng(splitmix64Mix(seed, userId,
                                 static_cast<uint64_t>(curve) + 1));
    MpUint d;
    for (int i = 0; i < limbs; ++i)
        d.setLimb(i, static_cast<uint32_t>(rng.next()));
    d = d.mod(n);
    if (d.isZero())
        d = MpUint(1);
    return d;
}

} // namespace

Session
SessionCache::get(const Ecdsa &ecdsa, CurveId curve, uint64_t userId)
{
    uint64_t key = sessionKey(curve, userId);
    Shard &shard = shards_[splitmix64Mix(key) & (kShards - 1)];

    std::lock_guard<std::mutex> lock(shard.mtx);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }

    // Derivation happens under the shard lock on purpose: racing
    // requests for the same new user serialise here, so the miss
    // count stays a pure function of the traffic.
    const MpUint &n = ecdsa.curve().order();
    int limbs = (curveIdBits(curve) + 31) / 32;
    Session s;
    s.key = ecdsa.keyFromPrivate(
        derivePrivate(seed_, curve, userId, n, limbs));
    s.digest = sha256("ulecc-svc user " + std::to_string(userId)
                      + " curve " + curveIdName(curve));
    s.goldenSig = ecdsa.signDigest(s.key.d, s.digest);
    derivations_.fetch_add(1, std::memory_order_relaxed);
    return shard.map.emplace(key, std::move(s)).first->second;
}

} // namespace ulecc
