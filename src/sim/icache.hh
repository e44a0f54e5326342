/**
 * @file
 * Direct-mapped instruction cache with optional single-entry stream
 * buffer prefetcher (paper Section 5.3).
 *
 * 16-byte lines; the line count (and thus the capacity) is a
 * construction parameter, matching the parameterizable Verilog design.
 * On a miss the processor slips for the miss penalty while a 128-bit
 * line is filled from the program ROM over the widened port.  The
 * prefetcher is Jouppi's stream buffer reduced to a single entry: on a
 * miss (or prefetch-buffer hit) the next sequential line is fetched
 * into the buffer; a fetch that misses the cache but hits the buffer
 * is forwarded with no stall while the line is written into the cache.
 */

#ifndef ULECC_SIM_ICACHE_HH
#define ULECC_SIM_ICACHE_HH

#include <cstdint>
#include <vector>

namespace ulecc
{

/** Instruction cache parameters. */
struct ICacheConfig
{
    uint32_t sizeBytes = 4096; ///< total capacity (power of two)
    uint32_t lineBytes = 16;   ///< 4 words, fixed by the ROM port width
    bool prefetch = false;     ///< enable the single-entry stream buffer
    uint32_t missPenalty = 3;  ///< slip cycles per ROM line fill
};

/** Cache statistics (part of the uncore energy accounting). */
struct ICacheStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t prefetchHits = 0;   ///< misses served by the stream buffer
    uint64_t lineFills = 0;      ///< demand fills from ROM
    uint64_t prefetchFills = 0;  ///< speculative fills from ROM
    uint64_t tagReads = 0;
    uint64_t dataReads = 0;
    uint64_t dataWrites = 0;

    double
    missRate() const
    {
        return accesses ? double(misses) / double(accesses) : 0.0;
    }
};

/** Behavioural + timing model of the direct-mapped I-cache. */
class ICache
{
  public:
    /**
     * @throws UleccError (Errc::InvalidInput) unless the capacity is a
     *         power-of-two number of power-of-two-sized lines.
     */
    explicit ICache(const ICacheConfig &config);

    /**
     * Models one instruction fetch at @p addr.
     *
     * @return Extra stall cycles (0 on hit or stream-buffer hit,
     *         missPenalty on a demand fill).  ROM wide reads performed
     *         are accumulated in romWideReads().
     */
    uint32_t access(uint32_t addr);

    /** Invalidates every line (the reset routine's cache init). */
    void invalidateAll();

    const ICacheConfig &config() const { return config_; }
    const ICacheStats &stats() const { return stats_; }

    /** Number of 128-bit ROM reads issued (demand + prefetch). */
    uint64_t romWideReads() const
    {
        return stats_.lineFills + stats_.prefetchFills;
    }

    uint32_t lines() const { return lines_; }

  private:
    uint32_t lineIndex(uint32_t addr) const
    {
        return (addr / config_.lineBytes) % lines_;
    }

    uint32_t tagOf(uint32_t addr) const
    {
        return addr / config_.lineBytes / lines_;
    }

    uint32_t lineAddr(uint32_t addr) const
    {
        return addr & ~(config_.lineBytes - 1);
    }

    ICacheConfig config_;
    uint32_t lines_;
    std::vector<uint32_t> tags_;
    std::vector<bool> valid_;
    // Single-entry stream buffer.
    bool bufValid_ = false;
    uint32_t bufLineAddr_ = 0;
    ICacheStats stats_;
};

} // namespace ulecc

#endif // ULECC_SIM_ICACHE_HH
