/**
 * @file
 * ICache implementation.
 */

#include "sim/icache.hh"

#include <string>

#include "base/error.hh"

namespace ulecc
{

namespace
{

bool
isPowerOfTwo(uint32_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

/**
 * The line count @p config describes.  lineIndex/tagOf divide by it
 * and lineAddr masks with lineBytes - 1, so a zero or non-power-of-two
 * geometry would fault (division by zero) or alias lines silently; it
 * is rejected here rather than by an assert that NDEBUG compiles out.
 */
uint32_t
checkedLineCount(const ICacheConfig &config)
{
    if (!isPowerOfTwo(config.lineBytes)
        || config.sizeBytes % config.lineBytes != 0
        || !isPowerOfTwo(config.sizeBytes / config.lineBytes)) {
        throw UleccError(Errc::InvalidInput,
                         "ICache: " + std::to_string(config.sizeBytes)
                         + " bytes in " + std::to_string(config.lineBytes)
                         + "-byte lines is not a power-of-two line "
                         "count");
    }
    return config.sizeBytes / config.lineBytes;
}

} // namespace

ICache::ICache(const ICacheConfig &config)
    : config_(config), lines_(checkedLineCount(config)),
      tags_(lines_, 0), valid_(lines_, false)
{}

void
ICache::invalidateAll()
{
    valid_.assign(lines_, false);
    bufValid_ = false;
}

uint32_t
ICache::access(uint32_t addr)
{
    stats_.accesses++;
    stats_.tagReads++;
    stats_.dataReads++;
    uint32_t idx = lineIndex(addr);
    uint32_t tag = tagOf(addr);
    if (valid_[idx] && tags_[idx] == tag) {
        stats_.hits++;
        return 0;
    }
    stats_.misses++;
    uint32_t la = lineAddr(addr);
    if (config_.prefetch && bufValid_ && bufLineAddr_ == la) {
        // Stream-buffer hit: forward to the processor and write the
        // line into the cache in the same cycle; start the next
        // prefetch.
        stats_.prefetchHits++;
        valid_[idx] = true;
        tags_[idx] = tag;
        stats_.dataWrites++;
        bufLineAddr_ = la + config_.lineBytes;
        stats_.prefetchFills++;
        return 0;
    }
    // Demand fill.
    valid_[idx] = true;
    tags_[idx] = tag;
    stats_.lineFills++;
    stats_.dataWrites++;
    if (config_.prefetch) {
        bufValid_ = true;
        bufLineAddr_ = la + config_.lineBytes;
        stats_.prefetchFills++;
    }
    return config_.missPenalty;
}

} // namespace ulecc
