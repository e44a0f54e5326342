/**
 * @file
 * HdrHistogram implementation (see hdr_histogram.hh for the layout).
 */

#include "obs/hdr_histogram.hh"

#include <bit>

namespace ulecc
{

namespace
{

constexpr uint64_t kSubBuckets = 1ull << HdrHistogram::kSubBucketBits;

} // namespace

size_t
HdrHistogram::bucketIndex(uint64_t value)
{
    if (value < kSubBuckets)
        return static_cast<size_t>(value);
    // exponent of the leading bit, >= kSubBucketBits here.
    int e = 63 - std::countl_zero(value);
    int shift = e - kSubBucketBits;
    uint64_t group = static_cast<uint64_t>(shift) + 1;
    uint64_t offset = (value >> shift) - kSubBuckets;
    return static_cast<size_t>(group * kSubBuckets + offset);
}

uint64_t
HdrHistogram::bucketLow(size_t index)
{
    if (index < kSubBuckets)
        return index;
    int shift = static_cast<int>(index >> kSubBucketBits) - 1;
    uint64_t offset = index & (kSubBuckets - 1);
    return (kSubBuckets + offset) << shift;
}

uint64_t
HdrHistogram::bucketHigh(size_t index)
{
    if (index < kSubBuckets)
        return index;
    int shift = static_cast<int>(index >> kSubBucketBits) - 1;
    return bucketLow(index) + ((1ull << shift) - 1);
}

void
HdrHistogram::record(uint64_t value)
{
    size_t idx = bucketIndex(value);
    if (idx >= counts_.size())
        counts_.resize(idx + 1, 0);
    ++counts_[idx];
    ++count_;
    if (value > max_)
        max_ = value;
    sum_ += value;
}

double
HdrHistogram::mean() const
{
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
}

uint64_t
HdrHistogram::percentilePermille(unsigned permille) const
{
    if (count_ == 0)
        return 0;
    // The rank the sorted-vector implementation would index.
    uint64_t rank = (count_ - 1) * static_cast<uint64_t>(permille) / 1000;
    uint64_t cumulative = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        cumulative += counts_[i];
        if (cumulative > rank) {
            // Report the bucket's upper edge (never undershoots the
            // true order statistic), clamped to the exact maximum so
            // the top of the distribution stays exact.
            uint64_t v = bucketHigh(i);
            return v > max_ ? max_ : v;
        }
    }
    return max_;
}

} // namespace ulecc
