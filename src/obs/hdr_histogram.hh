/**
 * @file
 * Log-bucketed HDR-style latency histogram.
 *
 * The service engine records one latency sample per completed request
 * over campaigns that can run indefinitely, so the recorder must be
 * bounded-memory -- a sorted vector (the previous implementation)
 * grows without limit and costs a full sort per percentile query.
 *
 * The scheme is the classic HDR layout: values below 2^kSubBucketBits
 * get one bucket each (exact); above that, every power-of-two range
 * is split into 2^kSubBucketBits equal sub-buckets, bounding the
 * relative quantization error at 2^-kSubBucketBits (3.125% for the
 * default 5 bits) with a fixed worst-case footprint of under 2k
 * buckets for the full uint64 range.  Buckets are allocated lazily up
 * to the largest recorded value, so an empty histogram is a handful
 * of words -- cheap enough that the timeline aggregator keeps one per
 * (window, op).
 *
 * Everything is integer arithmetic on fixed data: record and
 * percentile queries are exactly deterministic.  Count, max and sum
 * are tracked exactly -- only percentiles quantize.
 */

#ifndef ULECC_OBS_HDR_HISTOGRAM_HH
#define ULECC_OBS_HDR_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>


namespace ulecc
{

/** Bounded-memory log-bucketed histogram of uint64 values. */
class HdrHistogram
{
  public:
    /** Sub-bucket resolution: 2^kSubBucketBits sub-buckets per
     * power-of-two range; relative error bound 2^-kSubBucketBits. */
    static constexpr int kSubBucketBits = 5;

    /** Upper bound on the relative quantization error of percentile
     * queries (1/32 = 3.125% at the default resolution). */
    static constexpr double
    relativeErrorBound()
    {
        return 1.0 / (1ull << kSubBucketBits);
    }

    /** Adds one sample. */
    void record(uint64_t value);

    uint64_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Exact maximum/sum of the recorded samples (0 when empty). */
    uint64_t max() const { return max_; }
    uint64_t sum() const { return sum_; }

    /** Exact mean (0.0 when empty). */
    double mean() const;

    /**
     * The value at permille rank @p permille, matching sorted-vector
     * indexing semantics (sorted[(count - 1) * permille / 1000]) up
     * to bucket resolution: the result lands in the same bucket as
     * the exact order statistic and never undershoots it, so it is
     * within relativeErrorBound() above the true value.  0 when
     * empty.
     */
    uint64_t percentilePermille(unsigned permille) const;

    /** @name Bucket geometry (static, value-only)  */
    /** @{ */
    static size_t bucketIndex(uint64_t value);
    static uint64_t bucketLow(size_t index);
    static uint64_t bucketHigh(size_t index);
    /** @} */

  private:
    std::vector<uint64_t> counts_; ///< grown lazily to the top bucket
    uint64_t count_ = 0;
    uint64_t max_ = 0;
    uint64_t sum_ = 0;
};

} // namespace ulecc

#endif // ULECC_OBS_HDR_HISTOGRAM_HH
