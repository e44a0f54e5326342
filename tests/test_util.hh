/**
 * @file
 * Shared test utilities: deterministic pseudo-random MpUint generation.
 */

#ifndef ULECC_TESTS_TEST_UTIL_HH
#define ULECC_TESTS_TEST_UTIL_HH

#include <cstdint>

#include "mpint/mpuint.hh"

namespace ulecc::test
{

/** Deterministic xorshift64* generator for reproducible property tests. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) : s_(seed) {}

    uint64_t
    next()
    {
        s_ ^= s_ >> 12;
        s_ ^= s_ << 25;
        s_ ^= s_ >> 27;
        return s_ * 0x2545F4914F6CDD1Dull;
    }

    uint32_t next32() { return static_cast<uint32_t>(next() >> 32); }

    /** Uniform-ish value in [0, bound). */
    uint64_t below(uint64_t bound) { return next() % bound; }

    /** Random MpUint with exactly @p bits bits (MSB set). */
    MpUint
    mp(int bits)
    {
        MpUint r;
        if (bits <= 0)
            return r;
        for (int i = 0; i < (bits + 31) / 32; ++i) {
            // Clear above, set the top bit.
            uint32_t word = next32();
            if (bits - 32 * i < 32)
                word &= (1u << (bits - 32 * i)) - 1;
            r.setLimb(i, word);
        }
        r.setBit(bits - 1);
        return r;
    }

    /** Random MpUint uniformly below @p bound (rejection-free mod). */
    MpUint
    mpBelow(const MpUint &bound)
    {
        return mp(bound.bitLength() + 17).mod(bound);
    }

  private:
    uint64_t s_;
};

} // namespace ulecc::test

#endif // ULECC_TESTS_TEST_UTIL_HH
