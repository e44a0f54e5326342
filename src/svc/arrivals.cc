/**
 * @file
 * Arrival process implementation.
 */

#include "svc/arrivals.hh"

#include <algorithm>
#include <cmath>

namespace ulecc
{

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Bursty: return "bursty";
      case ArrivalKind::ClosedLoop: return "closed-loop";
    }
    return "unknown";
}

ArrivalGen::ArrivalGen(const ArrivalConfig &config, uint64_t seed)
    : cfg_(config), rng_(seed)
{
}

double
ArrivalGen::diurnalFactor(uint64_t tNs) const
{
    if (!cfg_.diurnal)
        return 1.0;
    // Quantized day curve: the sine is sampled once per segment (at
    // its midpoint), so the intensity is piecewise-constant and the
    // boundary-redraw thinning stays exact.
    uint64_t segNs = cfg_.dayNs / cfg_.diurnalSteps;
    uint64_t seg = (tNs % cfg_.dayNs) / segNs;
    if (seg >= cfg_.diurnalSteps)
        seg = cfg_.diurnalSteps - 1; // day not divisible by steps
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    double phase = kTwoPi
        * ((static_cast<double>(seg) + 0.5)
           / static_cast<double>(cfg_.diurnalSteps));
    return 1.0 + cfg_.diurnalAmp * std::sin(phase);
}

double
ArrivalGen::currentRate(uint64_t tNs) const
{
    double base = cfg_.ratePerSec;
    if (cfg_.kind == ArrivalKind::Bursty) {
        uint64_t period = cfg_.burstNs + cfg_.idleNs;
        if (period != 0) {
            uint64_t phase = tNs % period;
            base = phase < cfg_.burstNs
                ? cfg_.ratePerSec * cfg_.burstFactor
                : cfg_.ratePerSec / cfg_.burstFactor;
        }
    }
    return base * diurnalFactor(tNs);
}

uint64_t
ArrivalGen::nextBoundary(uint64_t tNs) const
{
    uint64_t boundary = UINT64_MAX;
    if (cfg_.kind == ArrivalKind::Bursty) {
        uint64_t period = cfg_.burstNs + cfg_.idleNs;
        if (period != 0) {
            uint64_t phase = tNs % period;
            uint64_t toBoundary = phase < cfg_.burstNs
                ? cfg_.burstNs - phase
                : period - phase;
            // A draw landing exactly on the boundary belongs to the
            // next phase, so the boundary itself is >= 1 ns away.
            boundary = tNs + (toBoundary ? toBoundary : period);
        }
    }
    if (cfg_.diurnal) {
        uint64_t segNs = cfg_.dayNs / cfg_.diurnalSteps;
        uint64_t intoSeg = (tNs % cfg_.dayNs) % segNs;
        uint64_t toSeg = segNs - intoSeg;
        uint64_t diurnalBoundary = tNs + (toSeg ? toSeg : segNs);
        boundary = std::min(boundary, diurnalBoundary);
    }
    return boundary;
}

double
ArrivalGen::expDrawSeconds(double rate)
{
    // 53-bit uniform in (0, 1]: never 0, so log() is finite.
    double u = (static_cast<double>(rng_.next() >> 11) + 1.0)
        * (1.0 / 9007199254740992.0);
    return -std::log(u) / rate;
}

uint64_t
ArrivalGen::next()
{
    for (;;) {
        double rate = currentRate(tNs_);
        double dtNs = expDrawSeconds(rate) * 1e9;
        // Saturate absurd draws so virtual time cannot overflow.
        if (dtNs > 9e15)
            dtNs = 9e15;
        uint64_t step = static_cast<uint64_t>(dtNs);
        uint64_t boundary = nextBoundary(tNs_);
        if (boundary == UINT64_MAX || tNs_ + step < boundary) {
            tNs_ += step;
            return tNs_;
        }
        // Crossed a phase/segment boundary: restart the draw from the
        // boundary at the new rate (exact by memorylessness).
        tNs_ = boundary;
    }
}

uint64_t
closedLoopThinkNs(uint64_t seed, uint64_t requestId, uint64_t meanNs)
{
    if (meanNs == 0)
        return 0;
    SplitMix64 rng(splitmix64Mix(seed, 0x7417Cull, requestId + 1));
    double u = (static_cast<double>(rng.next() >> 11) + 1.0)
        * (1.0 / 9007199254740992.0);
    double ns = -std::log(u) * static_cast<double>(meanNs);
    if (ns > 9e15)
        ns = 9e15;
    return static_cast<uint64_t>(ns);
}

} // namespace ulecc
