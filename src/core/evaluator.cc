/**
 * @file
 * Evaluator implementation.
 */

#include "core/evaluator.hh"

#include <cmath>
#include <map>
#include <mutex>
#include <tuple>

#include "core/eval_cache.hh"
#include "workload/fetch_trace.hh"
#include "workload/op_trace.hh"

namespace ulecc
{

bool
archSupportsCurve(MicroArch arch, CurveId curve)
{
    bool binary = curveIdIsBinary(curve);
    if (arch == MicroArch::Monte)
        return !binary;
    if (arch == MicroArch::Billie)
        return binary;
    return true;
}

namespace
{

/** Memoized fetch-trace replays (they cost tens of ms each). */
const FetchReplayResult &
cachedReplay(CurveId curve, MicroArch arch, const ICacheConfig &cfg)
{
    using Key = std::tuple<CurveId, MicroArch, uint32_t, bool>;
    static std::map<Key, FetchReplayResult> cache;
    static std::mutex mtx;
    Key key{curve, arch, cfg.sizeBytes, cfg.prefetch};
    std::lock_guard<std::mutex> lock(mtx);
    auto it = cache.find(key);
    if (it == cache.end())
        it = cache.emplace(key, replayFetchTrace(curve, arch, cfg)).first;
    return it->second;
}

OperationEval
composeOperation(const KernelModel &model, const OpCounts &counts,
                 bool is_sign, const EvalOptions &opt)
{
    MicroArch arch = model.arch();
    double cycles = 0, instructions = 0, mult = 0;
    double ram_r = 0, ram_w = 0;
    double ffau = 0, dma = 0, buf = 0, billie = 0;

    auto accumulate = [&](const OpCost &c, double n) {
        cycles += n * c.cycles;
        instructions += n * c.instructions;
        mult += n * c.multActiveCycles;
        ram_r += n * c.ramReads;
        ram_w += n * c.ramWrites;
        ffau += n * c.monteFfauCycles;
        dma += n * c.monteDmaCycles;
        buf += n * c.monteBufAccesses;
        billie += n * c.billieActiveCycles;
    };

    for (int d = 0; d < 2; ++d) {
        for (int o = 0; o < 6; ++o) {
            uint64_t n = counts.counts[d][o];
            if (!n)
                continue;
            accumulate(model.cost(static_cast<OpDomain>(d),
                                  static_cast<FieldOp>(o)),
                       static_cast<double>(n));
        }
    }
    accumulate(model.fixedOverhead(is_sign), 1.0);

    OperationEval ev;
    ev.events.instructions = static_cast<uint64_t>(instructions);
    ev.events.multActiveCycles = static_cast<uint64_t>(mult);
    ev.events.ramReads = static_cast<uint64_t>(ram_r);
    ev.events.ramWrites = static_cast<uint64_t>(ram_w);

    const bool real_icache = arch == MicroArch::IsaExtIcache;
    const bool ideal_icache = opt.idealIcache;
    if (real_icache && !ideal_icache) {
        ICacheConfig cfg;
        cfg.sizeBytes = opt.kernel.icacheBytes;
        cfg.prefetch = opt.kernel.icachePrefetch;
        const FetchReplayResult &rep =
            cachedReplay(model.curve(), arch, cfg);
        double scale = instructions / std::max<double>(1.0, rep.fetches);
        double misses = rep.stats.misses * scale;
        double stalling = rep.stallingMisses() * scale;
        double pf_fills = rep.stats.prefetchFills * scale;
        cycles += stalling * cfg.missPenalty;
        ev.events.hasIcache = true;
        ev.events.icacheBytes = cfg.sizeBytes;
        ev.events.icAccesses = ev.events.instructions;
        ev.events.icFills = static_cast<uint64_t>(
            rep.stats.lineFills * scale + pf_fills);
        ev.events.romWideReads = ev.events.icFills;
        (void)misses;
    } else if (ideal_icache) {
        ev.events.hasIcache = true;
        ev.events.idealIcache = true;
        ev.events.icacheBytes = 4096;
        ev.events.icAccesses = ev.events.instructions;
        ev.events.icFills = 0;
        ev.events.romWideReads = 0;
    } else {
        // Every retirement fetched a word from the ROM; constant-data
        // reads add a small extra stream.
        ev.events.romNarrowReads = static_cast<uint64_t>(
            instructions * 1.02);
    }

    if (arch == MicroArch::Monte) {
        ev.events.hasMonte = true;
        ev.events.monteFfauCycles = static_cast<uint64_t>(ffau);
        ev.events.monteDmaCycles = static_cast<uint64_t>(dma);
        ev.events.monteBufAccesses = static_cast<uint64_t>(buf);
    }
    if (arch == MicroArch::Billie) {
        ev.events.hasBillie = true;
        ev.events.billieBits = standardCurve(model.curve()).fieldBits();
        ev.events.billieActiveCycles = static_cast<uint64_t>(billie);
    }

    ev.cycles = static_cast<uint64_t>(cycles);
    ev.events.cycles = ev.cycles;
    return ev;
}

/** The cold path: composes one design point from scratch. */
EvalResult
evaluateUncached(MicroArch arch, CurveId curve,
                 const EvalOptions &options)
{
    KernelModel model(arch, curve, options.kernel);
    const EcdsaTrace &trace = ecdsaTrace(curve);

    EvalResult result;
    result.arch = arch;
    result.curve = curve;
    result.sign = composeOperation(model, trace.sign, true, options);
    result.verify = composeOperation(model, trace.verify, false, options);

    // The multiplier family re-points the calibrated per-active-cycle
    // mult power: the default Karatsuba descriptor's scale is exactly
    // 1.0, so the paper's design points keep bit-identical energy.
    PowerParams params = options.power;
    params.peteMultMw *=
        multiplierDesc(options.kernel.multiplier).multMwScale;
    PowerModel power(params);
    result.sign.energy = power.evaluate(result.sign.events);
    result.verify.energy = power.evaluate(result.verify.events);

    EventCounts combined = result.sign.events;
    combined += result.verify.events;
    result.avgPowerMw = power.averagePowerMw(combined);
    result.staticPowerMw = power.staticPowerMw(combined);
    return result;
}

} // namespace

EvalResult
evaluate(MicroArch arch, CurveId curve, const EvalOptions &options)
{
    EvalCache &cache = EvalCache::instance();
    // Pure function of the key, so memoization is observationally
    // invisible (see eval_cache.hh).
    std::string key = evalPointKey(arch, curve, options);
    if (std::optional<EvalResult> hit = cache.lookup(key))
        return *hit;
    EvalResult result = evaluateUncached(arch, curve, options);
    cache.store(key, result);
    return result;
}

Result<EvalResult>
evaluateChecked(MicroArch arch, CurveId curve, const EvalOptions &options)
{
    if (!archSupportsCurve(arch, curve)) {
        return Error{Errc::Unsupported,
                     "evaluate: " + curveIdName(curve)
                     + " is outside this accelerator's design space"};
    }
    try {
        return evaluate(arch, curve, options);
    } catch (const UleccError &e) {
        return e.error();
    } catch (const std::exception &e) {
        return Error{Errc::Internal,
                     std::string("evaluate: ") + e.what()};
    }
}

} // namespace ulecc
