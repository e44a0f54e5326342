/**
 * @file
 * Evaluation memo implementation.
 */

#include "core/eval_cache.hh"

#include <map>
#include <mutex>

#include "core/hexfloat.hh"

namespace ulecc
{

namespace
{

/** Renders an ordered field list as "f0;f1;...". */
class KeyWriter
{
  public:
    void add(uint64_t v) { field(std::to_string(v)); }
    void add(int v) { field(std::to_string(v)); }
    void add(bool v) { field(v ? "1" : "0"); }
    void add(double v) { field(hexDouble(v)); }

    std::string take() { return std::move(out_); }

  private:
    void
    field(const std::string &text)
    {
        if (!out_.empty())
            out_ += ';';
        out_ += text;
    }

    std::string out_;
};

} // namespace

std::string
evalPointKey(MicroArch arch, CurveId curve, const EvalOptions &options)
{
    const KernelModelOptions &k = options.kernel;
    const PowerParams &p = options.power;
    KeyWriter w;
    w.add(static_cast<int>(arch));
    w.add(static_cast<int>(curve));
    w.add(static_cast<uint64_t>(k.icacheBytes));
    w.add(k.icachePrefetch);
    w.add(k.monteDoubleBuffer);
    w.add(k.billieDigit);
    // The multiplier design point, by id AND by the descriptor
    // coefficients it resolves to: a re-calibrated family table must
    // miss stale entries exactly like a re-calibrated PowerParams.
    const MultiplierDesc &md = multiplierDesc(k.multiplier);
    w.add(static_cast<int>(k.multiplier));
    w.add(static_cast<uint64_t>(md.multLatency));
    w.add(static_cast<uint64_t>(md.macLatency));
    w.add(static_cast<uint64_t>(md.gf2Latency));
    w.add(md.multMwScale);
    w.add(md.areaKge);
    w.add(options.idealIcache);
    // Every power coefficient, exactly: a design point is only "the
    // same" if the whole calibration is.
    for (double coeff : {p.clockNs, p.peteClockMw, p.peteInstMw,
                         p.peteMultMw, p.peteLeakMw,
                         p.uncoreLeakMwPerKb, p.uncoreLeakBaseMw,
                         p.uncoreAccessPj, p.uncoreMissPj,
                         p.monteFfauPjPerCycle, p.monteDmaPjPerCycle,
                         p.monteBufPjPerAccess, p.monteLeakMw,
                         p.billieLeakMwPerBit, p.billieLeakBaseMw,
                         p.billiePjPerCycleBase, p.billiePjPerCyclePerBit,
                         p.billieIdleFloor, p.accelGatingFactor,
                         p.romReadScale, p.romLeakMw})
        w.add(coeff);
    return w.take();
}

class EvalCache::Impl
{
  public:
    std::mutex mtx;
    std::map<std::string, EvalResult> memo;
    EvalCacheStats stats;
};

EvalCache::Impl &
EvalCache::impl() const
{
    static Impl impl;
    return impl;
}

EvalCache &
EvalCache::instance()
{
    static EvalCache cache;
    return cache;
}

std::optional<EvalResult>
EvalCache::lookup(const std::string &key)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mtx);
    auto it = im.memo.find(key);
    if (it == im.memo.end()) {
        ++im.stats.misses;
        return std::nullopt;
    }
    ++im.stats.hits;
    return it->second;
}

void
EvalCache::store(const std::string &key, const EvalResult &result)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mtx);
    im.memo.emplace(key, result);
}

EvalCacheStats
EvalCache::stats() const
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mtx);
    return im.stats;
}

void
EvalCache::clear()
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mtx);
    im.memo.clear();
    im.stats = EvalCacheStats{};
}

} // namespace ulecc
