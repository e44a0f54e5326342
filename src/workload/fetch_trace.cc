/**
 * @file
 * Fetch-trace replay implementation.
 */

#include "workload/fetch_trace.hh"

#include <algorithm>

namespace ulecc
{

namespace
{

/** Static code map (word counts, -O2-typical footprints). */
struct CodeMap
{
    // Byte base addresses of each routine region.
    uint32_t shaBase, protoBase, scalarBase, pdblBase, paddBase;
    uint32_t mulBase, redBase, sqrBase, addBase, invBase, omulBase;

    static CodeMap
    build()
    {
        CodeMap m{};
        uint32_t a = 0;
        auto place = [&](uint32_t words) {
            uint32_t base = a;
            a += words * 4;
            return base;
        };
        m.shaBase = place(1400);    // SHA-256 + HMAC-DRBG
        m.protoBase = place(700);   // ECDSA driver, mod-n helpers
        m.scalarBase = place(400);  // window recode + scalar loop
        m.pdblBase = place(260);    // point doubling routine
        m.paddBase = place(280);    // mixed point addition routine
        m.mulBase = place(110);     // field multiply kernel
        m.redBase = place(120);     // NIST reduction kernel
        m.sqrBase = place(90);      // field squaring kernel
        m.addBase = place(40);      // field add/sub kernel
        m.invBase = place(130);     // EEA inversion kernel
        m.omulBase = place(130);    // order-field multiply + Barrett
        return m;
    }
};

/**
 * The code-map walk: turns the recorded field-operation sequence into
 * straight-line runs and loops over the code map.  It is the one copy
 * of the control flow; the sink decides how each fetch is counted.
 */
class Walker
{
  public:
    Walker(FetchSink &sink, int k)
        : sink_(sink), map_(CodeMap::build()), k_(k)
    {}

    void
    fieldOp(OpEvent ev)
    {
        // Caller glue alternates between the double and add routines,
        // mimicking the point-arithmetic control flow.
        uint32_t caller = (opIndex_ % 3 == 2) ? map_.paddBase
                                              : map_.pdblBase;
        sink_.block(caller + (opIndex_ * 52) % 800, 13);
        ++opIndex_;
        // Every handful of field ops the scalar loop advances.
        if (opIndex_ % 11 == 0)
            sink_.block(map_.scalarBase, 28);

        bool order = ev.domain() == OpDomain::OrderField;
        switch (ev.op()) {
          case FieldOp::Mul:
          case FieldOp::Sqr: {
            uint32_t base = order ? map_.omulBase
                : (ev.op() == FieldOp::Mul ? map_.mulBase
                                           : map_.sqrBase);
            // Nested multiply loops: outer k, inner k of ~9 words,
            // i.e. k*k back-to-back passes over the same body.
            sink_.loop(base + 16, 9, k_ * k_);
            sink_.block(base, 4);
            // Reduction sweep.
            sink_.loop(map_.redBase, 10, k_);
            sink_.block(map_.redBase + 40, 18);
            break;
          }
          case FieldOp::Add:
          case FieldOp::Sub:
            sink_.loop(map_.addBase, 12, k_);
            break;
          case FieldOp::Reduce:
            sink_.loop(map_.redBase, 10, k_);
            break;
          case FieldOp::Inv:
            // EEA: long loop over the inversion kernel + helpers.
            for (int it = 0; it < 2 * 32 * k_; ++it) {
                sink_.block(map_.invBase, 22);
                if (it % 7 == 0)
                    sink_.block(map_.addBase, 12);
            }
            break;
        }
    }

    void
    fixedOverhead(bool sign)
    {
        // Hash + (for signing) HMAC-DRBG: long streaming passes.
        int passes = sign ? 14 : 4;
        for (int i = 0; i < passes; ++i)
            sink_.block(map_.shaBase, 1100);
        sink_.block(map_.protoBase, 600);
        sink_.loop(map_.scalarBase, 120, 3); // recoding
    }

  private:
    FetchSink &sink_;
    CodeMap map_;
    int k_;
    uint64_t opIndex_ = 0;
};

/**
 * Replays the walk through the ICache one access per line run.
 *
 * Within a block, the words that follow the first fetch of a line
 * are fetched back to back from the line access() just left
 * resident, so they are all hits: they are credited in one counter
 * update instead of being looked up.  A loop pass that records no
 * miss changes neither the tag array nor the stream buffer (a
 * stream-buffer hit counts as a miss), so every later pass repeats
 * it exactly and the rest of the loop is credited in closed form.
 */
class LineReplayer final : public FetchSink
{
  public:
    explicit LineReplayer(const ICacheConfig &config) : cache_(config)
    {
        cache_.invalidateAll();
    }

    void
    block(uint32_t base, int words) override
    {
        const uint64_t line = cache_.config().lineBytes;
        uint64_t addr = base;
        const uint64_t end = addr + 4 * uint64_t(words);
        while (addr < end) {
            cache_.access(static_cast<uint32_t>(addr));
            // Words of this run: those before the next line boundary
            // (at least the one just fetched, for lines of <= 4 bytes).
            uint64_t next = (addr | (line - 1)) + 1;
            uint64_t run = (std::min(next, end) - addr + 3) / 4;
            residentHits_ += run - 1;
            addr += 4 * run;
        }
        fetches_ += words;
    }

    void
    loop(uint32_t base, int body, int iters) override
    {
        for (int it = 0; it < iters; ++it) {
            uint64_t misses = cache_.stats().misses;
            block(base, body);
            if (cache_.stats().misses == misses) {
                uint64_t rest = uint64_t(iters - it - 1) * body;
                residentHits_ += rest;
                fetches_ += rest;
                return;
            }
        }
    }

    FetchReplayResult
    result() const
    {
        FetchReplayResult out;
        out.stats = cache_.stats();
        out.stats.accesses += residentHits_;
        out.stats.hits += residentHits_;
        out.stats.tagReads += residentHits_;
        out.stats.dataReads += residentHits_;
        out.fetches = fetches_;
        return out;
    }

  private:
    ICache cache_;
    uint64_t fetches_ = 0;
    /** Fetches credited as hits without an ICache::access call. */
    uint64_t residentHits_ = 0;
};

} // namespace

void
walkFetchTrace(CurveId curve, FetchSink &sink)
{
    const EcdsaTrace &trace = ecdsaTrace(curve);
    const Curve &c = standardCurve(curve);
    Walker walk(sink, (c.fieldBits() + 31) / 32);
    walk.fixedOverhead(true);
    for (OpEvent ev : trace.signSeq)
        walk.fieldOp(ev);
    walk.fixedOverhead(false);
    for (OpEvent ev : trace.verifySeq)
        walk.fieldOp(ev);
}

FetchReplayResult
replayFetchTrace(CurveId curve, MicroArch arch, const ICacheConfig &config)
{
    (void)arch; // kernel footprints are arch-independent to first order
    LineReplayer rep(config);
    walkFetchTrace(curve, rep);
    return rep.result();
}

} // namespace ulecc
