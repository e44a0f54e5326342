/**
 * @file
 * Design-space evaluator tests: the paper's headline factors must
 * emerge from the composed model (these are the reproduction's
 * acceptance criteria; exact paper bands in DESIGN.md).
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.hh"
#include "workload/fetch_trace.hh"
#include "workload/op_trace.hh"

using namespace ulecc;

TEST(OpTrace, DeterministicAndMemoized)
{
    const EcdsaTrace &a = ecdsaTrace(CurveId::P192);
    const EcdsaTrace &b = ecdsaTrace(CurveId::P192);
    EXPECT_EQ(&a, &b);
    EXPECT_TRUE(a.verifyOutcome);
    EXPECT_GT(a.sign.total(), 1000u);
    EXPECT_EQ(a.sign.total(), a.signSeq.size());
    EXPECT_EQ(a.verify.total(), a.verifySeq.size());
}

TEST(OpTrace, ShapeMatchesEcdsaStructure)
{
    for (CurveId id : {CurveId::P192, CurveId::P256, CurveId::B163}) {
        const EcdsaTrace &t = ecdsaTrace(id);
        // One group-order inversion per operation (k^-1 / s^-1).
        EXPECT_EQ(t.sign.get(OpDomain::OrderField, FieldOp::Inv), 1u);
        EXPECT_EQ(t.verify.get(OpDomain::OrderField, FieldOp::Inv), 1u);
        // Verification (twin mult) does more curve work than signing.
        EXPECT_GT(t.verify.get(OpDomain::CurveField, FieldOp::Mul),
                  t.sign.get(OpDomain::CurveField, FieldOp::Mul));
        // A few inversions for the precomputed tables + final convert.
        uint64_t invs = t.sign.get(OpDomain::CurveField, FieldOp::Inv);
        EXPECT_GE(invs, 1u);
        EXPECT_LE(invs, 4u);
    }
}

TEST(OpTrace, SequencesMatchGolden)
{
    // FNV-1a over the packed (domain, op) events of each curve's sign
    // and verify traces.  Any change to the order or kind of field ops
    // a scalar multiplication or an ECDSA step performs shows here,
    // curve by curve, before it moves a figure.
    auto fnv1a = [](const std::vector<OpEvent> &seq) {
        uint64_t h = 1469598103934665603ull;
        for (OpEvent e : seq) {
            h ^= e.packed;
            h *= 1099511628211ull;
        }
        return h;
    };
    struct Golden
    {
        CurveId id;
        uint64_t sign, verify;
    };
    const Golden kGolden[] = {
        {CurveId::P192, 0xd47abde9d386b828ull,
         0x20cda83634355686ull},
        {CurveId::P224, 0x5487960457d660bdull,
         0xfe57cb0eea12e4dbull},
        {CurveId::P256, 0x7f7f13924ff45e22ull,
         0x73d9aba18f88cc24ull},
        {CurveId::P384, 0xb641f54d66fd975dull,
         0x86f3594c3200ffeaull},
        {CurveId::P521, 0x93495162df07b599ull,
         0x9cd7c72124929177ull},
        {CurveId::B163, 0x304eaae0caf4c563ull,
         0x2b260c30bbdbe1d4ull},
        {CurveId::B233, 0x641f23783a8faafdull,
         0x32d9e8ced1a0d568ull},
        {CurveId::B283, 0x353095f2e92928bbull,
         0x5553dd0d63a064d2ull},
        {CurveId::B409, 0xa02d66e24ac2b865ull,
         0x8e74b1e18ae3f0efull},
        {CurveId::B571, 0x0de4d49ce78feddeull,
         0xec1e86b5d1e93823ull},
    };
    uint64_t total = 0;
    for (const Golden &g : kGolden) {
        const EcdsaTrace &t = ecdsaTrace(g.id);
        EXPECT_EQ(fnv1a(t.signSeq), g.sign) << curveIdName(g.id);
        EXPECT_EQ(fnv1a(t.verifySeq), g.verify) << curveIdName(g.id);
        total += t.signSeq.size() + t.verifySeq.size();
    }
    EXPECT_EQ(total, 160665u);
}

TEST(OpTrace, WorkScalesWithKeySize)
{
    uint64_t m192 = ecdsaTrace(CurveId::P192)
        .sign.get(OpDomain::CurveField, FieldOp::Mul);
    uint64_t m384 = ecdsaTrace(CurveId::P384)
        .sign.get(OpDomain::CurveField, FieldOp::Mul);
    // Roughly linear in the bit length (more doubles/adds).
    EXPECT_GT(m384, static_cast<uint64_t>(1.6 * m192));
    EXPECT_LT(m384, static_cast<uint64_t>(2.6 * m192));
}

TEST(KernelModel, IsaExtensionsSpeedUpMultiplication)
{
    KernelModel base(MicroArch::Baseline, CurveId::P192);
    KernelModel isa(MicroArch::IsaExt, CurveId::P192);
    double b = base.cost(OpDomain::CurveField, FieldOp::Mul).cycles;
    double i = isa.cost(OpDomain::CurveField, FieldOp::Mul).cycles;
    EXPECT_LT(i, b);
    EXPECT_GT(i, 0.4 * b);
}

TEST(KernelModel, MonteMulFollowsEq52)
{
    KernelModel monte(MicroArch::Monte, CurveId::P192);
    double cyc = monte.cost(OpDomain::CurveField, FieldOp::Mul)
        .monteFfauCycles;
    EXPECT_EQ(cyc, 151.0); // 2*36 + 36 + 7*3 + 22
}

TEST(KernelModel, BinarySoftwareMulIsPunishing)
{
    // Section 7.2: software-only binary multiplication is why binary
    // ECC is impractical without hardware support.
    KernelModel sw(MicroArch::Baseline, CurveId::B163);
    KernelModel isa(MicroArch::IsaExt, CurveId::B163);
    double ratio = sw.cost(OpDomain::CurveField, FieldOp::Mul).cycles
        / isa.cost(OpDomain::CurveField, FieldOp::Mul).cycles;
    EXPECT_GT(ratio, 4.0);
}

TEST(KernelModel, ArchCurveCompatibilityEnforced)
{
    EXPECT_TRUE(archSupportsCurve(MicroArch::Monte, CurveId::P192));
    EXPECT_FALSE(archSupportsCurve(MicroArch::Monte, CurveId::B163));
    EXPECT_TRUE(archSupportsCurve(MicroArch::Billie, CurveId::B163));
    EXPECT_FALSE(archSupportsCurve(MicroArch::Billie, CurveId::P192));
    EXPECT_TRUE(archSupportsCurve(MicroArch::Baseline, CurveId::B571));
}

TEST(FetchTrace, MissRateFallsWithCacheSize)
{
    double prev = 1.0;
    for (uint32_t size : {1024u, 2048u, 4096u, 8192u}) {
        ICacheConfig cfg;
        cfg.sizeBytes = size;
        FetchReplayResult r =
            replayFetchTrace(CurveId::P192, MicroArch::IsaExtIcache, cfg);
        EXPECT_LT(r.missRate(), prev) << size;
        prev = r.missRate();
    }
    // The working set is about 4 KB: an 8 KB cache almost never misses.
    EXPECT_LT(prev, 0.01);
}

TEST(FetchTrace, PrefetchServesSequentialMisses)
{
    ICacheConfig plain;
    plain.sizeBytes = 1024;
    ICacheConfig pf = plain;
    pf.prefetch = true;
    FetchReplayResult a =
        replayFetchTrace(CurveId::P192, MicroArch::IsaExtIcache, plain);
    FetchReplayResult b =
        replayFetchTrace(CurveId::P192, MicroArch::IsaExtIcache, pf);
    EXPECT_GT(b.stats.prefetchHits, 0u);
    EXPECT_LT(b.stallingMisses(), a.stallingMisses());
}

namespace
{

/**
 * Word-level replay of the same code-map walk: one ICache::access per
 * fetched word, every loop pass replayed.  The oracle for the line-
 * and loop-granular replay behind replayFetchTrace.
 */
class WordReplayer final : public FetchSink
{
  public:
    explicit WordReplayer(const ICacheConfig &config) : cache_(config)
    {
        cache_.invalidateAll();
    }

    void
    block(uint32_t base, int words) override
    {
        for (int i = 0; i < words; ++i)
            cache_.access(base + 4 * i);
        fetches_ += words;
    }

    void
    loop(uint32_t base, int body, int iters) override
    {
        for (int it = 0; it < iters; ++it)
            block(base, body);
    }

    const ICacheStats &stats() const { return cache_.stats(); }
    uint64_t fetches() const { return fetches_; }

  private:
    ICache cache_;
    uint64_t fetches_ = 0;
};

ICacheConfig
icacheConfig(uint32_t bytes, bool prefetch, uint32_t lineBytes = 16)
{
    ICacheConfig cfg;
    cfg.sizeBytes = bytes;
    cfg.prefetch = prefetch;
    cfg.lineBytes = lineBytes;
    return cfg;
}

std::string
curveParamName(const ::testing::TestParamInfo<CurveId> &info)
{
    std::string n = curveIdName(info.param);
    n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
    return n;
}

} // namespace

class FetchReplayOracle : public ::testing::TestWithParam<CurveId>
{};

TEST_P(FetchReplayOracle, LineReplayMatchesWordReplay)
{
    CurveId curve = GetParam();
    // Every curve: the sweep's 4 KB default and the smallest cache
    // with the stream buffer (the most misses and prefetch hits).
    std::vector<ICacheConfig> configs = {icacheConfig(4096, false),
                                         icacheConfig(1024, true)};
    if (curve == CurveId::P192) {
        // bench_fig7_12's grid, then the line geometries at the run
        // arithmetic's edges: 2- and 4-byte lines make every word its
        // own run (nothing to credit), 64-byte lines span block ends,
        // and a 4-line cache evicts loop bodies from themselves, so
        // most loops never reach a miss-free pass.
        for (uint32_t kb : {1u, 2u, 4u, 8u}) {
            for (bool prefetch : {false, true})
                configs.push_back(icacheConfig(kb * 1024, prefetch));
        }
        for (bool prefetch : {false, true}) {
            for (uint32_t line : {2u, 4u, 64u})
                configs.push_back(icacheConfig(2048, prefetch, line));
            configs.push_back(icacheConfig(64, prefetch));
        }
    }
    for (const ICacheConfig &cfg : configs) {
        SCOPED_TRACE(std::to_string(cfg.sizeBytes) + " B, "
                     + std::to_string(cfg.lineBytes) + "-byte lines"
                     + (cfg.prefetch ? ", prefetch" : ""));
        WordReplayer oracle(cfg);
        walkFetchTrace(curve, oracle);
        FetchReplayResult got =
            replayFetchTrace(curve, MicroArch::IsaExtIcache, cfg);
        const ICacheStats &want = oracle.stats();
        EXPECT_EQ(got.fetches, oracle.fetches());
        EXPECT_EQ(got.stats.accesses, want.accesses);
        EXPECT_EQ(got.stats.hits, want.hits);
        EXPECT_EQ(got.stats.misses, want.misses);
        EXPECT_EQ(got.stats.prefetchHits, want.prefetchHits);
        EXPECT_EQ(got.stats.lineFills, want.lineFills);
        EXPECT_EQ(got.stats.prefetchFills, want.prefetchFills);
        EXPECT_EQ(got.stats.tagReads, want.tagReads);
        EXPECT_EQ(got.stats.dataReads, want.dataReads);
        EXPECT_EQ(got.stats.dataWrites, want.dataWrites);
        EXPECT_EQ(got.stats.accesses, got.fetches);
    }
}

INSTANTIATE_TEST_SUITE_P(All, FetchReplayOracle,
    ::testing::Values(CurveId::P192, CurveId::P224, CurveId::P256,
                      CurveId::P384, CurveId::P521, CurveId::B163,
                      CurveId::B233, CurveId::B283, CurveId::B409,
                      CurveId::B571),
    curveParamName);

TEST(Evaluator, InvalidIcacheSizeFailsEveryTimeAndLeavesTheMemosUsable)
{
    // The fetch-replay memo's fill throws for a 3000-byte cache; a
    // throwing fill leaves its slot empty, so the second call retries
    // (and fails the same way) instead of finding a stale or
    // half-built entry.
    EvalOptions bad;
    bad.kernel.icacheBytes = 3000;
    for (int attempt = 0; attempt < 2; ++attempt) {
        Result<EvalResult> r =
            evaluateChecked(MicroArch::IsaExtIcache, CurveId::P224, bad);
        ASSERT_FALSE(r.ok()) << attempt;
        EXPECT_EQ(r.error().code, Errc::InvalidInput) << attempt;
    }
    Result<EvalResult> good =
        evaluateChecked(MicroArch::IsaExtIcache, CurveId::P224, {});
    ASSERT_TRUE(good.ok());
    EXPECT_GT(good.value().totalUj(), 0.0);
}

// ---------------------------------------------------------------------
// Headline design-space factors (paper abstract + Chapter 7).
// ---------------------------------------------------------------------

TEST(Evaluator, IsaExtensionFactorInBand)
{
    // Paper: 1.32x - 1.45x across prime key sizes (ours tracks the
    // same direction with a slightly wider spread at 521 bits).
    for (CurveId id : primeCurveIds()) {
        double base = evaluate(MicroArch::Baseline, id).totalUj();
        double isa = evaluate(MicroArch::IsaExt, id).totalUj();
        double factor = base / isa;
        EXPECT_GT(factor, 1.25) << curveIdName(id);
        EXPECT_LT(factor, 1.85) << curveIdName(id);
    }
}

TEST(Evaluator, MonteFactorInBand)
{
    // Paper: 5.17x - 6.34x.
    double f192 = evaluate(MicroArch::Baseline, CurveId::P192).totalUj()
        / evaluate(MicroArch::Monte, CurveId::P192).totalUj();
    EXPECT_GT(f192, 5.17);
    EXPECT_LT(f192, 6.34);
    // The benefit grows with security level (the paper's core claim).
    double f521 = evaluate(MicroArch::Baseline, CurveId::P521).totalUj()
        / evaluate(MicroArch::Monte, CurveId::P521).totalUj();
    EXPECT_GT(f521, f192);
}

TEST(Evaluator, IcacheFactorInBand)
{
    // Paper: ISA ext + 4 KB I$ = 1.67x - 2.08x vs baseline.
    for (CurveId id : {CurveId::P192, CurveId::P256, CurveId::P521}) {
        double base = evaluate(MicroArch::Baseline, id).totalUj();
        double ic = evaluate(MicroArch::IsaExtIcache, id).totalUj();
        double factor = base / ic;
        EXPECT_GT(factor, 1.60) << curveIdName(id);
        EXPECT_LT(factor, 2.40) << curveIdName(id);
    }
}

TEST(Evaluator, BinarySoftwareVsIsaFactorInBand)
{
    // Paper: binary ISA extensions beat software-only binary by
    // 6.40x - 8.46x.
    for (CurveId id : {CurveId::B163, CurveId::B233, CurveId::B283}) {
        double sw = evaluate(MicroArch::Baseline, id).totalUj();
        double isa = evaluate(MicroArch::IsaExt, id).totalUj();
        double factor = sw / isa;
        EXPECT_GT(factor, 5.8) << curveIdName(id);
        EXPECT_LT(factor, 9.5) << curveIdName(id);
    }
}

TEST(Evaluator, BillieVsMonteAtEquivalentSecurity)
{
    // Paper: 1.92x at 163/192-bit, converging at larger sizes.
    double monte192 = evaluate(MicroArch::Monte, CurveId::P192).totalUj();
    double billie163 =
        evaluate(MicroArch::Billie, CurveId::B163).totalUj();
    double factor = monte192 / billie163;
    EXPECT_GT(factor, 1.5);
    EXPECT_LT(factor, 2.4);
    // Convergence: at the top security level the gap closes.
    double monte521 = evaluate(MicroArch::Monte, CurveId::P521).totalUj();
    double billie571 =
        evaluate(MicroArch::Billie, CurveId::B571).totalUj();
    EXPECT_LT(monte521 / billie571, 1.3);
}

TEST(Evaluator, PowerOrderingMatchesFig710)
{
    EvalResult base = evaluate(MicroArch::Baseline, CurveId::P192);
    EvalResult isa = evaluate(MicroArch::IsaExt, CurveId::P192);
    EvalResult ic = evaluate(MicroArch::IsaExtIcache, CurveId::P192);
    EvalResult monte = evaluate(MicroArch::Monte, CurveId::P192);
    EvalResult billie = evaluate(MicroArch::Billie, CurveId::B163);
    // Baseline == ISA ext within 1 %.
    EXPECT_NEAR(isa.avgPowerMw / base.avgPowerMw, 1.0, 0.01);
    // Cache saves power; Monte saves more; Billie draws the most.
    EXPECT_LT(ic.avgPowerMw, base.avgPowerMw);
    EXPECT_LT(monte.avgPowerMw, ic.avgPowerMw);
    EXPECT_GT(billie.avgPowerMw, base.avgPowerMw);
    // Static share stays small (Section 7.4: ~8.5 %).
    EXPECT_LT(base.staticPowerMw / base.avgPowerMw, 0.12);
}

TEST(Evaluator, LatencyRegimeMatchesTable71)
{
    // Paper Table 7.1 (100K cycles): baseline P192 sign 26.9 / verify
    // 34.27; ours must land in the same regime.
    EvalResult base = evaluate(MicroArch::Baseline, CurveId::P192);
    EXPECT_NEAR(base.sign.cycles / 1e5, 26.9, 8.0);
    EXPECT_NEAR(base.verify.cycles / 1e5, 34.27, 10.0);
    EXPECT_GT(base.verify.cycles, base.sign.cycles);
    EvalResult monte = evaluate(MicroArch::Monte, CurveId::P192);
    EXPECT_NEAR(monte.sign.cycles / 1e5, 6.0, 3.0);
}

TEST(Evaluator, IdealIcacheImprovesEveryPeteConfig)
{
    // Fig 7.11: large benefit for baseline/ISA ext, small for Monte.
    EvalOptions ideal;
    ideal.idealIcache = true;
    double b = evaluate(MicroArch::Baseline, CurveId::P192).totalUj();
    double bi = evaluate(MicroArch::Baseline, CurveId::P192,
                         ideal).totalUj();
    double m = evaluate(MicroArch::Monte, CurveId::P192).totalUj();
    double mi = evaluate(MicroArch::Monte, CurveId::P192,
                         ideal).totalUj();
    double base_gain = b / bi;
    double monte_gain = m / mi;
    EXPECT_GT(base_gain, 1.3);
    EXPECT_LT(monte_gain, base_gain);
    EXPECT_GT(monte_gain, 0.99);
}

TEST(Evaluator, DoubleBufferAblation)
{
    // Section 7.7: double buffering saves ~9.4 % at 192-bit and
    // ~13.5 % at 384-bit (the saving grows with key size).
    auto energy = [](CurveId id, bool db) {
        EvalOptions opt;
        opt.kernel.monteDoubleBuffer = db;
        return evaluate(MicroArch::Monte, id, opt).totalUj();
    };
    double gain192 = 1.0 - energy(CurveId::P192, true)
        / energy(CurveId::P192, false);
    double gain384 = 1.0 - energy(CurveId::P384, true)
        / energy(CurveId::P384, false);
    EXPECT_GT(gain192, 0.03);
    EXPECT_LT(gain192, 0.20);
    EXPECT_GT(gain384, 0.03);
    EXPECT_LT(gain384, 0.20);
}

TEST(Evaluator, EnergyMonotoneInKeySize)
{
    for (MicroArch arch : {MicroArch::Baseline, MicroArch::IsaExt,
                           MicroArch::Monte}) {
        double prev = 0;
        for (CurveId id : primeCurveIds()) {
            double e = evaluate(arch, id).totalUj();
            EXPECT_GT(e, prev) << microArchName(arch) << " "
                               << curveIdName(id);
            prev = e;
        }
    }
}

TEST(Evaluator, BreakdownComponentsConsistent)
{
    EvalResult r = evaluate(MicroArch::Monte, CurveId::P256);
    EnergyBreakdown e = r.totalEnergy();
    EXPECT_GT(e.monteUj, 0.0);
    EXPECT_EQ(e.billieUj, 0.0);
    EXPECT_GT(e.peteUj, 0.0);
    EXPECT_NEAR(e.totalUj(), r.totalUj(), 1e-9);
    // Section 7.1: with Monte, Pete is still the dominant consumer.
    EXPECT_GT(e.peteUj, e.monteUj * 0.6);
    // ROM energy collapses relative to the baseline share.
    EvalResult base = evaluate(MicroArch::Baseline, CurveId::P256);
    EXPECT_LT(e.romUj / e.totalUj(),
              0.5 * base.totalEnergy().romUj
                  / base.totalEnergy().totalUj());
}
