/**
 * @file
 * The benchmark's workload process.  run.py starts it once per
 * measured unit and reads the one JSON object it prints on stdout.
 *
 *   perfbench_worker sweep [--serial]
 *       One cold design-space sweep: builds the ten curves (set-up),
 *       then evaluates the union of the paper suite's design points
 *       through SweepRunner.  Cold is the property being measured and
 *       the memos cannot be cleared through the API, so every sweep
 *       is its own process.
 *
 *   perfbench_worker svc --traffic mix|burst --seed N --stream J
 *                        --seconds S [--trace]
 *       Set-up (curves, eval-memo warm-up, a short untimed campaign), then
 *       back-to-back campaigns of the stated traffic until S seconds
 *       have passed.  --trace adds the first campaign's counters and a
 *       serial re-run of it.
 *
 *   perfbench_worker probe
 *       Times the public entry point of each module from outside, in a
 *       fresh process so the memoized ones are cold.
 *
 *   perfbench_worker selftest
 *       Checks that the result digest changes when a single bit of an
 *       evaluated design point (low, middle or high, in integer and
 *       double fields) is flipped.
 *
 * Only public library functions are called; all timing is
 * steady_clock wall time and getrusage CPU time taken around them.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/eval_cache.hh"
#include "core/evaluator.hh"
#include "core/hexfloat.hh"
#include "ec/scalar_mult.hh"
#include "ecdsa/ecdh.hh"
#include "ecdsa/ecdsa.hh"
#include "par/sweep.hh"
#include "svc/chaos.hh"
#include "svc/service.hh"
#include "svc/session.hh"
#include "workload/asm_kernels.hh"
#include "workload/fetch_trace.hh"
#include "workload/op_trace.hh"

using namespace ulecc;

namespace
{

const CurveId kAllCurves[] = {
    CurveId::P192, CurveId::P224, CurveId::P256, CurveId::P384,
    CurveId::P521, CurveId::B163, CurveId::B233, CurveId::B283,
    CurveId::B409, CurveId::B571,
};

const MicroArch kAllArchs[] = {
    MicroArch::Baseline, MicroArch::IsaExt, MicroArch::IsaExtIcache,
    MicroArch::Monte,    MicroArch::Billie,
};

/** The svc default traffic curves (the ones with per-op probes). */
const CurveId kSvcCurves[] = {CurveId::P192, CurveId::B163,
                              CurveId::P256};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)
        + 1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/**
 * Peak resident memory of this process image.  VmHWM rather than
 * getrusage's ru_maxrss: Linux carries ru_maxrss across exec, so a
 * worker started from a larger parent would report the parent's peak.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        throw UleccError(Errc::Internal, "cannot read /proc/self/status");
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f))
        std::sscanf(line, "VmHWM: %ld kB", &kib);
    std::fclose(f);
    if (kib < 0)
        throw UleccError(Errc::Internal, "no VmHWM in /proc/self/status");
    return double(kib) / 1024.0;
}

/** Host threads the benchmark may use: min(nproc, 4). */
unsigned
benchJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 4u);
}

/** Metric-name suffix of a curve: "P192" ... "B571". */
std::string
curveKey(CurveId id)
{
    return (curveIdIsBinary(id) ? "B" : "P")
        + std::to_string(curveIdBits(id));
}

// --- output --------------------------------------------------------------

/** Accumulates one flat JSON object of numbers and strings. */
class JsonLine
{
  public:
    void
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        field(key, buf);
    }

    void
    str(const std::string &key, const std::string &v)
    {
        field(key, "\"" + v + "\"");
    }

    void
    list(const std::string &key, const std::vector<double> &vs)
    {
        std::string s = "[";
        for (size_t i = 0; i < vs.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "",
                          vs[i]);
            s += buf;
        }
        field(key, s + "]");
    }

    void
    strs(const std::string &key, const std::vector<std::string> &vs)
    {
        std::string s = "[";
        for (size_t i = 0; i < vs.size(); ++i)
            s += (i ? ",\"" : "\"") + vs[i] + "\"";
        field(key, s + "]");
    }

    void
    print() const
    {
        std::printf("{%s}\n", body_.c_str());
        std::fflush(stdout);
    }

  private:
    void
    field(const std::string &key, const std::string &raw)
    {
        if (!body_.empty())
            body_ += ",";
        body_ += "\"" + key + "\":" + raw;
    }

    std::string body_;
};

// --- result digests ------------------------------------------------------

/** FNV-1a 64 of @p text, as 16 hex digits. */
std::string
fnv1a(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

void
appendU(std::string &s, uint64_t v)
{
    s += std::to_string(v);
    s += ',';
}

void
appendD(std::string &s, double v)
{
    s += hexDouble(v);
    s += ',';
}

void
appendOp(std::string &s, const OperationEval &o)
{
    const EventCounts &e = o.events;
    for (uint64_t v : {o.cycles, e.cycles, e.instructions,
                       e.multActiveCycles, e.romNarrowReads,
                       e.romWideReads, e.ramReads, e.ramWrites,
                       uint64_t(e.hasIcache), uint64_t(e.idealIcache),
                       uint64_t(e.icacheBytes), e.icAccesses, e.icFills,
                       uint64_t(e.hasMonte), e.monteFfauCycles,
                       e.monteDmaCycles, e.monteBufAccesses,
                       uint64_t(e.hasBillie), uint64_t(e.billieBits),
                       e.billieActiveCycles})
        appendU(s, v);
    const EnergyBreakdown &g = o.energy;
    for (double v : {g.peteUj, g.ramUj, g.romUj, g.uncoreUj, g.monteUj,
                     g.billieUj, g.staticUj})
        appendD(s, v);
}

/** Canonical, bit-exact text of one evaluation (doubles as hexfloats). */
std::string
evalText(const EvalResult &r)
{
    std::string s = microArchName(r.arch);
    s += '/';
    s += curveIdName(r.curve);
    s += ':';
    appendOp(s, r.sign);
    appendOp(s, r.verify);
    appendD(s, r.avgPowerMw);
    appendD(s, r.staticPowerMw);
    return s;
}

// --- design-sweep --------------------------------------------------------

/**
 * The union of the design points the paper suite registers, each
 * once: the supported (arch, curve) cells, Fig 7.11 ideal-I$, the
 * Fig 7.12 P-192 I$ grid, Sec 7.7 Monte without double-buffering, and
 * the multspace grid for the three non-default multipliers.
 */
std::vector<SweepPoint>
designPoints()
{
    std::vector<SweepPoint> pts;
    std::set<std::string> seen;
    auto add = [&](MicroArch arch, CurveId curve, const EvalOptions &o) {
        if (seen.insert(evalPointKey(arch, curve, o)).second)
            pts.push_back(SweepPoint{arch, curve, o});
    };
    for (CurveId c : kAllCurves) {
        for (MicroArch a : kAllArchs) {
            if (archSupportsCurve(a, c))
                add(a, c, {});
        }
    }
    EvalOptions ideal;
    ideal.idealIcache = true;
    for (CurveId c : kAllCurves) {
        for (MicroArch a : {MicroArch::Baseline, MicroArch::IsaExt})
            add(a, c, ideal);
    }
    for (uint32_t kb : {1u, 2u, 4u, 8u}) {
        for (bool prefetch : {false, true}) {
            EvalOptions o;
            o.kernel.icacheBytes = kb * 1024;
            o.kernel.icachePrefetch = prefetch;
            add(MicroArch::IsaExtIcache, CurveId::P192, o);
        }
    }
    EvalOptions dbOff;
    dbOff.kernel.monteDoubleBuffer = false;
    for (CurveId c : primeCurveIds())
        add(MicroArch::Monte, c, dbOff);
    for (MultiplierVariant v :
         {MultiplierVariant::Schoolbook, MultiplierVariant::Karatsuba2,
          MultiplierVariant::ClmulWide}) {
        EvalOptions o;
        o.kernel.multiplier = v;
        for (CurveId c : {CurveId::P192, CurveId::P256, CurveId::P384}) {
            for (MicroArch a : {MicroArch::Baseline, MicroArch::IsaExt,
                                MicroArch::IsaExtIcache, MicroArch::Monte})
                add(a, c, o);
        }
        for (CurveId c : {CurveId::B163, CurveId::B283}) {
            for (MicroArch a : {MicroArch::Baseline, MicroArch::IsaExt,
                                MicroArch::IsaExtIcache, MicroArch::Billie})
                add(a, c, o);
        }
    }
    return pts;
}

int
cmdSweep(bool serial)
{
    const EvalCacheStats before = EvalCache::instance().stats();
    double t0 = now();
    for (CurveId c : kAllCurves)
        standardCurve(c);
    double setup = now() - t0;

    std::vector<SweepPoint> points = designPoints();
    SweepConfig sc;
    sc.jobs = benchJobs();
    sc.serial = serial;
    double cpu0 = cpuSeconds();
    double t1 = now();
    std::vector<Result<EvalResult>> results = SweepRunner(sc).run(points);
    double wall = now() - t1;
    double cpu = cpuSeconds() - cpu0;

    std::vector<std::string> digests;
    uint64_t errors = 0;
    for (const Result<EvalResult> &r : results) {
        if (r.ok()) {
            digests.push_back(fnv1a(evalText(r.value())));
        } else {
            ++errors;
            digests.push_back(errcName(r.code()));
        }
    }
    const EvalCacheStats after = EvalCache::instance().stats();

    JsonLine out;
    out.num("setup_s", setup);
    out.num("sweep_s", wall);
    out.num("cpu_s", cpu);
    out.num("points", double(points.size()));
    out.num("errors", double(errors));
    out.strs("point_digests", digests);
    out.num("cold", before.hits == 0 && before.misses == 0
                        && before.persistedLoads == 0);
    out.num("eval_hits", double(after.hits));
    out.num("eval_misses", double(after.misses));
    out.num("peak_rss_mb", peakRssMb());
    out.print();
    return 0;
}

// --- svc-mix / svc-burst -------------------------------------------------

/** The campaign each svc workload runs (the seed varies per run). */
SvcConfig
trafficConfig(const std::string &traffic, uint64_t seed, bool serial)
{
    SvcConfig cfg;
    cfg.seed = seed;
    cfg.jobs = benchJobs();
    cfg.serial = serial;
    cfg.chaos.percent = 0;
    if (traffic == "mix") {
        // The default mix: {P-192, B-163, P-256}, all archs, 256
        // users, open-loop Poisson at 200 req/s; every policy at its
        // default but the deadline factor.  At the default 16x,
        // deadline-budget admission sheds a cheap request queued
        // behind a P-256 Baseline one in about one campaign in six
        // (one in 150 at 100 req/s); at 64x none of 170 campaigns
        // shed, so every final is a completed request.
        cfg.requests = 100;
        cfg.arrivals.kind = ArrivalKind::Poisson;
        cfg.arrivals.ratePerSec = 200.0;
        cfg.deadlineFactor = 64.0;
    } else {
        // The bench_svc shape: one cheap curve, deep bursty queues,
        // FullSim pinned, batching max 16 / linger 8 ms.
        cfg.requests = 500;
        cfg.users = 64;
        cfg.curves = {CurveId::P192};
        cfg.arrivals.kind = ArrivalKind::Bursty;
        cfg.arrivals.ratePerSec = 2000.0;
        cfg.queueCap = 100000;
        cfg.deadlineFactor = 1e6;
        cfg.deadlineFloorNs = 1ull << 60;
        cfg.degrade.memoizedDepth = 100000;
        cfg.degrade.analyticDepth = 200000;
        cfg.batch.maxSize = 16;
        cfg.batch.lingerNs = 8'000'000;
    }
    return cfg;
}

struct Campaign
{
    double wall = 0;
    double cpu = 0;
    SvcCounters counters;
    std::string digest;
};

Campaign
runCampaign(const SvcConfig &cfg)
{
    Server server(cfg);
    Campaign c;
    double cpu0 = cpuSeconds();
    double t0 = now();
    server.run();
    c.wall = now() - t0;
    c.cpu = cpuSeconds() - cpu0;
    c.counters = server.counters();
    c.digest = fnv1a(server.report().dump());
    return c;
}

uint64_t
finals(const SvcCounters &c)
{
    return c.completedOk + c.failed;
}

int
cmdSvc(const std::string &traffic, uint64_t seed, uint64_t stream,
       double seconds, bool trace)
{
    // Campaign i of stream j: the run seed itself for the first
    // campaign of stream 0 (the one with a recorded digest), an
    // independent derived seed otherwise.
    auto seedOf = [&](uint64_t i) {
        return stream == 0 && i == 0 ? seed
                                     : splitmix64Mix(seed, stream + 1, i);
    };
    const SvcConfig first = trafficConfig(traffic, seedOf(0), false);

    double t0 = now();
    std::vector<SweepPoint> warm;
    for (CurveId c : first.curves) {
        standardCurve(c);
        for (MicroArch a : kAllArchs) {
            if (archSupportsCurve(a, c))
                warm.push_back(SweepPoint{a, c, {}});
        }
    }
    SweepConfig sc;
    sc.jobs = benchJobs();
    SweepRunner(sc).run(warm);
    // A short untimed campaign: the first campaign in a process pays
    // first-touch costs (up to 2x its wall time) that a tenth of one
    // campaign already absorbs.
    SvcConfig warmup = first;
    warmup.requests = first.requests / 10;
    runCampaign(warmup);
    double setup = now() - t0;

    std::vector<Campaign> runs;
    double start = now();
    do {
        runs.push_back(
            runCampaign(trafficConfig(traffic, seedOf(runs.size()), false)));
    } while (now() - start < seconds);

    std::vector<double> fin, wall;
    double cpu = 0;
    uint64_t generated = 0, ok = 0, wrong = 0, unstructured = 0;
    for (const Campaign &c : runs) {
        fin.push_back(double(finals(c.counters)));
        wall.push_back(c.wall);
        cpu += c.cpu;
        generated += c.counters.generated;
        ok += c.counters.completedOk;
        wrong += c.counters.wrongAnswers;
        unstructured += c.counters.unstructuredExceptions;
    }

    JsonLine out;
    out.num("setup_s", setup);
    out.list("finals", fin);
    out.list("wall_s", wall);
    out.num("generated", double(generated));
    out.num("completed_ok", double(ok));
    out.num("wrong_answers", double(wrong));
    out.num("unstructured_exceptions", double(unstructured));
    out.str("digest", runs[0].digest);
    out.num("cpu_s", cpu);
    if (trace) {
        const SvcCounters &k = runs[0].counters;
        out.num("batch_passes", double(k.batchPassesExecuted));
        out.num("batch_members", double(k.batchMembersTotal));
        out.num("cosim_anchors", double(k.batchCosimAnchors));
        out.num("tier_fullsim", double(k.tierFullSim));
        out.num("tier_memoized", double(k.tierMemoized));
        out.num("tier_analytic", double(k.tierAnalytic));
        out.num("shed_depth", double(k.shedDepth));
        out.num("shed_deadline", double(k.shedDeadlineBudget));
        out.num("retries", double(k.retriesScheduled));
        const EvalCacheStats ec = EvalCache::instance().stats();
        out.num("eval_hits", double(ec.hits));
        out.num("eval_misses", double(ec.misses));
        // The first campaign again, inline on the coordinator: the
        // engine's parallel speed-up on this traffic.
        Campaign s = runCampaign(trafficConfig(traffic, seedOf(0), true));
        out.num("serial_wall_s", s.wall);
        out.num("serial_digest_agrees", s.digest == runs[0].digest);
    }
    out.num("peak_rss_mb", peakRssMb());
    out.print();
    return 0;
}

// --- per-layer probe -----------------------------------------------------

/** Runs @p op until ~@p budget seconds pass; mean seconds per call. */
template <typename F>
double
perCall(F &&op, double budget = 0.02)
{
    uint64_t n = 0;
    double t0 = now(), t = t0;
    do {
        op();
        ++n;
        t = now();
    } while (t - t0 < budget);
    return (t - t0) / double(n);
}

MpUint
randomBelow(SplitMix64 &rng, int words, const MpUint &bound)
{
    MpUint v;
    for (int i = 0; i < words; ++i)
        v.setLimb(i, static_cast<uint32_t>(rng.next()));
    return v.mod(bound);
}

int
cmdProbe()
{
    JsonLine out;
    SplitMix64 rng(2026);

    // ec: cold curve construction (the registry memoizes it).
    for (CurveId c : kAllCurves) {
        double t0 = now();
        standardCurve(c);
        out.num("ec.curve_build_ms." + curveKey(c), 1e3 * (now() - t0));
    }

    // mpint: field mul/sqr/inv through each curve's field().
    volatile uint32_t sink = 0;
    for (CurveId c : kAllCurves) {
        const Curve &curve = standardCurve(c);
        double mul = 0, sqr = 0, inv = 0;
        if (const auto *pc = dynamic_cast<const PrimeCurve *>(&curve)) {
            const PrimeField &f = pc->field();
            MpUint a = randomBelow(rng, f.words(), f.modulus());
            MpUint b = randomBelow(rng, f.words(), f.modulus());
            mul = perCall([&] { a = f.mul(a, b); });
            sqr = perCall([&] { b = f.sqr(b); });
            inv = perCall([&] { a = f.inv(a.isZero() ? b : a); });
            sink = sink + a.limb(0) + b.limb(0);
        } else {
            const auto &bc = dynamic_cast<const BinaryCurve &>(curve);
            const BinaryField &f = bc.field();
            MpUint mask = MpUint::powerOfTwo(f.bits()).sub(MpUint(1));
            MpUint a = randomBelow(rng, f.words() + 1, mask);
            MpUint b = randomBelow(rng, f.words() + 1, mask);
            mul = perCall([&] { a = f.mul(a, b); });
            sqr = perCall([&] { b = f.sqr(b); });
            inv = perCall([&] { a = f.inv(a.isZero() ? b : a); });
            sink = sink + a.limb(0) + b.limb(0);
        }
        out.num("mpint.mul_ns." + curveKey(c), 1e9 * mul);
        out.num("mpint.sqr_ns." + curveKey(c), 1e9 * sqr);
        out.num("mpint.inv_us." + curveKey(c), 1e6 * inv);
    }

    // ec point multiplication and ecdsa/ecdh on the svc curves.
    for (CurveId c : kSvcCurves) {
        const Curve &curve = standardCurve(c);
        const std::string key = curveKey(c);
        Ecdsa ecdsa(curve);
        Ecdh ecdh(curve);
        MpUint d = randomBelow(rng, 20, curve.order());
        MpUint e = randomBelow(rng, 20, curve.order());
        KeyPair kp = ecdsa.keyFromPrivate(d);
        AffinePoint peer = ecdh.publicPoint(e);
        Sha256Digest digest = sha256("perfbench " + key);
        out.num("ec.scalar_mul_ms." + key, 1e3 * perCall([&] {
            scalarMul(curve, e, curve.generator());
        }, 0.05));
        out.num("ec.twin_mul_ms." + key, 1e3 * perCall([&] {
            twinScalarMul(curve, d, curve.generator(), e, kp.q);
        }, 0.05));
        Signature sig = ecdsa.signDigestChecked(d, digest).value();
        out.num("ecdsa.sign_ms." + key, 1e3 * perCall([&] {
            ecdsa.signDigestChecked(d, digest).value();
        }, 0.05));
        out.num("ecdsa.verify_ms." + key, 1e3 * perCall([&] {
            if (!ecdsa.verifyDigestChecked(kp.q, digest, sig).value())
                throw UleccError(Errc::Internal, "probe verify failed");
        }, 0.05));
        out.num("ecdsa.ecdh_ms." + key, 1e3 * perCall([&] {
            ecdh.agreeChecked(d, peer).value();
        }, 0.05));
    }

    // workload: cold op traces, fetch replays, kernel-model builds.
    double traceS = 0;
    uint64_t traceOps = 0;
    for (CurveId c : kAllCurves) {
        double t0 = now();
        const EcdsaTrace &tr = ecdsaTrace(c);
        double s = now() - t0;
        traceS += s;
        traceOps += tr.sign.total() + tr.verify.total();
        out.num("workload.op_trace_ms." + curveKey(c), 1e3 * s);
    }
    out.num("workload.op_trace_ops", double(traceOps));
    out.num("workload.op_trace_ns_per_op", 1e9 * traceS / double(traceOps));

    double replayS = 0;
    uint64_t fetches = 0;
    for (CurveId c : kAllCurves) {
        double t0 = now();
        FetchReplayResult r =
            replayFetchTrace(c, MicroArch::IsaExtIcache, ICacheConfig{});
        double s = now() - t0;
        replayS += s;
        fetches += r.fetches;
        out.num("workload.fetch_replay_ms." + curveKey(c), 1e3 * s);
    }
    out.num("workload.fetch_replay_fetches", double(fetches));
    out.num("workload.fetch_replay_ns_per_fetch",
            1e9 * replayS / double(fetches));
    double t0 = now();
    for (uint32_t kb : {1u, 2u, 4u, 8u}) {
        for (bool prefetch : {false, true}) {
            ICacheConfig ic;
            ic.sizeBytes = kb * 1024;
            ic.prefetch = prefetch;
            replayFetchTrace(CurveId::P192, MicroArch::IsaExtIcache, ic);
        }
    }
    out.num("workload.fetch_replay_icache_grid_ms", 1e3 * (now() - t0));

    std::set<std::string> cells;
    std::vector<SweepPoint> models;
    for (const SweepPoint &p : designPoints()) {
        std::string k = std::string(microArchName(p.arch)) + "/"
            + curveIdName(p.curve) + "/"
            + multiplierVariantName(p.options.kernel.multiplier);
        if (cells.insert(k).second)
            models.push_back(p);
    }
    t0 = now();
    for (const SweepPoint &p : models)
        KernelModel(p.arch, p.curve, p.options.kernel);
    out.num("workload.kernel_model_ms", 1e3 * (now() - t0));
    out.num("workload.kernel_model_calls", double(models.size()));

    // sim: Pete throughput on the MulOs kernel; the FullSim co-sim.
    {
        MpUint a = randomBelow(rng, 6, nistPrimeValue(NistPrime::P192));
        MpUint b = randomBelow(rng, 6, nistPrimeValue(NistPrime::P192));
        uint64_t instr = 0;
        double s = perCall([&] {
            instr = runKernel(AsmKernel::MulOs, a, b, 6).instructions;
        }, 0.05);
        out.num("sim.kernel_mips", double(instr) / s / 1e6);
        SplitMix64 crng(7);
        bool mismatch = false;
        out.num("sim.cosim_anchor_us", 1e6 * perCall([&] {
            chaosCosim(crng, &mismatch);
        }, 0.05));
        if (mismatch)
            throw UleccError(Errc::Internal, "probe co-sim mismatch");
    }

    // energy: one power-model evaluation.
    {
        EvalResult r = evaluate(MicroArch::IsaExtIcache, CurveId::P192);
        PowerModel pm;
        double acc = 0;
        out.num("energy.power_eval_ns", 1e9 * perCall([&] {
            acc += pm.evaluate(r.sign.events).peteUj;
        }, 0.01));
        sink = sink + static_cast<uint32_t>(acc);
    }

    // svc: cold session derivation per user on the svc curves.
    for (CurveId c : kSvcCurves) {
        Ecdsa ecdsa(standardCurve(c));
        SessionCache sessions(2026);
        uint64_t user = 0;
        out.num("svc.session_derive_ms." + curveKey(c), 1e3 * perCall([&] {
            sessions.get(ecdsa, c, user++);
        }, 0.05));
    }
    (void)sink;
    out.num("peak_rss_mb", peakRssMb());
    out.print();
    return 0;
}

// --- digest self-test ----------------------------------------------------

template <typename T>
void
flipBit(T &v, unsigned bit)
{
    static_assert(sizeof(T) == 8);
    uint64_t u;
    std::memcpy(&u, &v, 8);
    u ^= 1ull << bit;
    std::memcpy(&v, &u, 8);
}

int
cmdSelftest()
{
    const EvalResult base = evaluate(MicroArch::IsaExtIcache, CurveId::P192);
    const std::string ref = fnv1a(evalText(base));
    int failures = 0, checks = 0;
    auto expectChange = [&](const char *what, EvalResult r) {
        ++checks;
        if (fnv1a(evalText(r)) == ref) {
            std::fprintf(stderr, "digest missed a flip in %s\n", what);
            ++failures;
        }
    };
    for (unsigned bit : {0u, 31u, 52u, 63u}) {
        EvalResult r = base;
        flipBit(r.sign.cycles, bit);
        expectChange("sign.cycles", r);
        r = base;
        flipBit(r.verify.events.icFills, bit);
        expectChange("verify.events.icFills", r);
        r = base;
        flipBit(r.sign.energy.peteUj, bit);
        expectChange("sign.energy.peteUj", r);
        r = base;
        flipBit(r.verify.energy.staticUj, bit);
        expectChange("verify.energy.staticUj", r);
        r = base;
        flipBit(r.staticPowerMw, bit);
        expectChange("staticPowerMw", r);
    }
    if (fnv1a(evalText(base)) != ref)
        ++failures;
    std::printf("{\"checks\":%d,\"failures\":%d}\n", checks, failures);
    return failures ? 1 : 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_worker sweep [--serial]\n"
                 "       perfbench_worker svc --traffic mix|burst "
                 "--seed N --stream J --seconds S [--trace]\n"
                 "       perfbench_worker probe | selftest | info\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    std::string traffic;
    uint64_t seed = 2026;
    double seconds = 1.0;
    uint64_t stream = 0;
    bool serial = false, trace = false;
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        bool more = i + 1 < argc;
        if (a == "--serial")
            serial = true;
        else if (a == "--trace")
            trace = true;
        else if (a == "--stream" && more)
            stream = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--traffic" && more)
            traffic = argv[++i];
        else if (a == "--seed" && more)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && more)
            seconds = std::strtod(argv[++i], nullptr);
        else
            return usage();
    }
    try {
        if (cmd == "sweep")
            return cmdSweep(serial);
        if (cmd == "svc" && (traffic == "mix" || traffic == "burst"))
            return cmdSvc(traffic, seed, stream, seconds, trace);
        if (cmd == "probe")
            return cmdProbe();
        if (cmd == "selftest")
            return cmdSelftest();
        if (cmd == "info") {
            JsonLine out;
            out.str("compiler", PERFBENCH_COMPILER);
            out.str("build_type", PERFBENCH_BUILD_TYPE);
            out.num("nproc", std::thread::hardware_concurrency());
            out.num("jobs", benchJobs());
            out.print();
            return 0;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_worker: %s\n", e.what());
        return 1;
    }
    return usage();
}
