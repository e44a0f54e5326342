/**
 * @file
 * Parallel sweep engine tests: ThreadPool contract, the per-key
 * OnceMap memo helper, SweepRunner serial/parallel bit-equality and
 * ordering, the evaluation memo and the bench SweepDriver that reads
 * through it, and a subprocess byte-compare of a representative bench
 * harness against its own --serial run.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/once_map.hh"
#include "core/eval_cache.hh"
#include "core/evaluator.hh"
#include "par/sweep.hh"
#include "par/thread_pool.hh"

#include "bench_util.hh"

using namespace ulecc;

namespace
{

/** Scoped setenv/unsetenv that restores the previous value. */
class EnvVar
{
  public:
    EnvVar(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            hadOld_ = true;
            old_ = old;
        }
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~EnvVar()
    {
        if (hadOld_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool hadOld_ = false;
};

const MicroArch kAllArchs[] = {MicroArch::Baseline, MicroArch::IsaExt,
                               MicroArch::IsaExtIcache, MicroArch::Monte,
                               MicroArch::Billie};

std::vector<SweepPoint>
fullDesignSpace()
{
    std::vector<SweepPoint> points;
    for (CurveId id : primeCurveIds())
        for (MicroArch arch : kAllArchs)
            points.push_back(SweepPoint{arch, id, {}});
    for (CurveId id : binaryCurveIds())
        for (MicroArch arch : kAllArchs)
            points.push_back(SweepPoint{arch, id, {}});
    return points;
}

/** Bit-exact equality of two evaluation results. */
void
expectResultsIdentical(const EvalResult &a, const EvalResult &b)
{
    EXPECT_EQ(a.arch, b.arch);
    EXPECT_EQ(a.curve, b.curve);
    EXPECT_EQ(a.sign.cycles, b.sign.cycles);
    EXPECT_EQ(a.verify.cycles, b.verify.cycles);
    EXPECT_EQ(a.sign.events.instructions, b.sign.events.instructions);
    EXPECT_EQ(a.sign.events.ramReads, b.sign.events.ramReads);
    EXPECT_EQ(a.sign.events.ramWrites, b.sign.events.ramWrites);
    EXPECT_EQ(a.sign.energy.totalUj(), b.sign.energy.totalUj());
    EXPECT_EQ(a.verify.energy.totalUj(), b.verify.energy.totalUj());
    EXPECT_EQ(a.avgPowerMw, b.avgPowerMw);
    EXPECT_EQ(a.staticPowerMw, b.staticPowerMw);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(ThreadPool, RunsEveryTask)
{
    std::atomic<int> done{0};
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, WaitBlocksUntilDrained)
{
    std::atomic<int> done{0};
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
        pool.submit([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            done.fetch_add(1);
        });
    }
    pool.wait();
    EXPECT_EQ(done.load(), 8);
    pool.wait(); // idempotent on an empty pool
    EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 20; ++i)
            pool.submit([&] { done.fetch_add(1); });
    }
    EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, DefaultThreadsHonoursUleccJobs)
{
    {
        EnvVar jobs("ULECC_JOBS", "3");
        EXPECT_EQ(ThreadPool::defaultThreads(), 3u);
    }
    {
        EnvVar jobs("ULECC_JOBS", "0"); // invalid: fall back to host
        EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    }
    {
        EnvVar jobs("ULECC_JOBS", nullptr);
        EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    }
}

TEST(ThreadPool, HostileUleccJobsValuesNeverDeadlockOrExplode)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    // The historical bug: a 32-bit cast wrapped 2^32 to a pool of ZERO
    // workers, deadlocking the first wait().  Now it clamps.
    {
        EnvVar jobs("ULECC_JOBS", "4294967296");
        EXPECT_EQ(ThreadPool::defaultThreads(), ThreadPool::maxThreads);
    }
    // Huge-but-parseable widths clamp instead of spawning thousands of
    // threads; values beyond long's range fall back to the host width.
    {
        EnvVar jobs("ULECC_JOBS", "1000000");
        EXPECT_EQ(ThreadPool::defaultThreads(), ThreadPool::maxThreads);
    }
    {
        EnvVar jobs("ULECC_JOBS", "99999999999999999999999");
        EXPECT_EQ(ThreadPool::defaultThreads(), hw);
    }
    // Negative, partial, and empty values are configuration errors:
    // fall back to the hardware width, never a zero-worker pool.
    for (const char *v : {"-2", "3x", "", "jobs"}) {
        EnvVar jobs("ULECC_JOBS", v);
        EXPECT_EQ(ThreadPool::defaultThreads(), hw) << "'" << v << "'";
    }
    // A clamped pool still runs its tasks.
    {
        EnvVar jobs("ULECC_JOBS", "4294967296");
        std::atomic<int> done{0};
        ThreadPool pool;
        for (int i = 0; i < 32; ++i)
            pool.submit([&] { done.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(done.load(), 32);
    }
}

TEST(ThreadPool, ShutdownDrainRunsEveryQueuedTask)
{
    std::atomic<int> done{0};
    std::promise<void> started;
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::thread opener;
    {
        ThreadPool pool(1);
        // Head task blocks the single worker so the rest provably sit
        // in the queue until the gate opens.
        pool.submit([&started, open] {
            started.set_value();
            open.wait();
        });
        started.get_future().wait();
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { done.fetch_add(1); });
        // Open the gate shortly after destruction begins; the count
        // must be exact whichever comes first.
        opener = std::thread([&gate] {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            gate.set_value();
        });
    } // ~ThreadPool drains the queue, then joins
    opener.join();
    EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, DestructorDrainRunsTasksSubmittedDuringDrain)
{
    // Root tasks are held behind a gate that opens only after the
    // destructor has started; each then fans out nested tasks (two
    // levels deep).  The submitting worker is still live when a nested
    // task is queued, and no worker exits while the queue holds a
    // task, so none may be lost to the shutdown.
    constexpr int kRoots = 8;
    constexpr int kChildren = 10;
    constexpr int kGrandchildren = 3;
    std::atomic<int> done{0};
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::thread opener;
    {
        ThreadPool pool(2);
        for (int r = 0; r < kRoots; ++r) {
            pool.submit([&, open] {
                open.wait();
                for (int c = 0; c < kChildren; ++c) {
                    pool.submit([&] {
                        for (int g = 0; g < kGrandchildren; ++g)
                            pool.submit([&] { done.fetch_add(1); });
                        done.fetch_add(1);
                    });
                }
                done.fetch_add(1);
            });
        }
        opener = std::thread([&gate] {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            gate.set_value();
        });
    }
    opener.join();
    EXPECT_EQ(done.load(), kRoots * (1 + kChildren * (1 + kGrandchildren)));
}

TEST(ThreadPool, NestedSubmissionsRunInSubmissionOrder)
{
    // One worker, one run queue: whatever a task submits runs after
    // it, oldest first.  Only the worker writes `order`; wait()
    // publishes it.
    ThreadPool pool(1);
    std::string order;
    pool.submit([&] {
        for (char c : {'B', 'C', 'D'})
            pool.submit([&order, c] { order += c; });
        order += 'A';
    });
    pool.wait();
    EXPECT_EQ(order, "ABCD");
}

TEST(ThreadPool, IdleWorkersDrainABlockedTasksBacklog)
{
    // One producer task queues a nested backlog, then blocks until
    // some other worker has run one of those tasks.  While the
    // producer is parked only the other workers can drain the queue,
    // so the test finishes only if they do -- even on a single-CPU
    // host where the producer would otherwise outrun every idle one.
    ThreadPool pool(4);
    std::atomic<int> done{0};
    std::promise<void> taken;
    std::shared_future<void> first = taken.get_future().share();
    std::atomic<bool> signalled{false};
    pool.submit([&, first] {
        for (int i = 0; i < 200; ++i) {
            pool.submit([&] {
                if (!signalled.exchange(true))
                    taken.set_value();
                done.fetch_add(1);
            });
        }
        first.wait();
    });
    pool.wait();
    EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, StealRaceStressLosesNoTasks)
{
    // Hammer every path at once -- external producers racing nested
    // submissions racing idle workers -- and count completions.  Run
    // under the TSan preset this doubles as a data-race hunt on the
    // run queue.
    for (int round = 0; round < 5; ++round) {
        ThreadPool pool(4);
        std::atomic<int> done{0};
        constexpr int kProducers = 3;
        constexpr int kRoots = 20;
        constexpr int kNested = 10;
        std::vector<std::thread> producers;
        for (int p = 0; p < kProducers; ++p) {
            producers.emplace_back([&] {
                for (int r = 0; r < kRoots; ++r) {
                    pool.submit([&] {
                        for (int i = 0; i < kNested; ++i)
                            pool.submit(
                                [&] { done.fetch_add(1); });
                        done.fetch_add(1);
                    });
                }
            });
        }
        for (auto &t : producers)
            t.join();
        pool.wait();
        EXPECT_EQ(done.load(), kProducers * kRoots * (kNested + 1));
    }
}

namespace
{

/** A deterministic, slow-enough-to-race value for OnceMap key @p key. */
std::vector<uint64_t>
onceMapValue(int key)
{
    std::vector<uint64_t> v(64);
    uint64_t x = 0x9E3779B97F4A7C15ull * uint64_t(key + 1);
    for (uint64_t &w : v) {
        for (int i = 0; i < 200; ++i)
            x = x * 6364136223846793005ull + 1442695040888963407ull;
        w = x;
    }
    return v;
}

} // namespace

TEST(OnceMap, ConcurrentGetsFillEachKeyOnceAndMatchASerialFill)
{
    constexpr int kKeys = 24;
    constexpr int kThreads = 8;
    constexpr int kRequests = 96;
    OnceMap<int, std::vector<uint64_t>> memo;
    std::atomic<int> fills[kKeys] = {};
    std::atomic<int> ready{0};
    // Per thread, the address each request got back.
    std::vector<std::vector<const std::vector<uint64_t> *>> got(
        kThreads, std::vector<const std::vector<uint64_t> *>(kRequests));

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            for (int r = 0; r < kRequests; ++r) {
                // Every thread walks every key from its own offset:
                // identical keys race across threads, distinct keys
                // fill side by side.
                int key = (r + 5 * t) % kKeys;
                got[t][r] = &memo.get(key, [&fills, key] {
                    fills[key].fetch_add(1);
                    return onceMapValue(key);
                });
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (int key = 0; key < kKeys; ++key)
        EXPECT_EQ(fills[key].load(), 1) << "key " << key;
    for (int t = 0; t < kThreads; ++t) {
        for (int r = 0; r < kRequests; ++r) {
            int key = (r + 5 * t) % kKeys;
            EXPECT_EQ(got[t][r], got[0][key])
                << "thread " << t << " request " << r;
            EXPECT_EQ(*got[t][r], onceMapValue(key));
        }
    }
}

TEST(OnceMap, ThrowingFillLeavesTheSlotEmptyForTheNextGet)
{
    OnceMap<int, int> memo;
    int calls = 0;
    EXPECT_THROW(memo.get(7, [&]() -> int {
                     ++calls;
                     throw std::runtime_error("fill failed");
                 }),
                 std::runtime_error);
    EXPECT_EQ(memo.get(7, [&] { return ++calls * 10; }), 20);
    // Filled now: later fills are never called.
    EXPECT_EQ(memo.get(7, [&] { return ++calls; }), 20);
    EXPECT_EQ(calls, 2);
}

TEST(OnceMap, ConcurrentRetryAfterAThrowingFillFillsOnce)
{
    // Every thread races on one key whose first fill throws: exactly
    // one caller sees the exception, exactly one retry fills, and
    // everyone else gets that value.
    constexpr int kThreads = 8;
    OnceMap<int, int> memo;
    std::atomic<int> fills{0};
    std::atomic<int> thrown{0};
    std::atomic<int> ready{0};
    std::vector<int> values(kThreads, -1);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            try {
                values[t] = memo.get(3, [&] {
                    if (fills.fetch_add(1) == 0)
                        throw std::runtime_error("first fill fails");
                    return 42;
                });
            } catch (const std::runtime_error &) {
                thrown.fetch_add(1);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(fills.load(), 2);
    EXPECT_EQ(thrown.load(), 1);
    EXPECT_EQ(std::count(values.begin(), values.end(), 42), kThreads - 1);
}

TEST(Sweep, ParallelMatchesSerialBitExact)
{
    // Empty the evaluation memo before each sweep so both genuinely
    // compute everything -- a shared memo would make this test vacuous.
    std::vector<SweepPoint> points = fullDesignSpace();

    SweepConfig serial_cfg;
    serial_cfg.serial = true;
    SweepRunner serial(serial_cfg);
    EXPECT_EQ(serial.jobs(), 1u);
    EvalCache::instance().clear();
    std::vector<Result<EvalResult>> golden = serial.run(points);

    SweepConfig par_cfg;
    par_cfg.jobs = 4;
    SweepRunner parallel(par_cfg);
    EXPECT_EQ(parallel.jobs(), 4u);
    EvalCache::instance().clear();
    std::vector<Result<EvalResult>> ours = parallel.run(points);
    const EvalCacheStats stats = EvalCache::instance().stats();
    EvalCache::instance().clear();

    ASSERT_EQ(golden.size(), points.size());
    ASSERT_EQ(ours.size(), points.size());
    uint64_t supported = 0;
    for (size_t i = 0; i < points.size(); ++i) {
        ASSERT_EQ(golden[i].ok(), ours[i].ok()) << "point " << i;
        if (!golden[i].ok()) {
            EXPECT_EQ(golden[i].code(), ours[i].code());
            continue;
        }
        ++supported;
        expectResultsIdentical(golden[i].value(), ours[i].value());
    }
    // The parallel sweep computed every supported point itself.
    EXPECT_GT(supported, 0u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, supported);
}

TEST(Sweep, ResultsComeBackInSubmissionOrder)
{
    std::vector<SweepPoint> points;
    points.push_back({MicroArch::IsaExt, CurveId::P256, {}});
    points.push_back({MicroArch::Baseline, CurveId::P192, {}});
    points.push_back({MicroArch::Billie, CurveId::B163, {}});
    SweepConfig cfg;
    cfg.jobs = 3;
    std::vector<Result<EvalResult>> results =
        SweepRunner(cfg).run(points);
    ASSERT_EQ(results.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        ASSERT_TRUE(results[i].ok());
        EXPECT_EQ(results[i].value().arch, points[i].arch);
        EXPECT_EQ(results[i].value().curve, points[i].curve);
    }
}

TEST(Sweep, UnsupportedCellsAreStructuredErrors)
{
    std::vector<SweepPoint> points;
    points.push_back({MicroArch::Monte, CurveId::B163, {}});  // no
    points.push_back({MicroArch::Baseline, CurveId::P192, {}}); // yes
    points.push_back({MicroArch::Billie, CurveId::P192, {}}); // no
    SweepConfig cfg;
    cfg.jobs = 2;
    std::vector<Result<EvalResult>> results =
        SweepRunner(cfg).run(points);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].code(), Errc::Unsupported);
    EXPECT_TRUE(results[1].ok());
    EXPECT_FALSE(results[2].ok());
    EXPECT_EQ(results[2].code(), Errc::Unsupported);
}

TEST(EvalCache, KeyCoversEveryOption)
{
    EvalOptions base;
    std::string k0 = evalPointKey(MicroArch::Baseline, CurveId::P192,
                                  base);
    EXPECT_EQ(k0, evalPointKey(MicroArch::Baseline, CurveId::P192,
                               base));
    EXPECT_NE(k0, evalPointKey(MicroArch::IsaExt, CurveId::P192, base));
    EXPECT_NE(k0, evalPointKey(MicroArch::Baseline, CurveId::P256,
                               base));
    EvalOptions ideal = base;
    ideal.idealIcache = true;
    EXPECT_NE(k0, evalPointKey(MicroArch::Baseline, CurveId::P192,
                               ideal));
    EvalOptions cachecfg = base;
    cachecfg.kernel.icacheBytes = 8192;
    EXPECT_NE(k0, evalPointKey(MicroArch::Baseline, CurveId::P192,
                               cachecfg));
    EvalOptions power = base;
    power.power.romReadScale *= 1.5;
    EXPECT_NE(k0, evalPointKey(MicroArch::Baseline, CurveId::P192,
                               power));
    // Satellite 3: the multiplier variant (and through it the whole
    // descriptor) is part of the key -- every variant keys distinctly.
    std::set<std::string> variant_keys;
    for (int v = 0; v < kMultiplierVariantCount; ++v) {
        EvalOptions mult = base;
        mult.kernel.multiplier = static_cast<MultiplierVariant>(v);
        variant_keys.insert(
            evalPointKey(MicroArch::Baseline, CurveId::P192, mult));
    }
    EXPECT_EQ(variant_keys.size(),
              static_cast<size_t>(kMultiplierVariantCount));
    EXPECT_EQ(variant_keys.count(k0), 1u); // default == karatsuba
}

TEST(EvalCache, MultiplierVariantMissesTheMemo)
{
    // A variant change must MISS: a schoolbook evaluation may never
    // be served from the karatsuba entry.
    EvalCache::instance().clear();
    evaluate(MicroArch::Baseline, CurveId::P192, {});
    uint64_t misses = EvalCache::instance().stats().misses;
    EvalOptions opt;
    opt.kernel.multiplier = MultiplierVariant::Schoolbook;
    EvalResult school =
        evaluate(MicroArch::Baseline, CurveId::P192, opt);
    EXPECT_GT(EvalCache::instance().stats().misses, misses);
    EvalResult dflt = evaluate(MicroArch::Baseline, CurveId::P192, {});
    EXPECT_NE(school.totalCycles(), dflt.totalCycles());
    EvalCache::instance().clear();
}

TEST(EvalCache, MemoHitIsBitIdentical)
{
    EvalCache::instance().clear();
    EvalResult first = evaluate(MicroArch::Baseline, CurveId::P192, {});
    uint64_t misses = EvalCache::instance().stats().misses;
    EvalResult second = evaluate(MicroArch::Baseline, CurveId::P192, {});
    EXPECT_GE(EvalCache::instance().stats().hits, 1u);
    EXPECT_EQ(EvalCache::instance().stats().misses, misses);
    expectResultsIdentical(first, second);
    EvalCache::instance().clear();
}

TEST(BenchSweep, DriverServesWarmedPointsFromTheEvalMemo)
{
    // SweepDriver keeps no results of its own: warming its grid fills
    // the process-wide memo, and eval() of a registered point is a
    // memo hit.
    EvalCache::instance().clear();
    char name[] = "bench_test";
    char *argv[] = {name, nullptr};
    bench::SweepDriver sweep(1, argv);
    ASSERT_FALSE(sweep.serial());
    EvalOptions ideal;
    ideal.idealIcache = true;
    std::vector<SweepPoint> points;
    for (CurveId curve : {CurveId::P192, CurveId::B163}) {
        for (MicroArch arch : {MicroArch::Baseline, MicroArch::IsaExt})
            points.push_back({arch, curve, {}});
    }
    points.push_back({MicroArch::Baseline, CurveId::P192, ideal});
    for (const SweepPoint &p : points)
        sweep.add(p.arch, p.curve, p.options);

    sweep.eval(points[0].arch, points[0].curve, points[0].options);
    const EvalCacheStats warmed = EvalCache::instance().stats();
    EXPECT_EQ(warmed.misses, points.size());
    for (const SweepPoint &p : points)
        sweep.eval(p.arch, p.curve, p.options);
    const EvalCacheStats after = EvalCache::instance().stats();
    EXPECT_EQ(after.misses, warmed.misses);
    EXPECT_EQ(after.hits, warmed.hits + points.size());
    EvalCache::instance().clear();
}

#ifdef ULECC_BENCH_FIG7_BIN
TEST(BenchSweep, Fig7OutputByteIdenticalToSerial)
{
    std::string dir = testing::TempDir();
    std::string serial_out = dir + "fig7_serial.txt";
    std::string par_out = dir + "fig7_par.txt";
    std::string serial_journal = dir + "fig7_serial.jsonl";
    std::string par_journal = dir + "fig7_par.jsonl";
    std::remove(serial_journal.c_str());
    std::remove(par_journal.c_str());

    std::string bin = ULECC_BENCH_FIG7_BIN;
    auto sh = [](const std::string &cmd) {
        int rc = std::system(cmd.c_str());
        EXPECT_EQ(rc, 0) << cmd;
    };
    sh("ULECC_BENCH_METRICS=" + serial_journal + " " + bin
       + " --serial > " + serial_out);
    sh("ULECC_BENCH_METRICS=" + par_journal + " " + bin + " > "
       + par_out);

    std::string golden = readFile(serial_out);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(golden, readFile(par_out));
    EXPECT_EQ(readFile(serial_journal), readFile(par_journal));

    std::remove(serial_out.c_str());
    std::remove(par_out.c_str());
    std::remove(serial_journal.c_str());
    std::remove(par_journal.c_str());
}
#endif
