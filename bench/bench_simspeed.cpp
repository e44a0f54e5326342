/**
 * @file
 * Simulator-throughput microbenchmark (not a paper figure).
 *
 * Measures the host-side cost of the reproduction pipeline itself:
 *
 *  1. Pete's instruction throughput (MIPS) on the operand-scanning
 *     multiply kernel (Pete has one execution path, the per-step
 *     interpreter);
 *  2. the wall-clock of a full prime-field design-space sweep, serial
 *     vs. the parallel SweepRunner, and again with a warm evaluation
 *     memo (ULECC_EVAL_CACHE semantics, see docs/PERFORMANCE.md).
 *
 * The measured numbers are journaled as the sim_wall_seconds /
 * sim_mips fields of the ulecc.bench.v1 record so perf regressions
 * show up in telemetry (tools/check.sh --bench prints them beside the
 * committed BENCH_simspeed.json); the timings themselves are
 * host-dependent and are exempt from the byte-identity rule that
 * covers the paper benches.
 */

#include <chrono>
#include <string>
#include <thread>

#include "workload/asm_kernels.hh"

#include "bench_util.hh"

using namespace ulecc;
using namespace ulecc::bench;

namespace
{

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SimSpeed
{
    double wallSeconds = 0;
    double mips = 0;
    uint64_t instructions = 0;
};

/** Runs the k=17 operand-scanning multiply @p reps times. */
SimSpeed
measurePeteOnce(int reps)
{
    Program program = assemble(kernelSource(AsmKernel::MulOs, 17));
    MpUint a = MpUint::powerOfTwo(543).sub(MpUint(12345));
    MpUint b = MpUint::powerOfTwo(541).add(MpUint(99));
    SimSpeed speed;
    double t0 = now();
    for (int rep = 0; rep < reps; ++rep) {
        Pete cpu(program);
        for (int i = 0; i < 34; ++i)
            cpu.mem().poke32(0x10000400 + 4 * i, a.limb(i));
        for (int i = 0; i < 17; ++i)
            cpu.mem().poke32(0x10000500 + 4 * i, b.limb(i));
        cpu.run();
        speed.instructions += cpu.stats().instructions;
    }
    speed.wallSeconds = now() - t0;
    speed.mips = speed.instructions / speed.wallSeconds / 1e6;
    return speed;
}

/** Best of @p trials back-to-back measurements (minimum wall time).
 *  One measurement window is ~10-100 ms, short enough that scheduler
 *  noise on a busy host can halve a single reading; the minimum is
 *  the standard denoised estimate of the true cost. */
SimSpeed
measurePete(int reps, int trials = 5)
{
    SimSpeed best = measurePeteOnce(reps);
    for (int i = 1; i < trials; ++i) {
        SimSpeed s = measurePeteOnce(reps);
        if (s.wallSeconds < best.wallSeconds)
            best = s;
    }
    return best;
}

/** Times one full prime-grid sweep. */
double
timeSweep(bool serial, bool clearEvalMemo)
{
    if (clearEvalMemo)
        EvalCache::instance().clear();
    std::vector<SweepPoint> points;
    for (CurveId id : primeCurveIds()) {
        for (MicroArch arch : {MicroArch::Baseline, MicroArch::IsaExt,
                               MicroArch::IsaExtIcache, MicroArch::Monte})
            points.push_back(SweepPoint{arch, id, {}});
    }
    SweepConfig config;
    config.serial = serial;
    double t0 = now();
    SweepRunner runner(config);
    runner.run(points);
    return now() - t0;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepDriver sweep(argc, argv); // uniform CLI; drives nothing here
    banner("Sim speed", "Pete throughput and sweep wall-clock");

    const SimSpeed speed = measurePete(2000);
    Table t({"Configuration", "Instructions", "Wall s", "MIPS"});
    t.addRow({"interpreter (decode per retirement)",
              std::to_string(speed.instructions),
              fmt(speed.wallSeconds, 3), fmt(speed.mips, 1)});
    t.print();
    BenchJournal::instance().recordSimSpeed(speed.wallSeconds, speed.mips);

    // In-process serial-vs-parallel numbers would be misleading here:
    // whichever sweep runs first warms the mutex-guarded kernel/trace
    // memos and the rerun is nearly free either way.  What a single
    // process can measure honestly is the cost structure those caches
    // create -- the cross-process story is the fig7 suite wall-clock
    // under ULECC_EVAL_CACHE (docs/PERFORMANCE.md).
    double cold_s = timeSweep(sweep.serial(), true);
    double rerun_s = timeSweep(sweep.serial(), true);
    double memo_s = timeSweep(sweep.serial(), false);
    EvalCache::instance().clear();
    Table s({"Sweep (prime grid, 20 points)", "Wall s", "Speedup"});
    s.addRow({"cold process", fmt(cold_s, 3), "1.00x"});
    s.addRow({"warm kernel/trace memos", fmt(rerun_s, 3),
              fmt(cold_s / rerun_s, 1) + "x"});
    s.addRow({"warm evaluation memo", fmt(memo_s, 3),
              fmt(cold_s / memo_s, 1) + "x"});
    s.print();

    footnote("timings are host-dependent (exempt from byte-identity); "
             "the journal's sim_wall_seconds/sim_mips fields track the "
             "interpreter");
    // The absolute timings above only mean something next to the host
    // that produced them.
#if defined(__clang__)
    const char *compiler = "clang " __clang_version__;
#else
    const char *compiler = "GCC " __VERSION__;
#endif
#ifdef NDEBUG
    const char *build = "NDEBUG build";
#else
    const char *build = "asserts enabled";
#endif
    footnote("host: "
             + std::to_string(std::thread::hardware_concurrency())
             + " hardware threads, " + compiler + ", " + build);
    return 0;
}
