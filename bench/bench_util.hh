/**
 * @file
 * Shared helpers for the per-figure/per-table benchmark harnesses.
 *
 * Every harness routes its design-point evaluations through one
 * SweepDriver: the points are registered up front, fanned out over
 * the parallel SweepRunner (src/par/) on first use -- which fills the
 * process-wide evaluation memo (core/eval_cache.hh) -- and then read
 * back through evaluate() by the table-rendering code in its original
 * order.  Because evaluate() is pure, the text a bench prints is
 * byte-identical to the serial run -- `--serial` (or ULECC_JOBS=1)
 * forces the old one-cell-at-a-time behaviour for pinning that down.
 *
 * Every bench takes exactly one flag, `--serial`.  An unknown flag,
 * or a journal variable naming a file that cannot be opened, is an
 * input error: the bench prints "<bench>: [invalid-input] ..." on
 * stderr and exits 2 before doing any work.
 */

#ifndef ULECC_BENCH_BENCH_UTIL_HH
#define ULECC_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <string>

#include "base/error.hh"
#include "core/evaluator.hh"
#include "core/report.hh"
#include "par/sweep.hh"

namespace ulecc::bench
{

/** The bench's name for messages: @p argv0 without its directory. */
inline const char *
toolName(const char *argv0)
{
    const char *slash = std::strrchr(argv0, '/');
    return slash ? slash + 1 : argv0;
}

/**
 * Opens the journal file named by $@p var for appending.  Returns an
 * unopened stream when the variable is unset or empty; a path that
 * cannot be opened exits 2 with an [invalid-input] message naming the
 * variable, so no bench silently drops its records.
 */
inline std::ofstream
openJournal(const char *tool, const char *var)
{
    std::ofstream out;
    const char *path = std::getenv(var);
    if (!path || !*path)
        return out;
    out.open(path, std::ios::app | std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "%s: [%s] %s names '%s', which cannot be "
                     "opened for appending\n",
                     tool, errcName(Errc::InvalidInput), var, path);
        std::exit(2);
    }
    return out;
}

/**
 * The benches' front end to the parallel sweep engine.
 *
 * Usage: construct from main's argv (accepts only `--serial`),
 * register every (arch, curve, options) cell the harness will print,
 * then call eval() from the rendering code.  The first eval() fans
 * the registered points out over the pool, which fills the evaluation
 * memo; eval() itself is plain evaluate(), so unregistered points are
 * simply evaluated inline and rendering code never has to care.
 */
class SweepDriver
{
  public:
    SweepDriver(int argc, char **argv)
    {
        const char *tool = toolName(argc > 0 ? argv[0] : "bench");
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--serial")) {
                std::fprintf(stderr, "%s: [%s] unknown flag '%s' "
                             "(usage: %s [--serial])\n",
                             tool, errcName(Errc::InvalidInput), argv[i],
                             tool);
                std::exit(2);
            }
            config_.serial = true;
        }
        // The journal itself is written at exit (BenchJournal); only
        // its path is checked here, before any work is done.
        openJournal(tool, "ULECC_BENCH_METRICS");
    }

    /** Registers one design point for the fan-out. */
    void
    add(MicroArch arch, CurveId curve, const EvalOptions &options = {})
    {
        points_.push_back(SweepPoint{arch, curve, options});
    }

    /** Registers the full (archs x curves) grid under one option set. */
    void
    addGrid(std::initializer_list<MicroArch> archs,
            const std::vector<CurveId> &curves,
            const EvalOptions &options = {})
    {
        for (CurveId curve : curves) {
            for (MicroArch arch : archs)
                add(arch, curve, options);
        }
    }

    /**
     * The evaluation of one design point: identical to calling
     * evaluate() inline, however many workers computed it.
     */
    EvalResult
    eval(MicroArch arch, CurveId curve, const EvalOptions &options = {})
    {
        if (!warmed_)
            warm();
        return evaluate(arch, curve, options);
    }

    bool serial() const { return config_.serial; }

  private:
    /** Fans every registered point out over the pool (once); the
     * results land in the evaluation memo. */
    void
    warm()
    {
        warmed_ = true;
        if (!config_.serial)
            SweepRunner(config_).run(points_);
    }

    SweepConfig config_;
    bool warmed_ = false;
    std::vector<SweepPoint> points_;
};

/** Adds a component-breakdown row (the Fig 7.2/7.9-style stacks). */
inline std::vector<std::string>
breakdownRow(const std::string &label, const EnergyBreakdown &e)
{
    return {label, fmt(e.peteUj), fmt(e.ramUj), fmt(e.romUj),
            fmt(e.uncoreUj), fmt(e.monteUj), fmt(e.billieUj),
            fmt(e.totalUj())};
}

inline std::vector<std::string>
breakdownHeaders(const std::string &first)
{
    return {first, "Pete uJ", "RAM uJ", "ROM uJ", "Uncore uJ",
            "Monte uJ", "Billie uJ", "Total uJ"};
}

/** Prints the standard reproduction footer (journaled as a note). */
inline void
footnote(const std::string &note)
{
    BenchJournal::instance().note(note);
    std::printf("  note: %s\n", note.c_str());
}

} // namespace ulecc::bench

#endif // ULECC_BENCH_BENCH_UTIL_HH
