/**
 * @file
 * diffuzz: seed-reproducible differential conformance harness.
 *
 * Usage:
 *   diffuzz [--seed N] [--cases N] [--target NAME]... [--corpus DIR]
 *           [--replay FILE]... [--json PATH] [--golden DIR] [--list]
 *
 *   --seed N      base seed in [0, 2^63 - 1] (default 1); each target
 *                 derives its own stream from (seed, name), so runs are
 *                 bit-identical at a fixed seed
 *   --cases N     generated cases per target, in [1, 2^63 - 1]
 *                 (default 10000)
 *   --target T    run only the named target(s) (default: all four)
 *   --corpus DIR  write one replayable .case file per failure
 *   --replay F    replay corpus file(s) instead of fuzzing
 *   --json PATH   write the "ulecc.diffuzz.v1" summary document
 *   --golden DIR  golden-vector directory (default: the checked-in
 *                 tests/golden)
 *   --list        print the target names and exit
 *
 * Exit status: 0 all checks passed, 1 any mismatch (or missing golden
 * vectors while the ecdsa target is selected), 2 usage error (a
 * malformed or missing --seed/--cases value prints an [invalid-input]
 * message before the usage line).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "check/diffuzz.hh"
#include "check/oracles.hh"

#include "flag_parse.hh"

#ifndef ULECC_GOLDEN_DIR
#define ULECC_GOLDEN_DIR "tests/golden"
#endif

using namespace ulecc;
using namespace ulecc::check;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--seed N] [--cases N] [--target NAME]...\n"
                 "          [--corpus DIR] [--replay FILE]... "
                 "[--json PATH]\n"
                 "          [--golden DIR] [--list]\n",
                 argv0);
    return 2;
}

void
printFailures(const RunReport &report)
{
    for (const Failure &f : report.failures) {
        std::fprintf(stderr, "FAIL %s\n", f.detail.c_str());
        std::fprintf(stderr, "  case:     %s\n",
                     formatCase(f.target, f.shrunk).c_str());
        std::fprintf(stderr, "  original: %s\n",
                     formatCase(f.target, f.original).c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    std::string goldenDir = ULECC_GOLDEN_DIR;
    std::vector<std::string> only;
    std::vector<std::string> replays;
    std::string jsonPath;
    bool list = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "diffuzz: [%s] %s requires a value\n",
                             errcName(Errc::InvalidInput), flag);
                return nullptr;
            }
            return argv[++i];
        };
        // The JSON summary reports seed and count as exact integers,
        // so neither may exceed INT64_MAX.
        auto count = [&](const char *flag, uint64_t min, uint64_t &out) {
            const char *v = value(flag);
            return v && parseCount("diffuzz", flag, v, 10, min, INT64_MAX,
                                   out);
        };
        if (arg == "--seed") {
            if (!count("--seed", 0, opts.seed))
                return usage(argv[0]);
        } else if (arg == "--cases") {
            if (!count("--cases", 1, opts.cases))
                return usage(argv[0]);
        } else if (arg == "--target") {
            const char *v = value("--target");
            if (!v)
                return usage(argv[0]);
            only.push_back(v);
        } else if (arg == "--corpus") {
            const char *v = value("--corpus");
            if (!v)
                return usage(argv[0]);
            opts.corpusDir = v;
        } else if (arg == "--replay") {
            const char *v = value("--replay");
            if (!v)
                return usage(argv[0]);
            replays.push_back(v);
        } else if (arg == "--json") {
            const char *v = value("--json");
            if (!v)
                return usage(argv[0]);
            jsonPath = v;
        } else if (arg == "--golden") {
            const char *v = value("--golden");
            if (!v)
                return usage(argv[0]);
            goldenDir = v;
        } else if (arg == "--list") {
            list = true;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            return usage(argv[0]);
        }
    }

    std::vector<std::unique_ptr<Target>> targets =
        makeTargets(goldenDir);
    if (!only.empty()) {
        std::vector<std::unique_ptr<Target>> kept;
        for (auto &t : targets) {
            for (const std::string &name : only) {
                if (t->name() == name) {
                    kept.push_back(std::move(t));
                    break;
                }
            }
        }
        if (kept.size() != only.size()) {
            std::fprintf(stderr, "unknown target name\n");
            return usage(argv[0]);
        }
        targets = std::move(kept);
    }

    if (list) {
        for (const auto &t : targets)
            std::printf("%s\n", t->name().c_str());
        return 0;
    }

    bool goldenMissing = false;
    for (const auto &t : targets) {
        if (t->name() == "ecdsa"
            && ecdsaTargetVectorCount(*t) == 0) {
            std::fprintf(stderr,
                         "error: no golden vectors found under %s "
                         "(the ecdsa target's KAT/nonce oracles "
                         "cannot run)\n",
                         goldenDir.c_str());
            goldenMissing = true;
        }
    }

    RunReport report;
    if (!replays.empty()) {
        for (const std::string &path : replays) {
            RunReport r = replayFile(targets, path);
            for (auto &s : r.stats)
                report.stats.push_back(std::move(s));
            for (auto &f : r.failures)
                report.failures.push_back(std::move(f));
        }
    } else {
        report = runDiffuzz(targets, opts);
    }

    for (const TargetStats &s : report.stats)
        std::printf("%-24s %8llu cases  %4llu failures  (%.1f ms)\n",
                    s.name.c_str(),
                    static_cast<unsigned long long>(s.cases),
                    static_cast<unsigned long long>(s.failures),
                    static_cast<double>(s.durationNs) / 1e6);
    printFailures(report);

    if (!jsonPath.empty()
        && !writeTextFile(jsonPath,
                          reportToJson(report, opts).dump(2) + "\n")) {
        std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
        return 2;
    }

    if (goldenMissing || !report.pass())
        return 1;
    std::printf("diffuzz: all targets agree (seed %llu)\n",
                static_cast<unsigned long long>(opts.seed));
    return 0;
}
