/**
 * @file
 * Golden-file pins shared by the test binaries: a committed text file
 * under tests/golden/ that a test's rendered output must match byte for
 * byte.  Run a test with ULECC_REGEN_GOLDEN=1 to rewrite its file.
 */

#ifndef ULECC_TESTS_GOLDEN_HH
#define ULECC_TESTS_GOLDEN_HH

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/cpu.hh"

namespace ulecc::test
{

/** The twelve PeteStats counters, in declaration order, on one line. */
inline std::string
statsLine(const PeteStats &s)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "cycles=%llu instructions=%llu load_use=%llu "
                  "branches=%llu mispredicts=%llu jump=%llu "
                  "mult_busy=%llu icache=%llu cop2=%llu external=%llu "
                  "mult_issues=%llu div_issues=%llu",
                  (unsigned long long)s.cycles,
                  (unsigned long long)s.instructions,
                  (unsigned long long)s.loadUseStalls,
                  (unsigned long long)s.branches,
                  (unsigned long long)s.branchMispredicts,
                  (unsigned long long)s.jumpStalls,
                  (unsigned long long)s.multBusyStalls,
                  (unsigned long long)s.icacheStalls,
                  (unsigned long long)s.cop2Stalls,
                  (unsigned long long)s.externalStalls,
                  (unsigned long long)s.multIssues,
                  (unsigned long long)s.divIssues);
    return buf;
}

/**
 * Expects @p actual to equal tests/golden/@p name; with
 * $ULECC_REGEN_GOLDEN set, rewrites the file instead.
 */
inline void
expectMatchesGolden(const std::string &name, const std::string &actual)
{
    std::string path = std::string(ULECC_GOLDEN_DIR) + "/" + name;
    if (std::getenv("ULECC_REGEN_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        out << actual;
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << path
                           << " (run with ULECC_REGEN_GOLDEN=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str());
}

} // namespace ulecc::test

#endif // ULECC_TESTS_GOLDEN_HH
