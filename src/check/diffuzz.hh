/**
 * @file
 * Differential conformance harness (diffuzz).
 *
 * The library carries several independent implementations of every
 * arithmetic primitive it models: operand- vs product-scanning
 * multiplication, NIST word-level vs generic reduction, CIOS vs FIPS
 * Montgomery, comb vs CLMUL binary fields, native C++ vs Pete-executed
 * assembly kernels.  The paper's energy conclusions only mean anything
 * if all of those agree bit-for-bit, so this harness generates
 * seed-reproducible random cases and cross-checks each production path
 * against an oracle that shares no code with it (check::RefInt, golden
 * RFC 6979 / CAVP-style vectors, or a sibling implementation).
 *
 * The moving parts:
 *
 *  - DiffRng: splitmix64, seeded per target from (seed, fnv1a(name)),
 *    so runs are bit-identical at a fixed seed and adding a target
 *    never perturbs the case stream of another;
 *  - Target: named case generator + checker pair.  check() returns a
 *    mismatch description, or nothing for pass; out-of-domain inputs
 *    (a replay or shrink candidate can construct anything) must be
 *    treated as a pass, never an exception;
 *  - shrinkCase(): greedy minimisation of a failing case's operand
 *    strings, so the corpus pins the smallest reproducer;
 *  - corpus files: one "<target> <op> <operand>..." line per failure,
 *    replayable with replayLine()/replayFile() and checked into
 *    tests/golden/corpus/ as regression pins once fixed.
 *
 * The summary serialises as "ulecc.diffuzz.v1"; it deliberately contains no timings so two runs
 * at the same seed produce byte-identical JSON (check.sh diffs them).
 */

#ifndef ULECC_CHECK_DIFFUZZ_HH
#define ULECC_CHECK_DIFFUZZ_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.hh"
#include "mpint/mpuint.hh"

namespace ulecc::check
{

/** FNV-1a 64 (target-name mixing and corpus self-description). */
uint64_t fnv1a64(std::string_view s);

/** splitmix64: tiny, seedable, and unrelated to test_util's xorshift. */
class DiffRng
{
  public:
    explicit DiffRng(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform-ish value in [0, bound); 0 when bound == 0. */
    uint64_t below(uint64_t bound) { return bound ? next() % bound : 0; }

    /** Random MpUint with exactly @p bits bits (MSB set); 0 if <= 0. */
    MpUint mp(int bits);

    /** Random MpUint in [0, bound); bound must be nonzero. */
    MpUint mpBelow(const MpUint &bound);

    /**
     * An operand bit-width biased towards the places widths go wrong:
     * zero, single-bit, limb boundaries +-1, field sizes of the study,
     * and full MpUint capacity, with a uniform tail.
     */
    int edgeBits(int maxBits);

    /**
     * A random value of <= @p maxBits bits biased towards edge shapes:
     * 0, 1, 2^k, 2^k - 1, all-ones limbs, and plain random.
     */
    MpUint edgeMp(int maxBits);

  private:
    uint64_t s_;
};

/** One generated or replayed case: an op name plus operand strings. */
struct CaseInput
{
    std::string op;
    std::vector<std::string> args;
};

/** Renders "<target> <op> <arg>..." (the corpus line format). */
std::string formatCase(const std::string &target, const CaseInput &c);

/**
 * Parses a corpus line; false for blank lines, "#" comments, and
 * anything with fewer than two tokens.
 */
bool parseCase(std::string_view line, std::string *target, CaseInput *c);

/** One differential target (a family of ops sharing an oracle). */
class Target
{
  public:
    virtual ~Target() = default;

    /** Stable identifier ("mpint", "field", "ecdsa", "pete"). */
    virtual std::string name() const = 0;

    /** Draws one case from @p rng. */
    virtual CaseInput generate(DiffRng &rng) const = 0;

    /**
     * Runs the case against the oracle.  Returns a mismatch
     * description, or std::nullopt for pass.  Unknown ops and
     * out-of-domain operands are a pass (the shrinker and replayer
     * feed arbitrary strings); only genuine disagreement fails.
     */
    virtual std::optional<std::string> check(const CaseInput &c) const = 0;
};

/** Per-target accounting for one run. */
struct TargetStats
{
    std::string name;
    uint64_t cases = 0;
    uint64_t failures = 0;
    uint64_t shrinkSteps = 0;
    uint64_t durationNs = 0; ///< console-only; never serialised
};

/** One confirmed failure, original and minimised forms. */
struct Failure
{
    std::string target;
    CaseInput original;
    CaseInput shrunk;
    std::string detail; ///< from check() on the shrunk case
};

/** Knobs for one diffuzz run. */
struct RunOptions
{
    uint64_t seed = 1;
    uint64_t cases = 10000;      ///< generated cases per target
    std::string corpusDir;       ///< when set, write one .case per failure
    uint64_t maxFailures = 8;    ///< per target; stop finding after this
};

/** Everything a run produced. */
struct RunReport
{
    std::vector<TargetStats> stats;
    std::vector<Failure> failures;

    bool pass() const { return failures.empty(); }
};

/**
 * The standard target set.  @p goldenDir locates the checked-in
 * RFC 6979 / KAT vector files consumed by the ecdsa target (pass the
 * tests/golden directory; missing files degrade that target to its
 * self-consistent ops and record the degradation in its name-keyed
 * stats rather than failing the build tree layout).
 */
std::vector<std::unique_ptr<Target>> makeTargets(const std::string &goldenDir);

/**
 * check() wrapped so an escaped exception becomes a failure detail --
 * production code throwing on an in-domain input is itself a bug the
 * harness must report, not die from.
 */
std::optional<std::string> checkCaught(const Target &target,
                                       const CaseInput &c);

/**
 * Greedy shrink: repeatedly applies string simplifications (constant
 * replacement, halving, digit dropping) to each operand, keeping any
 * that still fails, until no candidate fails or the step budget runs
 * out.  @p steps (optional) accumulates accepted shrink steps.
 */
CaseInput shrinkCase(const Target &target, const CaseInput &input,
                     uint64_t *steps = nullptr);

/** Runs every target for opts.cases generated cases each. */
RunReport runDiffuzz(const std::vector<std::unique_ptr<Target>> &targets,
                     const RunOptions &opts);

/**
 * Replays one corpus line against its named target.  Returns the
 * failure detail if it still fails, std::nullopt if it passes or the
 * line is a comment/blank; unknown target names fail loudly (a typo
 * in a pin must not silently pass).
 */
std::optional<std::string>
replayLine(const std::vector<std::unique_ptr<Target>> &targets,
           std::string_view line);

/**
 * Replays every line of @p path; each still-failing line becomes a
 * Failure in the report (original == shrunk == the line's case).
 * A missing file reports one synthetic failure naming the path.
 */
RunReport
replayFile(const std::vector<std::unique_ptr<Target>> &targets,
           const std::string &path);

/**
 * Serialises a report as the "ulecc.diffuzz.v1" document (schema,
 * tool, seed, cases, per-target counters, failures).  Timings are
 * excluded by design: equal seeds must yield byte-equal JSON.
 */
Json reportToJson(const RunReport &report, const RunOptions &opts);

} // namespace ulecc::check

#endif // ULECC_CHECK_DIFFUZZ_HH
