/**
 * @file
 * Strict numeric flag parsing shared by the command-line tools.
 *
 * strtoull/strtod alone skip leading blanks, accept a sign (strtoull
 * negates "-1" into 2^64 - 1), stop at junk ("12x"), saturate on
 * overflow and read "nan"/"inf".  These wrappers demand a leading
 * digit, full consumption, no ERANGE and a finite value inside the
 * flag's range -- the same contract as the ULECC_JOBS parse.  On
 * rejection they print "<tool>: [invalid-input] ..." on stderr and
 * return false; the tool then exits 2.
 */

#ifndef ULECC_TOOLS_FLAG_PARSE_HH
#define ULECC_TOOLS_FLAG_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "base/error.hh"

namespace ulecc
{

/** One unsigned integer in @p base (0 also takes 0x-hex) within
 *  [@p min, @p max]. */
inline bool
parseCount(const char *tool, const char *flag, const char *text, int base,
           uint64_t min, uint64_t max, uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, base);
    bool clean = std::isdigit(static_cast<unsigned char>(text[0]))
        && *end == '\0' && errno != ERANGE;
    if (!clean || v < min || v > max) {
        std::fprintf(stderr,
                     "%s: [%s] %s expects an integer in [%llu, %llu], "
                     "got '%s'\n",
                     tool, errcName(Errc::InvalidInput), flag,
                     (unsigned long long)min, (unsigned long long)max,
                     text);
        return false;
    }
    out = v;
    return true;
}

/** One finite unsigned decimal real within [@p min, @p max]. */
inline bool
parseReal(const char *tool, const char *flag, const char *text, double min,
          double max, double &out)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text, &end);
    bool lead = std::isdigit(static_cast<unsigned char>(text[0]))
        || (text[0] == '.'
            && std::isdigit(static_cast<unsigned char>(text[1])));
    bool clean = lead && *end == '\0' && errno != ERANGE
        && std::isfinite(v);
    if (!clean || v < min || v > max) {
        std::fprintf(stderr,
                     "%s: [%s] %s expects a real in [%g, %g], got '%s'\n",
                     tool, errcName(Errc::InvalidInput), flag, min, max,
                     text);
        return false;
    }
    out = v;
    return true;
}

} // namespace ulecc

#endif // ULECC_TOOLS_FLAG_PARSE_HH
