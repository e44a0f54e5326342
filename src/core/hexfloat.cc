/**
 * @file
 * Locale-independent hexfloat rendering.
 */

#include "core/hexfloat.hh"

#include <cstdint>
#include <cstring>

namespace ulecc
{

namespace
{

uint64_t
doubleBits(double v)
{
    uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

constexpr char kDigits[] = "0123456789abcdef";

/** Appends the 52 fraction bits as hex nibbles, trailing zeros trimmed. */
void
appendFraction(std::string &s, uint64_t frac)
{
    char nib[13];
    int last = -1;
    for (int i = 0; i < 13; ++i) {
        nib[i] = kDigits[(frac >> (48 - 4 * i)) & 0xF];
        if (nib[i] != '0')
            last = i;
    }
    if (last < 0)
        return;
    s.push_back('.');
    s.append(nib, last + 1);
}

void
appendExponent(std::string &s, int e)
{
    s.push_back('p');
    s.push_back(e < 0 ? '-' : '+');
    unsigned m = e < 0 ? -e : e;
    char buf[8];
    int n = 0;
    do {
        buf[n++] = static_cast<char>('0' + m % 10);
        m /= 10;
    } while (m);
    while (n)
        s.push_back(buf[--n]);
}

} // namespace

std::string
hexDouble(double v)
{
    uint64_t u = doubleBits(v);
    bool negative = (u >> 63) != 0;
    int biased = static_cast<int>((u >> 52) & 0x7FF);
    uint64_t frac = u & ((uint64_t(1) << 52) - 1);

    std::string s;
    if (biased == 0x7FF) {
        if (frac)
            return "nan"; // payload intentionally not preserved
        return negative ? "-inf" : "inf";
    }
    if (negative)
        s.push_back('-');
    s += "0x";
    if (biased == 0) {
        s.push_back('0');
        if (frac) { // subnormal
            appendFraction(s, frac);
            appendExponent(s, -1022);
        } else {
            appendExponent(s, 0);
        }
        return s;
    }
    s.push_back('1');
    appendFraction(s, frac);
    appendExponent(s, biased - 1023);
    return s;
}

} // namespace ulecc
