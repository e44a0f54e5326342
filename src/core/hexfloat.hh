/**
 * @file
 * Locale-independent, bit-exact hexfloat rendering.
 *
 * The evaluation memo key and the benchmark's per-point digests name
 * doubles by their C99 hexfloat, so two values render alike only if
 * they are bit-identical.  printf("%a") would do, but it honours
 * LC_NUMERIC: a host process that calls setlocale() into a
 * comma-decimal locale would render different bytes.  hexDouble
 * formats the hexfloat grammar directly from the IEEE-754 bit pattern,
 * so the text is identical in every locale and on every libc.
 *
 * The output grammar is a strict subset of %a in the "C" locale:
 * lowercase, "0x1.<frac>p<sign><dec>" for normals (trailing zero
 * nibbles trimmed, "." omitted when the fraction is empty),
 * "0x0.<frac>p-1022" for subnormals, "0x0p+0" / "-0x0p+0" for zeros,
 * and "inf" / "-inf" / "nan" for the non-finite values.  strtod() in
 * the "C" locale reads it back bit-exactly.
 */

#ifndef ULECC_CORE_HEXFLOAT_HH
#define ULECC_CORE_HEXFLOAT_HH

#include <string>

namespace ulecc
{

/** Renders @p v as a C99 hexfloat, independent of the global locale. */
std::string hexDouble(double v);

} // namespace ulecc

#endif // ULECC_CORE_HEXFLOAT_HH
