/**
 * @file
 * The standard diffuzz oracle targets.
 *
 * Four targets cover the four layers whose agreement the reproduction
 * rests on:
 *
 *   mpint  MpUint arithmetic vs check::RefInt (independent base-2^16
 *          schoolbook/Knuth-D reference);
 *   field  PrimeField (word-level NIST reduction, generic, CIOS/FIPS
 *          Montgomery) and BinaryField (comb, CLMUL) vs RefInt
 *          modular/polynomial oracles, over every NIST field of the
 *          study plus a non-NIST generic prime;
 *   ecdsa  sign/verify/nonce/bits2int vs RFC 6979 + CAVP-style golden
 *          vectors (tests/golden/) and random roundtrips;
 *   pete   the simulated assembly kernels vs their native C++
 *          counterparts, across limb widths.
 *
 * Each target's factory is exposed individually for focused test
 * rigs; makeTargets() (diffuzz.hh) assembles the standard set.
 */

#ifndef ULECC_CHECK_ORACLES_HH
#define ULECC_CHECK_ORACLES_HH

#include <memory>
#include <string>

#include "check/diffuzz.hh"

namespace ulecc::check
{

std::unique_ptr<Target> makeMpintTarget();

std::unique_ptr<Target> makeFieldTarget();

/**
 * @p goldenDir holds rfc6979_sha256.txt and ecdsa_kat_sha256.txt
 * (see tools/gen_ecdsa_golden.py).  An unreadable directory leaves
 * the KAT/nonce ops empty (their generation weight shifts to the
 * self-consistent ops) -- loadedVectors() lets callers assert the
 * files were actually found.
 */
std::unique_ptr<Target> makeEcdsaTarget(const std::string &goldenDir);

/** Number of golden entries an ecdsa target loaded (for assertions). */
size_t ecdsaTargetVectorCount(const Target &target);

std::unique_ptr<Target> makePeteTarget();

} // namespace ulecc::check

#endif // ULECC_CHECK_ORACLES_HH
