/**
 * @file
 * Google-benchmark microbenchmarks of the native multi-precision
 * substrate (host throughput; complements the cycle-level studies).
 */

#include <benchmark/benchmark.h>

#include "ec/scalar_mult.hh"
#include "ecdsa/ecdsa.hh"
#include "mpint/binary_field.hh"
#include "mpint/prime_field.hh"

using namespace ulecc;

namespace
{

MpUint
patterned(int bits, uint32_t seed)
{
    MpUint v;
    for (int i = 0; i < (bits + 31) / 32; ++i)
        v.setLimb(i, seed * 0x9E3779B9u * (i + 1) + 0x7F4A7C15u);
    return v.mod(MpUint::powerOfTwo(bits));
}

void
BM_PrimeMul(benchmark::State &state)
{
    PrimeField f(static_cast<NistPrime>(state.range(0)));
    MpUint a = patterned(f.bits(), 1).mod(f.modulus());
    MpUint b = patterned(f.bits(), 2).mod(f.modulus());
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.mul(a, b));
    }
}

void
BM_PrimeMontMulCios(benchmark::State &state)
{
    PrimeField f(static_cast<NistPrime>(state.range(0)));
    MpUint a = patterned(f.bits(), 3).mod(f.modulus());
    MpUint b = patterned(f.bits(), 4).mod(f.modulus());
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.montMulCios(a, b));
    }
}

void
BM_BinaryMulComb(benchmark::State &state)
{
    BinaryField f(static_cast<NistBinary>(state.range(0)));
    MpUint a = patterned(f.bits(), 5);
    MpUint b = patterned(f.bits(), 6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.mul(a, b));
    }
}

void
BM_BinarySqr(benchmark::State &state)
{
    BinaryField f(static_cast<NistBinary>(state.range(0)));
    MpUint a = patterned(f.bits(), 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.sqr(a));
    }
}

void
BM_ScalarMulP256(benchmark::State &state)
{
    const Curve &c = standardCurve(CurveId::P256);
    MpUint k = patterned(255, 8).mod(c.order());
    for (auto _ : state) {
        benchmark::DoNotOptimize(scalarMul(c, k, c.generator()));
    }
}

void
BM_EcdsaSignP256(benchmark::State &state)
{
    Ecdsa ecdsa(standardCurve(CurveId::P256));
    MpUint d = patterned(250, 9);
    Sha256Digest h = sha256("bench");
    for (auto _ : state) {
        benchmark::DoNotOptimize(ecdsa.signDigest(d, h));
    }
}

} // namespace

BENCHMARK(BM_PrimeMul)
    ->Arg(static_cast<int>(NistPrime::P192))
    ->Arg(static_cast<int>(NistPrime::P224))
    ->Arg(static_cast<int>(NistPrime::P256))
    ->Arg(static_cast<int>(NistPrime::P384))
    ->Arg(static_cast<int>(NistPrime::P521));
BENCHMARK(BM_PrimeMontMulCios)
    ->Arg(static_cast<int>(NistPrime::P192))
    ->Arg(static_cast<int>(NistPrime::P256));
BENCHMARK(BM_BinaryMulComb)
    ->Arg(static_cast<int>(NistBinary::B163))
    ->Arg(static_cast<int>(NistBinary::B233))
    ->Arg(static_cast<int>(NistBinary::B283))
    ->Arg(static_cast<int>(NistBinary::B409))
    ->Arg(static_cast<int>(NistBinary::B571));
BENCHMARK(BM_BinarySqr)->Arg(static_cast<int>(NistBinary::B163));
BENCHMARK(BM_ScalarMulP256);
BENCHMARK(BM_EcdsaSignP256);

BENCHMARK_MAIN();
