/**
 * @file
 * Multi-precision field kernels written in the simulated assembly.
 *
 * These are the hot loops of the paper's software suite (Section 4.2)
 * expressed as real programs for Pete.  Running them in the cycle
 * simulator serves two purposes:
 *
 *  1. cross-validation -- the kernel results must be bit-identical to
 *     the native MpUint implementations;
 *  2. calibration -- the measured cycles/events per operation anchor
 *     the whole-ECDSA composition model (the paper quotes 374 cycles
 *     for the ISA-extended P192 product-scanning multiplication and 97
 *     for the P192 NIST reduction; our simulated kernels must land in
 *     the same regime).
 */

#ifndef ULECC_WORKLOAD_ASM_KERNELS_HH
#define ULECC_WORKLOAD_ASM_KERNELS_HH

#include <string>

#include "mpint/mpuint.hh"
#include "sim/cpu.hh"

namespace ulecc
{

/** Result of one kernel execution on the simulator. */
struct KernelRun
{
    MpUint result;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t ramReads = 0;
    uint64_t ramWrites = 0;
    uint64_t romFetches = 0;
    uint64_t multIssues = 0;
};

/** Kernel selector. */
enum class AsmKernel
{
    MpAdd,      ///< k-limb add with carry chain (baseline + all)
    MulOs,      ///< operand-scanning k x k multiply (baseline, Alg 2)
    MulPsMaddu, ///< product-scanning multiply w/ MADDU+SHA (ISA ext)
    MulGf2,     ///< carry-less product scanning w/ MADDGF2 (binary ISA)
    RedP192,    ///< NIST fast reduction modulo P-192 (Alg 4)
};

/** Returns the assembly source of @p kernel for @p k limbs. */
std::string kernelSource(AsmKernel kernel, int k);

/** What one testbench run of a kernel program on Pete produced. */
struct KernelSim
{
    Result<uint64_t> outcome{0ull}; ///< Pete::runChecked()
    PeteStats stats;
    MemCounters ram;                ///< RAM data accesses
    MemCounters romFetch;           ///< narrow ROM fetches
    /** The kernel's result limbs: k + 1 for MpAdd, 6 for RedP192,
     *  2k otherwise. */
    MpUint result;
};

/**
 * The kernel testbench, the one place that knows the operand layout:
 * loads @p a (2k limbs; the reduction kernels read a double-width A)
 * and @p b (k limbs) at the kernel operand addresses, runs @p program
 * under @p config with @p hook attached, and reads back @p kernel's
 * result limbs.
 */
KernelSim simulateKernel(AsmKernel kernel, int k, const Program &program,
                         const PeteConfig &config, const MpUint &a,
                         const MpUint &b, StepHook *hook = nullptr);

/** The testbench's live RAM, operand A through a 16-limb result: the
 *  words a fault strike may flip. */
extern const uint32_t kKernelRamBase;
extern const uint32_t kKernelRamWords;

/**
 * Runs @p kernel on the simulator with operands @p a and @p b of
 * @p k limbs.  The measured window excludes the setup prologue.
 *
 * @param icache      Optionally run with an instruction cache attached.
 * @param multiplier  The Hi/Lo multiplier design point to time against
 *                    (sim/multiplier.hh; results are variant-invariant,
 *                    cycles are not).
 */
KernelRun runKernel(AsmKernel kernel, const MpUint &a, const MpUint &b,
                    int k, const ICacheConfig *icache = nullptr,
                    MultiplierVariant multiplier =
                        MultiplierVariant::Karatsuba);

} // namespace ulecc

#endif // ULECC_WORKLOAD_ASM_KERNELS_HH
