/**
 * @file
 * Assembly kernel generation and execution.
 */

#include "workload/asm_kernels.hh"

#include "base/error.hh"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace ulecc
{

namespace
{

constexpr uint32_t kAddrA = 0x10000400; ///< up to 2k limbs
constexpr uint32_t kAddrB = 0x10000500; ///< k limbs
constexpr uint32_t kAddrR = 0x10000600; ///< up to 2k + 1 limbs

std::string
prologue(int k)
{
    std::ostringstream os;
    os << "    li $a0, " << kAddrA << "\n"
       << "    li $a1, " << kAddrB << "\n"
       << "    li $a2, " << kAddrR << "\n"
       << "    li $s0, " << k << "\n";
    return os.str();
}

/** k-limb add with full carry chain (the baseline mp add). */
std::string
mpAddBody(int)
{
    return R"(
    move  $t9, $s0        # counter
    move  $t8, $zero      # carry in
loop:
    lw    $t0, 0($a0)
    lw    $t1, 0($a1)
    addu  $t2, $t0, $t1
    sltu  $t3, $t2, $t0   # carry from a+b
    addu  $t4, $t2, $t8
    sltu  $t5, $t4, $t2   # carry from +cin
    or    $t8, $t3, $t5
    sw    $t4, 0($a2)
    addiu $a0, $a0, 4
    addiu $a1, $a1, 4
    addiu $a2, $a2, 4
    addiu $t9, $t9, -1
    bne   $t9, $zero, loop
    nop
    sw    $t8, 0($a2)     # carry limb
    break
)";
}

/** Operand-scanning multiplication (paper Algorithm 2). */
std::string
mulOsBody(int)
{
    return R"(
    move  $t9, $zero      # i = 0
outer:
    lw    $s1, 0($a1)     # bi
    move  $t8, $zero      # u
    move  $t7, $zero      # j
    move  $s2, $a0        # aptr
    sll   $t0, $t9, 2
    addu  $s3, $a2, $t0   # rptr = R + 4*i
inner:
    lw    $t0, 0($s2)     # aj
    multu $t0, $s1
    lw    $t1, 0($s3)     # p[i+j]
    addiu $s2, $s2, 4
    addiu $t7, $t7, 1
    mflo  $t2
    mfhi  $t3
    addu  $t4, $t2, $t1   # lo + p
    sltu  $t5, $t4, $t2
    addu  $t3, $t3, $t5   # hi += c (cannot overflow)
    addu  $t6, $t4, $t8   # + u
    sltu  $t5, $t6, $t4
    addu  $t8, $t3, $t5   # u' = hi + c
    sw    $t6, 0($s3)
    bne   $t7, $s0, inner
    addiu $s3, $s3, 4     # delay slot: bump rptr
    sw    $t8, 0($s3)     # p[i+k] = u
    addiu $t9, $t9, 1
    bne   $t9, $s0, outer
    addiu $a1, $a1, 4     # delay slot: bump bptr
    break
)";
}

/** Product-scanning multiplication with MADDU/SHA (ISA extensions). */
std::string
mulPsMadduBody(int k)
{
    std::ostringstream os;
    os << "    li    $s5, " << (kAddrB + 4 * (k - 1)) << "  # B + 4(k-1)\n"
       << "    li    $s6, " << (2 * k - 1) << "             # 2k-1\n";
    os << R"(
    mtlo  $zero
    mthi  $zero
    move  $t9, $zero      # col = 0
cols1:
    move  $s2, $a0        # aptr = A
    sll   $t0, $t9, 2
    addu  $s3, $a1, $t0   # bptr = B + 4*col
    move  $t7, $zero      # j = 0
inner1:
    lw    $t0, 0($s2)
    lw    $t1, 0($s3)
    addiu $s2, $s2, 4
    maddu $t0, $t1
    addiu $s3, $s3, -4
    addiu $t7, $t7, 1
    sltu  $t0, $t9, $t7   # j > col ?
    beq   $t0, $zero, inner1
    nop
    mflo  $t2
    sw    $t2, 0($a2)
    addiu $a2, $a2, 4
    sha
    addiu $t9, $t9, 1
    bne   $t9, $s0, cols1
    nop
cols2:
    subu  $t6, $t9, $s0
    addiu $t6, $t6, 1     # jstart = col - k + 1
    sll   $t0, $t6, 2
    addu  $s2, $a0, $t0   # aptr = A + 4*jstart
    move  $s3, $s5        # bptr = B + 4*(k-1)
    subu  $t7, $s6, $t9   # count = 2k-1-col
inner2:
    lw    $t0, 0($s2)
    lw    $t1, 0($s3)
    addiu $s2, $s2, 4
    maddu $t0, $t1
    addiu $s3, $s3, -4
    addiu $t7, $t7, -1
    bne   $t7, $zero, inner2
    nop
    mflo  $t2
    sw    $t2, 0($a2)
    addiu $a2, $a2, 4
    sha
    addiu $t9, $t9, 1
    bne   $t9, $s6, cols2
    nop
    mflo  $t2
    sw    $t2, 0($a2)     # top word
    break
)";
    return os.str();
}

/** Carry-less product scanning with MADDGF2 (binary ISA extensions). */
std::string
mulGf2Body(int k)
{
    // Same control structure as mulPsMaddu, with carry-less MACs.
    std::ostringstream os;
    os << "    li    $s5, " << (kAddrB + 4 * (k - 1)) << "\n"
       << "    li    $s6, " << (2 * k - 1) << "\n";
    os << R"(
    mtlo  $zero
    mthi  $zero
    move  $t9, $zero
cols1:
    move  $s2, $a0
    sll   $t0, $t9, 2
    addu  $s3, $a1, $t0
    move  $t7, $zero
inner1:
    lw    $t0, 0($s2)
    lw    $t1, 0($s3)
    addiu $s2, $s2, 4
    maddgf2 $t0, $t1
    addiu $s3, $s3, -4
    addiu $t7, $t7, 1
    sltu  $t0, $t9, $t7
    beq   $t0, $zero, inner1
    nop
    mflo  $t2
    sw    $t2, 0($a2)
    addiu $a2, $a2, 4
    sha
    addiu $t9, $t9, 1
    bne   $t9, $s0, cols1
    nop
cols2:
    subu  $t6, $t9, $s0
    addiu $t6, $t6, 1
    sll   $t0, $t6, 2
    addu  $s2, $a0, $t0
    move  $s3, $s5
    subu  $t7, $s6, $t9
inner2:
    lw    $t0, 0($s2)
    lw    $t1, 0($s3)
    addiu $s2, $s2, 4
    maddgf2 $t0, $t1
    addiu $s3, $s3, -4
    addiu $t7, $t7, -1
    bne   $t7, $zero, inner2
    nop
    mflo  $t2
    sw    $t2, 0($a2)
    addiu $a2, $a2, 4
    sha
    addiu $t9, $t9, 1
    bne   $t9, $s6, cols2
    nop
    mflo  $t2
    sw    $t2, 0($a2)
    break
)";
    return os.str();
}

/**
 * NIST fast reduction modulo P-192 (paper Algorithm 4): the 384-bit
 * input (12 words at A) folds into column sums
 *   col0: a0+a6+a10      col1: a1+a7+a11
 *   col2: a2+a6+a8+a10   col3: a3+a7+a9+a11
 *   col4: a4+a8+a10      col5: a5+a9+a11
 * followed by conditional subtractions of p.
 */
std::string
redP192Body(int)
{
    return R"(
    lw    $t0, 0($a0)
    lw    $t1, 4($a0)
    lw    $t2, 8($a0)
    lw    $t3, 12($a0)
    lw    $t4, 16($a0)
    lw    $t5, 20($a0)
    lw    $t6, 24($a0)    # a6
    lw    $t7, 28($a0)    # a7
    lw    $s1, 32($a0)    # a8
    lw    $s2, 36($a0)    # a9
    lw    $s3, 40($a0)    # a10
    lw    $s4, 44($a0)    # a11
    move  $t8, $zero      # running carry
    # col0 = a0 + a6 + a10
    addu  $v0, $t0, $t6
    sltu  $t9, $v0, $t0
    addu  $v0, $v0, $s3
    sltu  $s5, $v0, $s3
    addu  $t8, $t9, $s5   # carry out of col0
    sw    $v0, 0($a2)
    # col1 = a1 + a7 + a11 + c
    addu  $v0, $t1, $t7
    sltu  $t9, $v0, $t1
    addu  $v0, $v0, $s4
    sltu  $s5, $v0, $s4
    addu  $t9, $t9, $s5
    addu  $v0, $v0, $t8
    sltu  $s5, $v0, $t8
    addu  $t8, $t9, $s5
    sw    $v0, 4($a2)
    # col2 = a2 + a6 + a8 + a10 + c
    addu  $v0, $t2, $t6
    sltu  $t9, $v0, $t2
    addu  $v0, $v0, $s1
    sltu  $s5, $v0, $s1
    addu  $t9, $t9, $s5
    addu  $v0, $v0, $s3
    sltu  $s5, $v0, $s3
    addu  $t9, $t9, $s5
    addu  $v0, $v0, $t8
    sltu  $s5, $v0, $t8
    addu  $t8, $t9, $s5
    sw    $v0, 8($a2)
    # col3 = a3 + a7 + a9 + a11 + c
    addu  $v0, $t3, $t7
    sltu  $t9, $v0, $t3
    addu  $v0, $v0, $s2
    sltu  $s5, $v0, $s2
    addu  $t9, $t9, $s5
    addu  $v0, $v0, $s4
    sltu  $s5, $v0, $s4
    addu  $t9, $t9, $s5
    addu  $v0, $v0, $t8
    sltu  $s5, $v0, $t8
    addu  $t8, $t9, $s5
    sw    $v0, 12($a2)
    # col4 = a4 + a8 + a10 + c
    addu  $v0, $t4, $s1
    sltu  $t9, $v0, $t4
    addu  $v0, $v0, $s3
    sltu  $s5, $v0, $s3
    addu  $t9, $t9, $s5
    addu  $v0, $v0, $t8
    sltu  $s5, $v0, $t8
    addu  $t8, $t9, $s5
    sw    $v0, 16($a2)
    # col5 = a5 + a9 + a11 + c
    addu  $v0, $t5, $s2
    sltu  $t9, $v0, $t5
    addu  $v0, $v0, $s4
    sltu  $s5, $v0, $s4
    addu  $t9, $t9, $s5
    addu  $v0, $v0, $t8
    sltu  $s5, $v0, $t8
    addu  $t8, $t9, $s5
    sw    $v0, 20($a2)
    # $t8 is now the top (carry) word of T.
correct:
    # While (carry || T >= p): T -= p.   p = 2^192 - 2^64 - 1.
    bne   $t8, $zero, dosub
    nop
    # Compare T to p from the most significant word down.
    li    $t9, 0xffffffff
    lw    $v0, 20($a2)
    bne   $v0, $t9, cmplt   # w5 < ff.. means T < p
    nop
    lw    $v0, 16($a2)
    bne   $v0, $t9, cmplt
    nop
    lw    $v0, 12($a2)
    bne   $v0, $t9, cmplt
    nop
    lw    $v0, 8($a2)
    li    $s5, 0xfffffffe
    sltu  $t0, $v0, $s5
    bne   $t0, $zero, done  # w2 < fffffffe -> T < p
    nop
    beq   $v0, $s5, checkw1 # w2 == fffffffe: look lower
    nop
    b     dosub             # w2 == ffffffff > fffffffe -> T > p
    nop
checkw1:
    lw    $v0, 4($a2)
    bne   $v0, $t9, cmplt
    nop
    lw    $v0, 0($a2)
    bne   $v0, $t9, cmplt
    nop
    b     dosub             # T == p exactly
    nop
cmplt:
    sltu  $t0, $v0, $t9
    bne   $t0, $zero, done
    nop
dosub:
    # Literal 7-word T -= p with borrow chain.
    # word 0: p word = 0xffffffff
    li    $t9, 0xffffffff
    lw    $v0, 0($a2)
    subu  $v1, $v0, $t9
    sltu  $s5, $v0, $t9     # borrow out
    sw    $v1, 0($a2)
    # word 1: p word = 0xffffffff
    lw    $v0, 4($a2)
    subu  $v1, $v0, $t9
    sltu  $t0, $v0, $t9
    subu  $t2, $v1, $s5
    sltu  $t3, $v1, $s5
    addu  $s5, $t0, $t3
    sw    $t2, 4($a2)
    # word 2: p word = 0xfffffffe
    li    $t9, 0xfffffffe
    lw    $v0, 8($a2)
    subu  $v1, $v0, $t9
    sltu  $t0, $v0, $t9
    subu  $t2, $v1, $s5
    sltu  $t3, $v1, $s5
    addu  $s5, $t0, $t3
    sw    $t2, 8($a2)
    # words 3..5: p word = 0xffffffff
    li    $t9, 0xffffffff
    lw    $v0, 12($a2)
    subu  $v1, $v0, $t9
    sltu  $t0, $v0, $t9
    subu  $t2, $v1, $s5
    sltu  $t3, $v1, $s5
    addu  $s5, $t0, $t3
    sw    $t2, 12($a2)
    lw    $v0, 16($a2)
    subu  $v1, $v0, $t9
    sltu  $t0, $v0, $t9
    subu  $t2, $v1, $s5
    sltu  $t3, $v1, $s5
    addu  $s5, $t0, $t3
    sw    $t2, 16($a2)
    lw    $v0, 20($a2)
    subu  $v1, $v0, $t9
    sltu  $t0, $v0, $t9
    subu  $t2, $v1, $s5
    sltu  $t3, $v1, $s5
    addu  $s5, $t0, $t3
    sw    $t2, 20($a2)
    subu  $t8, $t8, $s5     # borrow out of the carry word
    b     correct
    nop
done:
    break
)";
}

} // namespace

const uint32_t kKernelRamBase = kAddrA;
const uint32_t kKernelRamWords = (kAddrR + 4 * 16 - kAddrA) / 4;

std::string
kernelSource(AsmKernel kernel, int k)
{
    std::string body;
    switch (kernel) {
      case AsmKernel::MpAdd:
        body = mpAddBody(k);
        break;
      case AsmKernel::MulOs:
        body = mulOsBody(k);
        break;
      case AsmKernel::MulPsMaddu:
        body = mulPsMadduBody(k);
        break;
      case AsmKernel::MulGf2:
        body = mulGf2Body(k);
        break;
      case AsmKernel::RedP192:
        assert(k == 6 && "RedP192 is fixed at k = 6");
        body = redP192Body(k);
        break;
    }
    return prologue(k) + body;
}

KernelSim
simulateKernel(AsmKernel kernel, int k, const Program &program,
               const PeteConfig &config, const MpUint &a, const MpUint &b,
               StepHook *hook)
{
    Pete cpu(program, config);
    for (int i = 0; i < 2 * k; ++i)
        cpu.mem().poke32(kAddrA + 4 * i, a.limb(i));
    for (int i = 0; i < k; ++i)
        cpu.mem().poke32(kAddrB + 4 * i, b.limb(i));
    if (hook)
        cpu.attachStepHook(hook);
    KernelSim sim;
    sim.outcome = cpu.runChecked();
    sim.stats = cpu.stats();
    sim.ram = cpu.mem().ramCounters();
    sim.romFetch = cpu.mem().romFetchCounters();
    int result_limbs = (kernel == AsmKernel::MpAdd) ? k + 1
        : (kernel == AsmKernel::RedP192) ? 6 : 2 * k;
    for (int i = 0; i < result_limbs; ++i)
        sim.result.setLimb(i, cpu.mem().peek32(kAddrR + 4 * i));
    return sim;
}

KernelRun
runKernel(AsmKernel kernel, const MpUint &a, const MpUint &b, int k,
          const ICacheConfig *icache, MultiplierVariant multiplier)
{
    PeteConfig cfg;
    cfg.multiplier = multiplier;
    if (icache) {
        cfg.icacheEnabled = true;
        cfg.icache = *icache;
    }
    KernelSim full = simulateKernel(
        kernel, k, assemble(kernelSource(kernel, k)), cfg, a, b);
    KernelSim empty = simulateKernel(
        kernel, k, assemble(prologue(k) + "    break\n"), cfg, a, b);
    // value() throws a failed run's structured error.
    full.outcome.value();
    empty.outcome.value();

    KernelRun run;
    run.result = full.result;
    run.cycles = full.stats.cycles - empty.stats.cycles;
    run.instructions = full.stats.instructions - empty.stats.instructions;
    run.ramReads = full.ram.reads;
    run.ramWrites = full.ram.writes;
    run.romFetches = full.romFetch.reads - empty.romFetch.reads;
    run.multIssues = full.stats.multIssues;
    return run;
}

} // namespace ulecc
