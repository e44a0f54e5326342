/**
 * @file
 * The simulated instruction set: a MIPS-II subset (what "Pete"
 * implements, Section 5.1) plus the paper's extensions:
 *
 *  - prime-field ISA extensions MADDU / M2ADDU / ADDAU / SHA with the
 *    (OvFlo, Hi, Lo) accumulator (Table 5.1);
 *  - binary-field ISA extensions MULGF2 / MADDGF2 (Table 5.2);
 *  - Coprocessor-2 instructions for the Monte accelerator (Table 5.3)
 *    and the Billie accelerator (Table 5.6).
 *
 * Unaligned load/store, floating point and memory-management
 * instructions are excluded, as in the paper.
 */

#ifndef ULECC_ISA_ISA_HH
#define ULECC_ISA_ISA_HH

#include <cstdint>
#include <string>

namespace ulecc
{

/** Every instruction Pete can execute. */
enum class Op : uint8_t
{
    Invalid,
    // Shifts.
    Sll, Srl, Sra, Sllv, Srlv, Srav,
    // Jumps (register).
    Jr, Jalr,
    // System.
    Syscall, Break,
    // Hi/Lo moves.
    Mfhi, Mthi, Mflo, Mtlo,
    // Multiply / divide (multi-cycle, off-pipeline unit).
    Mult, Multu, Div, Divu,
    // Integer ALU (R-type).
    Add, Addu, Sub, Subu, And, Or, Xor, Nor, Slt, Sltu,
    // Immediate ALU.
    Addi, Addiu, Slti, Sltiu, Andi, Ori, Xori, Lui,
    // Branches.
    Beq, Bne, Blez, Bgtz, Bltz, Bgez,
    // Jumps (absolute).
    J, Jal,
    // Loads / stores.
    Lb, Lh, Lw, Lbu, Lhu, Sb, Sh, Sw,
    // --- Prime-field ISA extensions (paper Table 5.1) ---
    Maddu,   ///< (OvFlo,Hi,Lo) += rs * rt
    M2addu,  ///< (OvFlo,Hi,Lo) += 2 * rs * rt
    Addau,   ///< (OvFlo,Hi,Lo) += (rs << 32) + rt
    Sha,     ///< (OvFlo,Hi,Lo) >>= 32
    // --- Binary-field ISA extensions (paper Table 5.2) ---
    Mulgf2,  ///< (OvFlo,Hi,Lo)  = rs (x) rt   (carry-less)
    Maddgf2, ///< (OvFlo,Hi,Lo) ^= rs (x) rt
    // --- Coprocessor 2: Monte (paper Table 5.3) ---
    Ctc2,     ///< move GPR to coprocessor control register
    Cop2sync, ///< synchronise with the coprocessor
    Cop2lda,  ///< DMA: operand buffer A <- MEM[GPR[rt]]
    Cop2ldb,  ///< DMA: operand buffer B <- MEM[GPR[rt]]
    Cop2ldn,  ///< DMA: modulus buffer N <- MEM[GPR[rt]]
    Cop2mul,  ///< FFAU: result <- A * B mod N
    Cop2add,  ///< FFAU: result <- A + B mod N
    Cop2sub,  ///< FFAU: result <- A - B mod N
    Cop2st,   ///< DMA: MEM[GPR[rt]] <- result buffer
    // --- Coprocessor 2: Billie (paper Table 5.6) ---
    Bld,  ///< BR[fs] <- MEM[GPR[rt]]
    Bst,  ///< MEM[GPR[rt]] <- BR[fs]
    Bmul, ///< BR[fd] <- BR[fs] x BR[ft] mod f
    Bsqr, ///< BR[fd] <- BR[ft]^2 mod f
    Badd, ///< BR[fd] <- BR[fs] + BR[ft]
    NumOps,
};

/** Broad behavioural class used by the pipeline timing model. */
enum class InstClass : uint8_t
{
    Alu,      ///< single-cycle integer / shift / Lui
    Load,
    Store,
    Branch,
    Jump,
    MulDiv,   ///< issues to the off-pipeline multiply/divide unit
    HiLoMove, ///< Mfhi/Mflo/Mthi/Mtlo (interlocks with MulDiv unit)
    Cop2,     ///< coprocessor-2 command
    System,   ///< Syscall / Break
};

/** A decoded instruction (all fields extracted). */
struct DecodedInst
{
    Op op = Op::Invalid;
    uint8_t rs = 0;
    uint8_t rt = 0;
    uint8_t rd = 0;
    uint8_t shamt = 0;
    int32_t simm = 0;   ///< sign-extended 16-bit immediate
    uint32_t uimm = 0;  ///< zero-extended 16-bit immediate
    uint32_t target = 0; ///< 26-bit jump target field
    uint32_t raw = 0;
};

/** Decodes a 32-bit instruction word. */
DecodedInst decode(uint32_t word);

/** Encodes a decoded instruction back to its 32-bit word. */
uint32_t encode(const DecodedInst &inst);

/** Behavioural class of an op. */
InstClass classOf(Op op);

/** Lower-case mnemonic (e.g. "addu", "cop2mul"). */
const char *opName(Op op);

/** Renders an instruction in assembly syntax. */
std::string disassemble(const DecodedInst &inst, uint32_t pc);

/** Destination GPR (0 when none). */
int destGpr(const DecodedInst &inst);

/** Source GPRs: fills up to two registers; returns count. */
int srcGprs(const DecodedInst &inst, int out[2]);

/** Canonical register names ($zero, $at, $v0, ...). */
const char *regName(int index);

/** Parses "$t0" / "$5" / "t0" to a register index, or -1. */
int parseReg(const std::string &name);

} // namespace ulecc

#endif // ULECC_ISA_ISA_HH
