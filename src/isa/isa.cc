/**
 * @file
 * ISA encode/decode/disassemble implementation.
 */

#include "isa/isa.hh"

#include <array>
#include <cassert>
#include <cstdio>

namespace ulecc
{

namespace
{

enum Format : uint8_t
{
    FmtR,      ///< opcode 0, funct
    FmtExt,    ///< opcode 0x1C (SPECIAL2), funct
    FmtI,      ///< immediate
    FmtJ,      ///< 26-bit target
    FmtRegimm, ///< opcode 1, code in rt
    FmtCop2,   ///< opcode 0x12, CO bit set, funct
    FmtCtc2,   ///< opcode 0x12, rs == 6
};

struct OpInfo
{
    Op op;
    const char *name;
    Format format;
    uint8_t major; ///< primary opcode
    uint8_t minor; ///< funct / regimm code
};

constexpr uint8_t kOpSpecial = 0x00;
constexpr uint8_t kOpRegimm = 0x01;
constexpr uint8_t kOpExt = 0x1C;
constexpr uint8_t kOpCop2 = 0x12;

const OpInfo kOps[] = {
    {Op::Sll, "sll", FmtR, kOpSpecial, 0},
    {Op::Srl, "srl", FmtR, kOpSpecial, 2},
    {Op::Sra, "sra", FmtR, kOpSpecial, 3},
    {Op::Sllv, "sllv", FmtR, kOpSpecial, 4},
    {Op::Srlv, "srlv", FmtR, kOpSpecial, 6},
    {Op::Srav, "srav", FmtR, kOpSpecial, 7},
    {Op::Jr, "jr", FmtR, kOpSpecial, 8},
    {Op::Jalr, "jalr", FmtR, kOpSpecial, 9},
    {Op::Syscall, "syscall", FmtR, kOpSpecial, 12},
    {Op::Break, "break", FmtR, kOpSpecial, 13},
    {Op::Mfhi, "mfhi", FmtR, kOpSpecial, 16},
    {Op::Mthi, "mthi", FmtR, kOpSpecial, 17},
    {Op::Mflo, "mflo", FmtR, kOpSpecial, 18},
    {Op::Mtlo, "mtlo", FmtR, kOpSpecial, 19},
    {Op::Mult, "mult", FmtR, kOpSpecial, 24},
    {Op::Multu, "multu", FmtR, kOpSpecial, 25},
    {Op::Div, "div", FmtR, kOpSpecial, 26},
    {Op::Divu, "divu", FmtR, kOpSpecial, 27},
    {Op::Add, "add", FmtR, kOpSpecial, 32},
    {Op::Addu, "addu", FmtR, kOpSpecial, 33},
    {Op::Sub, "sub", FmtR, kOpSpecial, 34},
    {Op::Subu, "subu", FmtR, kOpSpecial, 35},
    {Op::And, "and", FmtR, kOpSpecial, 36},
    {Op::Or, "or", FmtR, kOpSpecial, 37},
    {Op::Xor, "xor", FmtR, kOpSpecial, 38},
    {Op::Nor, "nor", FmtR, kOpSpecial, 39},
    {Op::Slt, "slt", FmtR, kOpSpecial, 42},
    {Op::Sltu, "sltu", FmtR, kOpSpecial, 43},
    {Op::Bltz, "bltz", FmtRegimm, kOpRegimm, 0},
    {Op::Bgez, "bgez", FmtRegimm, kOpRegimm, 1},
    {Op::J, "j", FmtJ, 2, 0},
    {Op::Jal, "jal", FmtJ, 3, 0},
    {Op::Beq, "beq", FmtI, 4, 0},
    {Op::Bne, "bne", FmtI, 5, 0},
    {Op::Blez, "blez", FmtI, 6, 0},
    {Op::Bgtz, "bgtz", FmtI, 7, 0},
    {Op::Addi, "addi", FmtI, 8, 0},
    {Op::Addiu, "addiu", FmtI, 9, 0},
    {Op::Slti, "slti", FmtI, 10, 0},
    {Op::Sltiu, "sltiu", FmtI, 11, 0},
    {Op::Andi, "andi", FmtI, 12, 0},
    {Op::Ori, "ori", FmtI, 13, 0},
    {Op::Xori, "xori", FmtI, 14, 0},
    {Op::Lui, "lui", FmtI, 15, 0},
    {Op::Lb, "lb", FmtI, 32, 0},
    {Op::Lh, "lh", FmtI, 33, 0},
    {Op::Lw, "lw", FmtI, 35, 0},
    {Op::Lbu, "lbu", FmtI, 36, 0},
    {Op::Lhu, "lhu", FmtI, 37, 0},
    {Op::Sb, "sb", FmtI, 40, 0},
    {Op::Sh, "sh", FmtI, 41, 0},
    {Op::Sw, "sw", FmtI, 43, 0},
    {Op::Maddu, "maddu", FmtExt, kOpExt, 0x01},
    {Op::M2addu, "m2addu", FmtExt, kOpExt, 0x20},
    {Op::Addau, "addau", FmtExt, kOpExt, 0x21},
    {Op::Sha, "sha", FmtExt, kOpExt, 0x22},
    {Op::Mulgf2, "mulgf2", FmtExt, kOpExt, 0x23},
    {Op::Maddgf2, "maddgf2", FmtExt, kOpExt, 0x24},
    {Op::Ctc2, "ctc2", FmtCtc2, kOpCop2, 6},
    {Op::Cop2sync, "cop2sync", FmtCop2, kOpCop2, 0x00},
    {Op::Cop2lda, "cop2lda", FmtCop2, kOpCop2, 0x01},
    {Op::Cop2ldb, "cop2ldb", FmtCop2, kOpCop2, 0x02},
    {Op::Cop2ldn, "cop2ldn", FmtCop2, kOpCop2, 0x03},
    {Op::Cop2mul, "cop2mul", FmtCop2, kOpCop2, 0x04},
    {Op::Cop2add, "cop2add", FmtCop2, kOpCop2, 0x05},
    {Op::Cop2sub, "cop2sub", FmtCop2, kOpCop2, 0x06},
    {Op::Cop2st, "cop2st", FmtCop2, kOpCop2, 0x07},
    {Op::Bld, "cop2ld", FmtCop2, kOpCop2, 0x10},
    {Op::Bst, "cop2stb", FmtCop2, kOpCop2, 0x11},
    {Op::Bmul, "cop2mulb", FmtCop2, kOpCop2, 0x12},
    {Op::Bsqr, "cop2sqr", FmtCop2, kOpCop2, 0x13},
    {Op::Badd, "cop2addb", FmtCop2, kOpCop2, 0x14},
};

/**
 * Dispatch tables derived from kOps once at startup, so decode() is a
 * couple of indexed loads instead of a scan over every opcode (the
 * interpreter decodes once per retirement).  kOps stays the single
 * source of truth.
 */
struct DecodeTables
{
    Op specialFunct[64]; ///< opcode 0x00, by funct
    Op extFunct[64];     ///< opcode 0x1C (SPECIAL2), by funct
    Op cop2Funct[64];    ///< opcode 0x12 with the CO bit, by funct
    Op major[64];        ///< single-op primary opcodes (FmtI/FmtJ)

    DecodeTables()
    {
        for (int i = 0; i < 64; ++i)
            specialFunct[i] = extFunct[i] = cop2Funct[i] = major[i] =
                Op::Invalid;
        for (const OpInfo &i : kOps) {
            switch (i.format) {
              case FmtR:
                specialFunct[i.minor] = i.op;
                break;
              case FmtExt:
                extFunct[i.minor] = i.op;
                break;
              case FmtCop2:
                cop2Funct[i.minor] = i.op;
                break;
              case FmtI:
              case FmtJ:
                major[i.major] = i.op;
                break;
              case FmtRegimm:
              case FmtCtc2:
                break; // matched on rt / rs directly in decode()
            }
        }
    }
};

const DecodeTables kDecode;

const OpInfo *
infoFor(Op op)
{
    for (const OpInfo &i : kOps) {
        if (i.op == op)
            return &i;
    }
    return nullptr;
}

} // namespace

DecodedInst
decode(uint32_t word)
{
    DecodedInst d;
    d.raw = word;
    d.rs = (word >> 21) & 0x1F;
    d.rt = (word >> 16) & 0x1F;
    d.rd = (word >> 11) & 0x1F;
    d.shamt = (word >> 6) & 0x1F;
    d.uimm = word & 0xFFFF;
    d.simm = static_cast<int16_t>(word & 0xFFFF);
    d.target = word & 0x03FFFFFF;
    uint8_t opcode = word >> 26;
    uint8_t funct = word & 0x3F;

    switch (opcode) {
      case kOpSpecial:
        d.op = kDecode.specialFunct[funct];
        break;
      case kOpExt:
        d.op = kDecode.extFunct[funct];
        break;
      case kOpRegimm:
        d.op = d.rt == 0 ? Op::Bltz
            : d.rt == 1 ? Op::Bgez : Op::Invalid;
        break;
      case kOpCop2:
        if (word & (1u << 25))
            d.op = kDecode.cop2Funct[funct];
        else
            d.op = d.rs == 6 ? Op::Ctc2 : Op::Invalid;
        break;
      default:
        d.op = kDecode.major[opcode];
        break;
    }
    return d;
}

uint32_t
encode(const DecodedInst &inst)
{
    const OpInfo *i = infoFor(inst.op);
    assert(i && "encode: unknown op");
    uint32_t w = static_cast<uint32_t>(i->major) << 26;
    switch (i->format) {
      case FmtR:
      case FmtExt:
        w |= (inst.rs << 21) | (inst.rt << 16) | (inst.rd << 11)
            | (inst.shamt << 6) | i->minor;
        break;
      case FmtRegimm:
        w |= (inst.rs << 21) | (i->minor << 16) | (inst.uimm & 0xFFFF);
        break;
      case FmtI:
        w |= (inst.rs << 21) | (inst.rt << 16) | (inst.uimm & 0xFFFF);
        break;
      case FmtJ:
        w |= inst.target & 0x03FFFFFF;
        break;
      case FmtCop2:
        // Bit 25 is the CO bit, so coprocessor operands live in the
        // rt / rd / shamt fields only.
        w |= (1u << 25) | (inst.rt << 16) | (inst.rd << 11)
            | (inst.shamt << 6) | i->minor;
        break;
      case FmtCtc2:
        w |= (static_cast<uint32_t>(i->minor) << 21) | (inst.rt << 16)
            | (inst.rd << 11);
        break;
    }
    return w;
}

InstClass
classOf(Op op)
{
    switch (op) {
      case Op::Lb: case Op::Lh: case Op::Lw: case Op::Lbu: case Op::Lhu:
        return InstClass::Load;
      case Op::Sb: case Op::Sh: case Op::Sw:
        return InstClass::Store;
      case Op::Beq: case Op::Bne: case Op::Blez: case Op::Bgtz:
      case Op::Bltz: case Op::Bgez:
        return InstClass::Branch;
      case Op::J: case Op::Jal: case Op::Jr: case Op::Jalr:
        return InstClass::Jump;
      case Op::Mult: case Op::Multu: case Op::Div: case Op::Divu:
      case Op::Maddu: case Op::M2addu: case Op::Addau: case Op::Sha:
      case Op::Mulgf2: case Op::Maddgf2:
        return InstClass::MulDiv;
      case Op::Mfhi: case Op::Mflo: case Op::Mthi: case Op::Mtlo:
        return InstClass::HiLoMove;
      case Op::Ctc2: case Op::Cop2sync: case Op::Cop2lda:
      case Op::Cop2ldb: case Op::Cop2ldn: case Op::Cop2mul:
      case Op::Cop2add: case Op::Cop2sub: case Op::Cop2st:
      case Op::Bld: case Op::Bst: case Op::Bmul: case Op::Bsqr:
      case Op::Badd:
        return InstClass::Cop2;
      case Op::Syscall: case Op::Break:
        return InstClass::System;
      default:
        return InstClass::Alu;
    }
}

const char *
opName(Op op)
{
    const OpInfo *i = infoFor(op);
    return i ? i->name : "invalid";
}

int
destGpr(const DecodedInst &inst)
{
    switch (inst.op) {
      case Op::Sll: case Op::Srl: case Op::Sra: case Op::Sllv:
      case Op::Srlv: case Op::Srav: case Op::Add: case Op::Addu:
      case Op::Sub: case Op::Subu: case Op::And: case Op::Or:
      case Op::Xor: case Op::Nor: case Op::Slt: case Op::Sltu:
      case Op::Mfhi: case Op::Mflo: case Op::Jalr:
        return inst.rd;
      case Op::Addi: case Op::Addiu: case Op::Slti: case Op::Sltiu:
      case Op::Andi: case Op::Ori: case Op::Xori: case Op::Lui:
      case Op::Lb: case Op::Lh: case Op::Lw: case Op::Lbu: case Op::Lhu:
        return inst.rt;
      case Op::Jal:
        return 31;
      default:
        return 0;
    }
}

int
srcGprs(const DecodedInst &inst, int out[2])
{
    int n = 0;
    auto add = [&](int r) {
        if (r != 0 && n < 2)
            out[n++] = r;
    };
    switch (inst.op) {
      case Op::Sll: case Op::Srl: case Op::Sra:
        add(inst.rt);
        break;
      case Op::Sllv: case Op::Srlv: case Op::Srav:
        add(inst.rt);
        add(inst.rs);
        break;
      case Op::Add: case Op::Addu: case Op::Sub: case Op::Subu:
      case Op::And: case Op::Or: case Op::Xor: case Op::Nor:
      case Op::Slt: case Op::Sltu: case Op::Mult: case Op::Multu:
      case Op::Div: case Op::Divu: case Op::Beq: case Op::Bne:
      case Op::Maddu: case Op::M2addu: case Op::Addau:
      case Op::Mulgf2: case Op::Maddgf2:
        add(inst.rs);
        add(inst.rt);
        break;
      case Op::Addi: case Op::Addiu: case Op::Slti: case Op::Sltiu:
      case Op::Andi: case Op::Ori: case Op::Xori: case Op::Lb:
      case Op::Lh: case Op::Lw: case Op::Lbu: case Op::Lhu:
      case Op::Blez: case Op::Bgtz: case Op::Bltz: case Op::Bgez:
      case Op::Jr: case Op::Jalr: case Op::Mthi: case Op::Mtlo:
        add(inst.rs);
        break;
      case Op::Sb: case Op::Sh: case Op::Sw:
        add(inst.rs);
        add(inst.rt);
        break;
      case Op::Ctc2: case Op::Cop2lda: case Op::Cop2ldb:
      case Op::Cop2ldn: case Op::Cop2st: case Op::Bld: case Op::Bst:
        add(inst.rt);
        break;
      default:
        break;
    }
    return n;
}

const char *
regName(int index)
{
    static const char *names[32] = {
        "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3",
        "$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7",
        "$s0", "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
        "$t8", "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra",
    };
    return (index >= 0 && index < 32) ? names[index] : "$?";
}

int
parseReg(const std::string &name)
{
    std::string s = name;
    if (!s.empty() && s[0] == '$')
        s = s.substr(1);
    if (s.empty())
        return -1;
    // Numeric form.
    if (s[0] >= '0' && s[0] <= '9') {
        int v = 0;
        for (char c : s) {
            if (c < '0' || c > '9')
                return -1;
            v = v * 10 + (c - '0');
        }
        return (v >= 0 && v < 32) ? v : -1;
    }
    for (int i = 0; i < 32; ++i) {
        if (s == (regName(i) + 1))
            return i;
    }
    return -1;
}

std::string
disassemble(const DecodedInst &inst, uint32_t pc)
{
    char buf[96];
    const char *n = opName(inst.op);
    switch (classOf(inst.op)) {
      case InstClass::Load:
      case InstClass::Store:
        snprintf(buf, sizeof buf, "%s %s, %d(%s)", n, regName(inst.rt),
                 inst.simm, regName(inst.rs));
        break;
      case InstClass::Branch:
        snprintf(buf, sizeof buf, "%s %s, %s, 0x%x", n, regName(inst.rs),
                 regName(inst.rt),
                 pc + 4 + (static_cast<uint32_t>(inst.simm) << 2));
        break;
      case InstClass::Jump:
        if (inst.op == Op::J || inst.op == Op::Jal) {
            snprintf(buf, sizeof buf, "%s 0x%x", n,
                     ((pc + 4) & 0xF0000000) | (inst.target << 2));
        } else {
            snprintf(buf, sizeof buf, "%s %s", n, regName(inst.rs));
        }
        break;
      default:
        snprintf(buf, sizeof buf, "%s %s, %s, %s", n, regName(inst.rd),
                 regName(inst.rs), regName(inst.rt));
        break;
    }
    return buf;
}

} // namespace ulecc
