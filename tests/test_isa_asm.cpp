/**
 * @file
 * ISA encode/decode and assembler tests.
 */

#include <gtest/gtest.h>

#include "asmkit/assembler.hh"
#include "isa/isa.hh"

using namespace ulecc;

TEST(Isa, EncodeDecodeRoundTripAllOps)
{
    for (int i = 1; i < static_cast<int>(Op::NumOps); ++i) {
        DecodedInst d;
        d.op = static_cast<Op>(i);
        d.rs = 3;
        d.rt = 7;
        d.rd = 12;
        d.shamt = 5;
        d.uimm = 0x1234;
        d.simm = 0x1234;
        d.target = 0x123456;
        uint32_t w = encode(d);
        DecodedInst back = decode(w);
        EXPECT_EQ(back.op, d.op) << opName(d.op);
    }
}

TEST(Isa, DecodeFieldExtraction)
{
    // addu $t2, $t0, $t1 -> rd=10 rs=8 rt=9 funct=0x21.
    uint32_t w = (8u << 21) | (9u << 16) | (10u << 11) | 0x21;
    DecodedInst d = decode(w);
    EXPECT_EQ(d.op, Op::Addu);
    EXPECT_EQ(d.rs, 8);
    EXPECT_EQ(d.rt, 9);
    EXPECT_EQ(d.rd, 10);
}

TEST(Isa, SignExtension)
{
    // addiu $t0, $zero, -4
    DecodedInst d;
    d.op = Op::Addiu;
    d.rt = 8;
    d.uimm = 0xFFFC;
    DecodedInst back = decode(encode(d));
    EXPECT_EQ(back.simm, -4);
    EXPECT_EQ(back.uimm, 0xFFFCu);
}

TEST(Isa, RegNames)
{
    EXPECT_EQ(parseReg("$t0"), 8);
    EXPECT_EQ(parseReg("$zero"), 0);
    EXPECT_EQ(parseReg("$sp"), 29);
    EXPECT_EQ(parseReg("$31"), 31);
    EXPECT_EQ(parseReg("$32"), -1);
    EXPECT_EQ(parseReg("bogus"), -1);
    EXPECT_STREQ(regName(4), "$a0");
}

TEST(Isa, ClassOf)
{
    EXPECT_EQ(classOf(Op::Lw), InstClass::Load);
    EXPECT_EQ(classOf(Op::Sw), InstClass::Store);
    EXPECT_EQ(classOf(Op::Beq), InstClass::Branch);
    EXPECT_EQ(classOf(Op::Jal), InstClass::Jump);
    EXPECT_EQ(classOf(Op::Maddu), InstClass::MulDiv);
    EXPECT_EQ(classOf(Op::Mflo), InstClass::HiLoMove);
    EXPECT_EQ(classOf(Op::Cop2mul), InstClass::Cop2);
    EXPECT_EQ(classOf(Op::Break), InstClass::System);
    EXPECT_EQ(classOf(Op::Addu), InstClass::Alu);
}

TEST(Isa, SrcDestTracking)
{
    DecodedInst lw = decode(encode(DecodedInst{
        .op = Op::Lw, .rs = 4, .rt = 8}));
    EXPECT_EQ(destGpr(lw), 8);
    int srcs[2];
    EXPECT_EQ(srcGprs(lw, srcs), 1);
    EXPECT_EQ(srcs[0], 4);

    DecodedInst sw = decode(encode(DecodedInst{
        .op = Op::Sw, .rs = 4, .rt = 8}));
    EXPECT_EQ(destGpr(sw), 0);
    EXPECT_EQ(srcGprs(sw, srcs), 2);
}

TEST(Assembler, BasicProgram)
{
    Program p = assemble(R"(
        # A simple program.
        start:
            addiu $t0, $zero, 5
            addiu $t1, $zero, 7
            addu  $t2, $t0, $t1
            break
    )");
    ASSERT_EQ(p.words.size(), 4u);
    EXPECT_EQ(p.labels.at("start"), 0u);
    DecodedInst d = decode(p.words[2]);
    EXPECT_EQ(d.op, Op::Addu);
    EXPECT_EQ(d.rd, 10);
}

TEST(Assembler, LabelsAndBranches)
{
    Program p = assemble(R"(
            addiu $t0, $zero, 3
        loop:
            addiu $t0, $t0, -1
            bne   $t0, $zero, loop
            nop
            break
    )");
    EXPECT_EQ(p.labels.at("loop"), 4u);
    DecodedInst bne = decode(p.words[2]);
    EXPECT_EQ(bne.op, Op::Bne);
    // displacement: (4 - (8+4))/4 = -2.
    EXPECT_EQ(bne.simm, -2);
}

TEST(Assembler, PseudoInstructions)
{
    Program p = assemble(R"(
            li $t0, 0x12345678
            move $t1, $t0
            nop
            b end
            nop
        end:
            break
    )");
    DecodedInst lui = decode(p.words[0]);
    EXPECT_EQ(lui.op, Op::Lui);
    EXPECT_EQ(lui.uimm, 0x1234u);
    DecodedInst ori = decode(p.words[1]);
    EXPECT_EQ(ori.op, Op::Ori);
    EXPECT_EQ(ori.uimm, 0x5678u);
    DecodedInst mv = decode(p.words[2]);
    EXPECT_EQ(mv.op, Op::Addu);
    DecodedInst nop = decode(p.words[3]);
    EXPECT_EQ(nop.op, Op::Sll);
    EXPECT_EQ(nop.raw, 0u);
}

TEST(Assembler, DataDirectives)
{
    Program p = assemble(R"(
            j main
            nop
        table:
            .word 0xdeadbeef, 42
            .space 8
        main:
            break
    )");
    EXPECT_EQ(p.labels.at("table"), 8u);
    EXPECT_EQ(p.words[2], 0xdeadbeefu);
    EXPECT_EQ(p.words[3], 42u);
    EXPECT_EQ(p.labels.at("main"), 24u);
}

TEST(Assembler, OrgDirective)
{
    Program p = assemble(R"(
            break
            .org 0x40
        data:
            .word 7
    )");
    EXPECT_EQ(p.labels.at("data"), 0x40u);
    EXPECT_EQ(p.words[0x40 / 4], 7u);
}

TEST(Assembler, MemOperands)
{
    Program p = assemble("lw $t0, 8($sp)\nsw $t0, -4($sp)\nbreak\n");
    DecodedInst lw = decode(p.words[0]);
    EXPECT_EQ(lw.op, Op::Lw);
    EXPECT_EQ(lw.rs, 29);
    EXPECT_EQ(lw.simm, 8);
    DecodedInst sw = decode(p.words[1]);
    EXPECT_EQ(sw.simm, -4);
}

TEST(Assembler, ExtensionMnemonics)
{
    Program p = assemble(R"(
            maddu $t0, $t1
            m2addu $t0, $t1
            addau $t2, $t3
            sha
            mulgf2 $t0, $t1
            maddgf2 $t0, $t1
            break
    )");
    EXPECT_EQ(decode(p.words[0]).op, Op::Maddu);
    EXPECT_EQ(decode(p.words[1]).op, Op::M2addu);
    EXPECT_EQ(decode(p.words[2]).op, Op::Addau);
    EXPECT_EQ(decode(p.words[3]).op, Op::Sha);
    EXPECT_EQ(decode(p.words[4]).op, Op::Mulgf2);
    EXPECT_EQ(decode(p.words[5]).op, Op::Maddgf2);
}

TEST(Assembler, CoprocessorMnemonics)
{
    Program p = assemble(R"(
            ctc2 $t0, 3
            cop2sync
            cop2lda $a0
            cop2mul
            cop2st $a1
            cop2ld $a0, 5
            cop2mulb 2, 3, 4
            cop2sqr 6, 7
            break
    )");
    EXPECT_EQ(decode(p.words[0]).op, Op::Ctc2);
    EXPECT_EQ(decode(p.words[0]).rd, 3);
    EXPECT_EQ(decode(p.words[1]).op, Op::Cop2sync);
    EXPECT_EQ(decode(p.words[2]).op, Op::Cop2lda);
    EXPECT_EQ(decode(p.words[3]).op, Op::Cop2mul);
    EXPECT_EQ(decode(p.words[4]).op, Op::Cop2st);
    DecodedInst bld = decode(p.words[5]);
    EXPECT_EQ(bld.op, Op::Bld);
    EXPECT_EQ(bld.rd, 5);
    DecodedInst bmul = decode(p.words[6]);
    EXPECT_EQ(bmul.op, Op::Bmul);
    EXPECT_EQ(bmul.rd, 2);    // fd
    EXPECT_EQ(bmul.shamt, 3); // fs
    EXPECT_EQ(bmul.rt, 4);    // ft
}

TEST(Assembler, Errors)
{
    EXPECT_THROW(assemble("bogus $t0, $t1\n"), AsmError);
    EXPECT_THROW(assemble("addu $t0, $t1\n"), AsmError);
    EXPECT_THROW(assemble("lw $t0, nowhere\n"), AsmError);
    EXPECT_THROW(assemble("beq $t0, $t1, nolabel\n"), AsmError);
    EXPECT_THROW(assemble("x: nop\nx: nop\n"), AsmError);
    EXPECT_THROW(assemble(".space 3\n"), AsmError);
}

TEST(Assembler, ErrorsCarryLineAndCode)
{
    // AsmError is part of the structured taxonomy: Errc::AsmSyntax,
    // still catchable as std::runtime_error, with the 1-based line.
    try {
        assemble("nop\nnop\nbogus $t0\n");
        FAIL() << "unknown mnemonic must throw";
    } catch (const AsmError &e) {
        EXPECT_EQ(e.code(), Errc::AsmSyntax);
        EXPECT_EQ(e.line(), 3);
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
    try {
        assemble("addu $t9, $nosuch, $t1\n");
        FAIL() << "bad register must throw";
    } catch (const AsmError &e) {
        EXPECT_EQ(e.code(), Errc::AsmSyntax);
        EXPECT_EQ(e.line(), 1);
    }
}

