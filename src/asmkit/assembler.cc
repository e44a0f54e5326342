/**
 * @file
 * Assembler implementation.
 */

#include "asmkit/assembler.hh"

#include <cassert>
#include <cctype>
#include <sstream>

#include "isa/isa.hh"

namespace ulecc
{

namespace
{

struct Token
{
    std::string text;
};

std::vector<std::string>
tokenize(const std::string &line)
{
    // Split on whitespace and commas; keep "off($reg)" as one token.
    std::vector<std::string> out;
    std::string cur;
    for (char c : line) {
        if (c == '#' || c == ';')
            break;
        if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
            if (!cur.empty()) {
                out.push_back(cur);
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

bool
parseInt(const std::string &s, int64_t &out)
{
    if (s.empty())
        return false;
    size_t pos = 0;
    bool neg = false;
    if (s[0] == '-' || s[0] == '+') {
        neg = (s[0] == '-');
        pos = 1;
    }
    if (pos >= s.size())
        return false;
    int base = 10;
    if (s.size() > pos + 1 && s[pos] == '0'
        && (s[pos + 1] == 'x' || s[pos + 1] == 'X')) {
        base = 16;
        pos += 2;
    }
    int64_t v = 0;
    for (; pos < s.size(); ++pos) {
        char c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(s[pos])));
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (base == 16 && c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else
            return false;
        v = v * base + d;
    }
    out = neg ? -v : v;
    return true;
}

Op
opFromName(const std::string &name)
{
    for (int i = 1; i < static_cast<int>(Op::NumOps); ++i) {
        Op op = static_cast<Op>(i);
        if (name == opName(op))
            return op;
    }
    return Op::Invalid;
}

/** Everything needed to emit one source statement. */
struct Statement
{
    int line = 0;
    std::vector<std::string> tokens; ///< mnemonic + operands
    uint32_t addr = 0;               ///< assigned byte address
    int words = 1;                   ///< emitted size in words
};

class AsmContext
{
  public:
    explicit AsmContext(const std::string &source)
    {
        firstPass(source);
    }

    Program
    emit()
    {
        Program prog;
        prog.labels = labels_;
        prog.words.assign(imageWords_, 0);
        for (const Statement &st : statements_)
            emitStatement(st, prog);
        return prog;
    }

  private:
    /** Words a statement will occupy (pseudo-expansion aware). */
    int
    sizeOf(const std::vector<std::string> &toks, int line)
    {
        const std::string &m = toks[0];
        if (m == ".word")
            return static_cast<int>(toks.size()) - 1;
        if (m == ".space") {
            int64_t n;
            if (toks.size() != 2 || !parseInt(toks[1], n) || n < 0
                || (n % 4) != 0)
                throw AsmError(line, ".space needs a multiple of 4");
            return static_cast<int>(n / 4);
        }
        if (m == "li" || m == "la")
            return 2; // always lui + ori for stable label math
        return 1;
    }

    void
    firstPass(const std::string &source)
    {
        std::istringstream in(source);
        std::string line;
        uint32_t addr = 0;
        int lineno = 0;
        while (std::getline(in, line)) {
            ++lineno;
            // Peel off any leading "label:" prefixes.
            std::string rest = line;
            for (;;) {
                size_t colon = rest.find(':');
                if (colon == std::string::npos)
                    break;
                std::string head = rest.substr(0, colon);
                // Only treat as a label if no whitespace-separated
                // tokens precede the colon and it is a valid name.
                auto toks = tokenize(head);
                if (toks.size() != 1)
                    break;
                const std::string &name = toks[0];
                bool valid = !name.empty()
                    && (std::isalpha(static_cast<unsigned char>(name[0]))
                        || name[0] == '_' || name[0] == '.');
                if (!valid)
                    break;
                if (labels_.count(name))
                    throw AsmError(lineno, "duplicate label " + name);
                labels_[name] = addr;
                rest = rest.substr(colon + 1);
            }
            auto toks = tokenize(rest);
            if (toks.empty())
                continue;
            if (toks[0] == ".org") {
                int64_t v;
                if (toks.size() != 2 || !parseInt(toks[1], v) || v < addr
                    || (v % 4) != 0)
                    throw AsmError(lineno, "bad .org");
                addr = static_cast<uint32_t>(v);
                continue;
            }
            Statement st;
            st.line = lineno;
            st.tokens = toks;
            st.addr = addr;
            st.words = sizeOf(toks, lineno);
            statements_.push_back(st);
            addr += 4 * st.words;
        }
        imageWords_ = addr / 4;
    }

    int
    reg(const Statement &st, const std::string &tok)
    {
        int r = parseReg(tok);
        if (r < 0)
            throw AsmError(st.line, "bad register " + tok);
        return r;
    }

    int64_t
    immOrLabel(const Statement &st, const std::string &tok)
    {
        int64_t v;
        if (parseInt(tok, v))
            return v;
        auto it = labels_.find(tok);
        if (it == labels_.end())
            throw AsmError(st.line, "bad immediate/label " + tok);
        return it->second;
    }

    /** Parses "off($reg)" into offset and base register. */
    void
    memOperand(const Statement &st, const std::string &tok, int64_t &off,
               int &base)
    {
        size_t lp = tok.find('(');
        size_t rp = tok.find(')');
        if (lp == std::string::npos || rp == std::string::npos || rp < lp)
            throw AsmError(st.line, "bad memory operand " + tok);
        std::string offs = tok.substr(0, lp);
        off = offs.empty() ? 0 : immOrLabel(st, offs);
        base = reg(st, tok.substr(lp + 1, rp - lp - 1));
    }

    void
    put(Program &prog, uint32_t addr, uint32_t word)
    {
        prog.words.at(addr / 4) = word;
    }

    void
    emitInst(Program &prog, uint32_t addr, const DecodedInst &d)
    {
        put(prog, addr, encode(d));
    }

    int32_t
    branchDisp(const Statement &st, uint32_t addr, int64_t target)
    {
        int64_t disp = (target - (static_cast<int64_t>(addr) + 4)) / 4;
        if (disp < -32768 || disp > 32767)
            throw AsmError(st.line, "branch out of range");
        return static_cast<int32_t>(disp);
    }

    void
    emitStatement(const Statement &st, Program &prog)
    {
        const auto &t = st.tokens;
        const std::string &m = t[0];
        uint32_t addr = st.addr;
        auto expect = [&](size_t n) {
            if (t.size() != n + 1)
                throw AsmError(st.line, m + ": expected "
                               + std::to_string(n) + " operands");
        };

        // Directives.
        if (m == ".word") {
            for (size_t i = 1; i < t.size(); ++i) {
                put(prog, addr, static_cast<uint32_t>(
                        immOrLabel(st, t[i])));
                addr += 4;
            }
            return;
        }
        if (m == ".space")
            return; // already zero-filled

        // Pseudo-instructions.
        if (m == "nop") {
            emitInst(prog, addr, DecodedInst{.op = Op::Sll});
            return;
        }
        if (m == "move") {
            expect(2);
            DecodedInst d{.op = Op::Addu};
            d.rd = reg(st, t[1]);
            d.rs = reg(st, t[2]);
            emitInst(prog, addr, d);
            return;
        }
        if (m == "li" || m == "la") {
            expect(2);
            uint32_t v = static_cast<uint32_t>(immOrLabel(st, t[2]));
            int r = reg(st, t[1]);
            DecodedInst hi{.op = Op::Lui};
            hi.rt = r;
            hi.uimm = v >> 16;
            emitInst(prog, addr, hi);
            DecodedInst lo{.op = Op::Ori};
            lo.rt = r;
            lo.rs = r;
            lo.uimm = v & 0xFFFF;
            emitInst(prog, addr + 4, lo);
            return;
        }
        if (m == "b") {
            expect(1);
            DecodedInst d{.op = Op::Beq};
            d.uimm = static_cast<uint16_t>(
                branchDisp(st, addr, immOrLabel(st, t[1])));
            emitInst(prog, addr, d);
            return;
        }
        if (m == "beqz" || m == "bnez") {
            expect(2);
            DecodedInst d{.op = (m == "beqz") ? Op::Beq : Op::Bne};
            d.rs = reg(st, t[1]);
            d.uimm = static_cast<uint16_t>(
                branchDisp(st, addr, immOrLabel(st, t[2])));
            emitInst(prog, addr, d);
            return;
        }

        Op op = opFromName(m);
        if (op == Op::Invalid)
            throw AsmError(st.line, "unknown mnemonic " + m);

        DecodedInst d{.op = op};
        switch (op) {
          case Op::Sll: case Op::Srl: case Op::Sra:
            expect(3);
            d.rd = reg(st, t[1]);
            d.rt = reg(st, t[2]);
            d.shamt = static_cast<uint8_t>(immOrLabel(st, t[3]));
            break;
          case Op::Sllv: case Op::Srlv: case Op::Srav:
            expect(3);
            d.rd = reg(st, t[1]);
            d.rt = reg(st, t[2]);
            d.rs = reg(st, t[3]);
            break;
          case Op::Add: case Op::Addu: case Op::Sub: case Op::Subu:
          case Op::And: case Op::Or: case Op::Xor: case Op::Nor:
          case Op::Slt: case Op::Sltu:
            expect(3);
            d.rd = reg(st, t[1]);
            d.rs = reg(st, t[2]);
            d.rt = reg(st, t[3]);
            break;
          case Op::Mult: case Op::Multu: case Op::Div: case Op::Divu:
          case Op::Maddu: case Op::M2addu: case Op::Addau:
          case Op::Mulgf2: case Op::Maddgf2:
            expect(2);
            d.rs = reg(st, t[1]);
            d.rt = reg(st, t[2]);
            break;
          case Op::Sha: case Op::Cop2sync: case Op::Cop2mul:
          case Op::Cop2add: case Op::Cop2sub: case Op::Syscall:
          case Op::Break:
            expect(0);
            break;
          case Op::Mfhi: case Op::Mflo:
            expect(1);
            d.rd = reg(st, t[1]);
            break;
          case Op::Mthi: case Op::Mtlo: case Op::Jr:
            expect(1);
            d.rs = reg(st, t[1]);
            break;
          case Op::Jalr:
            if (t.size() == 2) {
                d.rd = 31;
                d.rs = reg(st, t[1]);
            } else {
                expect(2);
                d.rd = reg(st, t[1]);
                d.rs = reg(st, t[2]);
            }
            break;
          case Op::Addi: case Op::Addiu: case Op::Slti: case Op::Sltiu:
          case Op::Andi: case Op::Ori: case Op::Xori:
            expect(3);
            d.rt = reg(st, t[1]);
            d.rs = reg(st, t[2]);
            d.uimm = static_cast<uint16_t>(immOrLabel(st, t[3]));
            break;
          case Op::Lui:
            expect(2);
            d.rt = reg(st, t[1]);
            d.uimm = static_cast<uint16_t>(immOrLabel(st, t[2]));
            break;
          case Op::Lb: case Op::Lh: case Op::Lw: case Op::Lbu:
          case Op::Lhu: case Op::Sb: case Op::Sh: case Op::Sw: {
            expect(2);
            d.rt = reg(st, t[1]);
            int64_t off;
            int base;
            memOperand(st, t[2], off, base);
            d.rs = static_cast<uint8_t>(base);
            d.uimm = static_cast<uint16_t>(off);
            break;
          }
          case Op::Beq: case Op::Bne:
            expect(3);
            d.rs = reg(st, t[1]);
            d.rt = reg(st, t[2]);
            d.uimm = static_cast<uint16_t>(
                branchDisp(st, addr, immOrLabel(st, t[3])));
            break;
          case Op::Blez: case Op::Bgtz: case Op::Bltz: case Op::Bgez:
            expect(2);
            d.rs = reg(st, t[1]);
            d.uimm = static_cast<uint16_t>(
                branchDisp(st, addr, immOrLabel(st, t[2])));
            break;
          case Op::J: case Op::Jal:
            expect(1);
            d.target = (static_cast<uint32_t>(immOrLabel(st, t[1])) >> 2)
                & 0x03FFFFFF;
            break;
          case Op::Ctc2:
            expect(2);
            d.rt = reg(st, t[1]);
            d.rd = static_cast<uint8_t>(immOrLabel(st, t[2]));
            break;
          case Op::Cop2lda: case Op::Cop2ldb: case Op::Cop2ldn:
          case Op::Cop2st:
            expect(1);
            d.rt = reg(st, t[1]);
            break;
          case Op::Bld: case Op::Bst:
            expect(2);
            d.rt = reg(st, t[1]);
            d.rd = static_cast<uint8_t>(immOrLabel(st, t[2]));
            break;
          case Op::Bmul: case Op::Badd:
            expect(3);
            d.rd = static_cast<uint8_t>(immOrLabel(st, t[1]));    // fd
            d.shamt = static_cast<uint8_t>(immOrLabel(st, t[2])); // fs
            d.rt = static_cast<uint8_t>(immOrLabel(st, t[3]));    // ft
            break;
          case Op::Bsqr:
            expect(2);
            d.rd = static_cast<uint8_t>(immOrLabel(st, t[1])); // fd
            d.rt = static_cast<uint8_t>(immOrLabel(st, t[2])); // ft
            break;
          default:
            throw AsmError(st.line, "unhandled mnemonic " + m);
        }
        emitInst(prog, addr, d);
    }

    std::vector<Statement> statements_;
    std::map<std::string, uint32_t> labels_;
    uint32_t imageWords_ = 0;
};

} // namespace

Program
assemble(const std::string &source)
{
    AsmContext ctx(source);
    return ctx.emit();
}

} // namespace ulecc
