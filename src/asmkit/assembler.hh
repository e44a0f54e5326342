/**
 * @file
 * Two-pass text assembler for the simulated ISA.
 *
 * Supports labels, the usual MIPS operand syntax, the paper's extension
 * mnemonics, a handful of pseudo-instructions (nop / move / li / la /
 * b / beqz / bnez), and data directives (.word / .space / .org).
 * Programs assemble into a flat image based at address 0 (the program
 * ROM), exactly like the paper's bare-metal environment.
 */

#ifndef ULECC_ASMKIT_ASSEMBLER_HH
#define ULECC_ASMKIT_ASSEMBLER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/error.hh"

namespace ulecc
{

/** An assembled program image. */
struct Program
{
    std::vector<uint32_t> words;             ///< image, word-addressed
    std::map<std::string, uint32_t> labels;  ///< label -> byte address

    /** Image size in bytes. */
    uint32_t sizeBytes() const
    {
        return static_cast<uint32_t>(words.size() * 4);
    }
};

/**
 * Raised on any assembly error, with the offending line number.
 * Carries Errc::AsmSyntax so drivers classify it as bad input.
 */
class AsmError : public UleccError
{
  public:
    AsmError(int line, const std::string &msg)
        : UleccError(Errc::AsmSyntax,
                     "asm line " + std::to_string(line) + ": " + msg),
          line_(line)
    {}

    int line() const { return line_; }

  private:
    int line_;
};

/** Assembles @p source into a program image. */
Program assemble(const std::string &source);

} // namespace ulecc

#endif // ULECC_ASMKIT_ASSEMBLER_HH
