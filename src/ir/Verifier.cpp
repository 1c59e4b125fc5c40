//===- ir/Verifier.cpp - Structural well-formedness checks ----------------===//

#include "ir/Verifier.h"

#include "ir/Program.h"
#include "support/BitUtils.h"

using namespace bec;

std::vector<std::string> bec::verifyProgram(const Program &Prog) {
  std::vector<std::string> Errors;
  auto Error = [&](uint32_t P, const std::string &Message) {
    Errors.push_back("instruction " + std::to_string(P) + " (line " +
                     std::to_string(Prog.Instrs[P].Line) + "): " + Message);
  };

  if (Prog.empty()) {
    Errors.push_back("program is empty");
    return Errors;
  }
  if (Prog.Width < 2 || Prog.Width > MaxRegWidth) {
    Errors.push_back("register width " + std::to_string(Prog.Width) +
                     " is out of the supported range [2, 64]");
    return Errors;
  }
  if (Prog.Entry >= Prog.size())
    Errors.push_back("entry point is out of range");
  if (Prog.DataBase + Prog.Data.size() > Prog.MemSize)
    Errors.push_back("data image does not fit in memory");

  for (uint32_t P = 0; P < Prog.size(); ++P) {
    const Instruction &I = Prog.Instrs[P];
    if (!isTerminator(I.Op) && P + 1 >= Prog.size())
      Error(P, "control falls off the end of the program");
    if (isConditionalBranch(I.Op) && P + 1 >= Prog.size())
      Error(P, "conditional branch has no fallthrough");
    if ((isConditionalBranch(I.Op) || I.Op == Opcode::J)) {
      if (I.Target == NoTarget ||
          static_cast<uint32_t>(I.Target) >= Prog.size())
        Error(P, "branch target out of range");
    }
    switch (I.Op) {
    case Opcode::SLLI:
    case Opcode::SRLI:
    case Opcode::SRAI:
      if (I.Imm < 0 || I.Imm >= static_cast<int64_t>(Prog.Width))
        Error(P, "shift amount outside [0, width)");
      break;
    case Opcode::LUI:
      if (Prog.Width != 32)
        Error(P, "lui requires 32-bit register width");
      break;
    default:
      break;
    }
    if ((isLoad(I.Op) || isStore(I.Op)) && Prog.Width != 32)
      Error(P, "memory access requires 32-bit register width");
    // Immediates must be representable in the register width (signed or
    // unsigned interpretation). This IR is not an instruction encoder, so
    // the RV32I 12-bit limits are deliberately not enforced.
    if (opcodeFormat(I.Op) == OpFormat::RegImm ||
        opcodeFormat(I.Op) == OpFormat::RegRegImm) {
      // At width 64 every int64_t fits (and negating 2^63 would overflow).
      int64_t Lo = INT64_MIN;
      int64_t Hi = INT64_MAX;
      if (Prog.Width < 64) {
        Lo = -static_cast<int64_t>(signedMinValue(Prog.Width));
        Hi = static_cast<int64_t>(allOnesValue(Prog.Width));
      }
      if (I.Imm < Lo || I.Imm > Hi)
        Error(P, "immediate does not fit in the register width");
    }
  }
  return Errors;
}
