//===- ir/Instruction.h - Machine instruction -----------------------------===//
///
/// \file
/// A single machine instruction of the flat program representation. Each
/// instruction is a *program point* p of the paper's fault space F = P x V.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_IR_INSTRUCTION_H
#define BEC_IR_INSTRUCTION_H

#include "ir/Opcode.h"
#include "ir/Reg.h"

#include <cstdint>
#include <string>

namespace bec {

/// Sentinel for "no branch target".
inline constexpr int32_t NoTarget = -1;

/// One machine instruction. Operand roles by format:
///   RegImm:     Rd, Imm          RegReg:    Rd, Rs1
///   RegRegReg:  Rd, Rs1, Rs2     RegRegImm: Rd, Rs1, Imm
///   Branch:     Rs1, Rs2, Target Jump:      Target
///   Load:       Rd, Imm(Rs1)     Store:     Rs2 -> Imm(Rs1)
///   UnaryIn:    Rs1              None:      -
struct Instruction {
  Opcode Op = Opcode::NOP;
  Reg Rd = 0;
  Reg Rs1 = 0;
  Reg Rs2 = 0;
  int64_t Imm = 0;
  /// Branch/jump target as an instruction index, or NoTarget.
  int32_t Target = NoTarget;
  /// Source line in the assembly text (0 when built programmatically).
  uint32_t Line = 0;

  bool operator==(const Instruction &) const = default;

  /// True if this instruction writes a register (excluding writes to x0,
  /// which are architectural no-ops but still *count* as a write for the
  /// data-flow model: they kill nothing and produce nothing).
  bool writesReg() const {
    switch (opcodeFormat(Op)) {
    case OpFormat::RegImm:
    case OpFormat::RegReg:
    case OpFormat::RegRegReg:
    case OpFormat::RegRegImm:
    case OpFormat::Load:
      return Rd != RegZero;
    default:
      return false;
    }
  }

  /// Number of distinct source registers read, filled into \p Out
  /// (deduplicated, x0 excluded since it holds no state). Returns count.
  unsigned readRegs(Reg Out[2]) const {
    // One spare slot: the RET append below can never overflow (RET has
    // format None), but the compiler cannot see that across the switch.
    Reg Tmp[3];
    unsigned N = 0;
    switch (opcodeFormat(Op)) {
    case OpFormat::RegImm:
    case OpFormat::Jump:
    case OpFormat::None:
      break;
    case OpFormat::RegReg:
    case OpFormat::RegRegImm:
    case OpFormat::UnaryIn:
      Tmp[N++] = Rs1;
      break;
    case OpFormat::RegRegReg:
    case OpFormat::Branch:
      Tmp[N++] = Rs1;
      Tmp[N++] = Rs2;
      break;
    case OpFormat::Load:
      Tmp[N++] = Rs1;
      break;
    case OpFormat::Store:
      Tmp[N++] = Rs1;
      Tmp[N++] = Rs2;
      break;
    }
    if (Op == Opcode::RET)
      Tmp[N++] = RegA0;
    unsigned Count = 0;
    for (unsigned I = 0; I < N; ++I) {
      if (Tmp[I] == RegZero)
        continue;
      if (Count == 1 && Out[0] == Tmp[I])
        continue;
      Out[Count++] = Tmp[I];
    }
    return Count;
  }

  /// True if this instruction reads register \p R.
  bool reads(Reg R) const {
    Reg Regs[2];
    unsigned N = readRegs(Regs);
    for (unsigned I = 0; I < N; ++I)
      if (Regs[I] == R)
        return true;
    return false;
  }

  /// Renders the instruction in assembly syntax. Branch targets are shown
  /// as `.L<index>` unless \p TargetLabel is provided.
  std::string toString(const char *TargetLabel = nullptr) const;
};

} // namespace bec

#endif // BEC_IR_INSTRUCTION_H
