//===- ir/Opcode.cpp - Machine opcode properties --------------------------===//

#include "ir/Opcode.h"

using namespace bec;

/// Mnemonics in Opcode order; the formats live in Opcode.h.
static constexpr std::string_view Names[NumOpcodes] = {
    "li",   "lui",  "mv",   "add",  "sub",  "and",   "or",   "xor",
    "sll",  "srl",  "sra",  "slt",  "sltu", "addi",  "andi", "ori",
    "xori", "slli", "srli", "srai", "slti", "sltiu", "mul",  "mulhu",
    "div",  "divu", "rem",  "remu", "beq",  "bne",   "blt",  "bge",
    "bltu", "bgeu", "j",    "lw",   "lh",   "lhu",   "lb",   "lbu",
    "sw",   "sh",   "sb",   "out",  "ret",  "halt",  "nop",
};

static_assert(Names[static_cast<unsigned>(Opcode::NOP)] == "nop",
              "opcode name table out of sync with the Opcode enum");

std::string_view bec::opcodeName(Opcode Op) {
  return Names[static_cast<unsigned>(Op)];
}

std::optional<Opcode> bec::parseOpcodeName(std::string_view Name) {
  for (unsigned I = 0; I < NumOpcodes; ++I)
    if (Names[I] == Name)
      return static_cast<Opcode>(I);
  return std::nullopt;
}
