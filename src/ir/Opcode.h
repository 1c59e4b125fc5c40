//===- ir/Opcode.h - Machine opcode definitions ---------------------------===//
///
/// \file
/// Opcodes of the machine-level IR: the RV32I base integer ISA plus the M
/// extension's multiply/divide, and three pseudo-instructions that matter to
/// the analysis or the harness (`li`, `mv`, `out`). Assembler-level pseudos
/// (seqz/snez/beqz/not/neg/...) are lowered to these opcodes at parse time.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_IR_OPCODE_H
#define BEC_IR_OPCODE_H

#include <cstdint>
#include <optional>
#include <string_view>

namespace bec {

enum class Opcode : uint8_t {
  // Constants and moves.
  LI,   ///< rd = imm (pseudo; full-width immediate)
  LUI,  ///< rd = imm << 12
  MV,   ///< rd = rs1 (kept first-class: Algorithm 3 has a dedicated rule)
  // Register-register ALU.
  ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
  // Register-immediate ALU.
  ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI, SLTIU,
  // M extension.
  MUL, MULHU, DIV, DIVU, REM, REMU,
  // Control flow.
  BEQ, BNE, BLT, BGE, BLTU, BGEU, J,
  // Memory.
  LW, LH, LHU, LB, LBU, SW, SH, SB,
  // Harness.
  OUT,  ///< Emit rs1 to the observable output stream.
  RET,  ///< Halt; a0 is the observable return value.
  HALT, ///< Halt with no observable register.
  NOP,
};

inline constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::NOP) + 1;

/// Mnemonic of \p Op as printed/parsed.
std::string_view opcodeName(Opcode Op);

/// Parses a base (non-pseudo) mnemonic. Pseudo mnemonics are handled by the
/// assembler; this only recognizes the opcodes above.
std::optional<Opcode> parseOpcodeName(std::string_view Name);

/// Operand shape of an opcode, used by the parser, printer and verifier.
enum class OpFormat : uint8_t {
  RegImm,       ///< op rd, imm            (li, lui)
  RegReg,       ///< op rd, rs1            (mv)
  RegRegReg,    ///< op rd, rs1, rs2
  RegRegImm,    ///< op rd, rs1, imm
  Branch,       ///< op rs1, rs2, label
  Jump,         ///< op label
  Load,         ///< op rd, imm(rs1)
  Store,        ///< op rs2, imm(rs1)
  UnaryIn,      ///< op rs1                (out)
  None,         ///< op                    (ret, halt, nop)
};

namespace detail {
/// Operand shape of each opcode, in Opcode order. The predicates below run
/// for every operand query of every analysis, so they are inline.
inline constexpr OpFormat OpcodeFormats[NumOpcodes] = {
    // li lui mv
    OpFormat::RegImm, OpFormat::RegImm, OpFormat::RegReg,
    // add sub and or xor sll srl sra slt sltu
    OpFormat::RegRegReg, OpFormat::RegRegReg, OpFormat::RegRegReg,
    OpFormat::RegRegReg, OpFormat::RegRegReg, OpFormat::RegRegReg,
    OpFormat::RegRegReg, OpFormat::RegRegReg, OpFormat::RegRegReg,
    OpFormat::RegRegReg,
    // addi andi ori xori slli srli srai slti sltiu
    OpFormat::RegRegImm, OpFormat::RegRegImm, OpFormat::RegRegImm,
    OpFormat::RegRegImm, OpFormat::RegRegImm, OpFormat::RegRegImm,
    OpFormat::RegRegImm, OpFormat::RegRegImm, OpFormat::RegRegImm,
    // mul mulhu div divu rem remu
    OpFormat::RegRegReg, OpFormat::RegRegReg, OpFormat::RegRegReg,
    OpFormat::RegRegReg, OpFormat::RegRegReg, OpFormat::RegRegReg,
    // beq bne blt bge bltu bgeu
    OpFormat::Branch, OpFormat::Branch, OpFormat::Branch,
    OpFormat::Branch, OpFormat::Branch, OpFormat::Branch,
    // j
    OpFormat::Jump,
    // lw lh lhu lb lbu
    OpFormat::Load, OpFormat::Load, OpFormat::Load, OpFormat::Load,
    OpFormat::Load,
    // sw sh sb
    OpFormat::Store, OpFormat::Store, OpFormat::Store,
    // out ret halt nop
    OpFormat::UnaryIn, OpFormat::None, OpFormat::None, OpFormat::None,
};
} // namespace detail

constexpr OpFormat opcodeFormat(Opcode Op) {
  return detail::OpcodeFormats[static_cast<unsigned>(Op)];
}

/// True for beq/bne/blt/bge/bltu/bgeu.
constexpr bool isConditionalBranch(Opcode Op) {
  return opcodeFormat(Op) == OpFormat::Branch;
}
/// True for ret/halt.
constexpr bool isHalt(Opcode Op) {
  return Op == Opcode::RET || Op == Opcode::HALT;
}
/// True for instructions that end a basic block (branches, j, ret, halt).
constexpr bool isTerminator(Opcode Op) {
  return isConditionalBranch(Op) || Op == Opcode::J || isHalt(Op);
}
/// True for loads.
constexpr bool isLoad(Opcode Op) { return opcodeFormat(Op) == OpFormat::Load; }
/// True for stores.
constexpr bool isStore(Opcode Op) {
  return opcodeFormat(Op) == OpFormat::Store;
}
/// True for instructions with externally observable side effects
/// (stores, out, ret): the scheduler must preserve their relative order.
constexpr bool hasSideEffects(Opcode Op) {
  return isStore(Op) || Op == Opcode::OUT || isHalt(Op);
}
/// True for slt/slti/sltu/sltiu: comparison writes handled by the
/// eval-based coalescing rule.
constexpr bool isSetCompare(Opcode Op) {
  return Op == Opcode::SLT || Op == Opcode::SLTU || Op == Opcode::SLTI ||
         Op == Opcode::SLTIU;
}

static_assert(opcodeFormat(Opcode::J) == OpFormat::Jump &&
                  opcodeFormat(Opcode::SB) == OpFormat::Store &&
                  opcodeFormat(Opcode::NOP) == OpFormat::None,
              "opcode format table out of sync with the Opcode enum");

} // namespace bec

#endif // BEC_IR_OPCODE_H
