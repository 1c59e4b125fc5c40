//===- core/Fates.h - Intra-instruction coalescing rules (Algorithm 3) ----===//
///
/// \file
/// For every instruction q and every bit of every register it reads, the
/// *fate* describes what a soft error present in that bit at the moment q
/// reads it does, according to the instruction's semantics applied to the
/// abstract bit values (the paper's Algorithm 3):
///
///   * Masked      -- the corruption cannot propagate through this use
///                    (e.g. `and` with a known-zero bit, a bit shifted out,
///                    a flip that provably leaves a comparison unchanged);
///   * ToOutput(j) -- the corruption is equivalent to a corruption of bit j
///                    of the destination register after q (mv, xor, or/and
///                    with known bits, constant shifts);
///   * EvalClass(k)-- a flip of this bit provably forces the comparison /
///                    branch outcome to the known value k; all bits of the
///                    same operand with equal k are mutually equivalent
///                    (the paper's eval() rule for slt and branches);
///   * None        -- nothing can be concluded.
///
/// These fates are the "placeholder" classes of the temporary relation R'
/// in Algorithm 2; the inter-instruction step turns them into merges of
/// real fault indices.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_CORE_FATES_H
#define BEC_CORE_FATES_H

#include "analysis/BitValueAnalysis.h"
#include "ir/Program.h"
#include "support/BitUtils.h"

#include <array>
#include <cstdint>

namespace bec {

enum class FateKind : uint8_t { None, Masked, ToOutput, EvalClass };

struct Fate {
  FateKind Kind = FateKind::None;
  /// ToOutput: destination bit index. EvalClass: forced outcome (0 or 1).
  uint8_t Arg = 0;
};

/// Fates of all read-register bits of one instruction.
class InstrFates {
public:
  /// Fate of bit \p Bit of read-register \p V (None if V is not read).
  Fate fate(Reg V, unsigned Bit) const {
    const Fate *Bits = operandFates(V);
    return Bits ? Bits[Bit] : Fate{};
  }
  /// Fates of every bit of read-register \p V, or null if V is not read.
  const Fate *operandFates(Reg V) const {
    for (unsigned I = 0; I < NumOperands; ++I)
      if (Operands[I].R == V)
        return Operands[I].Bits.data();
    return nullptr;
  }

  /// Mutable per-operand storage (filled by computeFates).
  struct OperandFates {
    Reg R = RegZero;
    std::array<Fate, MaxRegWidth> Bits{};
  };
  std::array<OperandFates, 2> Operands;
  unsigned NumOperands = 0;
};

/// Options controlling which rule families are active (for the ablation
/// study; everything on by default).
struct FateOptions {
  bool BitwiseRules = true; ///< mv/and/or/xor/shift rules.
  bool EvalRules = true;    ///< slt/branch eval() rules.
};

/// Computes the fates of instruction \p I given the abstract register
/// state \p In as read by the instruction. Only In[I.Rs1] and In[I.Rs2]
/// are read.
InstrFates computeFates(const Instruction &I, const RegState &In,
                        unsigned Width, const FateOptions &Opts = {});

} // namespace bec

#endif // BEC_CORE_FATES_H
