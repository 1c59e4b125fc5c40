//===- analysis/BitValueAnalysis.h - Global abstract bit-value analysis ---===//
///
/// \file
/// The paper's Section IV-A: a forward data-flow analysis that computes
/// k(p, v) — the abstract bit values of every register after every program
/// point — across the entire CFG (the global extension of LLVM KnownBits).
/// Following Wegman-Zadeck SC, the solver is optimistic: it starts from
/// Bottom, tracks executable edges, and only propagates along branch edges
/// that are feasible under the current abstract state. The result is the
/// maximal fixed point.
///
/// The solver iterates over basic blocks in reverse postorder and holds an
/// abstract state only at block entries. Once those states are stable, one
/// pass over the executable blocks stores the state before every
/// instruction (before()) and the value each instruction writes; after()
/// is derived from the two instead of being stored as a second full state.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_ANALYSIS_BITVALUEANALYSIS_H
#define BEC_ANALYSIS_BITVALUEANALYSIS_H

#include "analysis/KnownBits.h"
#include "ir/Program.h"

#include <array>
#include <vector>

namespace bec {

/// Abstract machine state: one KnownBits per architectural register.
using RegState = std::array<KnownBits, NumRegs>;

/// Result of the global bit-value analysis.
class BitValueAnalysis {
public:
  /// Runs the analysis; the program's CFG must be built.
  static BitValueAnalysis run(const Program &Prog);

  /// k before p: the abstract value of \p V as read by \p P.
  const KnownBits &before(uint32_t P, Reg V) const { return In[P][V]; }
  /// k(p, v): the abstract value of \p V after \p P executes.
  KnownBits after(uint32_t P, Reg V) const {
    return V == Defs[P].R ? Defs[P].Value : In[P][V];
  }

  /// True if the solver found \p P executable (unreachable code under the
  /// abstract semantics is never executed concretely either).
  bool isExecutable(uint32_t P) const { return Executable[P]; }

  /// Computes the abstract result that \p P writes to its destination
  /// given input state \p S (exposed for the coalescing eval() rule and
  /// for tests).
  static KnownBits evalResult(const Instruction &I, const RegState &S,
                              unsigned Width);

  /// Abstract branch condition of conditional-branch \p I under \p S.
  static BitValue evalBranch(const Instruction &I, const RegState &S,
                             unsigned Width);

private:
  /// The register an executable instruction writes and the value it
  /// writes; R is NumRegs (no register) otherwise.
  struct Def {
    Reg R = NumRegs;
    KnownBits Value;
  };

  std::vector<RegState> In;
  std::vector<Def> Defs;
  std::vector<bool> Executable;
};

} // namespace bec

#endif // BEC_ANALYSIS_BITVALUEANALYSIS_H
