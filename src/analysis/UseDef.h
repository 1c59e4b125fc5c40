//===- analysis/UseDef.h - use(p,v) next-reader sets -----------------------===//
///
/// \file
/// Computes the paper's use(p,v): the set of program points that read data
/// point v and are reachable from p without an intervening redefinition
/// (reads do not kill; a point that reads and writes v reads first). This
/// drives the inter-instruction coalescing step of Algorithm 2.
///
/// One backward solve covers every register: each read of the program
/// gets an id, register-major and then by instruction, so the readers of a
/// register form one contiguous id range. A write to v kills v's range,
/// and use(p, v) is the part of the read set after p in v's range.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_ANALYSIS_USEDEF_H
#define BEC_ANALYSIS_USEDEF_H

#include "ir/Program.h"

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace bec {

/// use(p,v) sets for every (instruction, register) pair of interest.
class UseDef {
public:
  /// Runs the analysis; the program's CFG must be built.
  static UseDef run(const Program &Prog);

  /// The set of instructions that read \p V, reachable from after \p P
  /// with no intervening write to \p V. Sorted ascending; empty unless
  /// \p P reads or writes \p V.
  std::span<const uint32_t> uses(uint32_t P, Reg V) const {
    for (const Slice &S : Slices[P])
      if (S.R == V)
        return {Storage.data() + S.Offset, S.Count};
    return {};
  }

private:
  /// use(p, R) as a range of Storage; R is NumRegs in an unused slot.
  struct Slice {
    Reg R = NumRegs;
    uint32_t Offset = 0;
    uint32_t Count = 0;
  };
  /// Per instruction, one slot per register it reads (at most two) or
  /// writes.
  std::vector<std::array<Slice, 3>> Slices;
  std::vector<uint32_t> Storage;
};

} // namespace bec

#endif // BEC_ANALYSIS_USEDEF_H
