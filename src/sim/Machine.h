//===- sim/Machine.h - Architectural machine state -------------------------===//
///
/// \file
/// Register file and byte-addressable memory of the simulated machine.
/// Copyable by value: the campaign engine snapshots the machine at every
/// injection cycle, so each fault-injection run only re-executes the
/// suffix of the program.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SIM_MACHINE_H
#define BEC_SIM_MACHINE_H

#include "ir/Program.h"
#include "support/BitUtils.h"

#include <array>
#include <cstring>
#include <vector>

namespace bec {

/// Architectural state: 32 registers of Program::Width bits plus memory.
class Machine {
public:
  void reset(const Program &Prog) {
    Width = Prog.Width;
    Mask = lowBitMask(Width);
    Regs.fill(0);
    Mem.assign(Prog.MemSize, 0);
    if (!Prog.Data.empty())
      std::memcpy(Mem.data() + Prog.DataBase, Prog.Data.data(),
                  Prog.Data.size());
  }

  uint64_t reg(Reg R) const { return R == RegZero ? 0 : Regs[R]; }

  /// Injects a single-event upset: flips bit \p Bit of register \p R.
  /// Flips on x0 are architecturally impossible and are ignored, matching
  /// the analysis (x0 fault sites are permanently masked).
  void flipRegBit(Reg R, unsigned Bit) {
    if (R != RegZero)
      Regs[R] = flipBit(Regs[R], Bit, Width);
  }

  unsigned width() const { return Width; }

  /// Raw state views, for checkpoint serialization and state comparison.
  const std::array<uint64_t, NumRegs> &regs() const { return Regs; }
  const std::vector<uint8_t> &memory() const { return Mem; }

  /// Rebuilds the machine from serialized checkpoint parts (the inverse
  /// of regs()/memory(); Mask is derived from the width).
  void restoreParts(unsigned W, const std::array<uint64_t, NumRegs> &R,
                    std::vector<uint8_t> M) {
    Width = W;
    Mask = lowBitMask(W);
    Regs = R;
    Mem = std::move(M);
  }

  bool operator==(const Machine &O) const {
    return Width == O.Width && Regs == O.Regs && Mem == O.Mem;
  }
  bool operator!=(const Machine &O) const { return !(*this == O); }

private:
  /// The run loop reads and writes Regs and Mem directly. It relies on
  /// two invariants: x0 holds 0, and every register value fits in Mask.
  /// reset and flipRegBit keep them; MachineState::deserialize checks
  /// them before restoreParts.
  friend class Interpreter;

  unsigned Width = 32;
  uint64_t Mask = 0xffffffff;
  std::array<uint64_t, NumRegs> Regs{};
  std::vector<uint8_t> Mem;
};

} // namespace bec

#endif // BEC_SIM_MACHINE_H
