//===- sim/Interpreter.h - RISC-V functional simulator ---------------------===//
///
/// \file
/// The stand-in for the paper's instrumented SPIKE ISA simulator: a
/// cycle-per-instruction functional interpreter that produces architectural
/// traces and supports single-event-upset injection at a (cycle, register,
/// bit) fault site. The interpreter object is copyable, which the campaign
/// engine uses to snapshot state at each injection cycle.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SIM_INTERPRETER_H
#define BEC_SIM_INTERPRETER_H

#include "sim/Machine.h"
#include "sim/Trace.h"

#include <limits>
#include <memory>
#include <optional>

namespace bec {

/// Execution options for a single run.
struct RunOptions {
  /// Cycle budget; exceeded -> Outcome::Hang.
  uint64_t MaxCycles = 1 << 22;
  /// Record full Executed/Events vectors (hashes are always computed).
  bool Record = true;
};

/// Describes one fault-injection run: after `AfterCycle` instructions have
/// executed (0 = before the first instruction), flip `Bit` of `R`.
struct Injection {
  uint64_t AfterCycle = 0;
  Reg R = 0;
  unsigned Bit = 0;
};

/// A serializable architectural checkpoint of a run in flight: registers,
/// memory, PC, cycle and the trace cursor (the incremental full/observable
/// hash states plus the end-of-run fields). Restoring a state into a fresh
/// interpreter of the same program and options continues the run exactly
/// where the snapshot was taken — the campaign engine's prefix checkpoints
/// are a table of these, taken along the golden trace.
///
/// Recorded Executed/Events vectors are NOT part of the state; snapshots
/// are taken from hash-only runs (RunOptions::Record == false).
struct MachineState {
  Machine M;
  uint32_t PC = 0;
  uint64_t CycleCount = 0;
  bool Done = false;
  uint64_t FullHashState = 0;
  uint64_t ObsHashState = 0;
  /// End-of-run trace fields; meaningful only when Done.
  Outcome End = Outcome::Finished;
  uint64_t ReturnValue = 0;
  bool HasReturnValue = false;

  /// Byte-exact binary encoding (little-endian), and its inverse.
  /// deserialize returns nullopt on a malformed or truncated buffer, and
  /// on a register file no run can reach (non-zero x0, or a value wider
  /// than the machine).
  std::vector<uint8_t> serialize() const;
  static std::optional<MachineState> deserialize(const uint8_t *Data,
                                                 size_t Size);

  /// Size of serialize()'s encoding, without building it (the engine's
  /// fi.checkpoints.bytes accounting).
  uint64_t byteSize() const;

  bool operator==(const MachineState &O) const {
    return PC == O.PC && CycleCount == O.CycleCount && Done == O.Done &&
           FullHashState == O.FullHashState && ObsHashState == O.ObsHashState &&
           End == O.End && ReturnValue == O.ReturnValue &&
           HasReturnValue == O.HasReturnValue && M == O.M;
  }
  bool operator!=(const MachineState &O) const { return !(*this == O); }
};

/// Interpreter over one program. Copying one copies the machine and
/// cursors and shares the predecoded program; syncFrom() is the campaign
/// engine's cheaper fork, which copies only the memory lines written
/// since the two last synced.
class Interpreter {
public:
  Interpreter(const Program &Prog, RunOptions Opts = {});

  /// Runs until \p Cycle instructions have executed or the program ends.
  /// A run that has executed MaxCycles instructions ends as a Hang only
  /// when asked to go further: runToCycle(MaxCycles) leaves it live.
  void runToCycle(uint64_t Cycle);
  /// Runs to completion.
  void run() { runToCycle(std::numeric_limits<uint64_t>::max()); }

  bool done() const { return Done; }
  uint64_t cycle() const { return CycleCount; }
  uint32_t pc() const { return PC; }
  Machine &machine() { return M; }
  const Machine &machine() const { return M; }

  /// Incremental hash cursors of the run so far. Two runs of the same
  /// program whose cursors are equal at the same cycle have absorbed
  /// identical prefixes (modulo hash collision, the same approximation
  /// the campaign engine's trace comparison already makes).
  uint64_t fullHashState() const { return FullHash.value(); }
  uint64_t obsHashState() const { return ObsHash.value(); }

  /// Captures the complete architectural state of the run in flight.
  /// Only valid on hash-only runs (RunOptions::Record == false): recorded
  /// Executed/Events vectors are not part of the checkpoint.
  MachineState snapshot() const;

  /// Resumes from \p S as if this interpreter had executed the prefix
  /// that produced it. The program and options keep their constructed
  /// values and must match the snapshotting run's for the continuation
  /// to be meaningful.
  void restore(const MachineState &S);

  /// Makes this interpreter an exact copy of \p Src, as copy-assignment
  /// would, but copies only the 64-byte memory lines that either side
  /// wrote since they last synced (every line when the sizes differ),
  /// then marks both sides clean. Each interpreter tracks its own writes:
  /// the store path marks lines, and construction and restore() mark
  /// all of them; memory changed any other way (through machine()) is
  /// not tracked. \p Src is non-const only for that bookkeeping; its
  /// machine and cursors do not change.
  void syncFrom(Interpreter &Src);

  /// Finalizes and returns the trace (valid once done()).
  Trace takeTrace();

private:
  /// One predecoded instruction (defined in Interpreter.cpp).
  struct DecodedOp;
  static std::shared_ptr<const std::vector<DecodedOp>>
  decode(const Program &Prog);

  /// The run loop: one instance records Executed/Events, the other only
  /// hashes. Both absorb the same values in the same order.
  template <bool Record> void runLoop(uint64_t Cycle);
  void finish(Outcome End);
  /// Makes room for more recorded PCs past \p Pos, the run loop's write
  /// cursor into Result.Executed, and moves it and \p Limit (the end of
  /// the room) into the new buffer. Out of line: every handler's
  /// dispatch calls it.
  [[gnu::noinline]] void growExecuted(uint32_t *&Pos, uint32_t *&Limit);
  void markAllLinesDirty();

  /// Memory is tracked for syncFrom() in lines of 2^LineShift bytes.
  static constexpr unsigned LineShift = 6;

  /// The program, predecoded once at construction; copies share it.
  std::shared_ptr<const std::vector<DecodedOp>> Ops;
  RunOptions Opts;
  Machine M;
  uint32_t PC;
  uint64_t CycleCount = 0;
  bool Done = false;
  Trace Result;
  TraceHasher FullHash;
  TraceHasher ObsHash;
  /// One bit per memory line written since the last syncFrom() this
  /// interpreter took part in. Not architectural state: it is not part of
  /// Machine or MachineState, and snapshots never carry it.
  std::vector<uint64_t> DirtyLines;
};

/// Convenience wrapper: runs \p Prog to completion.
Trace simulate(const Program &Prog, RunOptions Opts = {});

/// Convenience wrapper: runs \p Prog with a single injected bit flip.
Trace simulateWithInjection(const Program &Prog, const Injection &Inj,
                            RunOptions Opts = {});

} // namespace bec

#endif // BEC_SIM_INTERPRETER_H
