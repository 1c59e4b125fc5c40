//===- ir/Program.h - Flat machine program with CFG ------------------------===//
///
/// \file
/// A whole program in the machine-level IR: a flat instruction sequence
/// (the paper's set P of program points), labels, an initial data image,
/// and the derived control-flow graph (instruction-level successor /
/// predecessor edges plus basic-block structure used by the scheduler).
/// The CFG's edges are stored in compressed rows, so copying a program is
/// a fixed handful of allocations however many instructions it has.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_IR_PROGRAM_H
#define BEC_IR_PROGRAM_H

#include "ir/Instruction.h"
#include "support/EdgeRows.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bec {

/// A maximal straight-line region; the unit of instruction scheduling.
struct BasicBlock {
  uint32_t First = 0; ///< Index of the first instruction.
  uint32_t Last = 0;  ///< Index of the last instruction (inclusive).

  uint32_t size() const { return Last - First + 1; }
  bool operator==(const BasicBlock &) const = default;
};

/// A flat machine program plus its CFG and memory image.
class Program {
public:
  std::string Name = "program";
  /// Register width in bits (32 for the benchmarks; 4 for the paper's
  /// motivating example).
  unsigned Width = 32;
  /// Size of the byte-addressable memory, in bytes.
  uint64_t MemSize = 1 << 16;
  /// Base address at which \c Data is loaded.
  uint64_t DataBase = 0x1000;
  /// Initial data image (loaded at DataBase before execution).
  std::vector<uint8_t> Data;
  /// Index of the entry instruction.
  uint32_t Entry = 0;

  std::vector<Instruction> Instrs;

  uint32_t size() const { return static_cast<uint32_t>(Instrs.size()); }
  bool empty() const { return Instrs.empty(); }
  const Instruction &instr(uint32_t P) const { return Instrs[P]; }

  /// Recomputes CFG edges and basic blocks. Must be called after any
  /// structural mutation and before running analyses. Permuting
  /// instructions within a block keeps the CFG valid as long as every
  /// terminator stays last and every branch target stays a leader (the
  /// scheduler's case), so such a reordering need not call it.
  void buildCFG();

  /// Inserts \p New before the instruction currently at index \p At
  /// (\p At == size() appends). Branch targets and the entry point are
  /// remapped so that control transfers to the old instruction at \p At
  /// now execute the inserted code first; targets inside \p New are taken
  /// verbatim (the caller must express them in post-insertion indices).
  /// The CFG is invalidated; call buildCFG() after the last mutation.
  void insertInstructions(uint32_t At, std::span<const Instruction> New);

  /// Instruction-level successors of \p P (empty for halts; a conditional
  /// branch lists its fallthrough first, then the taken target).
  std::span<const uint32_t> succs(uint32_t P) const {
    return InstrSuccs.row(P);
  }
  /// Instruction-level predecessors of \p P, in increasing index order.
  std::span<const uint32_t> preds(uint32_t P) const {
    return InstrPreds.row(P);
  }

  const std::vector<BasicBlock> &blocks() const { return BlockList; }
  /// Successor block ids of block \p B, in the order of its last
  /// instruction's succs().
  std::span<const uint32_t> blockSuccs(uint32_t B) const {
    return BlockSuccs.row(B);
  }
  /// Block id containing instruction \p P.
  uint32_t blockOf(uint32_t P) const { return BlockOf[P]; }

  /// Instructions reachable from the entry (unreachable code is skipped by
  /// the analyses and never executed by the simulator).
  bool isReachable(uint32_t P) const { return Reachable[P]; }

  /// Renders the whole program as assembly text (parseable round trip).
  std::string toString() const;

private:
  EdgeRows InstrSuccs;
  EdgeRows InstrPreds;
  EdgeRows BlockSuccs;
  std::vector<BasicBlock> BlockList;
  std::vector<uint32_t> BlockOf;
  std::vector<bool> Reachable;
};

} // namespace bec

#endif // BEC_IR_PROGRAM_H
