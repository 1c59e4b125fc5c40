//===- sched/ListScheduler.h - Vulnerability-aware instruction scheduling -===//
///
/// \file
/// The paper's second use case (Section VI-B, Algorithm 4): list
/// scheduling within each basic block where the number of fault sites a
/// candidate instruction retires (in bits, per the BEC analysis) is the
/// selection criterion. `BestReliability` picks, among ready instructions,
/// the one that minimizes the live-fault-bit surface; `WorstReliability`
/// the opposite (the two ends of Table IV); `SourceOrder` keeps the
/// original order (a correctness baseline).
///
/// Scheduling never changes which instructions execute or how many fault
/// injection runs a campaign needs; it only reorders independent
/// instructions within blocks, preserving all data, memory and
/// side-effect dependences.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SCHED_LISTSCHEDULER_H
#define BEC_SCHED_LISTSCHEDULER_H

#include "core/BECAnalysis.h"
#include "support/EdgeRows.h"

#include <vector>

namespace bec {

enum class SchedulePolicy { BestReliability, WorstReliability, SourceOrder };

/// Dependence DAG of one basic block in compressed rows. Nodes are offsets
/// from the block's first instruction. Every edge goes forward in source
/// order, no row repeats a node, and successor rows are ascending.
struct BlockDAG {
  uint32_t First = 0; ///< First instruction of the block.
  EdgeRows Succs;
  EdgeRows Preds;

  /// Direct successors of node \p K.
  std::span<const uint32_t> succs(uint32_t K) const { return Succs.row(K); }
  /// Direct predecessors of node \p K.
  std::span<const uint32_t> preds(uint32_t K) const { return Preds.row(K); }
};

/// Builds block dependence DAGs: register RAW/WAR/WAW edges, conservative
/// memory edges (no alias analysis), side-effect ordering, and
/// terminator-last edges. A builder reuses its buffers from block to
/// block; the DAG it returns is valid until its next build().
class BlockDAGBuilder {
public:
  const BlockDAG &build(const Program &Prog, const BasicBlock &B);

private:
  BlockDAG DAG;
  /// Per node, the last node whose predecessor row took it (deduplicates).
  std::vector<uint32_t> TakenBy;
  /// The reads of each register since its last write, as one list per
  /// register threaded through a shared buffer: each read names its node
  /// and the register's read before it (-1 for none).
  struct Read {
    uint32_t Node;
    int32_t Prev;
  };
  std::vector<Read> Reads;
  std::vector<uint32_t> LoadsSinceStore;
};

/// The DAG of block \p B on its own (one build of a fresh builder).
BlockDAG buildBlockDAG(const Program &Prog, const BasicBlock &B);

/// Reorders every basic block of \p A's program under \p Policy, driven
/// by \p A's per-access-point masked-bit summaries. Returns a new program,
/// named `<name>.sched`, that is observationally equivalent to the input.
/// Only instructions within a block move, with terminators last, so the
/// result is the input copied with its instructions permuted and the
/// input's CFG still valid; source order is the plain copy.
Program scheduleProgram(const BECAnalysis &A, SchedulePolicy Policy);

} // namespace bec

#endif // BEC_SCHED_LISTSCHEDULER_H
