//===- sched/ListScheduler.cpp - Vulnerability-aware list scheduling ------===//

#include "sched/ListScheduler.h"

#include "support/Debug.h"

#include <algorithm>
#include <array>
#include <limits>

using namespace bec;

const BlockDAG &BlockDAGBuilder::build(const Program &Prog,
                                       const BasicBlock &B) {
  uint32_t N = B.size();
  // Edges are collected as predecessor rows, one per node in order; the
  // successor rows are their transpose.
  EdgeRows &Preds = DAG.Preds;
  Preds.clear();
  TakenBy.assign(N, std::numeric_limits<uint32_t>::max());
  Reads.clear();
  LoadsSinceStore.clear();

  auto AddEdge = [&](uint32_t From, uint32_t To) {
    assert(From < To && "dependence edges go forward in source order");
    if (TakenBy[From] != To) {
      TakenBy[From] = To;
      Preds.Edges.push_back(From);
    }
  };

  // Register dependences: for each register track the last writer and all
  // reads since that write (LastRead heads the register's list in Reads).
  std::array<int32_t, NumRegs> LastWriter;
  LastWriter.fill(-1);
  std::array<int32_t, NumRegs> LastRead;
  LastRead.fill(-1);

  int32_t LastSideEffect = -1; // stores/out: keep their relative order
  int32_t LastStore = -1;

  for (uint32_t K = 0; K < N; ++K) {
    const Instruction &I = Prog.instr(B.First + K);

    // The terminator stays last: every other node precedes it, which
    // covers all of its other dependences.
    if (K == N - 1 && isTerminator(I.Op)) {
      for (uint32_t J = 0; J < K; ++J)
        Preds.Edges.push_back(J);
      Preds.endRow();
      break;
    }

    Reg Used[2];
    unsigned NumUsed = I.readRegs(Used);
    for (unsigned R = 0; R < NumUsed; ++R) {
      Reg V = Used[R];
      if (LastWriter[V] >= 0)
        AddEdge(static_cast<uint32_t>(LastWriter[V]), K); // RAW
      Reads.push_back({K, LastRead[V]});
      LastRead[V] = static_cast<int32_t>(Reads.size()) - 1;
    }
    if (I.writesReg()) {
      Reg V = I.Rd;
      if (LastWriter[V] >= 0)
        AddEdge(static_cast<uint32_t>(LastWriter[V]), K); // WAW
      for (int32_t R = LastRead[V]; R >= 0; R = Reads[R].Prev)
        if (Reads[R].Node != K)
          AddEdge(Reads[R].Node, K); // WAR
      LastRead[V] = -1;
      LastWriter[V] = static_cast<int32_t>(K);
    }

    if (isLoad(I.Op)) {
      if (LastStore >= 0)
        AddEdge(static_cast<uint32_t>(LastStore), K);
      LoadsSinceStore.push_back(K);
    }
    if (isStore(I.Op)) {
      if (LastStore >= 0)
        AddEdge(static_cast<uint32_t>(LastStore), K);
      for (uint32_t L : LoadsSinceStore)
        AddEdge(L, K);
      LoadsSinceStore.clear();
      LastStore = static_cast<int32_t>(K);
    }
    if (hasSideEffects(I.Op)) {
      if (LastSideEffect >= 0)
        AddEdge(static_cast<uint32_t>(LastSideEffect), K);
      LastSideEffect = static_cast<int32_t>(K);
    }
    Preds.endRow();
  }
  DAG.First = B.First;
  DAG.Succs.transposeOf(Preds);
  return DAG;
}

BlockDAG bec::buildBlockDAG(const Program &Prog, const BasicBlock &B) {
  return BlockDAGBuilder().build(Prog, B);
}

namespace {

/// Greedy list scheduling, one block at a time. The score of a ready
/// instruction is the change it causes to the live-fault-bit surface:
/// scheduling p makes, for each register it accesses, the access point
/// (p,v) the new governing segment, replacing the previous governor's
/// live bits.
class ListScheduler {
public:
  ListScheduler(const BECAnalysis &A, SchedulePolicy Policy);

  /// Writes block \p B's chosen order into Out[B.First .. B.Last].
  void schedule(const BasicBlock &B, std::vector<Instruction> &Out);

private:
  /// Surface delta of scheduling node \p K next (lower = fewer live sites).
  int64_t scoreOf(uint32_t K) const {
    int64_t Delta = 0;
    for (uint32_t T = TermStart[K]; T < TermStart[K + 1]; ++T)
      Delta += Terms[T].LiveBits - Current[Terms[T].V];
    return Delta;
  }

  /// Scheduling an instruction with access point (p,v) makes that point
  /// govern v, with this many live bits.
  struct Term {
    Reg V;
    int32_t LiveBits;
  };

  const BECAnalysis &A;
  const Program &Prog;
  SchedulePolicy Policy;
  BlockDAGBuilder Builder;
  /// Per node of the block, its terms in compressed rows: Terms[TermStart[K],
  /// TermStart[K + 1]). Halts have none and score 0.
  std::vector<uint32_t> TermStart;
  std::vector<Term> Terms;
  std::vector<uint32_t> PredsLeft;
  /// Ready nodes in ascending order, so that ties go to the lowest index.
  std::vector<uint32_t> Ready;
  /// Current live-bit contribution of each register's governing segment
  /// within this block walk.
  std::array<int64_t, NumRegs> Current{};
};

} // namespace

ListScheduler::ListScheduler(const BECAnalysis &A, SchedulePolicy Policy)
    : A(A), Prog(A.program()), Policy(Policy) {}

void ListScheduler::schedule(const BasicBlock &B,
                             std::vector<Instruction> &Out) {
  // At most one instruction before a closing terminator leaves one order,
  // the one Out already holds.
  uint32_t N = B.size();
  if (N - (isTerminator(Prog.instr(B.Last).Op) ? 1 : 0) <= 1)
    return;
  const BlockDAG &DAG = Builder.build(Prog, B);
  const FaultSpace &Space = A.space();
  TermStart.clear();
  Terms.clear();
  for (uint32_t P = B.First; P <= B.Last; ++P) {
    TermStart.push_back(static_cast<uint32_t>(Terms.size()));
    if (isHalt(Prog.instr(P).Op))
      continue;
    auto [ApBegin, ApEnd] = Space.pointsOfInstr(P);
    for (uint32_t Ap = ApBegin; Ap < ApEnd; ++Ap)
      Terms.push_back({Space.point(Ap).R,
                       static_cast<int32_t>(Prog.Width) -
                           static_cast<int32_t>(popCount(
                               A.summary(Ap).MaskedMask, Prog.Width))});
  }
  TermStart.push_back(static_cast<uint32_t>(Terms.size()));
  // Registers live into the block contribute their full width (their
  // governing segment is outside the block; unknown masking).
  Current.fill(0);
  uint32_t LiveIn = A.liveness().liveInMask(B.First);
  for (Reg V = 1; V < NumRegs; ++V)
    if ((LiveIn >> V) & 1)
      Current[V] = Prog.Width;

  PredsLeft.resize(N);
  Ready.clear();
  for (uint32_t K = 0; K < N; ++K) {
    PredsLeft[K] = static_cast<uint32_t>(DAG.preds(K).size());
    if (PredsLeft[K] == 0)
      Ready.push_back(K);
  }

  for (uint32_t Step = 0; Step < N; ++Step) {
    assert(!Ready.empty() && "dependence cycle in block DAG");
    size_t Best = 0;
    if (Ready.size() > 1) {
      int64_t BestScore = scoreOf(Ready[0]);
      for (size_t R = 1; R < Ready.size(); ++R) {
        int64_t Score = scoreOf(Ready[R]);
        bool Better = Policy == SchedulePolicy::BestReliability
                          ? Score < BestScore
                          : Score > BestScore;
        if (Better) {
          Best = R;
          BestScore = Score;
        }
      }
    }
    uint32_t K = Ready[Best];
    Ready.erase(Ready.begin() + static_cast<ptrdiff_t>(Best));
    for (uint32_t S : DAG.succs(K))
      if (--PredsLeft[S] == 0)
        Ready.insert(std::lower_bound(Ready.begin(), Ready.end(), S), S);

    for (uint32_t T = TermStart[K]; T < TermStart[K + 1]; ++T)
      Current[Terms[T].V] = Terms[T].LiveBits;
    Out[B.First + Step] = Prog.instr(B.First + K);
  }
}

Program bec::scheduleProgram(const BECAnalysis &A, SchedulePolicy Policy) {
  const Program &Prog = A.program();
  // Blocks keep their extents and the DAG pins every terminator last.
  // Branch targets and the entry are leaders, so they keep their indices
  // too, and the copy's CFG stays valid as it is.
  Program Out = Prog;
  Out.Name = Prog.Name + ".sched";
  if (Policy == SchedulePolicy::SourceOrder)
    return Out;
  ListScheduler Scheduler(A, Policy);
  for (const BasicBlock &B : Prog.blocks())
    Scheduler.schedule(B, Out.Instrs);
  return Out;
}
