//===- tests/SchedulerTest.cpp - Dependence DAG and list scheduler ---------===//

#include "core/Metrics.h"
#include "fuzz/Generator.h"
#include "ir/AsmParser.h"
#include "sched/ListScheduler.h"
#include "sim/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace bec;

namespace {

TEST(BlockDAG, RegisterDependences) {
  Program P = parseAsmOrDie(R"(
main:
  li  t0, 1          # 0
  li  t1, 2          # 1
  add t2, t0, t1     # 2: RAW on 0 and 1
  li  t0, 3          # 3: WAR on 2, WAW on 0
  add a0, t2, t0     # 4
  ret                # 5
)",
                            "dag");
  BlockDAG DAG = buildBlockDAG(P, P.blocks()[0]);
  auto HasEdge = [&](uint32_t From, uint32_t To) {
    const auto &S = DAG.succs(From);
    return std::find(S.begin(), S.end(), To) != S.end();
  };
  EXPECT_TRUE(HasEdge(0, 2)); // RAW
  EXPECT_TRUE(HasEdge(1, 2)); // RAW
  EXPECT_TRUE(HasEdge(2, 3)); // WAR: t0 read at 2, rewritten at 3
  EXPECT_TRUE(HasEdge(0, 3)); // WAW
  EXPECT_TRUE(HasEdge(3, 4)); // RAW
  EXPECT_TRUE(HasEdge(4, 5)); // terminator last
  EXPECT_FALSE(HasEdge(0, 1)); // independent
}

TEST(BlockDAG, MemoryAndSideEffectOrdering) {
  Program P = parseAsmOrDie(R"(
main:
  li  t0, 0x1000     # 0
  lw  t1, 0(t0)      # 1
  sw  t1, 4(t0)      # 2: store after load
  lw  t2, 8(t0)      # 3: load after store
  out t1             # 4: side effect after the store
  ret
)",
                            "mem");
  BlockDAG DAG = buildBlockDAG(P, P.blocks()[0]);
  auto HasEdge = [&](uint32_t From, uint32_t To) {
    const auto &S = DAG.succs(From);
    return std::find(S.begin(), S.end(), To) != S.end();
  };
  EXPECT_TRUE(HasEdge(1, 2)); // load -> store
  EXPECT_TRUE(HasEdge(2, 3)); // store -> load
  EXPECT_TRUE(HasEdge(2, 4)); // side-effect chain
}

/// Whether the DAG of block \p B must hold the edge I -> J (offsets from
/// the block's first instruction, I < J): the dependence rules stated pair
/// by pair, each an O(N) scan of the instructions between I and J.
bool dependenceEdge(const Program &Prog, const BasicBlock &B, uint32_t I,
                    uint32_t J) {
  auto At = [&](uint32_t K) -> const Instruction & {
    return Prog.instr(B.First + K);
  };
  auto Writes = [&](uint32_t K, Reg V) {
    return At(K).writesReg() && At(K).Rd == V;
  };
  // True if no node strictly between I and J satisfies \p Pred.
  auto NoneBetween = [&](auto Pred) {
    for (uint32_t K = I + 1; K < J; ++K)
      if (Pred(K))
        return false;
    return true;
  };
  auto IsStore = [&](uint32_t K) { return isStore(At(K).Op); };
  const Instruction &From = At(I), &To = At(J);

  // Terminator last: every node precedes a block-ending terminator.
  if (J == B.size() - 1 && isTerminator(To.Op))
    return true;
  // RAW and WAW: I is the last writer before J of a register J reads or
  // writes.
  if (From.writesReg()) {
    Reg V = From.Rd;
    if ((To.reads(V) || Writes(J, V)) &&
        NoneBetween([&](uint32_t K) { return Writes(K, V); }))
      return true;
  }
  // WAR: I reads a register J writes, I does not write it, and nothing
  // between them writes it.
  if (To.writesReg()) {
    Reg V = To.Rd;
    if (From.reads(V) && !Writes(I, V) &&
        NoneBetween([&](uint32_t K) { return Writes(K, V); }))
      return true;
  }
  // Store -> load/store: I is the last store before J.
  if (IsStore(I) && (isLoad(To.Op) || isStore(To.Op)) && NoneBetween(IsStore))
    return true;
  // Load -> store: no store lies between them.
  if (isLoad(From.Op) && isStore(To.Op) && NoneBetween(IsStore))
    return true;
  // Side effects: I is the previous side-effect instruction before J.
  if (hasSideEffects(From.Op) && hasSideEffects(To.Op) &&
      NoneBetween([&](uint32_t K) { return hasSideEffects(At(K).Op); }))
    return true;
  return false;
}

/// The bundled kernels plus 300 generated programs of corpus \p Seed.
std::vector<Program> kernelsAndGenerated(uint64_t Seed) {
  std::vector<Program> Progs;
  for (const Workload &W : allWorkloads())
    Progs.push_back(loadWorkload(W));
  for (uint64_t I = 0; I < 300; ++I) {
    fuzz::GeneratedProgram G =
        fuzz::generateProgram(fuzz::programSeed(Seed, I));
    EXPECT_TRUE(G.Error.empty()) << G.Error;
    Progs.push_back(std::move(G.Prog));
  }
  return Progs;
}

TEST(BlockDAG, EdgesMatchPairwiseRules) {
  uint64_t Edges = 0;
  for (const Program &Prog : kernelsAndGenerated(5)) {
    // One builder for the whole program: its reused buffers are part of
    // what is under test.
    BlockDAGBuilder Builder;
    for (const BasicBlock &B : Prog.blocks()) {
      const BlockDAG &DAG = Builder.build(Prog, B);
      ASSERT_EQ(DAG.First, B.First);
      ASSERT_EQ(DAG.Succs.rows(), B.size());
      ASSERT_EQ(DAG.Preds.rows(), B.size());
      std::vector<std::vector<uint32_t>> WantPreds(B.size());
      for (uint32_t I = 0; I < B.size(); ++I) {
        std::vector<uint32_t> WantSuccs;
        for (uint32_t J = I + 1; J < B.size(); ++J)
          if (dependenceEdge(Prog, B, I, J)) {
            WantSuccs.push_back(J);
            WantPreds[J].push_back(I);
          }
        EXPECT_TRUE(std::ranges::equal(DAG.succs(I), WantSuccs))
            << Prog.Name << ": successors of instruction " << B.First + I;
        Edges += WantSuccs.size();
      }
      for (uint32_t J = 0; J < B.size(); ++J) {
        std::vector<uint32_t> Preds(DAG.preds(J).begin(), DAG.preds(J).end());
        std::sort(Preds.begin(), Preds.end());
        EXPECT_EQ(Preds, WantPreds[J])
            << Prog.Name << ": predecessors of instruction " << B.First + J;
      }
    }
  }
  EXPECT_GT(Edges, 0u);
}

/// Expects \p Got's CFG to equal \p Want's, query by query.
void expectSameCfg(const Program &Got, const Program &Want,
                   const std::string &What) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  EXPECT_TRUE(Got.blocks() == Want.blocks()) << What;
  for (uint32_t B = 0; B < Want.blocks().size(); ++B)
    EXPECT_TRUE(std::ranges::equal(Got.blockSuccs(B), Want.blockSuccs(B)))
        << What << ": successors of block " << B;
  for (uint32_t P = 0; P < Want.size(); ++P) {
    EXPECT_TRUE(std::ranges::equal(Got.succs(P), Want.succs(P)))
        << What << ": successors of " << P;
    EXPECT_TRUE(std::ranges::equal(Got.preds(P), Want.preds(P)))
        << What << ": predecessors of " << P;
    EXPECT_EQ(Got.blockOf(P), Want.blockOf(P)) << What << ": block of " << P;
    EXPECT_EQ(Got.isReachable(P), Want.isReachable(P))
        << What << ": reachability of " << P;
  }
}

TEST(Scheduler, ReorderingKeepsTheCFG) {
  // The scheduler returns the input's CFG without rebuilding it; that is
  // only sound if rebuilding would give the same CFG.
  unsigned Reordered = 0;
  for (const Program &Prog : kernelsAndGenerated(1)) {
    BECAnalysis A = BECAnalysis::run(Prog);
    for (SchedulePolicy Policy :
         {SchedulePolicy::BestReliability, SchedulePolicy::WorstReliability,
          SchedulePolicy::SourceOrder}) {
      Program Sched = scheduleProgram(A, Policy);
      std::string What =
          Prog.Name + " policy " + std::to_string(static_cast<int>(Policy));
      EXPECT_EQ(Sched.Name, Prog.Name + ".sched") << What;
      Program Rebuilt = Sched;
      Rebuilt.buildCFG();
      expectSameCfg(Sched, Rebuilt, What);
      if (Policy == SchedulePolicy::SourceOrder) {
        EXPECT_TRUE(Sched.Instrs == Prog.Instrs) << What;
        EXPECT_EQ(Sched.Entry, Prog.Entry) << What;
        EXPECT_EQ(Sched.Data, Prog.Data) << What;
      } else if (Sched.Instrs != Prog.Instrs) {
        ++Reordered;
      }
    }
  }
  // The corpus must exercise real reorderings, not only identities.
  EXPECT_GT(Reordered, 100u);
}

TEST(Scheduler, SourceOrderIsIdentity) {
  Program P = parseAsmOrDie(R"(
main:
  li  t0, 1
  li  t1, 2
  add a0, t0, t1
  ret
)",
                            "id");
  BECAnalysis A = BECAnalysis::run(P);
  Program S = scheduleProgram(A, SchedulePolicy::SourceOrder);
  ASSERT_EQ(S.size(), P.size());
  for (uint32_t I = 0; I < P.size(); ++I)
    EXPECT_EQ(S.instr(I).Op, P.instr(I).Op) << I;
}

/// FNV-1a 64 over the bytes of \p S.
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

TEST(Scheduler, KernelSchedulesArePinned) {
  // FNV-1a of scheduleProgram(A, Policy).toString() per kernel: the bytes
  // `bec schedule --emit` writes. Recorded from the vector-of-vectors
  // scheduler that preceded the compressed-row one, so a later change to
  // the scheduler cannot silently reorder emitted programs.
  struct Pin {
    const char *Name;
    uint64_t Best, Worst, Source;
  };
  const Pin Pins[] = {
      {"bitcount", 0xc9bc85745be9d7c9, 0x581b446c3cae1007, 0x5190c268e21caa0f},
      {"dijkstra", 0xded9f6e45e15e887, 0x02a3a38154eb127d, 0xdd0715929f1538f7},
      {"CRC32", 0x53d67d84f6b3055f, 0xdf9510ad3c15c681, 0x4526eb045bf498d1},
      {"adpcm_enc", 0x49703197090bfda2, 0xae57d42923ac7c00, 0xdae65f73eb6e39e2},
      {"adpcm_dec", 0x8233d872604f937f, 0x7cc8440dac7646bd, 0xe38ea1eb3e0b65f3},
      {"AES", 0x8980ec63bc135da3, 0x1c1d13e9325d7459, 0xb69a900701e3c4e9},
      {"RSA", 0x7ef16f91c360e45d, 0x4b1e5fe2cea5b09d, 0x4c9123342469037f},
      {"SHA", 0xb584863557980fcc, 0xf70154608176ae54, 0x2275cab6cba4b2f6},
  };
  ASSERT_EQ(std::size(Pins), allWorkloads().size());
  for (size_t K = 0; K < std::size(Pins); ++K) {
    const Workload &W = allWorkloads()[K];
    ASSERT_EQ(W.Name, Pins[K].Name);
    Program Prog = loadWorkload(W);
    BECAnalysis A = BECAnalysis::run(Prog);
    EXPECT_EQ(fnv1a(scheduleProgram(A, SchedulePolicy::BestReliability)
                        .toString()),
              Pins[K].Best)
        << W.Name << " best";
    EXPECT_EQ(fnv1a(scheduleProgram(A, SchedulePolicy::WorstReliability)
                        .toString()),
              Pins[K].Worst)
        << W.Name << " worst";
    EXPECT_EQ(
        fnv1a(scheduleProgram(A, SchedulePolicy::SourceOrder).toString()),
        Pins[K].Source)
        << W.Name << " source";
  }
}

class SchedulerWorkloadTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SchedulerWorkloadTest, PreservesObservableBehaviour) {
  const Workload &W = allWorkloads()[GetParam()];
  Program Prog = loadWorkload(W);
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  for (SchedulePolicy Policy :
       {SchedulePolicy::BestReliability, SchedulePolicy::WorstReliability,
        SchedulePolicy::SourceOrder}) {
    Program Sched = scheduleProgram(A, Policy);
    ASSERT_EQ(Sched.size(), Prog.size());
    Trace T = simulate(Sched);
    EXPECT_EQ(T.ObservableHash, Golden.ObservableHash) << W.Name;
    EXPECT_EQ(T.Cycles, Golden.Cycles)
        << W.Name << ": scheduling must not change the instruction count";
  }
}

TEST_P(SchedulerWorkloadTest, BestIsNoWorseThanWorst) {
  const Workload &W = allWorkloads()[GetParam()];
  Program Prog = loadWorkload(W);
  BECAnalysis A = BECAnalysis::run(Prog);
  Program Best = scheduleProgram(A, SchedulePolicy::BestReliability);
  Program Worst = scheduleProgram(A, SchedulePolicy::WorstReliability);
  BECAnalysis AB = BECAnalysis::run(Best);
  BECAnalysis AW = BECAnalysis::run(Worst);
  Trace TB = simulate(Best), TW = simulate(Worst);
  uint64_t VB = computeVulnerability(AB, TB.Executed);
  uint64_t VW = computeVulnerability(AW, TW.Executed);
  // The paper observed no degradation from the best-policy heuristic.
  EXPECT_LE(VB, VW) << W.Name;
}

static std::string schedName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string Name = allWorkloads()[Info.param].Name;
  for (char &C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SchedulerWorkloadTest,
                         ::testing::Range<size_t>(0, 8), schedName);

} // namespace
