//===- tests/MetricsTest.cpp - Trace metrics against a per-cycle oracle ----===//
///
/// countFaultInjectionRuns memoizes the cross-segment coverage of each
/// destination access point per distinct pair of governing read access
/// points. The oracle below is the straightforward per-cycle count it
/// replaced: it rebuilds every segment's distinct classes and covered
/// classes from scratch on every executed cycle.
///
//===----------------------------------------------------------------------===//

#include "core/Metrics.h"
#include "fuzz/Generator.h"
#include "sim/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace bec;

namespace {

FaultInjectionCounts
referenceCountFaultInjectionRuns(const BECAnalysis &A,
                                 std::span<const uint32_t> Executed) {
  const Program &Prog = A.program();
  const FaultSpace &FS = A.space();
  unsigned W = Prog.Width;
  FaultInjectionCounts Counts;
  Counts.TotalFaultSpace =
      static_cast<uint64_t>(Executed.size()) * NumRegs * W;

  // Governing access point of each register's current dynamic segment.
  std::array<int32_t, NumRegs> Governor;
  Governor.fill(-1);

  std::vector<uint32_t> Reps; // scratch: distinct classes of a segment

  // A dynamic segment is accounted for when it *opens*: value-level
  // inject-on-read schedules `width` runs for every access of a register
  // that is (statically) live afterwards; BEC schedules one run per
  // distinct non-masked class, minus classes already covered by a run in
  // the segment that feeds this access (cross-segment inference).
  for (size_t C = 0; C < Executed.size(); ++C) {
    uint32_t P = Executed[C];
    const Instruction &I = Prog.instr(P);
    if (isHalt(I.Op))
      break; // The halt opens no segments.

    // Capture the read registers' governing segments before updating.
    Reg Reads[2];
    unsigned NumReads = I.readRegs(Reads);
    std::array<int32_t, 2> ReadAps = {-1, -1};
    for (unsigned R = 0; R < NumReads; ++R)
      ReadAps[R] = Governor[Reads[R]];

    auto [ApBegin, ApEnd] = FS.pointsOfInstr(P);
    for (uint32_t Ap = ApBegin; Ap < ApEnd; ++Ap) {
      Reg V = FS.point(Ap).R;
      Governor[V] = static_cast<int32_t>(Ap);
      const auto &Summary = A.summary(Ap);
      if (!Summary.LiveAfter)
        continue; // Dead segment: no injection at any analysis level.
      Counts.ValueLevelRuns += W;
      unsigned Masked = popCount(Summary.MaskedMask, W);
      Counts.MaskedBits += Masked;

      Reps.clear();
      for (unsigned B = 0; B < W; ++B)
        if (!(Summary.MaskedMask & (uint64_t(1) << B)))
          Reps.push_back(A.classOf(FS.faultIndex(Ap, B)));
      std::sort(Reps.begin(), Reps.end());
      Reps.erase(std::unique(Reps.begin(), Reps.end()), Reps.end());

      // Cross-segment inference applies to the destination register: an
      // input-segment fault with a ToOutput fate at this instruction is
      // the same physical effect as the corresponding output fault, and
      // if the analysis merged the two classes the input segment's run
      // (already scheduled when that segment opened) covers this class.
      uint64_t CoveredClasses = 0;
      if (I.writesReg() && V == I.Rd) {
        std::vector<uint32_t> Covered;
        const InstrFates &F = A.fates(P);
        for (unsigned R = 0; R < NumReads; ++R) {
          if (ReadAps[R] < 0)
            continue;
          uint32_t InAp = static_cast<uint32_t>(ReadAps[R]);
          for (unsigned B = 0; B < W; ++B) {
            Fate Ft = F.fate(Reads[R], B);
            if (Ft.Kind != FateKind::ToOutput)
              continue;
            uint32_t InRep = A.classOf(FS.faultIndex(InAp, B));
            if (InRep == 0)
              continue;
            // Merged classes mean the input-segment run (scheduled when
            // that segment opened) subsumes this output class.
            if (InRep == A.classOf(FS.faultIndex(Ap, Ft.Arg)))
              Covered.push_back(InRep);
          }
        }
        std::sort(Covered.begin(), Covered.end());
        Covered.erase(std::unique(Covered.begin(), Covered.end()),
                      Covered.end());
        for (uint32_t Rep : Covered)
          if (std::binary_search(Reps.begin(), Reps.end(), Rep))
            ++CoveredClasses;
      }

      uint64_t Probes = Reps.size() - CoveredClasses;
      Counts.BitLevelRuns += Probes;
      Counts.InferrableBits += W - Masked - Probes;
    }
  }
  return Counts;
}

void expectCountsMatchOracle(const Program &Prog) {
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  ASSERT_EQ(Golden.End, Outcome::Finished) << Prog.Name;
  FaultInjectionCounts Got = countFaultInjectionRuns(A, Golden.Executed);
  FaultInjectionCounts Want =
      referenceCountFaultInjectionRuns(A, Golden.Executed);
  EXPECT_EQ(Got.TotalFaultSpace, Want.TotalFaultSpace) << Prog.Name;
  EXPECT_EQ(Got.ValueLevelRuns, Want.ValueLevelRuns) << Prog.Name;
  EXPECT_EQ(Got.BitLevelRuns, Want.BitLevelRuns) << Prog.Name;
  EXPECT_EQ(Got.MaskedBits, Want.MaskedBits) << Prog.Name;
  EXPECT_EQ(Got.InferrableBits, Want.InferrableBits) << Prog.Name;
}

TEST(FaultInjectionCounts, KernelsMatchPerCycleOracle) {
  for (const Workload &W : allWorkloads())
    expectCountsMatchOracle(loadWorkload(W));
}

TEST(FaultInjectionCounts, GeneratedProgramsMatchPerCycleOracle) {
  for (uint64_t I = 0; I < 200; ++I) {
    fuzz::GeneratedProgram G =
        fuzz::generateProgram(fuzz::programSeed(0xc0a7ull, I));
    ASSERT_TRUE(G.Error.empty()) << G.Error;
    expectCountsMatchOracle(G.Prog);
  }
}

} // namespace
