//===- fi/Validation.cpp - Empirical soundness validation ------------------===//

#include "fi/Validation.h"

#include "fi/Engine.h"
#include "support/Debug.h"

#include <map>

using namespace bec;

ValidationResult bec::validateAnalysis(const BECAnalysis &A,
                                       const Trace &Golden,
                                       uint64_t MaxCycles) {
  const Program &Prog = A.program();
  const FaultSpace &FS = A.space();
  unsigned W = Prog.Width;
  uint64_t Limit = MaxCycles ? std::min<uint64_t>(MaxCycles, Golden.Cycles)
                             : Golden.Cycles;

  // --- Plan: every bit of every dynamic segment in the window, plus the
  // cross-segment links implied by ToOutput fates (as used by the metrics
  // and the pruned campaign plan).
  std::vector<PlannedRun> List;
  struct CrossLink {
    int64_t InSegment;
    int64_t OutSegment;
    uint32_t ClassRep;
  };
  std::vector<CrossLink> Links;

  std::array<int64_t, NumRegs> GovernorSeg;
  GovernorSeg.fill(-1);
  std::array<int32_t, NumRegs> GovernorAp;
  GovernorAp.fill(-1);
  int64_t NextSegment = 0;

  for (uint64_t C = 0; C < Limit; ++C) {
    uint32_t P = Golden.Executed[C];
    const Instruction &I = Prog.instr(P);
    if (isHalt(I.Op))
      break;
    Reg Reads[2];
    unsigned NumReads = I.readRegs(Reads);
    std::array<int64_t, 2> ReadSegs = {-1, -1};
    std::array<int32_t, 2> ReadAps = {-1, -1};
    for (unsigned R = 0; R < NumReads; ++R) {
      ReadSegs[R] = GovernorSeg[Reads[R]];
      ReadAps[R] = GovernorAp[Reads[R]];
    }

    auto [ApBegin, ApEnd] = FS.pointsOfInstr(P);
    for (uint32_t Ap = ApBegin; Ap < ApEnd; ++Ap) {
      Reg V = FS.point(Ap).R;
      int64_t Seg = NextSegment++;
      GovernorSeg[V] = Seg;
      GovernorAp[V] = static_cast<int32_t>(Ap);
      for (unsigned B = 0; B < W; ++B)
        List.push_back({C + 1, V, static_cast<uint8_t>(B),
                        A.classOf(FS.faultIndex(Ap, B)), Seg});
    }

    // Record the ToOutput links of this instruction (in-segment fault is
    // claimed equivalent to the out-segment fault when classes merged).
    if (I.writesReg()) {
      int32_t OutAp = FS.pointId(P, I.Rd);
      int64_t OutSeg = GovernorSeg[I.Rd];
      const InstrFates &F = A.fates(P);
      for (unsigned R = 0; R < NumReads; ++R) {
        if (ReadAps[R] < 0)
          continue;
        for (unsigned B = 0; B < W; ++B) {
          Fate Ft = F.fate(Reads[R], B);
          if (Ft.Kind != FateKind::ToOutput)
            continue;
          uint32_t InRep =
              A.classOf(FS.faultIndex(static_cast<uint32_t>(ReadAps[R]), B));
          uint32_t OutRep = A.classOf(
              FS.faultIndex(static_cast<uint32_t>(OutAp), Ft.Arg));
          if (InRep != 0 && InRep == OutRep)
            Links.push_back({ReadSegs[R], OutSeg, InRep});
        }
      }
    }
  }

  // --- Execute. The list is in trace order, as a plan must be.
  CampaignPlan Campaign = CampaignPlan::fromRuns(std::move(List));
  const std::vector<PlannedRun> &Plan = Campaign.runs();
  CampaignResult Runs = runCampaign(Prog, Golden, Campaign);

  // --- Classify.
  ValidationResult Result;
  Result.RunsExecuted = Runs.Runs;
  Result.SegmentsChecked = static_cast<uint64_t>(NextSegment);

  // Group plan entries by segment (entries are emitted contiguously).
  size_t K = 0;
  std::map<std::pair<int64_t, uint32_t>, uint64_t> RunHash;
  while (K < Plan.size()) {
    size_t Begin = K;
    int64_t Seg = Plan[K].Segment;
    while (K < Plan.size() && Plan[K].Segment == Seg)
      ++K;
    // Masked checks + pairwise Table II classification.
    for (size_t X = Begin; X < K; ++X) {
      RunHash[{Seg, Plan[X].ClassRep}] = Runs.TraceHashes[X];
      if (Plan[X].ClassRep == 0) {
        ++Result.MaskedChecked;
        if (Runs.TraceHashes[X] != Golden.TraceHash)
          ++Result.MaskedViolations;
      }
      for (size_t Y = X + 1; Y < K; ++Y) {
        bool SameClass = Plan[X].ClassRep == Plan[Y].ClassRep;
        bool SameTrace = Runs.TraceHashes[X] == Runs.TraceHashes[Y];
        if (SameClass && SameTrace)
          ++Result.SoundPrecisePairs;
        else if (!SameClass && SameTrace)
          ++Result.SoundImprecisePairs;
        else if (SameClass && !SameTrace)
          ++Result.UnsoundPairs;
        else
          ++Result.SoundPrecisePairs;
      }
    }
  }

  for (const CrossLink &L : Links) {
    auto In = RunHash.find({L.InSegment, L.ClassRep});
    auto Out = RunHash.find({L.OutSegment, L.ClassRep});
    if (In == RunHash.end() || Out == RunHash.end())
      continue;
    ++Result.CrossChecked;
    if (In->second != Out->second)
      ++Result.CrossViolations;
  }
  return Result;
}
