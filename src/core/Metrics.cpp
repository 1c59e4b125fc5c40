//===- core/Metrics.cpp - Trace-based reliability metrics ------------------===//

#include "core/Metrics.h"

#include "support/Debug.h"

#include <algorithm>

using namespace bec;

namespace {

/// Cross-segment inference for the destination access point \p Ap of
/// instruction \p P: the number of distinct classes of \p Ap that a run of
/// a read register's segment already covers. An input-segment fault with a
/// ToOutput fate at P is the same physical effect as the corresponding
/// output fault, and if the analysis merged the two classes the input
/// segment's run (scheduled when that segment opened) covers this class.
/// Every covered class is a non-masked class of \p Ap.
uint32_t countCoveredClasses(const BECAnalysis &A, uint32_t P, uint32_t Ap,
                             const Reg Reads[2], unsigned NumReads,
                             const int32_t ReadAps[2]) {
  const FaultSpace &FS = A.space();
  unsigned W = A.program().Width;
  const InstrFates &F = A.fates(P);
  std::array<uint32_t, 2 * 64> Covered{};
  unsigned NumCovered = 0;
  for (unsigned R = 0; R < NumReads; ++R) {
    if (ReadAps[R] < 0)
      continue;
    uint32_t InAp = static_cast<uint32_t>(ReadAps[R]);
    for (unsigned B = 0; B < W; ++B) {
      Fate Ft = F.fate(Reads[R], B);
      if (Ft.Kind != FateKind::ToOutput)
        continue;
      uint32_t InRep = A.classOf(FS.faultIndex(InAp, B));
      if (InRep != 0 && InRep == A.classOf(FS.faultIndex(Ap, Ft.Arg)))
        Covered[NumCovered++] = InRep;
    }
  }
  std::sort(Covered.begin(), Covered.begin() + NumCovered);
  return static_cast<uint32_t>(
      std::unique(Covered.begin(), Covered.begin() + NumCovered) -
      Covered.begin());
}

} // namespace

FaultInjectionCounts
bec::countFaultInjectionRuns(const BECAnalysis &A,
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

  // Covered-class counts already computed, keyed by (destination access
  // point, governing access points of the reads): one short chain per
  // access point, since a point sees few distinct governors.
  struct Covering {
    int32_t ReadAps[2];
    uint32_t Classes;
    int32_t Next;
  };
  std::vector<int32_t> FirstCovering(FS.numAccessPoints(), -1);
  std::vector<Covering> Coverings;

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
    int32_t ReadAps[2] = {-1, -1};
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

      // Only the destination register has cross-segment coverage.
      uint32_t CoveredClasses = 0;
      if (I.writesReg() && V == I.Rd) {
        int32_t K = FirstCovering[Ap];
        while (K >= 0 && (Coverings[K].ReadAps[0] != ReadAps[0] ||
                          Coverings[K].ReadAps[1] != ReadAps[1]))
          K = Coverings[K].Next;
        if (K < 0) {
          K = static_cast<int32_t>(Coverings.size());
          Coverings.push_back(
              {{ReadAps[0], ReadAps[1]},
               countCoveredClasses(A, P, Ap, Reads, NumReads, ReadAps),
               FirstCovering[Ap]});
          FirstCovering[Ap] = K;
        }
        CoveredClasses = Coverings[K].Classes;
      }

      uint64_t Probes = Summary.NumProbes - CoveredClasses;
      Counts.BitLevelRuns += Probes;
      Counts.InferrableBits += W - Masked - Probes;
    }
  }
  return Counts;
}

uint64_t bec::computeVulnerability(const BECAnalysis &A,
                                   std::span<const uint32_t> Executed) {
  const Program &Prog = A.program();
  const FaultSpace &FS = A.space();
  unsigned W = Prog.Width;

  std::array<int32_t, NumRegs> Governor;
  Governor.fill(-1);
  std::array<unsigned, NumRegs> LiveBits{};
  uint64_t Running = 0;
  uint64_t Total = 0;

  for (size_t C = 0; C < Executed.size(); ++C) {
    uint32_t P = Executed[C];
    const Instruction &I = Prog.instr(P);
    if (isHalt(I.Op)) {
      // The observable read registers of the halt stay live at the final
      // program point (their value is the program's result).
      Reg Reads[2];
      unsigned NumReads = I.readRegs(Reads);
      for (unsigned R = 0; R < NumReads; ++R) {
        int32_t Ap = Governor[Reads[R]];
        if (Ap >= 0)
          Total +=
              W - popCount(A.summary(static_cast<uint32_t>(Ap)).MaskedMask, W);
      }
      break;
    }
    auto [ApBegin, ApEnd] = FS.pointsOfInstr(P);
    for (uint32_t Ap = ApBegin; Ap < ApEnd; ++Ap) {
      Reg V = FS.point(Ap).R;
      Governor[V] = static_cast<int32_t>(Ap);
      Running -= LiveBits[V];
      LiveBits[V] = W - popCount(A.summary(Ap).MaskedMask, W);
      Running += LiveBits[V];
    }
    Total += Running;
  }
  return Total;
}
