//===- core/BECAnalysis.cpp - Iterative fault-index coalescing ------------===//

#include "core/BECAnalysis.h"

#include "support/Debug.h"

#include <bit>

using namespace bec;

BECAnalysis BECAnalysis::run(const Program &Prog, const BECOptions &Opts) {
  return run(Prog, Opts,
             std::make_shared<const Liveness>(Liveness::run(Prog)),
             std::make_shared<const UseDef>(UseDef::run(Prog)),
             std::make_shared<const BitValueAnalysis>(
                 BitValueAnalysis::run(Prog)));
}

BECAnalysis BECAnalysis::run(const Program &Prog, const BECOptions &Opts,
                             std::shared_ptr<const Liveness> Live,
                             std::shared_ptr<const UseDef> Uses,
                             std::shared_ptr<const BitValueAnalysis> BitValues) {
  BECAnalysis A;
  A.Prog = &Prog;
  A.Space = std::make_unique<FaultSpace>(Prog);
  A.Live = std::move(Live);
  A.Uses = std::move(Uses);
  A.BitValues = std::move(BitValues);

  const FaultSpace &FS = *A.Space;
  unsigned W = Prog.Width;
  A.Classes.reset(FS.numFaultIndices());

  // Precompute per-instruction fates. The abstract bit values are a fixed
  // point already, so fates do not change across coalescing rounds.
  // computeFates reads the state only at the instruction's Rs1 and Rs2, so
  // only those are filled in, and put back to Top afterwards.
  A.Fates.resize(Prog.size());
  RegState InState;
  for (auto &KB : InState)
    KB = KnownBits::top(W);
  for (uint32_t P = 0; P < Prog.size(); ++P) {
    // Instructions the solver proved unreachable are never executed, so no
    // dynamic fault flows through them; empty fates (None) are sound.
    if (!A.BitValues->isExecutable(P))
      continue;
    const Instruction &I = Prog.instr(P);
    if (Opts.GlobalBitValues) {
      InState[I.Rs1] = A.BitValues->before(P, I.Rs1);
      InState[I.Rs2] = A.BitValues->before(P, I.Rs2);
    }
    A.Fates[P] = computeFates(I, InState, W, Opts.Fates);
    InState[I.Rs1] = InState[I.Rs2] = KnownBits::top(W);
  }

  // --- Initialization (Algorithm 2 lines 1-7) ---------------------------
  // Access points whose register is dead afterwards join s0.
  for (uint32_t Ap = 0; Ap < FS.numAccessPoints(); ++Ap) {
    const AccessPoint &Pt = FS.point(Ap);
    if (!A.Live->isLiveAfter(Pt.Instr, Pt.R))
      for (unsigned B = 0; B < W; ++B)
        A.Classes.unite(0, FS.faultIndex(Ap, B));
  }

  // --- Iterative coalescing (Algorithm 2 lines 8-12) --------------------
  if (Opts.InterInstruction)
    A.coalesce();

  // --- Summaries ---------------------------------------------------------
  // A class is counted at an access point the first time one of its bits
  // shows it there: SeenAt[Rep] holds the last access point + 1 that did.
  A.Summaries.resize(FS.numAccessPoints());
  std::vector<uint32_t> SeenAt(FS.numFaultIndices(), 0);
  for (uint32_t Ap = 0; Ap < FS.numAccessPoints(); ++Ap) {
    const AccessPoint &Pt = FS.point(Ap);
    PointSummary &S = A.Summaries[Ap];
    S.LiveAfter = A.Live->isLiveAfter(Pt.Instr, Pt.R);
    for (unsigned B = 0; B < W; ++B) {
      uint32_t Rep = A.Classes.find(FS.faultIndex(Ap, B));
      if (Rep == 0) {
        S.MaskedMask |= uint64_t(1) << B;
      } else if (SeenAt[Rep] != Ap + 1) {
        SeenAt[Rep] = Ap + 1;
        ++S.NumProbes;
      }
    }
  }
  return A;
}

void BECAnalysis::coalesce() {
  const Program &Prog = *this->Prog;
  const FaultSpace &FS = *Space;
  unsigned W = Prog.Width;
  // Per round, merges are collected against the frozen relation and
  // applied together (the paper's deferred temporary relation R').
  //
  // A fault site with a unique use that kills the register merges with
  // the use's output bit (ToOutput), with every site that forces the same
  // outcome of the same operand (EvalClass), or with s0 (Masked); none of
  // these depend on the relation, so round 1 applies them all. Later
  // rounds only revisit the masked rule: every use masks the bit and every
  // use that does not kill the register has the bit in s0 after it. Round
  // 1 records the sites where that failed only on s0 membership; later
  // rounds re-check just those, since s0 only grows. The rounds, merges
  // and classes are the ones a rescan of every site gives.
  struct Use {
    const Fate *Fates; ///< The use's fate per bit of the register read.
    bool Killed;       ///< The register does not survive the use.
    uint32_t Ap;       ///< The use's own access point of the register.
  };
  /// Sites of access point Ap whose masked merge waits on s0 membership:
  /// Bits of Ap, waiting on the bits of the access points in
  /// Waits[WaitBegin, WaitEnd).
  struct Candidate {
    uint32_t Ap;
    uint64_t Bits;
    uint32_t WaitBegin, WaitEnd;
  };
  std::vector<Candidate> Candidates;
  std::vector<uint32_t> Waits;
  std::vector<std::pair<uint32_t, uint32_t>> Pending;
  auto InS0 = [&](uint32_t Ap, unsigned B) {
    return Classes.find(FS.faultIndex(Ap, B)) == 0;
  };
  auto AllInS0 = [&](const Candidate &C, unsigned B) {
    for (uint32_t K = C.WaitBegin; K < C.WaitEnd; ++K)
      if (!InS0(Waits[K], B))
        return false;
    return true;
  };

  // Round 1: every site. Bridges holds, per (use access point, forced
  // outcome), the first site seen with that EvalClass fate; 0 is none.
  ++Iterations;
  std::vector<uint32_t> Bridges(static_cast<size_t>(FS.numAccessPoints()) * 2,
                                0);
  std::vector<Use> UseList;
  uint64_t Full = lowBitMask(W);
  for (uint32_t Ap = 0; Ap < FS.numAccessPoints(); ++Ap) {
    const AccessPoint &Pt = FS.point(Ap);
    if (!Live->isLiveAfter(Pt.Instr, Pt.R))
      continue;
    std::span<const uint32_t> UseSites = Uses->uses(Pt.Instr, Pt.R);
    if (UseSites.empty())
      continue;

    // Per use: its fates, whether it kills the register, its access
    // point; MaskedBits are the bits every use masks.
    UseList.clear();
    uint64_t MaskedBits = Full;
    for (uint32_t Q : UseSites) {
      const Instruction &QI = Prog.instr(Q);
      int32_t QAp = FS.pointId(Q, Pt.R);
      assert(QAp >= 0 && "use site must access the register");
      const Fate *Fs = Fates[Q].operandFates(Pt.R);
      bool Killed =
          (QI.writesReg() && QI.Rd == Pt.R) || !Live->isLiveAfter(Q, Pt.R);
      UseList.push_back({Fs, Killed, static_cast<uint32_t>(QAp)});
      uint64_t M = 0;
      for (unsigned B = 0; Fs && B < W; ++B)
        if (Fs[B].Kind == FateKind::Masked)
          M |= uint64_t(1) << B;
      MaskedBits &= M;
    }
    uint32_t WaitBegin = static_cast<uint32_t>(Waits.size());
    for (const Use &U : UseList)
      if (!U.Killed)
        Waits.push_back(U.Ap);
    Candidate C{Ap, 0, WaitBegin, static_cast<uint32_t>(Waits.size())};

    // A unique killing use that does not mask the bit carries its fault
    // on to the output bit or to the use's outcome.
    const Use *Sole = nullptr;
    if (UseList.size() == 1 && UseList[0].Killed && UseList[0].Fates)
      Sole = &UseList[0];
    const Instruction &QI = Prog.instr(UseSites[0]);
    for (unsigned B = 0; B < W; ++B) {
      uint32_t Idx = FS.faultIndex(Ap, B);
      if (Classes.find(Idx) == 0)
        continue;
      if ((MaskedBits >> B) & 1) {
        if (AllInS0(C, B))
          Pending.push_back({Idx, 0});
        else
          C.Bits |= uint64_t(1) << B;
        continue;
      }
      if (!Sole)
        continue;
      Fate F = Sole->Fates[B];
      if (F.Kind == FateKind::ToOutput) {
        assert(QI.writesReg() && "ToOutput fate without a destination");
        int32_t OutAp = FS.pointId(UseSites[0], QI.Rd);
        assert(OutAp >= 0 && "destination access point missing");
        Pending.push_back(
            {Idx, FS.faultIndex(static_cast<uint32_t>(OutAp), F.Arg)});
      } else if (F.Kind == FateKind::EvalClass) {
        uint32_t &Bridge = Bridges[size_t(Sole->Ap) * 2 + F.Arg];
        if (Bridge)
          Pending.push_back({Idx, Bridge});
        else
          Bridge = Idx;
      }
    }
    if (C.Bits)
      Candidates.push_back(C);
    else
      Waits.resize(WaitBegin);
  }

  // Applies a round's merges; true if the relation changed.
  auto Apply = [&] {
    bool Changed = false;
    for (auto [X, Y] : Pending)
      if (Classes.unite(X, Y)) {
        Changed = true;
        ++Merges;
      }
    Pending.clear();
    return Changed;
  };
  bool Changed = Apply();

  // Later rounds: only the waiting masked sites. A site that has joined s0
  // by another merge, or merges now, never waits again.
  while (Changed) {
    ++Iterations;
    size_t Kept = 0;
    for (Candidate C : Candidates) {
      for (uint64_t Left = C.Bits; Left; Left &= Left - 1) {
        unsigned B = static_cast<unsigned>(std::countr_zero(Left));
        uint64_t Bit = uint64_t(1) << B;
        if (InS0(C.Ap, B)) {
          C.Bits &= ~Bit;
        } else if (AllInS0(C, B)) {
          Pending.push_back({FS.faultIndex(C.Ap, B), 0});
          C.Bits &= ~Bit;
        }
      }
      if (C.Bits)
        Candidates[Kept++] = C;
    }
    Candidates.resize(Kept);
    Changed = Apply();
  }
}
