//===- harden/Transforms.cpp - Protection transforms over the IR ----------===//

#include "harden/Transforms.h"

#include "sched/ListScheduler.h"
#include "support/Debug.h"

#include <algorithm>

using namespace bec;

bool HardenedProgram::isHardeningInstr(uint32_t P) const {
  if (DetectorIdx >= 0 && P >= static_cast<uint32_t>(DetectorIdx))
    return true;
  for (const ProtectedSite &S : Sites)
    if (S.Kind == ProtectKind::Duplicate &&
        (P == S.DupIdx || P == S.DefIdx || P == S.CheckIdx))
      return true;
  // Register-duplication machinery is index-free: shadow recomputes write
  // a shadow register, checks read one.
  uint32_t Shadows = shadowRegMask();
  if (Shadows != 0) {
    const Instruction &I = Prog.instr(P);
    if (I.writesReg() && ((Shadows >> I.Rd) & 1))
      return true;
    Reg Reads[2];
    unsigned N = I.readRegs(Reads);
    for (unsigned R = 0; R < N; ++R)
      if ((Shadows >> Reads[R]) & 1)
        return true;
  }
  return false;
}

uint32_t HardenedProgram::origRegMask() const {
  uint32_t Mask = 0;
  for (const ProtectedSite &S : Sites)
    if (S.Kind != ProtectKind::Narrow)
      Mask |= uint32_t(1) << S.Orig;
  return Mask;
}

uint32_t HardenedProgram::shadowRegMask() const {
  uint32_t Mask = 0;
  for (const ProtectedSite &S : Sites)
    if (S.Kind != ProtectKind::Narrow)
      Mask |= uint32_t(1) << S.Shadow;
  return Mask;
}

std::vector<Reg> bec::freeRegisters(const Program &Prog) {
  bool Accessed[NumRegs] = {};
  for (const Instruction &I : Prog.Instrs) {
    if (I.writesReg())
      Accessed[I.Rd] = true;
    Reg Reads[2];
    unsigned N = I.readRegs(Reads);
    for (unsigned R = 0; R < N; ++R)
      Accessed[Reads[R]] = true;
  }
  std::vector<Reg> Free;
  for (unsigned R = 1; R < NumRegs; ++R)
    if (!Accessed[R])
      Free.push_back(static_cast<Reg>(R));
  return Free;
}

namespace {

/// True for opcodes a shadow recompute may safely re-execute: pure
/// register computations and loads (the recompute sits immediately before
/// the original, so memory cannot have changed in between).
bool isDuplicable(Opcode Op) {
  switch (opcodeFormat(Op)) {
  case OpFormat::RegImm:
  case OpFormat::RegReg:
  case OpFormat::RegRegReg:
  case OpFormat::RegRegImm:
  case OpFormat::Load:
    return true;
  default:
    return false;
  }
}

/// Finds where a check protecting \p Rd defined at \p Def must go: before
/// the first subsequent writer of Rd in the block (the kill ends the
/// window; a check after it would compare the *new* value against the
/// shadow), or before the block's last instruction. Returns 0 if no
/// position exists (the def is the block's last instruction).
uint32_t checkPositionFor(const Program &Prog, const BasicBlock &B,
                          uint32_t Def, Reg Rd) {
  if (Def >= B.Last)
    return 0;
  for (uint32_t K = Def + 1; K <= B.Last; ++K) {
    const Instruction &I = Prog.instr(K);
    if (I.writesReg() && I.Rd == Rd)
      return K;
  }
  return B.Last;
}

/// First instruction after \p Def in \p B that reads \p Rd, or 0 if the
/// value is killed or unread within the block.
uint32_t firstReaderInBlock(const Program &Prog, const BasicBlock &B,
                            uint32_t Def, Reg Rd) {
  for (uint32_t K = Def + 1; K <= B.Last; ++K) {
    const Instruction &I = Prog.instr(K);
    if (I.reads(Rd))
      return K;
    if (I.writesReg() && I.Rd == Rd)
      return 0; // Killed before any read: the segment is dead.
  }
  return 0;
}

/// The shared detector block: a deliberately misaligned load forces a
/// deterministic trap, and the trailing halt satisfies the verifier's
/// no-fallthrough rule. Register-only narrow-width programs cannot use
/// memory instructions and fall back to a bare halt.
std::vector<Instruction> detectorInstrs(unsigned Width) {
  std::vector<Instruction> Detector;
  if (Width == 32) {
    Instruction Probe;
    Probe.Op = Opcode::LW;
    Probe.Rd = RegZero;
    Probe.Rs1 = RegZero;
    Probe.Imm = 1;
    Detector.push_back(Probe);
  }
  Instruction Halt;
  Halt.Op = Opcode::HALT;
  Detector.push_back(Halt);
  return Detector;
}

/// Shifts every site index and the detector index for an insertion of
/// \p N instructions before index \p At.
void shiftForInsertion(HardenedProgram &HP, uint32_t At, uint32_t N) {
  auto Shift = [&](uint32_t &Idx) {
    if (Idx >= At)
      Idx += N;
  };
  for (ProtectedSite &S : HP.Sites) {
    Shift(S.DupIdx);
    Shift(S.DefIdx);
    Shift(S.CheckIdx);
    Shift(S.MovedFrom);
    Shift(S.MovedTo);
  }
  if (HP.DetectorIdx >= 0 && static_cast<uint32_t>(HP.DetectorIdx) >= At)
    HP.DetectorIdx += static_cast<int32_t>(N);
}

} // namespace

std::vector<DupCandidate>
bec::findDupCandidates(const HardenedProgram &HP,
                       const std::vector<uint64_t> &DefScore) {
  const Program &Prog = HP.Prog;
  if (freeRegisters(Prog).empty())
    return {};
  std::vector<DupCandidate> Out;
  uint32_t Protected = HP.origRegMask();
  for (uint32_t P = 0; P < Prog.size(); ++P) {
    if (HP.isHardeningInstr(P) || DefScore[P] == 0)
      continue;
    const Instruction &I = Prog.instr(P);
    if (!I.writesReg() || !isDuplicable(I.Op))
      continue;
    // Registers protected at register granularity are already covered.
    if ((Protected >> I.Rd) & 1)
      continue;
    const BasicBlock &B = Prog.blocks()[Prog.blockOf(P)];
    uint32_t CheckPos = checkPositionFor(Prog, B, P, I.Rd);
    if (CheckPos == 0)
      continue;
    Out.push_back({P, CheckPos, DefScore[P]});
  }
  return Out;
}

std::vector<SinkCandidate>
bec::findSinkCandidates(const HardenedProgram &HP,
                        const std::vector<uint64_t> &DefScore) {
  const Program &Prog = HP.Prog;
  uint32_t Protected = HP.origRegMask();
  std::vector<SinkCandidate> Out;
  BlockDAGBuilder Builder;
  for (const BasicBlock &B : Prog.blocks()) {
    const BlockDAG &DAG = Builder.build(Prog, B);
    for (uint32_t P = B.First + 1; P <= B.Last; ++P) {
      if (HP.isHardeningInstr(P) || DefScore[P] == 0)
        continue;
      const Instruction &I = Prog.instr(P);
      if (!I.writesReg())
        continue;
      // Defs of a protected register must keep their shadow recompute
      // adjacent; never move them.
      if ((Protected >> I.Rd) & 1)
        continue;
      uint32_t To = firstReaderInBlock(Prog, B, P, I.Rd);
      if (To == 0 || To <= P + 1)
        continue; // Unread, dead, or already adjacent to its reader.
      // Moving P to To - 1 is legal iff no dependence forces P before an
      // instruction strictly inside (P, To). Direct DAG successors are
      // enough: transitive constraints pass through a direct edge into
      // the region.
      bool Blocked = false;
      for (uint32_t S : DAG.succs(P - B.First))
        if (B.First + S < To) {
          Blocked = true;
          break;
        }
      if (!Blocked)
        Out.push_back({P, To, DefScore[P]});
    }
  }
  return Out;
}

void bec::applyDuplication(HardenedProgram &HP, const DupCandidate &C) {
  Program &Prog = HP.Prog;
  // By value: the insertions below reallocate the instruction vector.
  Instruction Def = Prog.instr(C.Def);
  assert(Def.writesReg() && isDuplicable(Def.Op) && "bad duplication site");

  std::vector<Reg> Free = freeRegisters(Prog);
  assert(!Free.empty() && "no shadow register available");
  Reg Shadow = Free.front();
  Reg Rd = Def.Rd;

  // Shared detector block, appended once at the very end (the verified
  // program's last instruction is a terminator, so nothing falls into
  // it).
  if (HP.DetectorIdx < 0) {
    HP.DetectorIdx = static_cast<int32_t>(Prog.size());
    Prog.insertInstructions(Prog.size(), detectorInstrs(Prog.Width));
  }

  // Shadow recompute immediately before the def: identical sources, so
  // the shadow holds the same value on every path (branches to the def
  // are remapped onto the recompute by insertInstructions).
  Instruction Dup = Def;
  Dup.Rd = Shadow;
  shiftForInsertion(HP, C.Def, 1);
  Prog.insertInstructions(C.Def, {&Dup, 1});

  // Compare-and-branch to the detector, before the first kill of Rd (or
  // the block's last instruction). Any in-window SEU in Rd or the shadow
  // survives untouched until here — registers are only overwritten at
  // kills — so the compare observes it and diverts to the detector.
  uint32_t CheckAt = C.CheckPos + 1; // Shifted by the recompute above.
  shiftForInsertion(HP, CheckAt, 1);
  Instruction Check;
  Check.Op = Opcode::BNE;
  Check.Rs1 = Rd;
  Check.Rs2 = Shadow;
  Check.Target = HP.DetectorIdx; // Already shifted to its final index.
  Prog.insertInstructions(CheckAt, {&Check, 1});

  ProtectedSite Site;
  Site.Kind = ProtectKind::Duplicate;
  Site.Orig = Rd;
  Site.Shadow = Shadow;
  Site.DupIdx = C.Def;
  Site.DefIdx = C.Def + 1;
  Site.CheckIdx = CheckAt;
  HP.Sites.push_back(Site);

  Prog.buildCFG();
}

std::vector<RegDupCandidate>
bec::findRegDupCandidates(const HardenedProgram &HP,
                          const std::array<uint64_t, NumRegs> &RegScore) {
  const Program &Prog = HP.Prog;
  if (freeRegisters(Prog).empty())
    return {};
  uint32_t Taken = HP.origRegMask() | HP.shadowRegMask();
  // Only registers the program actually defines can be shadowed.
  uint32_t Defined = 0;
  for (const Instruction &I : Prog.Instrs)
    if (I.writesReg())
      Defined |= uint32_t(1) << I.Rd;
  std::vector<RegDupCandidate> Out;
  for (Reg R = 1; R < NumRegs; ++R)
    if (RegScore[R] != 0 && !((Taken >> R) & 1) && ((Defined >> R) & 1))
      Out.push_back({R, RegScore[R]});
  return Out;
}

void bec::applyRegisterDuplication(HardenedProgram &HP,
                                   const RegDupCandidate &C) {
  Program &Prog = HP.Prog;
  Reg R = C.R;
  std::vector<Reg> Free = freeRegisters(Prog);
  assert(!Free.empty() && "no shadow register available");
  Reg Shadow = Free.front();
  uint32_t Shadows = HP.shadowRegMask();

  // Sentinel for "branch to the detector" while its final index is still
  // unknown; distinct from NoTarget.
  constexpr int32_t DetectorTarget = -2;

  uint32_t N = Prog.size();
  std::vector<Instruction> New;
  New.reserve(N + 8);
  // Landing[P]: where control transfers to old P must go (the first
  // instruction emitted for P, so inserted checks/recomputes run first).
  // Placed[P]: where old P itself landed.
  std::vector<uint32_t> Landing(N), Placed(N);

  for (uint32_t P = 0; P < N; ++P) {
    Instruction I = Prog.instr(P);
    Landing[P] = static_cast<uint32_t>(New.size());
    bool WritesR = I.writesReg() && I.Rd == R;
    bool ShadowWriter = I.writesReg() && ((Shadows >> I.Rd) & 1);
    // A check guards every consumption of R outside its own def chain.
    // Shadow recomputes of other protected registers re-read R by
    // construction; their adjacent original def gets the check.
    if (I.reads(R) && !WritesR && !ShadowWriter) {
      Instruction Check;
      Check.Op = Opcode::BNE;
      Check.Rs1 = R;
      Check.Rs2 = Shadow;
      Check.Target = DetectorTarget;
      New.push_back(Check);
    }
    if (WritesR) {
      // The shadow recompute reads the shadow where the def reads R, so
      // the shadow chain never consumes a corrupted R: it carries the
      // exact fault-free value, and R == shadow iff any fault in R was
      // masked.
      Instruction Dup = I;
      Dup.Rd = Shadow;
      switch (opcodeFormat(I.Op)) {
      case OpFormat::RegReg:
      case OpFormat::RegRegImm:
      case OpFormat::Load:
        if (Dup.Rs1 == R)
          Dup.Rs1 = Shadow;
        break;
      case OpFormat::RegRegReg:
        if (Dup.Rs1 == R)
          Dup.Rs1 = Shadow;
        if (Dup.Rs2 == R)
          Dup.Rs2 = Shadow;
        break;
      default:
        break;
      }
      New.push_back(Dup);
    }
    Placed[P] = static_cast<uint32_t>(New.size());
    New.push_back(I);
  }

  int32_t NewDetector;
  if (HP.DetectorIdx >= 0) {
    NewDetector = static_cast<int32_t>(Placed[HP.DetectorIdx]);
  } else {
    NewDetector = static_cast<int32_t>(New.size());
    for (const Instruction &I : detectorInstrs(Prog.Width))
      New.push_back(I);
  }

  for (Instruction &I : New) {
    if (I.Target == DetectorTarget)
      I.Target = NewDetector;
    else if (I.Target != NoTarget)
      I.Target = static_cast<int32_t>(Landing[static_cast<uint32_t>(I.Target)]);
  }
  // Original instructions were emitted with their old targets; the loop
  // above remapped them in place, which is correct because old targets
  // are always < N and sentinel/NoTarget values are negative.
  Prog.Entry = Landing[Prog.Entry];
  Prog.Instrs = std::move(New);

  for (ProtectedSite &S : HP.Sites) {
    S.DupIdx = Placed[S.DupIdx];
    S.DefIdx = Placed[S.DefIdx];
    S.CheckIdx = Placed[S.CheckIdx];
    S.MovedFrom = Placed[S.MovedFrom];
    S.MovedTo = Placed[S.MovedTo];
  }
  HP.DetectorIdx = NewDetector;

  ProtectedSite Site;
  Site.Kind = ProtectKind::DuplicateReg;
  Site.Orig = R;
  Site.Shadow = Shadow;
  HP.Sites.push_back(Site);

  Prog.buildCFG();
}

void bec::applySinking(HardenedProgram &HP, const SinkCandidate &C) {
  Program &Prog = HP.Prog;
  assert(C.From + 1 < C.To && C.To <= Prog.size() && "bad sinking range");
  // Rotate [From, To): the def lands at To - 1, the instructions it
  // crossed shift up by one. All of them are block-interior (non-leader)
  // positions, so no branch target or entry remap is needed.
  std::rotate(Prog.Instrs.begin() + C.From, Prog.Instrs.begin() + C.From + 1,
              Prog.Instrs.begin() + C.To);
  auto Remap = [&](uint32_t &Idx) {
    if (Idx == C.From)
      Idx = C.To - 1;
    else if (Idx > C.From && Idx < C.To)
      Idx -= 1;
  };
  for (ProtectedSite &S : HP.Sites) {
    Remap(S.DupIdx);
    Remap(S.DefIdx);
    Remap(S.CheckIdx);
    Remap(S.MovedFrom);
    Remap(S.MovedTo);
  }

  ProtectedSite Site;
  Site.Kind = ProtectKind::Narrow;
  Site.Orig = Prog.instr(C.To - 1).Rd;
  Site.MovedFrom = C.From;
  Site.MovedTo = C.To - 1;
  HP.Sites.push_back(Site);

  Prog.buildCFG();
}
