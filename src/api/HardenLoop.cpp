//===- api/HardenLoop.cpp - The budgeted selector on the session cache ----===//
///
/// \file
/// The measure-and-accept loop of harden/Harden.h, rehosted on the
/// AnalysisSession registry. The algorithm (candidate enumeration, rank
/// order, rejection memoization, acceptance rule) is unchanged and
/// produces bit-identical results; what changes is where the pipeline
/// runs: every trial program is interned, so
///
///   * the accepted candidate's verify/trace/BEC results become the next
///     round's baseline for free (the old loop re-ran them cold),
///   * the final re-analysis and the closed-loop validation hit the cache
///     instead of re-simulating,
///   * budget sweeps share every trial measured before the budgets
///     diverge, plus the baseline pipeline itself.
///
/// With Config::Caching=false every get() recomputes and the loop does
/// exactly the work of an uncached loop, and SessionEquivalence tests
/// hold the two to byte-identical results.
///
//===----------------------------------------------------------------------===//

#include "api/Queries.h"

#include "core/Metrics.h"
#include "harden/VulnerabilityRank.h"

#include <algorithm>
#include <array>
#include <set>
#include <string>

using namespace bec;

namespace {

/// One measured trial of the greedy loop.
struct Measurement {
  bool Valid = false;
  uint64_t ResidualVuln = 0;
  uint64_t Cycles = 0;
};

Measurement measure(AnalysisSession &S, const HardenedProgram &HP,
                    uint64_t ObservableHash, uint64_t BaselineCycles,
                    double BudgetPercent) {
  Measurement M;
  CachedProgramPtr T = S.intern(HP.Prog);
  if (!S.get<VerifyQuery>(T)->empty())
    return M;
  std::shared_ptr<const Trace> G = S.get<TraceQuery>(T);
  if (G->End != Outcome::Finished || G->ObservableHash != ObservableHash)
    return M;
  double Cost = 100.0 *
                (static_cast<double>(G->Cycles) -
                 static_cast<double>(BaselineCycles)) /
                static_cast<double>(BaselineCycles);
  if (Cost > BudgetPercent)
    return M;
  std::shared_ptr<const BECAnalysis> A = S.get<BECQuery>(T);
  M.Valid = true;
  M.ResidualVuln = computeResidualVulnerability(*A, G->Executed, HP);
  M.Cycles = G->Cycles;
  return M;
}

/// Stable identity of a candidate across index shifts, used to memoize
/// rejections: the def's rendered text, its ordinal among identical
/// texts (so two equal defs at different sites never share an entry),
/// and the window/target distance.
std::string signatureOf(const Program &Prog, const char *Kind, uint32_t Def,
                        uint32_t End) {
  std::string Text = Prog.instr(Def).toString();
  unsigned Ordinal = 0;
  for (uint32_t P = 0; P < Def; ++P)
    if (Prog.instr(P).toString() == Text)
      ++Ordinal;
  return std::string(Kind) + ":" + Text + "#" + std::to_string(Ordinal) +
         ":" + std::to_string(End - Def);
}

} // namespace

HardenResult bec::hardenProgram(AnalysisSession &S, const CachedProgramPtr &P,
                                const HardenOptions &Opts) {
  HardenResult R;
  R.HP.Prog = P->program();

  std::shared_ptr<const Trace> Golden = S.get<TraceQuery>(P);
  if (Golden->End != Outcome::Finished) {
    // Untrusted input, not a programming error: hardening a program whose
    // golden run traps or hangs is meaningless, so return the unmodified
    // program with no sites. validateHardening() on this result reports
    // OutputsMatch=false (the golden run still does not finish), so a
    // HardenQuery's Check flags the situation instead of crashing.
    R.BaselineCycles = Golden->Cycles;
    R.HardenedCycles = Golden->Cycles;
    return R;
  }
  R.BaselineVuln =
      computeVulnerability(*S.get<BECQuery>(P), Golden->Executed);
  R.BaselineCycles = Golden->Cycles;
  R.ResidualVuln = R.BaselineVuln;
  R.HardenedCycles = R.BaselineCycles;

  std::set<std::string> Rejected;
  CachedProgramPtr Cur = P;
  while (R.HP.Sites.size() < Opts.MaxSites) {
    // Round baseline: for every round after the first this is the shard
    // the accepted trial was measured on — a cache hit, where the cold
    // loop re-ran the full analysis and simulation.
    std::shared_ptr<const BECAnalysis> A = S.get<BECQuery>(Cur);
    std::shared_ptr<const Trace> G = S.get<TraceQuery>(Cur);
    VulnerabilityRank Rank = VulnerabilityRank::run(*A, G->Executed);
    std::vector<uint64_t> DefScore(R.HP.Prog.size());
    for (uint32_t I = 0; I < R.HP.Prog.size(); ++I)
      DefScore[I] = Rank.defScore(I);
    std::array<uint64_t, NumRegs> RegScore;
    for (Reg V = 0; V < NumRegs; ++V)
      RegScore[V] = Rank.regScore(V);

    // Unified, rank-ordered candidate list over all transforms.
    enum class Kind { Dup, RegDup, Sink };
    struct Candidate {
      uint64_t Score;
      Kind K;
      DupCandidate Dup;
      RegDupCandidate Reg;
      SinkCandidate Sink;
    };
    std::vector<Candidate> Cands;
    if (Opts.EnableDuplication) {
      for (const RegDupCandidate &C : findRegDupCandidates(R.HP, RegScore))
        Cands.push_back({C.Score, Kind::RegDup, {}, C, {}});
      for (const DupCandidate &C : findDupCandidates(R.HP, DefScore))
        Cands.push_back({C.Score, Kind::Dup, C, {}, {}});
    }
    if (Opts.EnableNarrowing)
      for (const SinkCandidate &C : findSinkCandidates(R.HP, DefScore))
        Cands.push_back({C.Score, Kind::Sink, {}, {}, C});
    std::stable_sort(Cands.begin(), Cands.end(),
                     [](const Candidate &L, const Candidate &Rhs) {
                       return L.Score > Rhs.Score;
                     });

    // Measure the top candidates and take the round's best vulnerability
    // drop per added cycle (free transforms rank naturally first).
    // Candidates that fail to improve are memoized by a shift-stable
    // signature and never measured again; improving runners-up stay in
    // play for later rounds.
    HardenedProgram Best;
    Measurement BestM;
    double BestRatio = 0.0;
    bool HaveBest = false;
    unsigned Probed = 0;
    for (const Candidate &C : Cands) {
      if (Probed >= Opts.ProbesPerRound)
        break;
      std::string Sig;
      switch (C.K) {
      case Kind::Dup:
        Sig = signatureOf(R.HP.Prog, "dup", C.Dup.Def, C.Dup.CheckPos);
        break;
      case Kind::RegDup:
        Sig = "regdup:" + std::string(regName(C.Reg.R));
        break;
      case Kind::Sink:
        Sig = signatureOf(R.HP.Prog, "sink", C.Sink.From, C.Sink.To);
        break;
      }
      if (Rejected.count(Sig))
        continue;
      HardenedProgram Trial = R.HP;
      switch (C.K) {
      case Kind::Dup:
        applyDuplication(Trial, C.Dup);
        break;
      case Kind::RegDup:
        applyRegisterDuplication(Trial, C.Reg);
        break;
      case Kind::Sink:
        applySinking(Trial, C.Sink);
        break;
      }
      ++Probed;
      Measurement M = measure(S, Trial, Golden->ObservableHash,
                              R.BaselineCycles, Opts.BudgetPercent);
      if (!M.Valid || M.ResidualVuln >= R.ResidualVuln) {
        Rejected.insert(Sig);
        continue;
      }
      double Gain = static_cast<double>(R.ResidualVuln - M.ResidualVuln);
      double AddedCycles =
          M.Cycles > R.HardenedCycles
              ? static_cast<double>(M.Cycles - R.HardenedCycles)
              : 0.0;
      double Ratio = Gain / (AddedCycles + 1.0);
      if (!HaveBest || Ratio > BestRatio) {
        HaveBest = true;
        BestRatio = Ratio;
        Best = std::move(Trial);
        BestM = M;
      }
    }
    if (!HaveBest)
      break;
    R.HP = std::move(Best);
    R.ResidualVuln = BestM.ResidualVuln;
    R.HardenedCycles = BestM.Cycles;
    // Re-interning the accepted program lands on the shard its
    // measurement filled; the next round starts warm.
    Cur = S.intern(R.HP.Prog);
  }

  for (const ProtectedSite &Site : R.HP.Sites)
    if (Site.Kind == ProtectKind::Narrow)
      ++R.NumNarrowed;
    else
      ++R.NumDuplicated;
  {
    std::shared_ptr<const BECAnalysis> A = S.get<BECQuery>(Cur);
    std::shared_ptr<const Trace> G = S.get<TraceQuery>(Cur);
    R.HardenedRawVuln = computeVulnerability(*A, G->Executed);
  }
  return R;
}

HardenValidation bec::validateHardening(AnalysisSession &S,
                                        const CachedProgramPtr &Baseline,
                                        const HardenResult &R) {
  HardenValidation V;
  CachedProgramPtr HPShard = S.intern(R.HP.Prog);
  V.VerifierClean = S.get<VerifyQuery>(HPShard)->empty();
  if (!V.VerifierClean)
    return V;

  std::shared_ptr<const Trace> BaseGolden = S.get<TraceQuery>(Baseline);
  std::shared_ptr<const Trace> Golden = S.get<TraceQuery>(HPShard);
  V.OutputsMatch = Golden->End == Outcome::Finished &&
                   Golden->ObservableHash == BaseGolden->ObservableHash;
  V.VulnerabilityReduced = R.HP.Sites.empty()
                               ? R.ResidualVuln == R.BaselineVuln
                               : R.ResidualVuln < R.BaselineVuln;
  runDetectionProbes(R, *Golden, V);
  return V;
}

//===----------------------------------------------------------------------===//
// Classic (session-free) entry points
//===----------------------------------------------------------------------===//

HardenResult bec::hardenProgram(const Program &Prog,
                                const HardenOptions &Opts) {
  AnalysisSession S;
  return hardenProgram(S, S.intern(Prog), Opts);
}
