//===- fuzz/Oracles.cpp - Differential oracles over one program -----------===//

#include "fuzz/Oracles.h"

#include "api/AnalysisSession.h"
#include "api/Queries.h"
#include "api/Serialize.h"
#include "fi/CampaignPlan.h"
#include "fi/Engine.h"
#include "fi/Validation.h"
#include "ir/AsmParser.h"
#include "obs/Trace.h"
#include "sim/Interpreter.h"
#include "support/Xoshiro.h"

#include <map>

using namespace bec;
using namespace bec::fuzz;

namespace {

/// Site key of one planned run: (cycle, register, bit). Cycle counts of
/// fuzz windows are tiny, but the key stays collision-free up to 2^40
/// cycles regardless.
uint64_t siteKey(const PlannedRun &Run) {
  return (Run.AfterCycle << 16) | (uint64_t(Run.R) << 8) | Run.Bit;
}

std::string siteString(const PlannedRun &Run) {
  return "cycle " + std::to_string(Run.AfterCycle) + ", r" +
         std::to_string(Run.R) + ", bit " + std::to_string(Run.Bit);
}

void mismatch(std::vector<OracleMismatch> &Out, const char *Oracle,
              std::string Detail) {
  Out.push_back({Oracle, std::move(Detail)});
}

} // namespace

size_t bec::fuzz::compareVerdicts(const std::vector<PlannedRun> &ExPlan,
                                  const std::vector<FaultEffect> &ExEffects,
                                  const std::vector<PlannedRun> &PrunedPlan,
                                  const std::vector<FaultEffect> &PrunedEffects,
                                  std::vector<OracleMismatch> &Mismatches) {
  size_t Before = Mismatches.size();
  if (ExPlan.size() != ExEffects.size() ||
      PrunedPlan.size() != PrunedEffects.size()) {
    mismatch(Mismatches, "verdict",
             "plan/effect size mismatch (exhaustive " +
                 std::to_string(ExPlan.size()) + "/" +
                 std::to_string(ExEffects.size()) + ", pruned " +
                 std::to_string(PrunedPlan.size()) + "/" +
                 std::to_string(PrunedEffects.size()) + ")");
    return Mismatches.size() - Before;
  }
  std::map<uint64_t, FaultEffect> BySite;
  for (size_t I = 0; I < ExPlan.size(); ++I)
    BySite[siteKey(ExPlan[I])] = ExEffects[I];
  for (size_t I = 0; I < PrunedPlan.size(); ++I) {
    auto It = BySite.find(siteKey(PrunedPlan[I]));
    if (It == BySite.end()) {
      mismatch(Mismatches, "verdict",
               "pruned site outside exhaustive coverage: " +
                   siteString(PrunedPlan[I]));
      continue;
    }
    if (It->second != PrunedEffects[I])
      mismatch(Mismatches, "verdict",
               "pruned " + std::string(faultEffectName(PrunedEffects[I])) +
                   " vs exhaustive " + faultEffectName(It->second) + " at " +
                   siteString(PrunedPlan[I]) + " (class " +
                   std::to_string(PrunedPlan[I].ClassRep) + ")");
  }
  return Mismatches.size() - Before;
}

OracleReport bec::fuzz::runOracles(const Program &Prog,
                                   const OracleOptions &O) {
  OracleReport Report;

  // Secondary oracle: print/parse round trip. The printed assembly must
  // reassemble to the exact semantic content (the session's content key
  // covers instructions, width, memory image and entry point) and the
  // printer must be idempotent over the round trip.
  if (O.CheckRoundTrip) {
    obs::Span Span("fuzz.oracle.round-trip");
    std::string Printed = Prog.toString();
    AsmParseResult Re = parseAsm(Printed, Prog.Name);
    if (!Re.succeeded()) {
      mismatch(Report.Mismatches, "round-trip",
               "printed program does not reassemble: " + Re.diagText());
    } else {
      if (AnalysisSession::contentKeyOf(Prog) !=
          AnalysisSession::contentKeyOf(*Re.Prog))
        mismatch(Report.Mismatches, "round-trip",
                 "reassembled program differs semantically from the "
                 "original");
      if (Re.Prog->toString() != Printed)
        mismatch(Report.Mismatches, "round-trip",
                 "printer is not idempotent over print/parse");
    }
  }

  // The golden run. Generated programs terminate by construction; a
  // non-finishing golden run is a generator bug worth reporting.
  Trace Golden = [&] {
    obs::Span Span("fuzz.oracle.golden");
    return simulate(Prog);
  }();
  if (Golden.End != Outcome::Finished) {
    mismatch(Report.Mismatches, "golden",
             std::string("golden run ended in ") + outcomeName(Golden.End));
    return Report;
  }
  // Both run-loop instances must trace alike: rerun hash-only, stopped
  // and resumed at chunk sizes seeded by the golden hash (a pure function
  // of the program), and compare with the recorded run.
  {
    obs::Span Span("fuzz.oracle.golden-chunked");
    RunOptions HashOnly;
    HashOnly.Record = false;
    Interpreter I(Prog, HashOnly);
    Xoshiro256 Rng(Golden.TraceHash);
    while (!I.done())
      I.runToCycle(I.cycle() + static_cast<uint64_t>(Rng.range(1, 64)));
    Trace Chunked = I.takeTrace();
    if (Chunked.TraceHash != Golden.TraceHash ||
        Chunked.ObservableHash != Golden.ObservableHash ||
        Chunked.Cycles != Golden.Cycles || Chunked.End != Golden.End)
      mismatch(Report.Mismatches, "golden",
               "chunked hash-only rerun differs from the recorded run (" +
                   std::to_string(Chunked.Cycles) + " vs " +
                   std::to_string(Golden.Cycles) + " cycles, ended in " +
                   outcomeName(Chunked.End) + ")");
  }

  uint64_t Limit = O.MaxCycles ? std::min<uint64_t>(O.MaxCycles, Golden.Cycles)
                               : Golden.Cycles;
  BECAnalysis A = BECAnalysis::run(Prog);

  // Primary oracle: BEC-pruned verdicts vs exhaustive ground truth, both
  // replayed in full from their injection points. The bit-level window is
  // one cycle short of the exhaustive window so every pruned injection
  // cycle (C + 1) lies inside exhaustive coverage.
  CampaignPlan ExPlan;
  CampaignResult Ex;
  {
    obs::Span Span("fuzz.oracle.exhaustive");
    ExPlan = CampaignPlan::build(A, Golden,
                                 {.Kind = PlanKind::Exhaustive,
                                  .MaxCycles = Limit,
                                  .PrefixCheckpoint = false});
    Ex = runCampaign(Prog, Golden, ExPlan);
  }
  Report.ExhaustiveRuns = Ex.Runs;
  CampaignResult Bit;
  if (Limit > 1) {
    obs::Span Span("fuzz.oracle.bit-level");
    CampaignPlan BitPlan = CampaignPlan::build(
        A, Golden,
        {.Kind = PlanKind::BitLevel,
         .MaxCycles = Limit - 1,
         .PrefixCheckpoint = false});
    Bit = runCampaign(Prog, Golden, BitPlan);
    Report.PrunedRuns = Bit.Runs;
    Report.PrunedEffects = Bit.EffectCounts;
    compareVerdicts(ExPlan.runs(), Ex.Effects, BitPlan.runs(), Bit.Effects,
                    Report.Mismatches);
  }

  // Fate-classification oracle: the Table II validation campaign. This
  // covers the masked sites (class s0 must reproduce the golden trace)
  // and the cross-segment ToOutput chains the verdict comparison cannot
  // see.
  if (O.CheckFates) {
    obs::Span Span("fuzz.oracle.fates");
    ValidationResult V = validateAnalysis(A, Golden, Limit);
    if (!V.sound())
      mismatch(Report.Mismatches, "fates",
               "validation found " + std::to_string(V.UnsoundPairs) +
                   " unsound pairs, " + std::to_string(V.MaskedViolations) +
                   " masked violations, " +
                   std::to_string(V.CrossViolations) + " cross violations");
  }

  // Engine oracle: the sharded executor must be byte-equivalent to the
  // serial one on the same plan (any thread count; we use a small one).
  if (O.CheckEngine && Limit > 1) {
    obs::Span Span("fuzz.oracle.engine");
    PlanOptions PO;
    PO.Kind = PlanKind::BitLevel;
    PO.MaxCycles = Limit - 1;
    CampaignPlan Plan = CampaignPlan::build(A, Golden, PO);
    CampaignExecOptions Exec;
    Exec.Threads = O.EngineThreads;
    CampaignResult Par = runCampaign(Prog, Golden, Plan, Exec);
    if (!Par.Error.empty())
      mismatch(Report.Mismatches, "engine", "engine error: " + Par.Error);
    else if (Par.Effects != Bit.Effects || Par.TraceHashes != Bit.TraceHashes ||
             Par.EffectCounts != Bit.EffectCounts)
      mismatch(Report.Mismatches, "engine",
               "sharded engine result differs from the serial executor");
  }

  // Checkpoint oracle: prefix-checkpointed execution (dense explicit
  // placement, so short fuzz windows still get several snapshots) vs
  // from-zero replay. Fork-from-snapshot and suffix splicing must be
  // invisible in every result byte, including the archive accounting a
  // spliced run fabricates from the memoized suffix. The bit-level plan
  // is compared with the same plan run with checkpointing off; the
  // exhaustive plan, where most flips are dead and settle at the
  // injection point, with the primary oracle's from-zero result.
  if (O.CheckCheckpoint && Limit > 1) {
    obs::Span Span("fuzz.oracle.checkpoint");
    auto SameResult = [](const CampaignResult &X, const CampaignResult &Y) {
      return X.Effects == Y.Effects && X.TraceHashes == Y.TraceHashes &&
             X.EffectCounts == Y.EffectCounts &&
             X.DistinctTraces == Y.DistinctTraces &&
             X.ArchiveBytes == Y.ArchiveBytes;
    };
    PlanOptions On;
    On.Kind = PlanKind::BitLevel;
    On.MaxCycles = Limit - 1;
    On.CheckpointEveryK = 3;
    PlanOptions Off = On;
    Off.PrefixCheckpoint = false;
    PlanOptions ExOn = On;
    ExOn.Kind = PlanKind::Exhaustive;
    ExOn.MaxCycles = Limit;
    CampaignResult COn =
        runCampaign(Prog, Golden, CampaignPlan::build(A, Golden, On), {});
    CampaignResult COff =
        runCampaign(Prog, Golden, CampaignPlan::build(A, Golden, Off), {});
    CampaignResult CEx =
        runCampaign(Prog, Golden, CampaignPlan::build(A, Golden, ExOn), {});
    if (!COn.Error.empty() || !COff.Error.empty() || !CEx.Error.empty())
      mismatch(Report.Mismatches, "checkpoint",
               "engine error: " + COn.Error + COff.Error + CEx.Error);
    else if (!SameResult(COn, COff))
      mismatch(Report.Mismatches, "checkpoint",
               "prefix-checkpointed result differs from from-zero replay");
    else if (!SameResult(CEx, Ex))
      mismatch(Report.Mismatches, "checkpoint",
               "prefix-checkpointed exhaustive result differs from "
               "from-zero replay");
  }

  // Harden oracle: the closed loop must hold on every program whose
  // golden run finishes — hardened output identical, vulnerability not
  // increased, every detection probe caught.
  if (O.CheckHarden) {
    obs::Span Span("fuzz.oracle.harden");
    AnalysisSession S;
    CachedProgramPtr P = S.intern(Prog);
    HardenOptions HO;
    HO.BudgetPercent = O.HardenBudget;
    auto Point = S.get<HardenQuery>(P, HO);
    if (!Point->Check.ok())
      mismatch(Report.Mismatches, "harden",
               std::string("closed-loop hardening check failed (verifier ") +
                   (Point->Check.VerifierClean ? "clean" : "DIRTY") +
                   ", outputs " +
                   (Point->Check.OutputsMatch ? "match" : "DIFFER") +
                   ", vulnerability " +
                   (Point->Check.VulnerabilityReduced ? "reduced" : "NOT "
                                                                    "reduced") +
                   ", probes " +
                   std::to_string(Point->Check.DetectionsCaught) + "/" +
                   std::to_string(Point->Check.DetectionProbes) + ")");
  }

  // Session oracle: cached results must render byte-identically to cold
  // ones, across repeated queries and across fresh sessions.
  if (O.CheckSession) {
    obs::Span Span("fuzz.oracle.session");
    std::vector<std::string> Names = {Prog.Name};
    auto Render = [&](AnalysisSession &S, AnalysisSession::TargetId T) {
      std::vector<std::shared_ptr<const AnalyzeResult>> Results = {
          S.get<AnalyzeQuery>(T)};
      return renderAnalyzeJson(Names, Results);
    };
    AnalysisSession S1;
    AnalysisSession::TargetId T1 = S1.addProgram(Prog.Name, Prog);
    std::string Cold = Render(S1, T1);
    std::string Warm = Render(S1, T1);
    if (Cold != Warm)
      mismatch(Report.Mismatches, "session",
               "warm analyze render differs from cold");
    AnalysisSession S2;
    std::string Cold2 = Render(S2, S2.addProgram(Prog.Name, Prog));
    if (Cold != Cold2)
      mismatch(Report.Mismatches, "session",
               "cold analyze render differs across sessions");
  }

  return Report;
}
