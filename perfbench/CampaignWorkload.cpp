//===- perfbench/CampaignWorkload.cpp - Fault-injection campaigns ---------===//
///
/// \file
/// The `campaign` phase: the paper's claim that bit-level pruning makes
/// injection campaigns cheaper, and the engine's thread scaling. Golden
/// traces and BEC analyses are built in setup; each pass plans and runs
/// every campaign at 1 thread (default prefix checkpointing). The traced
/// run adds the same campaigns at nproc threads, whose results must equal
/// the 1T results run for run, plus the engine's phase profile.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Expected.h"

#include "fi/Engine.h"
#include "obs/Trace.h"
#include "sim/Interpreter.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>

using namespace bec;
using namespace perfbench;

struct CampaignPhase::Target {
  const CampaignExpectation *Expect = nullptr;
  std::unique_ptr<Program> Prog; ///< Outlives A (BECAnalysis refers to it).
  std::unique_ptr<BECAnalysis> A;
  Trace Golden;
};

namespace {

struct Leg {
  double Wall = 0;
  uint64_t Runs = 0;
  std::vector<CampaignResult> Results;
};

Leg runLeg(std::vector<CampaignPhase::Target> &Targets, unsigned Threads,
           const char *EngineSpan) {
  Leg L;
  Clock::time_point T0 = Clock::now();
  for (CampaignPhase::Target &T : Targets) {
    PlanOptions PO;
    PO.Kind = T.Expect->Plan;
    PO.MaxCycles = T.Expect->MaxCycles;
    CampaignPlan Plan;
    {
      obs::Span S("fi.plan");
      Plan = CampaignPlan::build(*T.A, T.Golden, PO);
    }
    CampaignExecOptions Exec;
    Exec.Threads = Threads;
    Exec.CollectProfile = Threads > 1;
    obs::Span S(EngineSpan);
    L.Results.push_back(runCampaign(*T.Prog, T.Golden, Plan, Exec));
    L.Runs += L.Results.back().Runs;
  }
  L.Wall = secondsSince(T0);
  return L;
}

bool sameResult(const CampaignResult &A, const CampaignResult &B) {
  return A.Error == B.Error && A.Runs == B.Runs &&
         A.EffectCounts == B.EffectCounts &&
         A.DistinctTraces == B.DistinctTraces &&
         A.ArchiveBytes == B.ArchiveBytes && A.TraceHashes == B.TraceHashes &&
         A.Effects == B.Effects;
}

} // namespace

CampaignPhase::CampaignPhase(const RunConfig &Cfg) : Cfg(Cfg) {}
CampaignPhase::~CampaignPhase() = default;

void CampaignPhase::setup() {
  Targets.clear();
  for (const CampaignExpectation &E :
       Cfg.Tiny ? std::span<const CampaignExpectation>(TinyCampaignExpectations)
                : std::span<const CampaignExpectation>(CampaignExpectations)) {
    Target T;
    T.Expect = &E;
    T.Prog = std::make_unique<Program>(loadWorkload(*findWorkload(E.Kernel)));
    T.A = std::make_unique<BECAnalysis>(BECAnalysis::run(*T.Prog));
    T.Golden = simulate(*T.Prog);
    Targets.push_back(std::move(T));
  }
}

void CampaignPhase::runPass(Checker &Chk) {
  Leg One = runLeg(Targets, 1, "fi.engine.1t");
  Total1T.add(double(One.Runs), One.Wall, {});
  std::printf("campaign pass %zu: %llu runs, %.0f runs/s at 1T",
              Total1T.P50.size(), (unsigned long long)One.Runs,
              double(One.Runs) / One.Wall);
  Leg Many;
  if (Cfg.Traced) {
    Many = runLeg(Targets, Cfg.Threads, "fi.engine.nt");
    TotalNT.add(double(Many.Runs), Many.Wall, {});
    std::printf(", %.0f at %uT", double(Many.Runs) / Many.Wall, Cfg.Threads);
  }
  std::printf("\n");

  Runs = SimulatedCycles = Spliced = Restores = CheckpointBytes = 0;
  CampaignPhaseProfile Profile;
  Profile.Collected = true;
  for (size_t I = 0; I < Targets.size(); ++I) {
    const CampaignExpectation &E = *Targets[I].Expect;
    const CampaignResult &R = One.Results[I];
    std::string Label = std::string(E.Kernel) +
                        (E.Plan == PlanKind::Exhaustive ? " exhaustive" : " bit");
    bool Ok = R.Error.empty() && R.Runs == expected(Cfg, E.Runs) &&
              R.DistinctTraces == expected(Cfg, E.DistinctTraces);
    for (unsigned K = 0; K < NumFaultEffects; ++K)
      Ok &= R.EffectCounts[K] == expected(Cfg, E.Effects[K]);
    if (!Ok)
      std::fprintf(stderr,
                   "  %s: runs %llu effects {%llu, %llu, %llu, %llu, %llu} "
                   "distinct %llu\n",
                   Label.c_str(), (unsigned long long)R.Runs,
                   (unsigned long long)R.EffectCounts[0],
                   (unsigned long long)R.EffectCounts[1],
                   (unsigned long long)R.EffectCounts[2],
                   (unsigned long long)R.EffectCounts[3],
                   (unsigned long long)R.EffectCounts[4],
                   (unsigned long long)R.DistinctTraces);
    Chk.check(Ok, Label + ": campaign effect counts differ from the record");

    Runs += R.Runs;
    SimulatedCycles += R.SimulatedCycles;
    Spliced += R.SplicedRuns;
    Restores += R.CheckpointRestores;
    CheckpointBytes += R.CheckpointBytes;
    if (!Cfg.Traced)
      continue;
    Chk.check(sameResult(R, Many.Results[I]),
              Label + ": the nT result differs from the 1T result");
    const std::vector<WorkerPhaseProfile> &W = Many.Results[I].Profile.Workers;
    Profile.Workers.insert(Profile.Workers.end(), W.begin(), W.end());
  }
  CampaignScalingDiagnosis D = diagnoseCampaignScaling(Profile);
  RunFraction = D.RunFraction;
  RebuildFraction = D.RebuildFraction;
  StealFraction = D.StealFraction;
  IdleFraction = D.IdleFraction;
}

void CampaignPhase::endToEnd(MetricMap &M) const {
  M["campaign_runs_per_s_1t"] = {Total1T.rate(), "1/s"};
}

void CampaignPhase::perLayer(MetricMap &M) const {
  unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
  M["fi.runs"] = {double(Runs), "count"};
  M["fi.simulated_cycles"] = {double(SimulatedCycles), "count"};
  M["fi.spliced_runs"] = {double(Spliced), "count"};
  M["fi.splice_share"] = {Runs ? double(Spliced) / double(Runs) : 0, "share"};
  M["fi.checkpoint_restores"] = {double(Restores), "count"};
  M["fi.checkpoint_bytes"] = {double(CheckpointBytes), "bytes"};
  M["fi.parallel_efficiency"] = {
      TotalNT.rate() / (Total1T.rate() * std::min(Cfg.Threads, Cores)),
      "share"};
  M["fi.run_fraction"] = {RunFraction, "share"};
  M["fi.rebuild_fraction"] = {RebuildFraction, "share"};
  M["fi.steal_fraction"] = {StealFraction, "share"};
  M["fi.idle_fraction"] = {IdleFraction, "share"};
}
