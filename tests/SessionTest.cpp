//===- tests/SessionTest.cpp - AnalysisSession caching semantics ----------===//
//
// The api/ contract under test:
//  * same-epoch queries return the identical cached object;
//  * an IR mutation invalidates exactly the dependent analyses (other
//    targets and non-dependent results keep their cached objects);
//  * explicit invalidation drops a result and its transitive dependents,
//    nothing else;
//  * content addressing: equal programs share shards, identity mutations
//    revalidate, results outlive session/target lifecycle events;
//  * untrusted classOf queries return nullopt instead of aborting;
//  * cold (Caching=false) and warm sessions produce identical results for
//    all five subcommand pipelines on every bundled workload — caching
//    can never change an answer, only when it is computed.
//
//===----------------------------------------------------------------------===//

#include "api/Api.h"

#include "ir/AsmParser.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <regex>
#include <thread>

using namespace bec;

namespace {

const char *const TinyAsm = R"(
main:
  li   s0, 5
  li   s1, 3
  add  s2, s0, s1
  out  s2
  mv   a0, s2
  ret
)";

Program tinyProgram() { return parseAsmOrDie(TinyAsm, "tiny"); }

TEST(Session, SameEpochQueriesReturnIdenticalObject) {
  AnalysisSession S;
  auto T = S.addWorkload("bitcount");
  ASSERT_TRUE(T.has_value());

  auto A1 = S.get<BECQuery>(*T);
  auto A2 = S.get<BECQuery>(*T);
  EXPECT_EQ(A1.get(), A2.get());

  auto R1 = S.get<AnalyzeQuery>(*T);
  auto R2 = S.get<AnalyzeQuery>(*T);
  EXPECT_EQ(R1.get(), R2.get());

  SessionStats St = S.stats();
  EXPECT_GT(St.Hits, 0u);
  EXPECT_GT(St.Misses, 0u);
}

TEST(Session, WorkloadLookupIsCaseInsensitive) {
  AnalysisSession S;
  auto T = S.addWorkload("crc32");
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(S.name(*T), "CRC32");
  EXPECT_FALSE(S.addWorkload("nonesuch").has_value());
}

TEST(Session, MutationInvalidatesExactlyDependents) {
  AnalysisSession S;
  AnalysisSession::TargetId T0 = S.addProgram("tiny", tinyProgram());
  auto T1 = S.addWorkload("bitcount");
  ASSERT_TRUE(T1.has_value());

  auto Trace0 = S.get<TraceQuery>(T0);
  auto Bec0 = S.get<BECQuery>(T0);
  auto Trace1 = S.get<TraceQuery>(*T1);
  auto Bec1 = S.get<BECQuery>(*T1);
  EXPECT_EQ(S.epoch(T0), 0u);

  // li s0, 5 -> li s0, 7: a semantic change.
  std::vector<std::string> Errors =
      S.mutate(T0, [](Program &P) { P.Instrs[0].Imm = 7; });
  EXPECT_TRUE(Errors.empty());
  EXPECT_EQ(S.epoch(T0), 1u);

  // The mutated target recomputes, and the new results reflect the new IR.
  auto TraceMut = S.get<TraceQuery>(T0);
  auto BecMut = S.get<BECQuery>(T0);
  EXPECT_NE(TraceMut.get(), Trace0.get());
  EXPECT_NE(BecMut.get(), Bec0.get());
  EXPECT_EQ(Trace0->outputValues()[0], 8u);
  EXPECT_EQ(TraceMut->outputValues()[0], 10u);

  // The other target's results are exactly untouched.
  EXPECT_EQ(S.get<TraceQuery>(*T1).get(), Trace1.get());
  EXPECT_EQ(S.get<BECQuery>(*T1).get(), Bec1.get());
}

TEST(Session, IdentityMutationRevalidatesCachedResults) {
  AnalysisSession S;
  AnalysisSession::TargetId T = S.addProgram("tiny", tinyProgram());
  auto Bec = S.get<BECQuery>(T);

  // Epoch bumps, but the content is unchanged, so the target re-attaches
  // to its shard and every cached result revalidates.
  EXPECT_TRUE(S.mutate(T, [](Program &) {}).empty());
  EXPECT_EQ(S.epoch(T), 1u);
  EXPECT_EQ(S.get<BECQuery>(T).get(), Bec.get());

  // A round-trip mutation (change, then change back) revalidates too.
  EXPECT_TRUE(S.mutate(T, [](Program &P) { P.Instrs[0].Imm = 9; }).empty());
  EXPECT_TRUE(S.mutate(T, [](Program &P) { P.Instrs[0].Imm = 5; }).empty());
  EXPECT_EQ(S.get<BECQuery>(T).get(), Bec.get());
}

TEST(Session, MutationVerifierErrorsLeaveTargetUnchanged) {
  AnalysisSession S;
  AnalysisSession::TargetId T = S.addProgram("tiny", tinyProgram());
  auto Bec = S.get<BECQuery>(T);

  std::vector<std::string> Errors = S.mutate(T, [](Program &P) {
    P.Instrs.pop_back(); // Control now falls off the end.
  });
  EXPECT_FALSE(Errors.empty());
  EXPECT_EQ(S.epoch(T), 0u);
  EXPECT_EQ(S.get<BECQuery>(T).get(), Bec.get());
}

TEST(Session, ExplicitInvalidationDropsOnlyTransitiveDependents) {
  AnalysisSession S;
  AnalysisSession::TargetId T = S.addProgram("tiny", tinyProgram());

  auto Live = S.get<LivenessQuery>(T);
  auto Bec = S.get<BECQuery>(T);
  auto Tr = S.get<TraceQuery>(T);
  auto Counts = S.get<CountsQuery>(T);

  // Counts was computed from BEC + Trace; BEC from Liveness (not Trace).
  S.invalidate<TraceQuery>(T);
  auto Tr2 = S.get<TraceQuery>(T);
  auto Counts2 = S.get<CountsQuery>(T);
  EXPECT_NE(Tr2.get(), Tr.get());
  EXPECT_NE(Counts2.get(), Counts.get());
  EXPECT_EQ(S.get<BECQuery>(T).get(), Bec.get());
  EXPECT_EQ(S.get<LivenessQuery>(T).get(), Live.get());

  // Invalidating a sub-analysis takes the BEC result (and its dependents)
  // with it but leaves the trace alone.
  S.invalidate<LivenessQuery>(T);
  EXPECT_NE(S.get<BECQuery>(T).get(), Bec.get());
  EXPECT_EQ(S.get<TraceQuery>(T).get(), Tr2.get());
}

TEST(Session, EqualContentSharesOneShard) {
  AnalysisSession S;
  AnalysisSession::TargetId T0 = S.addProgram("a", tinyProgram());
  AnalysisSession::TargetId T1 = S.addProgram("b", tinyProgram());
  EXPECT_EQ(S.cached(T0).get(), S.cached(T1).get());
  EXPECT_EQ(S.get<BECQuery>(T0).get(), S.get<BECQuery>(T1).get());
  // Names differ even though the analysis cache is shared.
  EXPECT_EQ(S.name(T0), "a");
  EXPECT_EQ(S.name(T1), "b");
}

TEST(Session, ResultsOutliveSessionAndTargets) {
  std::shared_ptr<const BECAnalysis> A;
  {
    AnalysisSession S;
    AnalysisSession::TargetId T = S.addProgram("tiny", tinyProgram());
    A = S.get<BECQuery>(T);
  }
  // The result keeps its shard (and the Program it points into) alive.
  EXPECT_EQ(A->program().Name, "tiny");
  EXPECT_GT(A->space().numAccessPoints(), 0u);
}

TEST(Session, UntrustedClassOfQueriesReturnNullopt) {
  AnalysisSession S;
  AnalysisSession::TargetId T = S.addProgram("tiny", tinyProgram());
  std::shared_ptr<const BECAnalysis> A = S.get<BECQuery>(T);
  unsigned W = A->program().Width;

  EXPECT_FALSE(A->classOf(1u << 20, 0, 0).has_value());  // P out of range.
  EXPECT_FALSE(A->classOf(0, 255, 0).has_value());       // No such register.
  EXPECT_FALSE(A->classOf(0, 8, W).has_value());         // Bit out of range.
  EXPECT_FALSE(A->classOf(0, 10, 0).has_value());        // Reg not accessed.
  // A valid query still answers.
  EXPECT_TRUE(A->classOf(0, 8, 0).has_value()); // li s0: x8 write.
}

TEST(Session, ZeroShardCapIsSafe) {
  AnalysisSession::Config C;
  C.MaxInternedShards = 0; // Every shard is evicted from the index at once.
  AnalysisSession S(C);
  AnalysisSession::TargetId T = S.addProgram("tiny", tinyProgram());
  EXPECT_GT(*S.get<VulnQuery>(T), 0u);
  // No dedup possible, but everything still works.
  AnalysisSession::TargetId T2 = S.addProgram("tiny2", tinyProgram());
  EXPECT_NE(S.cached(T).get(), S.cached(T2).get());
  EXPECT_EQ(*S.get<VulnQuery>(T2), *S.get<VulnQuery>(T));
}

TEST(Session, HardenOnNonFinishingProgramDoesNotAbort) {
  // Misaligned load: the golden run traps on cycle one.
  const char *TrapAsm = R"(
main:
  lw  t0, 2(zero)
  ret
)";
  AnalysisSession S;
  AnalysisSession::TargetId T =
      S.addProgram("trapper", parseAsmOrDie(TrapAsm, "trapper"));
  ASSERT_EQ(S.get<TraceQuery>(T)->End, Outcome::Trap);

  // The primitive query answers with a no-op result whose check fails —
  // never an assert/abort on untrusted input.
  std::shared_ptr<const HardenPoint> P = S.get<HardenQuery>(T, {});
  EXPECT_TRUE(P->Harden.HP.Sites.empty());
  EXPECT_FALSE(P->Check.ok());

  // The subcommand queries carry the error instead.
  EXPECT_FALSE(S.get<HardenCmdQuery>(T, {})->Error.empty());
  EXPECT_FALSE(S.get<AnalyzeQuery>(T)->Error.empty());
}

TEST(Session, EvaluateAllMatchesSequentialGets) {
  AnalysisSession S;
  S.addAllWorkloads();
  ThreadPool Pool(4);
  auto Parallel = S.evaluateAll<AnalyzeQuery>({}, Pool);
  ASSERT_EQ(Parallel.size(), S.numTargets());
  for (size_t I = 0; I < S.numTargets(); ++I) {
    auto Direct = S.get<AnalyzeQuery>(static_cast<uint32_t>(I));
    EXPECT_EQ(Direct.get(), Parallel[I].get()) << S.name(I);
    EXPECT_TRUE(Direct->Error.empty()) << S.name(I);
  }
}

TEST(Session, HardenSessionMatchesClassicEntryPoint) {
  Program Prog = loadWorkload(*findWorkload("bitcount"));
  HardenOptions Opts;
  Opts.BudgetPercent = 10.0;
  HardenResult Classic = hardenProgram(Prog, Opts);

  AnalysisSession S;
  auto T = S.addWorkload("bitcount");
  ASSERT_TRUE(T.has_value());
  std::shared_ptr<const HardenPoint> P = S.get<HardenQuery>(*T, Opts);

  EXPECT_EQ(P->Harden.ResidualVuln, Classic.ResidualVuln);
  EXPECT_EQ(P->Harden.BaselineVuln, Classic.BaselineVuln);
  EXPECT_EQ(P->Harden.HardenedCycles, Classic.HardenedCycles);
  EXPECT_EQ(P->Harden.HP.Sites.size(), Classic.HP.Sites.size());
  EXPECT_EQ(P->Harden.HP.Prog.toString(), Classic.HP.Prog.toString());
  EXPECT_TRUE(P->Check.ok());
}

//===----------------------------------------------------------------------===//
// Driver equivalence: cold vs. warm across all subcommands and workloads
//===----------------------------------------------------------------------===//

/// Campaign wall-clock seconds are nondeterministic; mask them before
/// comparing serialized results.
std::string maskSeconds(std::string S) {
  static const std::regex SecondsRe("\"seconds\":[^,}]+");
  return std::regex_replace(S, SecondsRe, "\"seconds\":0");
}

/// Bounded windows keep the exhaustive parts of the test quick (the
/// validation campaign is the expensive one: every register bit of every
/// segment in the window).
constexpr uint64_t CampaignMaxCycles = 300;
constexpr uint64_t ReportMaxCycles = 120;

template <class Q>
std::pair<std::string, std::string>
renderBoth(const typename Q::Options &Opts,
           const std::function<std::string(
               const AnalysisSession &,
               const std::vector<std::shared_ptr<const typename Q::Result>> &)>
               &Render) {
  auto RunOne = [&](bool Caching) {
    AnalysisSession::Config C;
    C.Caching = Caching;
    AnalysisSession S(C);
    S.addAllWorkloads();
    ThreadPool Pool(2);
    auto Results = S.evaluateAll<Q>(Opts, Pool);
    return maskSeconds(Render(S, Results));
  };
  return {RunOne(false), RunOne(true)};
}

std::vector<std::string> allNames() {
  std::vector<std::string> Names;
  for (const Workload &W : allWorkloads())
    Names.push_back(W.Name);
  return Names;
}

TEST(SessionEquivalence, AnalyzeColdEqualsWarm) {
  auto [Cold, Warm] = renderBoth<AnalyzeQuery>(
      {}, [](const AnalysisSession &, const auto &Rs) {
        return renderAnalyzeJson(allNames(), Rs);
      });
  EXPECT_EQ(Cold, Warm);
  EXPECT_NE(Cold.find("\"vulnerability\":"), std::string::npos);
}

TEST(SessionEquivalence, CampaignColdEqualsWarm) {
  CampaignCmdQuery::Options O;
  O.Plan = PlanKind::BitLevel;
  O.MaxCycles = CampaignMaxCycles;
  auto [Cold, Warm] = renderBoth<CampaignCmdQuery>(
      O, [&](const AnalysisSession &, const auto &Rs) {
        return renderCampaignJson(allNames(), Rs, PlanKind::BitLevel);
      });
  EXPECT_EQ(Cold, Warm);
  EXPECT_NE(Cold.find("\"plan\":\"bit-level\""), std::string::npos);
}

TEST(SessionEquivalence, ScheduleColdEqualsWarm) {
  auto [Cold, Warm] = renderBoth<ScheduleCmdQuery>(
      {}, [](const AnalysisSession &, const auto &Rs) {
        return renderScheduleJson(allNames(), Rs);
      });
  EXPECT_EQ(Cold, Warm);
  EXPECT_NE(Cold.find("\"best_vulnerability\":"), std::string::npos);
}

TEST(SessionEquivalence, HardenColdEqualsWarm) {
  HardenCmdQuery::Options O;
  O.Budgets = {10.0};
  std::vector<double> Budgets = O.Budgets;
  auto [Cold, Warm] = renderBoth<HardenCmdQuery>(
      O, [&](const AnalysisSession &, const auto &Rs) {
        std::string Out = renderHardenJson(allNames(), Rs, Budgets);
        for (const auto &R : Rs) // The hardened programs, not only counts.
          for (const HardenPoint &P : R->Points)
            Out += P.Harden.HP.Prog.toString();
        return Out;
      });
  EXPECT_EQ(Cold, Warm);
  EXPECT_NE(Cold.find("\"residual_vulnerability\":"), std::string::npos);
  EXPECT_EQ(Cold.find("\"ok\":false"), std::string::npos);
}

TEST(SessionEquivalence, ReportColdEqualsWarm) {
  ReportCmdQuery::Options O;
  O.MaxCycles = ReportMaxCycles;
  auto [Cold, Warm] = renderBoth<ReportCmdQuery>(
      O, [](const AnalysisSession &, const auto &Rs) {
        return renderReportJson(allNames(), Rs);
      });
  EXPECT_EQ(Cold, Warm);
  EXPECT_NE(Cold.find("\"sound\":true"), std::string::npos);
  EXPECT_EQ(Cold.find("\"sound\":false"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Concurrent session sharing (the becd pool's load pattern)
//===----------------------------------------------------------------------===//

// N threads hammer one session with a mixed query workload over shared
// shards — the exact pattern the becd server's connection handlers
// produce. Every concurrent answer must be bit-identical to a serial
// session's, and each (shard, query) pair must be computed exactly once
// (same-epoch queries return the identical cached object).
TEST(SessionConcurrency, MixedQueriesMatchSerialExecution) {
  const char *Names[] = {"bitcount", "crc32", "sha", "dijkstra"};
  constexpr int NumThreads = 8, Rounds = 3;
  constexpr uint64_t MaxCycles = 200;

  // Serial reference, fresh session.
  struct Expected {
    uint64_t Vuln;
    uint64_t BitLevelRuns;
    uint64_t CampaignRuns;
    std::string AnalyzeRow;
  };
  std::map<std::string, Expected> Reference;
  {
    AnalysisSession Serial;
    for (const char *Name : Names) {
      auto T = Serial.addWorkload(Name);
      ASSERT_TRUE(T.has_value()) << Name;
      Expected E;
      E.Vuln = *Serial.get<VulnQuery>(*T);
      E.BitLevelRuns = Serial.get<CountsQuery>(*T)->BitLevelRuns;
      E.CampaignRuns =
          Serial.get<CampaignQuery>(*T, {PlanKind::BitLevel, MaxCycles})->Runs;
      E.AnalyzeRow = renderCountsJson(Serial.name(*T),
                                      *Serial.get<AnalyzeQuery>(*T));
      Reference[Name] = E;
    }
  }

  AnalysisSession Shared;
  std::vector<CachedProgramPtr> Shards;
  for (const char *Name : Names)
    Shards.push_back(Shared.intern(loadWorkload(*findWorkloadAnyCase(Name))));

  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int R = 0; R < Rounds; ++R)
        for (int W = 0; W < 4; ++W) {
          // Stagger the order per thread so computations genuinely race.
          size_t Pick = size_t((W + T + R) % 4);
          const CachedProgramPtr &P = Shards[Pick];
          const Expected &E = Reference[Names[Pick]];
          bool Ok =
              *Shared.get<VulnQuery>(P) == E.Vuln &&
              Shared.get<CountsQuery>(P)->BitLevelRuns == E.BitLevelRuns &&
              Shared
                      .get<CampaignQuery>(P, {PlanKind::BitLevel, MaxCycles})
                      ->Runs == E.CampaignRuns &&
              renderCountsJson(findWorkloadAnyCase(Names[Pick])->Name,
                               *Shared.get<AnalyzeQuery>(P)) == E.AnalyzeRow;
          if (!Ok)
            ++Mismatches;
        }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0);

  // Compute-once: every get() past the first per (shard, query) was a
  // cache hit, and all threads saw the identical result objects.
  SessionStats St = Shared.stats();
  EXPECT_GT(St.Hits, 0u);
  for (size_t I = 0; I < Shards.size(); ++I) {
    auto A = Shared.get<VulnQuery>(Shards[I]);
    auto B = Shared.get<VulnQuery>(Shards[I]);
    EXPECT_EQ(A.get(), B.get());
  }
  // Misses are bounded by the distinct (shard, query) pairs the threads
  // could request (4 shards x 4 top-level queries plus their nested
  // sub-analyses), independent of thread and round count.
  EXPECT_LE(St.Misses, 4u * 10u);
}

} // namespace
