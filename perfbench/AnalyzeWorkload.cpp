//===- perfbench/AnalyzeWorkload.cpp - The cold static pipeline -----------===//
///
/// \file
/// The `analyze` phase: the paper's compile-time path. Each program is
/// parsed from assembly text and pushed through a fresh AnalysisSession,
/// one span per layer: verify, bit values, liveness, use-def, BEC
/// coalescing, golden simulation, Table III counts, vulnerability and the
/// three scheduling policies. The corpus is the eight bundled kernels
/// repeated for several rounds plus seeded generator programs, shuffled
/// by the run seed; AES sets the p99.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Expected.h"

#include "api/Api.h"
#include "fuzz/Generator.h"
#include "ir/AsmParser.h"
#include "obs/Trace.h"
#include "sched/ListScheduler.h"
#include "sim/Interpreter.h"
#include "support/Xoshiro.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>

using namespace bec;
using namespace perfbench;

namespace {

/// Generated programs: a fixed corpus, the same in every run, whose digest
/// is recorded in Expected.h, and as many drawn from the run seed.
constexpr unsigned KernelRounds = 25, FixedPrograms = 400, SeededPrograms = 400;
constexpr unsigned TinyKernelRounds = 1, TinyFixedPrograms = 12,
                   TinySeededPrograms = 12;

const SchedulePolicy Policies[] = {SchedulePolicy::SourceOrder,
                                   SchedulePolicy::BestReliability,
                                   SchedulePolicy::WorstReliability};

uint64_t digestProgram(uint64_t H, const Program &P) {
  for (const Instruction &I : P.Instrs) {
    H = mixDigest(H, uint64_t(I.Op) | uint64_t(I.Rd) << 8 |
                         uint64_t(I.Rs1) << 16 | uint64_t(I.Rs2) << 24);
    H = mixDigest(H, uint64_t(I.Imm) ^ uint64_t(uint32_t(I.Target)) << 32);
  }
  return H;
}

/// Everything the gate compares for one program, whichever path made it.
struct ProgramResult {
  Trace Golden;
  FaultInjectionCounts Counts;
  uint64_t Vuln = 0;
  uint64_t SchedDigest = 0;
  uint64_t BitClasses = 0;
  uint32_t Instrs = 0;

  uint64_t digest() const {
    uint64_t H = mixDigest(0, Instrs);
    for (uint64_t V : {Golden.Cycles, uint64_t(Golden.End), Golden.TraceHash,
                       Counts.TotalFaultSpace, Counts.ValueLevelRuns,
                       Counts.BitLevelRuns, Counts.MaskedBits,
                       Counts.InferrableBits, Vuln, SchedDigest, BitClasses})
      H = mixDigest(H, V);
    for (uint64_t V : Golden.outputValues())
      H = mixDigest(H, V);
    return H;
  }
};

uint64_t bitClasses(const BECAnalysis &A) {
  uint64_t N = 0;
  for (uint32_t Ap = 0; Ap < A.space().numAccessPoints(); ++Ap)
    N += A.summary(Ap).NumProbes;
  return N;
}

/// The measured pipeline: one fresh session, one span per layer call.
bool analyzeInSession(const AnalyzePhase::Item &It, ProgramResult &Out,
                      std::string &Err) {
  obs::Span Root("analyze.program");
  AsmParseResult Parsed;
  {
    obs::Span S("ir.parse");
    Parsed = parseAsm(It.Asm, It.Name);
  }
  if (!Parsed.succeeded()) {
    Err = "parse failed: " + Parsed.diagText();
    return false;
  }
  AnalysisSession Session;
  CachedProgramPtr P = Session.intern(std::move(*Parsed.Prog));
  Out.Instrs = P->program().size();
  {
    obs::Span S("ir.verify");
    if (!Session.get<VerifyQuery>(P)->empty()) {
      Err = "verifier rejected the program";
      return false;
    }
  }
  {
    obs::Span S("analysis.bitvalues");
    Session.get<BitValuesQuery>(P);
  }
  {
    obs::Span S("analysis.liveness");
    Session.get<LivenessQuery>(P);
  }
  {
    obs::Span S("analysis.usedef");
    Session.get<UseDefQuery>(P);
  }
  std::shared_ptr<const BECAnalysis> A;
  {
    obs::Span S("core.bec");
    A = Session.get<BECQuery>(P);
  }
  {
    obs::Span S("sim.golden");
    Out.Golden = *Session.get<TraceQuery>(P);
  }
  {
    obs::Span S("core.counts");
    Out.Counts = *Session.get<CountsQuery>(P);
  }
  {
    obs::Span S("core.vuln");
    Out.Vuln = *Session.get<VulnQuery>(P);
  }
  {
    obs::Span S("sched.schedule");
    for (SchedulePolicy Policy : Policies)
      Out.SchedDigest =
          digestProgram(Out.SchedDigest, scheduleProgram(*A, Policy));
  }
  Out.BitClasses = bitClasses(*A);
  return true;
}

/// The same results by direct library calls, without the session.
bool analyzeDirect(const AnalyzePhase::Item &It, ProgramResult &Out) {
  AsmParseResult Parsed = parseAsm(It.Asm, It.Name);
  if (!Parsed.succeeded())
    return false;
  const Program &P = *Parsed.Prog;
  BECAnalysis A = BECAnalysis::run(P);
  Out.Instrs = P.size();
  Out.Golden = simulate(P);
  Out.Counts = countFaultInjectionRuns(A, Out.Golden.Executed);
  Out.Vuln = computeVulnerability(A, Out.Golden.Executed);
  for (SchedulePolicy Policy : Policies)
    Out.SchedDigest = digestProgram(Out.SchedDigest, scheduleProgram(A, Policy));
  Out.BitClasses = bitClasses(A);
  return true;
}

/// Golden outputs against the C++ reference model and the Table III row
/// recorded for the kernel.
void checkKernel(const RunConfig &Cfg, const Workload &W, const ProgramResult &O,
                 Checker &Chk) {
  const KernelExpectation *E = findKernelExpectation(W.Name);
  bool OutputsOk = O.Golden.End == Outcome::Finished &&
                   O.Golden.outputValues() == W.ExpectedOutputs &&
                   (!W.CheckReturn || O.Golden.ReturnValue == W.ExpectedReturn);
  Chk.check(OutputsOk, W.Name + ": golden outputs differ from the reference");
  bool CountsOk =
      E && O.Instrs == expected(Cfg, E->Instrs) &&
      O.Golden.Cycles == expected(Cfg, E->Cycles) &&
      O.Counts.TotalFaultSpace == expected(Cfg, E->FaultSpace) &&
      O.Counts.ValueLevelRuns == expected(Cfg, E->ValueLevelRuns) &&
      O.Counts.BitLevelRuns == expected(Cfg, E->BitLevelRuns) &&
      O.Vuln == expected(Cfg, E->Vulnerability);
  if (!CountsOk)
    std::fprintf(stderr,
                 "  %s: instrs %u cycles %llu space %llu value %llu bit %llu "
                 "vuln %llu\n",
                 W.Name.c_str(), O.Instrs, (unsigned long long)O.Golden.Cycles,
                 (unsigned long long)O.Counts.TotalFaultSpace,
                 (unsigned long long)O.Counts.ValueLevelRuns,
                 (unsigned long long)O.Counts.BitLevelRuns,
                 (unsigned long long)O.Vuln);
  Chk.check(CountsOk, W.Name + ": Table III counts differ from the record");
}

/// Folds one generated program's result into a digest that does not depend
/// on the shuffled order of the corpus.
void addToDigest(CorpusDigest &D, const AnalyzePhase::Item &It, uint64_t V) {
  (It.Fixed ? D.Fixed : D.Seeded) += mixDigest(uint64_t(It.Generated), V);
}

} // namespace

void AnalyzePhase::setup() {
  Items.clear();
  const std::vector<Workload> &Kernels = allWorkloads();
  unsigned Rounds = Cfg.Tiny ? TinyKernelRounds : KernelRounds;
  unsigned Fixed = Cfg.Tiny ? TinyFixedPrograms : FixedPrograms;
  unsigned Seeded = Cfg.Tiny ? TinySeededPrograms : SeededPrograms;
  for (unsigned R = 0; R < Rounds; ++R)
    for (size_t K = 0; K < Kernels.size(); ++K)
      Items.push_back({Kernels[K].Name, Kernels[K].Asm, int(K)});
  for (unsigned I = 0; I < Fixed + Seeded; ++I) {
    bool IsFixed = I < Fixed;
    fuzz::GeneratedProgram G = fuzz::generateProgram(fuzz::programSeed(
        IsFixed ? FixedCorpusSeed : Cfg.Seed, IsFixed ? I : I - Fixed));
    Items.push_back({G.Name, std::move(G.Asm), -1, int(I), IsFixed});
  }
  Xoshiro256 Rng(Cfg.Seed);
  for (size_t I = Items.size(); I > 1; --I)
    std::swap(Items[I - 1], Items[Rng.below(I)]);
}

void AnalyzePhase::runPass(Checker &Chk) {
  const std::vector<Workload> &Kernels = allWorkloads();
  CorpusDigest Digest;
  uint64_t Instrs = 0, Cycles = 0, Classes = 0;
  std::vector<double> LatencyMs;
  Clock::time_point Start = Clock::now();
  for (const Item &It : Items) {
    ProgramResult O;
    std::string Err;
    Clock::time_point T0 = Clock::now();
    bool Ok = analyzeInSession(It, O, Err);
    LatencyMs.push_back(secondsSince(T0) * 1e3);
    if (!Chk.check(Ok, It.Name + ": " + Err))
      continue;
    Instrs += O.Instrs;
    Cycles += O.Golden.Cycles;
    Classes += O.BitClasses;
    if (It.Kernel >= 0)
      checkKernel(Cfg, Kernels[It.Kernel], O, Chk);
    else
      addToDigest(Digest, It, O.digest());
  }
  double Wall = secondsSince(Start);
  Totals.add(double(Items.size()), Wall, std::move(LatencyMs));
  std::printf("analyze pass %zu: %zu programs, %.1f programs/s\n",
              Totals.P50.size(), Items.size(), double(Items.size()) / Wall);
  PassInstrs = Instrs;
  PassCycles = Cycles;
  PassBitClasses = Classes;
  uint64_t Recorded = Cfg.Tiny ? TinyFixedCorpusDigest : FixedCorpusDigest;
  if (!Chk.check(Digest.Fixed == expected(Cfg, Recorded),
                 "fixed generated corpus digest differs from the record"))
    std::fprintf(stderr, "  fixed corpus digest 0x%016llx\n",
                 (unsigned long long)Digest.Fixed);
  if (HaveDigest)
    Chk.check(Digest.Seeded == LastDigest.Seeded,
              "seeded generated corpus digest changed between passes");
  LastDigest = Digest;
  HaveDigest = true;
}

void AnalyzePhase::crossCheck(Checker &Chk) {
  CorpusDigest Digest;
  for (const Item &It : Items) {
    if (It.Kernel >= 0)
      continue;
    ProgramResult O;
    addToDigest(Digest, It, analyzeDirect(It, O) ? O.digest() : ~0ull);
  }
  Chk.check(HaveDigest && Digest.Fixed == LastDigest.Fixed &&
                Digest.Seeded == LastDigest.Seeded,
            "generated corpus counts differ between the session pipeline "
            "and direct library calls");
}

void AnalyzePhase::endToEnd(MetricMap &M) const {
  M["analyze_programs_per_s"] = {Totals.rate(), "1/s"};
  M["analyze_p50_ms"] = {mean(Totals.P50), "ms"};
  M["analyze_p99_ms"] = {mean(Totals.P99), "ms"};
}

void AnalyzePhase::perLayer(MetricMap &M) const {
  M["ir.instrs"] = {double(PassInstrs), "count"};
  M["sim.cycles"] = {double(PassCycles), "count"};
  M["core.bit_classes"] = {double(PassBitClasses), "count"};
}
