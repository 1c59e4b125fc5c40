//===- tests/CampaignTest.cpp - Campaign planning and execution ------------===//

#include "core/Metrics.h"
#include "fi/Campaign.h"
#include "fi/CampaignPlan.h"
#include "fi/Checkpoint.h"
#include "fi/Engine.h"
#include "fi/Validation.h"
#include "ir/AsmParser.h"
#include "sim/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>

using namespace bec;

namespace {

static const char *SmallLoop = R"(
main:
  li  t0, 6
  li  a0, 0
loop:
  andi t1, t0, 3
  add  a0, a0, t1
  addi t0, t0, -1
  bnez t0, loop
  out  a0
  ret
)";

/// \p Kind's plan over the first \p MaxCycles cycles (0 = all), with
/// every suffix replayed in full from its injection point: the reference
/// the engine's shortcuts are compared against.
CampaignPlan fullReplayPlan(const BECAnalysis &A, const Trace &Golden,
                            PlanKind Kind, uint64_t MaxCycles = 0) {
  return CampaignPlan::build(
      A, Golden,
      {.Kind = Kind, .MaxCycles = MaxCycles, .PrefixCheckpoint = false});
}

TEST(CampaignPlan, ExhaustiveCoversEverySite) {
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  CampaignPlan Plan = CampaignPlan::build(A, Golden, {PlanKind::Exhaustive});
  EXPECT_EQ(Plan.runs().size(), Golden.Cycles * NumRegs * Prog.Width);
}

TEST(CampaignPlan, PlanSizesMatchTheMetricCounts) {
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  FaultInjectionCounts C = countFaultInjectionRuns(A, Golden.Executed);
  std::vector<PlannedRun> Value =
      CampaignPlan::build(A, Golden, {PlanKind::ValueLevel}).runs();
  EXPECT_EQ(Value.size(), C.ValueLevelRuns);
  std::vector<PlannedRun> Bit =
      CampaignPlan::build(A, Golden, {PlanKind::BitLevel}).runs();
  // The plan does not deduplicate across segments (each dynamic segment
  // probes its classes), so it can only be >= the fully-deduplicated
  // metric count and <= the value-level count.
  EXPECT_GE(Bit.size(), C.BitLevelRuns);
  EXPECT_LE(Bit.size(), Value.size());
}

TEST(CampaignRun, GoldenReplayIsMasked) {
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  // Injecting into x0 anywhere is architecturally impossible -> masked.
  std::vector<PlannedRun> Plan;
  for (uint64_t C = 0; C < Golden.Cycles; ++C)
    Plan.push_back({C, RegZero, 7, 0, -1});
  CampaignResult R =
      runCampaign(Prog, Golden, CampaignPlan::fromRuns(std::move(Plan)));
  EXPECT_EQ(R.EffectCounts[static_cast<unsigned>(FaultEffect::Masked)],
            R.Runs);
}

TEST(CampaignRun, ClassifiesSilentDataCorruption) {
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  (void)A;
  Trace Golden = simulate(Prog);
  // Flip a0's LSB right before the out: guaranteed SDC.
  std::vector<PlannedRun> Plan = {
      {Golden.Cycles - 2, RegA0, 0, 0, -1},
  };
  CampaignResult R =
      runCampaign(Prog, Golden, CampaignPlan::fromRuns(std::move(Plan)));
  EXPECT_EQ(R.EffectCounts[static_cast<unsigned>(FaultEffect::SDC)], 1u);
}

TEST(CampaignRun, MaskedPlusLiveEqualsRuns) {
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  CampaignResult R =
      runCampaign(Prog, Golden, fullReplayPlan(A, Golden, PlanKind::ValueLevel));
  uint64_t Sum = 0;
  for (uint64_t Count : R.EffectCounts)
    Sum += Count;
  EXPECT_EQ(Sum, R.Runs);
  EXPECT_EQ(R.TraceHashes.size(), R.Runs);
}

TEST(CampaignRun, BecPrunedRunsAreSubsetEquivalent) {
  // Every run the BEC plan skips is either masked (class s0: trace equals
  // golden) or duplicates a kept run's class. Verified per segment by the
  // validator; here we check the aggregate: the value-level campaign's
  // distinct trace set equals the BEC campaign's distinct trace set plus
  // golden-identical traces.
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  CampaignResult Value =
      runCampaign(Prog, Golden, fullReplayPlan(A, Golden, PlanKind::ValueLevel));
  CampaignResult Bit =
      runCampaign(Prog, Golden, fullReplayPlan(A, Golden, PlanKind::BitLevel));
  std::set<uint64_t> ValueTraces(Value.TraceHashes.begin(),
                                 Value.TraceHashes.end());
  std::set<uint64_t> BitTraces(Bit.TraceHashes.begin(),
                               Bit.TraceHashes.end());
  BitTraces.insert(Golden.TraceHash);
  EXPECT_EQ(ValueTraces.size(), BitTraces.size())
      << "pruning must not lose any distinguishable fault effect";
}

TEST(Validation, SmallLoopIsSound) {
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  ValidationResult R = validateAnalysis(A, Golden);
  EXPECT_TRUE(R.sound());
  EXPECT_GT(R.SoundPrecisePairs, 0u);
  EXPECT_GT(R.MaskedChecked, 0u);
}

TEST(Validation, MotivatingExampleIsSound) {
  const char *Motivating = R"(
.width 4
main:
  li   a0, 0
  li   a1, 7
loop:
  andi a2, a1, 1
  andi a3, a1, 3
  addi a1, a1, -1
  seqz a2, a2
  snez a3, a3
  and  a2, a2, a3
  add  a0, a0, a2
  bnez a1, loop
  ret
)";
  Program Prog = parseAsmOrDie(Motivating, "motivating");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  ValidationResult R = validateAnalysis(A, Golden);
  EXPECT_TRUE(R.sound());
  EXPECT_EQ(R.UnsoundPairs, 0u);
}

TEST(Validation, XorChainCrossSegmentLinks) {
  // xor propagates faults to its output unconditionally; the input
  // segment's class merges with the output segment's class, producing a
  // cross-segment link the validator checks against trace ground truth.
  const char *Src = R"(
main:
  li  t0, 6
  li  t1, 3
  xor t2, t0, t1
  xor t3, t2, t1
  out t3
  ret
)";
  Program Prog = parseAsmOrDie(Src, "xorchain");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  ValidationResult R = validateAnalysis(A, Golden);
  EXPECT_TRUE(R.sound());
  EXPECT_GT(R.CrossChecked, 0u);
  EXPECT_EQ(R.CrossViolations, 0u);
}

//===----------------------------------------------------------------------===//
// The sharded engine (fi/Engine.h)
//===----------------------------------------------------------------------===//

/// Everything deterministic about a result (all but Seconds).
void expectSameResult(const CampaignResult &A, const CampaignResult &B) {
  EXPECT_EQ(A.Runs, B.Runs);
  EXPECT_EQ(A.EffectCounts, B.EffectCounts);
  EXPECT_EQ(A.DistinctTraces, B.DistinctTraces);
  EXPECT_EQ(A.ArchiveBytes, B.ArchiveBytes);
  EXPECT_EQ(A.Effects, B.Effects);
  EXPECT_EQ(A.TraceHashes, B.TraceHashes);
}

TEST(CampaignEngine, ShardedMatchesSerialAtEveryThreadCount) {
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  CampaignResult Serial =
      runCampaign(Prog, Golden, fullReplayPlan(A, Golden, PlanKind::ValueLevel));

  PlanOptions PO;
  PO.Kind = PlanKind::ValueLevel;
  CampaignPlan Plan = CampaignPlan::build(A, Golden, PO);
  for (unsigned Threads : {1u, 2u, 7u}) {
    CampaignExecOptions Exec;
    Exec.Threads = Threads;
    Exec.ShardSize = 8; // Many shards: exercise stealing.
    CampaignResult R = runCampaign(Prog, Golden, Plan, Exec);
    EXPECT_TRUE(R.Error.empty()) << R.Error;
    EXPECT_FALSE(R.Interrupted);
    expectSameResult(Serial, R);
  }
}

/// Interrupt a checkpointed campaign after K shards, resume it (with a
/// different thread count), and require the final result bit-identical
/// to the uninterrupted baseline.
void checkInterruptResume(const Program &Prog, const Trace &Golden,
                          const CampaignPlan &Plan, uint64_t StopAfter,
                          const CampaignResult &Baseline) {
  std::string Path = testing::TempDir() + "/campaign_resume_" +
                     std::to_string(StopAfter) + ".jsonl";
  std::remove(Path.c_str());

  // One thread for the interrupted phase: the stop is then checked
  // before every dispatch, so *exactly* StopAfter shards complete (a
  // second worker's in-flight shard could otherwise finish the whole
  // campaign when stopping one short of the end).
  CampaignExecOptions Partial;
  Partial.Threads = 1;
  Partial.ShardSize = 16;
  Partial.CheckpointPath = Path;
  Partial.StopAfterShards = StopAfter;
  CampaignResult Interrupted = runCampaign(Prog, Golden, Plan, Partial);
  ASSERT_TRUE(Interrupted.Error.empty()) << Interrupted.Error;
  ASSERT_TRUE(Interrupted.Interrupted);
  EXPECT_LT(Interrupted.Runs, Baseline.Runs);
  // The aggregate of the completed shards is consistent on its own.
  uint64_t Sum = 0;
  for (uint64_t C : Interrupted.EffectCounts)
    Sum += C;
  EXPECT_EQ(Sum, Interrupted.Runs);

  CampaignExecOptions ResumeExec;
  ResumeExec.Threads = 3; // Any thread count may resume any checkpoint.
  ResumeExec.ShardSize = 16;
  ResumeExec.CheckpointPath = Path;
  ResumeExec.Resume = true;
  CampaignResult Resumed = runCampaign(Prog, Golden, Plan, ResumeExec);
  ASSERT_TRUE(Resumed.Error.empty()) << Resumed.Error;
  EXPECT_FALSE(Resumed.Interrupted);
  EXPECT_GT(Resumed.ResumedShards, 0u);
  EXPECT_LT(Resumed.ResumedShards, Resumed.Shards);
  expectSameResult(Baseline, Resumed);
  std::remove(Path.c_str());
}

TEST(CampaignEngine, InterruptAndResumeIsBitIdentical) {
  const Workload *W = findWorkload("bitcount");
  ASSERT_NE(W, nullptr);
  Program Prog = loadWorkload(*W);
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  PlanOptions PO;
  PO.Kind = PlanKind::BitLevel;
  PO.MaxCycles = 120;
  CampaignPlan Plan = CampaignPlan::build(A, Golden, PO);
  // The default plan executes with prefix checkpointing: the resume
  // battery below exercises restore-from-snapshot across interrupts.
  ASSERT_TRUE(Plan.prefixCheckpoint());
  uint64_t Shards = (Plan.runs().size() + 15) / 16;
  ASSERT_GT(Shards, 4u);

  CampaignExecOptions Full;
  Full.ShardSize = 16;
  CampaignResult Baseline = runCampaign(Prog, Golden, Plan, Full);
  ASSERT_TRUE(Baseline.Error.empty()) << Baseline.Error;
  EXPECT_GT(Baseline.CheckpointsCreated, 0u);

  // Kill after the first shard, around the middle, and one short of the
  // end: resume must reconstruct the identical report every time.
  for (uint64_t StopAfter : {uint64_t(1), Shards / 2, Shards - 1})
    checkInterruptResume(Prog, Golden, Plan, StopAfter, Baseline);

  // Same battery with checkpointing off: resume correctness must not
  // depend on the execution strategy (and both strategies must agree).
  PlanOptions OffPO = PO;
  OffPO.PrefixCheckpoint = false;
  CampaignPlan OffPlan = CampaignPlan::build(A, Golden, OffPO);
  ASSERT_FALSE(OffPlan.prefixCheckpoint());
  CampaignResult OffBaseline = runCampaign(Prog, Golden, OffPlan, Full);
  ASSERT_TRUE(OffBaseline.Error.empty()) << OffBaseline.Error;
  expectSameResult(Baseline, OffBaseline);
  for (uint64_t StopAfter : {uint64_t(1), Shards / 2, Shards - 1})
    checkInterruptResume(Prog, Golden, OffPlan, StopAfter, OffBaseline);
}

TEST(CampaignEngine, ResumeRejectsCheckpointOfDifferentPlacementPeriod) {
  // The resolved checkpoint period is part of the plan fingerprint: a
  // shard file written under K=7 placement must not resume a K=64
  // campaign (the shard stream is the same, but silently switching
  // placement would defeat the fingerprint's plan-identity promise).
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  std::string Path = testing::TempDir() + "/campaign_placement.jsonl";
  std::remove(Path.c_str());

  PlanOptions Dense;
  Dense.Kind = PlanKind::ValueLevel;
  Dense.CheckpointEveryK = 7;
  CampaignPlan DensePlan = CampaignPlan::build(A, Golden, Dense);
  CampaignExecOptions Exec;
  Exec.CheckpointPath = Path;
  ASSERT_TRUE(runCampaign(Prog, Golden, DensePlan, Exec).Error.empty());

  PlanOptions Sparse = Dense;
  Sparse.CheckpointEveryK = 64;
  CampaignPlan SparsePlan = CampaignPlan::build(A, Golden, Sparse);
  EXPECT_NE(DensePlan.fingerprint(), SparsePlan.fingerprint());
  Exec.Resume = true;
  CampaignResult R = runCampaign(Prog, Golden, SparsePlan, Exec);
  EXPECT_NE(R.Error.find("different campaign plan"), std::string::npos)
      << R.Error;
  std::remove(Path.c_str());
}

TEST(CampaignEngine, ResumeRejectsCheckpointOfDifferentPlan) {
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  std::string Path = testing::TempDir() + "/campaign_foreign.jsonl";
  std::remove(Path.c_str());

  PlanOptions ValueOpts;
  ValueOpts.Kind = PlanKind::ValueLevel;
  CampaignPlan Value = CampaignPlan::build(A, Golden, ValueOpts);
  CampaignExecOptions Exec;
  Exec.CheckpointPath = Path;
  ASSERT_TRUE(runCampaign(Prog, Golden, Value, Exec).Error.empty());

  PlanOptions BitOpts;
  BitOpts.Kind = PlanKind::BitLevel;
  CampaignPlan Bit = CampaignPlan::build(A, Golden, BitOpts);
  Exec.Resume = true;
  CampaignResult R = runCampaign(Prog, Golden, Bit, Exec);
  EXPECT_NE(R.Error.find("different campaign plan"), std::string::npos)
      << R.Error;
  std::remove(Path.c_str());
}

TEST(CampaignEngine, TornTrailingCheckpointRecordIsIgnored) {
  // An unreadable record is dropped and its shard re-runs on resume: a
  // torn trailing write (what a kill mid-write leaves: a half record, no
  // newline), or a record whose hash is not hex digits alone: "-1"
  // (strtoull would wrap it to ffffffffffffffff), "+1", " 1" or "0x1".
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  PlanOptions PO;
  PO.Kind = PlanKind::ValueLevel;
  CampaignPlan Plan = CampaignPlan::build(A, Golden, PO);
  CampaignResult Baseline = runCampaign(Prog, Golden, Plan, {});

  std::string Path = testing::TempDir() + "/campaign_torn.jsonl";
  std::remove(Path.c_str());
  CampaignExecOptions Exec;
  Exec.ShardSize = 8;
  Exec.CheckpointPath = Path;
  Exec.StopAfterShards = 2;
  ASSERT_TRUE(runCampaign(Prog, Golden, Plan, Exec).Error.empty());
  std::vector<std::string> Lines; // The header and two shard records.
  std::ifstream In(Path);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  ASSERT_EQ(Lines.size(), 3u);
  size_t Hash = Lines[2].find("\"hashes\":[\"");
  ASSERT_NE(Hash, std::string::npos);

  // "" keeps both records and appends the torn write instead.
  for (std::string BadHash : {"", "-1", "+1", " 1", "0x1"}) {
    std::string Record = Lines[2];
    if (!BadHash.empty())
      Record.replace(Hash + 11, 16, BadHash);
    std::ofstream(Path) << Lines[0] << '\n' << Lines[1] << '\n' << Record
                        << '\n'
                        << (BadHash.empty() ? "{\"shard\":3,\"effects\":[0,1"
                                            : "");
    CampaignExecOptions ResumeExec;
    ResumeExec.ShardSize = 8;
    ResumeExec.CheckpointPath = Path;
    ResumeExec.Resume = true;
    CampaignResult Resumed = runCampaign(Prog, Golden, Plan, ResumeExec);
    ASSERT_TRUE(Resumed.Error.empty()) << Resumed.Error;
    EXPECT_FALSE(Resumed.Interrupted);
    EXPECT_EQ(Resumed.ResumedShards, BadHash.empty() ? 2u : 1u)
        << "hash '" << BadHash << "'";
    expectSameResult(Baseline, Resumed);
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Stratified sampling (fi/CampaignPlan.h)
//===----------------------------------------------------------------------===//

TEST(CampaignPlan, StratifiedSampleIsDeterministicSortedAndSized) {
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  PlanOptions PO;
  PO.Kind = PlanKind::ValueLevel;
  PO.SampleSize = 40;
  PO.SampleSeed = 7;
  CampaignPlan S1 = CampaignPlan::build(A, Golden, PO);
  CampaignPlan S2 = CampaignPlan::build(A, Golden, PO);
  ASSERT_EQ(S1.runs().size(), 40u);
  EXPECT_GT(S1.populationRuns(), 40u);
  EXPECT_EQ(S1.fingerprint(), S2.fingerprint());
  for (size_t I = 0; I < S1.runs().size(); ++I) {
    EXPECT_EQ(S1.runs()[I].AfterCycle, S2.runs()[I].AfterCycle);
    EXPECT_EQ(S1.runs()[I].R, S2.runs()[I].R);
    EXPECT_EQ(S1.runs()[I].Bit, S2.runs()[I].Bit);
    if (I)
      EXPECT_LE(S1.runs()[I - 1].AfterCycle, S1.runs()[I].AfterCycle);
  }
  PO.SampleSeed = 8;
  CampaignPlan S3 = CampaignPlan::build(A, Golden, PO);
  EXPECT_NE(S1.fingerprint(), S3.fingerprint());
}

TEST(CampaignPlan, FingerprintSeparatesKindWindowAndSeed) {
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  PlanOptions Base;
  Base.Kind = PlanKind::ValueLevel;
  uint64_t FP = CampaignPlan::build(A, Golden, Base).fingerprint();
  PlanOptions Bit = Base;
  Bit.Kind = PlanKind::BitLevel;
  EXPECT_NE(FP, CampaignPlan::build(A, Golden, Bit).fingerprint());
  PlanOptions Window = Base;
  Window.MaxCycles = 5;
  EXPECT_NE(FP, CampaignPlan::build(A, Golden, Window).fingerprint());
  // Checkpoint placement is fingerprint-covered too: off, the auto
  // period, and an explicit period all key differently (unless the
  // explicit period happens to equal the resolved auto one).
  PlanOptions NoCk = Base;
  NoCk.PrefixCheckpoint = false;
  EXPECT_NE(FP, CampaignPlan::build(A, Golden, NoCk).fingerprint());
  PlanOptions Every3 = Base;
  Every3.CheckpointEveryK = 3;
  EXPECT_NE(FP, CampaignPlan::build(A, Golden, Every3).fingerprint());
}

TEST(CampaignPlan, CheckpointPlacementCoversTheTraceAndAutoTunes) {
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  PlanOptions PO;
  PO.Kind = PlanKind::ValueLevel;
  PO.CheckpointEveryK = 4;
  CampaignPlan Plan = CampaignPlan::build(A, Golden, PO);
  ASSERT_TRUE(Plan.prefixCheckpoint());
  EXPECT_EQ(Plan.checkpointPeriod(), 4u);
  // Snapshots start at cycle 0, stride by the period, and stay strictly
  // inside the golden run (a snapshot at the final cycle would capture
  // a finished machine no fork can continue from).
  ASSERT_FALSE(Plan.checkpointCycles().empty());
  EXPECT_EQ(Plan.checkpointCycles().front(), 0u);
  for (size_t I = 0; I < Plan.checkpointCycles().size(); ++I) {
    EXPECT_EQ(Plan.checkpointCycles()[I], I * 4);
    EXPECT_LT(Plan.checkpointCycles()[I], Golden.Cycles);
  }
  // Liveness masks ride along for the engine's reconvergence test.
  EXPECT_EQ(Plan.liveInMasks().size(), Prog.size());

  // The auto-tuned period: ~16 cycles for dense plans, stretched so
  // sparse plans never carry more checkpoints than runs, floored so
  // long traces stay under 4096 snapshots, and never zero.
  EXPECT_EQ(autoCheckpointPeriod(1000, 1000), 16u);
  EXPECT_EQ(autoCheckpointPeriod(32000, 10), 3200u);
  EXPECT_EQ(autoCheckpointPeriod(uint64_t(1) << 20, uint64_t(1) << 20),
            256u);
  EXPECT_EQ(autoCheckpointPeriod(0, 0), 1u);

  // Off means off: no period, no placement, no masks.
  PlanOptions Off = PO;
  Off.PrefixCheckpoint = false;
  CampaignPlan OffPlan = CampaignPlan::build(A, Golden, Off);
  EXPECT_FALSE(OffPlan.prefixCheckpoint());
  EXPECT_EQ(OffPlan.checkpointPeriod(), 0u);
  EXPECT_TRUE(OffPlan.checkpointCycles().empty());
  EXPECT_TRUE(OffPlan.liveInMasks().empty());
}

TEST(CampaignPlan, WilsonIntervalBehavesAtBoundaries) {
  RateInterval Zero = wilsonInterval(0, 100);
  EXPECT_EQ(Zero.Lo, 0.0);
  EXPECT_GT(Zero.Hi, 0.0);
  EXPECT_LT(Zero.Hi, 0.05);
  RateInterval One = wilsonInterval(100, 100);
  EXPECT_EQ(One.Hi, 1.0);
  EXPECT_GT(One.Lo, 0.95);
  RateInterval Half = wilsonInterval(50, 100);
  EXPECT_LT(Half.Lo, 0.5);
  EXPECT_GT(Half.Hi, 0.5);
  RateInterval Empty = wilsonInterval(0, 0);
  EXPECT_EQ(Empty.Lo, 0.0);
  EXPECT_EQ(Empty.Hi, 0.0);
}

TEST(CampaignSampling, CIBoundsContainExhaustiveRateOnAllWorkloads) {
  // The engine's statistical contract: on every bundled workload, the
  // 95% Wilson intervals of a stratified sample contain the rate an
  // exhaustive execution of the same enumerated fault space measures.
  // (Deterministic: fixed seed, fixed plans. Stratification plus
  // without-replacement draws make the real coverage comfortably above
  // the nominal 95%.)
  for (const Workload &W : allWorkloads()) {
    Program Prog = loadWorkload(W);
    BECAnalysis A = BECAnalysis::run(Prog);
    Trace Golden = simulate(Prog);

    PlanOptions FullOpts;
    FullOpts.Kind = PlanKind::ValueLevel;
    FullOpts.MaxCycles = 120;
    CampaignPlan Full = CampaignPlan::build(A, Golden, FullOpts);
    CampaignResult Exhaustive = runCampaign(Prog, Golden, Full, {});
    ASSERT_TRUE(Exhaustive.Error.empty());
    ASSERT_GT(Exhaustive.Runs, 800u) << W.Name;

    PlanOptions SampleOpts = FullOpts;
    SampleOpts.SampleSize = 800;
    SampleOpts.SampleSeed = 1;
    CampaignPlan Sampled = CampaignPlan::build(A, Golden, SampleOpts);
    CampaignResult R = runCampaign(Prog, Golden, Sampled, {});
    ASSERT_TRUE(R.Error.empty());
    ASSERT_TRUE(R.Sample.has_value()) << W.Name;
    EXPECT_EQ(R.Sample->PopulationRuns, Exhaustive.Runs) << W.Name;

    for (FaultEffect E : {FaultEffect::SDC, FaultEffect::Trap}) {
      double TrueRate = double(Exhaustive.EffectCounts[size_t(E)]) /
                        double(Exhaustive.Runs);
      const RateInterval &CI = R.Sample->CI[size_t(E)];
      EXPECT_LE(CI.Lo, TrueRate)
          << W.Name << " " << faultEffectName(E) << " sample rate "
          << R.Sample->Rate[size_t(E)];
      EXPECT_GE(CI.Hi, TrueRate)
          << W.Name << " " << faultEffectName(E) << " sample rate "
          << R.Sample->Rate[size_t(E)];
    }
  }
}

TEST(CampaignRun, PrunedVerdictsEqualExhaustivePerRepresentative) {
  // Every representative the BEC plan keeps must classify exactly as the
  // exhaustive run at the same (cycle, reg, bit) site: pruning changes
  // campaign cost, never a verdict. The loop runs over its whole trace;
  // on the first 64 cycles of bitcount and CRC32 the pruned plan must
  // also need at least 5x fewer runs than the exhaustive one.
  struct Input {
    Program Prog;
    uint64_t Window; ///< Exhaustive window in cycles; 0 = whole trace.
  };
  std::vector<Input> Inputs;
  Inputs.push_back({parseAsmOrDie(SmallLoop, "loop"), 0});
  for (const char *Name : {"bitcount", "CRC32"})
    Inputs.push_back({loadWorkload(*findWorkload(Name)), 64});

  for (const Input &In : Inputs) {
    BECAnalysis A = BECAnalysis::run(In.Prog);
    Trace Golden = simulate(In.Prog);
    uint64_t Window = In.Window ? In.Window : Golden.Cycles;
    CampaignPlan ExCampaign =
        fullReplayPlan(A, Golden, PlanKind::Exhaustive, Window);
    const std::vector<PlannedRun> &ExPlan = ExCampaign.runs();
    CampaignResult Ex = runCampaign(In.Prog, Golden, ExCampaign);
    std::map<uint64_t, FaultEffect> BySite;
    for (size_t I = 0; I < ExPlan.size(); ++I)
      BySite[(ExPlan[I].AfterCycle << 16) | (uint64_t(ExPlan[I].R) << 8) |
             ExPlan[I].Bit] = Ex.Effects[I];

    // Segment plans inject *after* the accessing cycle, so the pruned
    // window is one cycle shorter: every kept site has an exhaustive twin.
    CampaignPlan BitCampaign =
        fullReplayPlan(A, Golden, PlanKind::BitLevel, Window - 1);
    const std::vector<PlannedRun> &BitPlan = BitCampaign.runs();
    ASSERT_FALSE(BitPlan.empty()) << In.Prog.Name;
    CampaignResult Bit = runCampaign(In.Prog, Golden, BitCampaign);
    for (size_t I = 0; I < BitPlan.size(); ++I) {
      uint64_t Key = (BitPlan[I].AfterCycle << 16) |
                     (uint64_t(BitPlan[I].R) << 8) | BitPlan[I].Bit;
      auto It = BySite.find(Key);
      ASSERT_NE(It, BySite.end()) << In.Prog.Name;
      EXPECT_EQ(It->second, Bit.Effects[I]) << In.Prog.Name << " site " << Key;
    }
    if (In.Window) {
      EXPECT_GE(ExPlan.size(), 5 * BitPlan.size())
          << In.Prog.Name << ": pruned " << BitPlan.size() << " of "
          << ExPlan.size() << " exhaustive runs";
    }
  }
}

} // namespace
