//===- tests/CheckpointEquivalenceTest.cpp - Prefix-checkpoint equivalence -===//
//
// The equivalence obligations of prefix-checkpointed campaign execution
// (PlanOptions::PrefixCheckpoint, `bec campaign --prefix-checkpoint`):
// forking an injected run from a golden snapshot must be indistinguishable
// from replaying it from cycle zero, for every fault site, workload and
// checkpoint placement. Two layers of evidence:
//
//  * interpreter-level: fork-from-snapshot and from-zero replay produce
//    bit-identical traces AND bit-identical final machine states (the
//    serialized MachineState bytes), which is stronger than agreeing on
//    the verdict — it implies the same classification against any golden;
//  * engine-level: the full executor's per-run verdicts, trace hashes and
//    aggregates are byte-identical across `off` and every placement
//    period K, at one thread and under work stealing.
//
//===----------------------------------------------------------------------===//

#include "fi/Campaign.h"
#include "fi/CampaignPlan.h"
#include "fi/Engine.h"
#include "fi/SuffixMemo.h"
#include "fuzz/Generator.h"
#include "ir/AsmParser.h"
#include "sim/Interpreter.h"
#include "support/Xoshiro.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <set>
#include <unordered_map>

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

/// Hash-only run options: snapshots require Record == false. The hang
/// budget mirrors the engine's (Golden.Cycles * 16 + 4096) so hanging
/// faults classify after the same bounded replay on both paths instead
/// of burning the 4M-cycle default.
RunOptions hashOnly(uint64_t GoldenCycles) {
  RunOptions O;
  O.Record = false;
  O.MaxCycles = GoldenCycles * 16 + 4096;
  return O;
}

/// One injected execution, reduced to everything comparable: the trace
/// summary plus the final machine state (captured before takeTrace so
/// both paths absorb the outcome identically afterwards).
struct InjectedRun {
  MachineState Final;
  Trace T;
};

/// From-zero reference: a fresh interpreter replays the whole prefix.
InjectedRun runFromZero(const Program &Prog, const RunOptions &RO,
                        uint64_t AfterCycle, Reg R, uint8_t Bit) {
  Interpreter I(Prog, RO);
  I.runToCycle(AfterCycle);
  I.machine().flipRegBit(R, Bit);
  I.run();
  InjectedRun Out;
  Out.Final = I.snapshot();
  Out.T = I.takeTrace();
  return Out;
}

/// Golden snapshots every \p K cycles (the engine's checkpoint table).
std::vector<MachineState> buildTable(const Program &Prog,
                                     const RunOptions &RO, uint64_t K) {
  std::vector<MachineState> Table;
  Interpreter Golden(Prog, RO);
  for (uint64_t C = 0;; C += K) {
    Golden.runToCycle(C);
    if (Golden.done() || Golden.cycle() != C)
      break;
    Table.push_back(Golden.snapshot());
  }
  return Table;
}

/// Fork path: restore the nearest checkpoint at or before the injection
/// cycle, catch up, flip, run.
InjectedRun runFromCheckpoint(const Program &Prog, const RunOptions &RO,
                              const std::vector<MachineState> &Table,
                              uint64_t AfterCycle, Reg R, uint8_t Bit) {
  size_t Nearest = 0;
  for (size_t I = 0; I < Table.size(); ++I)
    if (Table[I].CycleCount <= AfterCycle)
      Nearest = I;
  Interpreter I(Prog, RO);
  I.restore(Table[Nearest]);
  I.runToCycle(AfterCycle);
  I.machine().flipRegBit(R, Bit);
  I.run();
  InjectedRun Out;
  Out.Final = I.snapshot();
  Out.T = I.takeTrace();
  return Out;
}

/// Bit-identity of two injected executions: trace summary and the final
/// serialized machine state.
void expectSameExecution(const InjectedRun &Zero, const InjectedRun &Fork,
                         const std::string &What) {
  EXPECT_EQ(Zero.T.TraceHash, Fork.T.TraceHash) << What;
  EXPECT_EQ(Zero.T.ObservableHash, Fork.T.ObservableHash) << What;
  EXPECT_EQ(Zero.T.End, Fork.T.End) << What;
  EXPECT_EQ(Zero.T.Cycles, Fork.T.Cycles) << What;
  EXPECT_EQ(Zero.T.ReturnValue, Fork.T.ReturnValue) << What;
  EXPECT_EQ(Zero.T.HasReturnValue, Fork.T.HasReturnValue) << What;
  EXPECT_TRUE(Zero.Final == Fork.Final) << What;
  EXPECT_EQ(Zero.Final.serialize(), Fork.Final.serialize()) << What;
}

/// Everything deterministic about an engine result (all but Seconds and
/// the execution telemetry).
void expectSameResult(const CampaignResult &A, const CampaignResult &B) {
  EXPECT_EQ(A.Runs, B.Runs);
  EXPECT_EQ(A.EffectCounts, B.EffectCounts);
  EXPECT_EQ(A.DistinctTraces, B.DistinctTraces);
  EXPECT_EQ(A.ArchiveBytes, B.ArchiveBytes);
  EXPECT_EQ(A.Effects, B.Effects);
  EXPECT_EQ(A.TraceHashes, B.TraceHashes);
}

//===----------------------------------------------------------------------===//
// MachineState serialization
//===----------------------------------------------------------------------===//

TEST(MachineStateSerde, RoundTripIsExactAndMalformedBuffersAreRejected) {
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  Trace Golden = simulate(Prog);
  RunOptions RO = hashOnly(Golden.Cycles);
  Interpreter I(Prog, RO);
  I.runToCycle(9);
  MachineState S = I.snapshot();
  std::vector<uint8_t> Bytes = S.serialize();
  EXPECT_EQ(Bytes.size(), S.byteSize());

  std::optional<MachineState> Back =
      MachineState::deserialize(Bytes.data(), Bytes.size());
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(S == *Back);

  // Restoring the round-tripped state continues to the same trace as the
  // uninterrupted run.
  Interpreter Uninterrupted(Prog, RO);
  Uninterrupted.run();
  Interpreter Resumed(Prog, RO);
  Resumed.restore(*Back);
  Resumed.run();
  Trace A = Uninterrupted.takeTrace();
  Trace B = Resumed.takeTrace();
  EXPECT_EQ(A.TraceHash, B.TraceHash);
  EXPECT_EQ(A.Cycles, B.Cycles);

  // Truncation at any fixed-header boundary and a corrupted tag are
  // rejected, not misparsed.
  for (size_t Cut : {size_t(0), size_t(7), size_t(8), Bytes.size() - 1})
    EXPECT_FALSE(MachineState::deserialize(Bytes.data(), Cut).has_value());
  std::vector<uint8_t> Bad = Bytes;
  Bad[0] ^= 0xff;
  EXPECT_FALSE(MachineState::deserialize(Bad.data(), Bad.size()).has_value());

  // Register files no run can reach are rejected: a non-zero x0, and a
  // value above the 32-bit machine's width mask (bit 32 of x5). The
  // register file starts after the eight fixed 8-byte header words.
  constexpr size_t RegsAt = 64;
  Bad = Bytes;
  Bad[RegsAt] = 1;
  EXPECT_FALSE(MachineState::deserialize(Bad.data(), Bad.size()).has_value());
  Bad = Bytes;
  Bad[RegsAt + 8 * 5 + 4] |= 1;
  EXPECT_FALSE(MachineState::deserialize(Bad.data(), Bad.size()).has_value());
}

//===----------------------------------------------------------------------===//
// Interpreter-level battery: every pruned fault site, all workloads
//===----------------------------------------------------------------------===//

TEST(CheckpointEquivalence, ForkFromCheckpointMatchesFromZeroOnAllWorkloads) {
  // Every site of the BEC-pruned (bit-level) plan over the first 96
  // golden cycles of all eight workloads, forked from a K=7 table. The
  // window bounds the battery's runtime; it still exercises checkpoints
  // strictly before, exactly at (cycles divisible by 7), and far beyond
  // the last injection cycle. Suffixes always run to completion.
  uint64_t ExactlyAtInjection = 0;
  for (const Workload &W : allWorkloads()) {
    Program Prog = loadWorkload(W);
    BECAnalysis A = BECAnalysis::run(Prog);
    Trace Golden = simulate(Prog);
    ASSERT_EQ(Golden.End, Outcome::Finished) << W.Name;
    std::vector<PlannedRun> Sites =
        planCampaign(A, Golden, PlanKind::BitLevel, /*MaxCycles=*/96);
    ASSERT_FALSE(Sites.empty()) << W.Name;
    RunOptions RO = hashOnly(Golden.Cycles);
    std::vector<MachineState> Table = buildTable(Prog, RO, /*K=*/7);
    ASSERT_FALSE(Table.empty()) << W.Name;
    for (const PlannedRun &Run : Sites) {
      InjectedRun Zero =
          runFromZero(Prog, RO, Run.AfterCycle, Run.R, Run.Bit);
      InjectedRun Fork =
          runFromCheckpoint(Prog, RO, Table, Run.AfterCycle, Run.R, Run.Bit);
      expectSameExecution(Zero, Fork,
                          W.Name + " cycle " + std::to_string(Run.AfterCycle) +
                              " r" + std::to_string(Run.R) + " bit " +
                              std::to_string(Run.Bit));
      if (Run.AfterCycle % 7 == 0)
        ++ExactlyAtInjection;
    }
  }
  // The placement edge case must actually have been exercised.
  EXPECT_GT(ExactlyAtInjection, 0u);
}

TEST(CheckpointEquivalence, CheckpointExactlyAtInjectionCycle) {
  // K=1 places a snapshot at every golden cycle, so every fork restores a
  // checkpoint exactly at its injection cycle (zero catch-up replay).
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  Trace Golden = simulate(Prog);
  RunOptions RO = hashOnly(Golden.Cycles);
  std::vector<MachineState> Table = buildTable(Prog, RO, /*K=*/1);
  ASSERT_EQ(Table.size(), Golden.Cycles);
  for (uint64_t C = 0; C < Golden.Cycles; ++C) {
    EXPECT_EQ(Table[C].CycleCount, C);
    for (Reg R = 0; R < NumRegs; ++R)
      for (uint8_t Bit : {uint8_t(0), uint8_t(Prog.Width - 1)})
        expectSameExecution(runFromZero(Prog, RO, C, R, Bit),
                            runFromCheckpoint(Prog, RO, Table, C, R, Bit),
                            "cycle " + std::to_string(C));
  }
}

TEST(CheckpointEquivalence, InjectionAtCycleZeroForksFromTheZeroSnapshot) {
  // Cycle-0 injections fork from the table's mandatory zeroth snapshot:
  // the restore happens before a single instruction has executed.
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  Trace Golden = simulate(Prog);
  RunOptions RO = hashOnly(Golden.Cycles);
  std::vector<MachineState> Table = buildTable(Prog, RO, /*K=*/64);
  ASSERT_FALSE(Table.empty());
  ASSERT_EQ(Table[0].CycleCount, 0u);
  for (Reg R = 0; R < NumRegs; ++R)
    for (uint8_t Bit = 0; Bit < Prog.Width; ++Bit)
      expectSameExecution(runFromZero(Prog, RO, 0, R, Bit),
                          runFromCheckpoint(Prog, RO, Table, 0, R, Bit),
                          "r" + std::to_string(R));
}

//===----------------------------------------------------------------------===//
// Engine-level: placement sweep, all workloads
//===----------------------------------------------------------------------===//

TEST(CheckpointEquivalence, EngineSweepOverPlacementPeriodsIsBitIdentical) {
  // For every workload, the pruned campaign's result must be
  // byte-identical across `off` and K in {1, 7, 64, trace_len} — the
  // dense, default-ish, sparse, and single-snapshot placements — and
  // each placement must key its own plan fingerprint.
  for (const Workload &W : allWorkloads()) {
    Program Prog = loadWorkload(W);
    BECAnalysis A = BECAnalysis::run(Prog);
    Trace Golden = simulate(Prog);

    PlanOptions Off;
    Off.Kind = PlanKind::BitLevel;
    Off.MaxCycles = 32;
    Off.PrefixCheckpoint = false;
    CampaignPlan OffPlan = CampaignPlan::build(A, Golden, Off);
    EXPECT_FALSE(OffPlan.prefixCheckpoint());
    CampaignResult Baseline = runCampaign(Prog, Golden, OffPlan);
    ASSERT_TRUE(Baseline.Error.empty()) << Baseline.Error;
    EXPECT_EQ(Baseline.CheckpointsCreated, 0u);
    EXPECT_EQ(Baseline.SplicedRuns, 0u);

    std::set<uint64_t> Periods = {1, 7, 64, Golden.Cycles};
    std::set<uint64_t> Fingerprints = {OffPlan.fingerprint()};
    for (uint64_t K : Periods) {
      PlanOptions PO = Off;
      PO.PrefixCheckpoint = true;
      PO.CheckpointEveryK = K;
      CampaignPlan Plan = CampaignPlan::build(A, Golden, PO);
      ASSERT_TRUE(Plan.prefixCheckpoint()) << W.Name;
      EXPECT_EQ(Plan.checkpointPeriod(), K);
      Fingerprints.insert(Plan.fingerprint());

      CampaignResult R = runCampaign(Prog, Golden, Plan);
      ASSERT_TRUE(R.Error.empty()) << R.Error;
      EXPECT_GT(R.CheckpointsCreated, 0u) << W.Name;
      if (K == Golden.Cycles)
        EXPECT_EQ(R.CheckpointsCreated, 1u) << W.Name;
      expectSameResult(Baseline, R);

      // Placement must also not leak into the result under stealing
      // (once per workload; the serial legs above cover every period).
      if (K == 7) {
        CampaignExecOptions Exec;
        Exec.Threads = 3;
        Exec.ShardSize = 8;
        CampaignResult Threaded = runCampaign(Prog, Golden, Plan, Exec);
        ASSERT_TRUE(Threaded.Error.empty()) << Threaded.Error;
        expectSameResult(Baseline, Threaded);
      }
    }
    // Every distinct period keys its own plan fingerprint, and off keys
    // yet another.
    EXPECT_EQ(Fingerprints.size(), Periods.size() + 1) << W.Name;
  }
}

TEST(CheckpointEquivalence, AutoPlacementMatchesOffOnEveryPlanKind) {
  // The default (auto-tuned K) across all three plan kinds on the
  // motivating small program; this is the configuration every `bec
  // campaign` invocation runs with unless --prefix-checkpoint says
  // otherwise.
  Program Prog = parseAsmOrDie(SmallLoop, "loop");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  for (PlanKind Kind :
       {PlanKind::Exhaustive, PlanKind::ValueLevel, PlanKind::BitLevel}) {
    PlanOptions On;
    On.Kind = Kind;
    PlanOptions Off = On;
    Off.PrefixCheckpoint = false;
    CampaignResult ROn =
        runCampaign(Prog, Golden, CampaignPlan::build(A, Golden, On));
    CampaignResult ROff =
        runCampaign(Prog, Golden, CampaignPlan::build(A, Golden, Off));
    ASSERT_TRUE(ROn.Error.empty()) << ROn.Error;
    ASSERT_TRUE(ROff.Error.empty()) << ROff.Error;
    expectSameResult(ROff, ROn);
    EXPECT_GT(ROn.CheckpointsCreated, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Convergence splicing: the memo window and the golden check
//===----------------------------------------------------------------------===//

/// Whether \p I has reconverged with golden snapshot \p G at the same
/// cycle: same PC, same trace cursors, same value in every register live
/// into that PC (the engine's golden check, restated independently).
bool reconvergedWith(const Interpreter &I, const MachineState &G,
                     const std::vector<uint32_t> &LiveIn) {
  if (I.pc() != G.PC || I.fullHashState() != G.FullHashState ||
      I.obsHashState() != G.ObsHashState)
    return false;
  for (Reg R = 1; R < NumRegs; ++R)
    if (((LiveIn[G.PC] >> R) & 1) && I.machine().reg(R) != G.M.reg(R))
      return false;
  return true;
}

TEST(CheckpointEquivalence, ConvergencePastTheMemoWindowMatchesOff) {
  // With a snapshot every cycle the engine's memo window (16 boundaries)
  // spans 16 cycles after injection. Exhaustive bitcount over 64 cycles
  // has runs that first reconverge with an earlier run later than that;
  // past the window such a run is neither checked nor keyed but replays
  // to its end, and the result must still equal full replay.
  const Workload *W = findWorkload("bitcount");
  ASSERT_NE(W, nullptr);
  Program Prog = loadWorkload(*W);
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);

  PlanOptions On;
  On.Kind = PlanKind::Exhaustive;
  On.MaxCycles = 64;
  On.CheckpointEveryK = 1;
  PlanOptions Off = On;
  Off.PrefixCheckpoint = false;
  CampaignPlan OnPlan = CampaignPlan::build(A, Golden, On);
  ASSERT_TRUE(OnPlan.prefixCheckpoint());

  // The fixture really converges past the window: some run first meets
  // the state an earlier-injected run reached at the same cycle (equal
  // continuation keys) 16 or more cycles after its own injection.
  RunOptions RO = hashOnly(Golden.Cycles);
  std::vector<MachineState> Table = buildTable(Prog, RO, /*K=*/1);
  auto KeyHash = [](const SuffixKey &K) { return size_t(K.Lo); };
  std::unordered_map<SuffixKey, uint64_t, decltype(KeyHash)> FirstInjected(
      0, KeyHash);
  uint64_t PastWindow = 0;
  for (const PlannedRun &Run : OnPlan.runs()) {
    Interpreter I(Prog, RO);
    I.restore(Table[Run.AfterCycle]);
    I.machine().flipRegBit(Run.R, Run.Bit);
    for (uint64_t C = Run.AfterCycle;
         C < Table.size() && C <= Run.AfterCycle + 24; ++C) {
      I.runToCycle(C);
      if (I.done() || reconvergedWith(I, Table[C], OnPlan.liveInMasks()))
        break;
      SuffixKey Key =
          suffixStateKey(I.cycle(), I.pc(), I.fullHashState(),
                         I.obsHashState(), I.machine(), &OnPlan.liveInMasks());
      auto [It, New] = FirstInjected.emplace(Key, Run.AfterCycle);
      if (!New && It->second < Run.AfterCycle) {
        PastWindow += C - Run.AfterCycle >= 16;
        break;
      }
    }
  }
  EXPECT_GT(PastWindow, 0u);

  CampaignExecOptions Serial;
  Serial.Threads = 1;
  CampaignResult ROff =
      runCampaign(Prog, Golden, CampaignPlan::build(A, Golden, Off), Serial);
  CampaignResult ROn = runCampaign(Prog, Golden, OnPlan, Serial);
  ASSERT_TRUE(ROff.Error.empty()) << ROff.Error;
  ASSERT_TRUE(ROn.Error.empty()) << ROn.Error;
  EXPECT_GT(ROn.SplicedRuns, 0u);
  expectSameResult(ROff, ROn);

  CampaignExecOptions Stealing;
  Stealing.Threads = 3;
  Stealing.ShardSize = 8;
  CampaignResult Threaded = runCampaign(Prog, Golden, OnPlan, Stealing);
  ASSERT_TRUE(Threaded.Error.empty()) << Threaded.Error;
  expectSameResult(ROff, Threaded);
}

TEST(CheckpointEquivalence, RetiringMemoBucketsLosesNoHitAtOneThread) {
  // A worker's memo keeps only the boundaries of the current window, one
  // bucket each, and retires a bucket once no later run can reach its
  // boundary. At one thread that loses no hit: exhaustive bitcount over
  // 1000 cycles splices and simulates exactly what a memo that kept
  // every key did (the counts below were recorded with one).
  const Workload *W = findWorkload("bitcount");
  ASSERT_NE(W, nullptr);
  Program Prog = loadWorkload(*W);
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);

  PlanOptions PO;
  PO.Kind = PlanKind::Exhaustive;
  PO.MaxCycles = 1000;
  CampaignExecOptions Serial;
  Serial.Threads = 1;
  CampaignResult R =
      runCampaign(Prog, Golden, CampaignPlan::build(A, Golden, PO), Serial);
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_EQ(R.Runs, 1024000u);
  std::array<uint64_t, NumFaultEffects> Effects = {739251, 0, 222089, 62660, 0};
  EXPECT_EQ(R.EffectCounts, Effects);
  EXPECT_EQ(R.DistinctTraces, 544u);
  EXPECT_EQ(R.InjectionSplices, 737088u);
  EXPECT_EQ(R.SplicedRuns, 1018845u);
  EXPECT_EQ(R.SimulatedCycles, 7847701u);
}

TEST(CheckpointEquivalence, GoldenCheckComparesOnlyLiveRegisters) {
  // No register is live into the first instruction, so every flip
  // before it is dead and reconverges at the injection boundary itself.
  // After it, t0 is live until the add reads it, so a t0 flip there is
  // still live at the next boundary and must not splice into the golden
  // (Masked) suffix.
  static const char *Src = R"(
main:
  li  t0, 5
  li  t1, 7
  add a0, t0, t1
  out a0
  ret
)";
  Program Prog = parseAsmOrDie(Src, "live");
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  auto campaign = [&](uint64_t MaxCycles, bool Checkpoint) {
    PlanOptions PO;
    PO.Kind = PlanKind::Exhaustive;
    PO.MaxCycles = MaxCycles;
    PO.PrefixCheckpoint = Checkpoint;
    PO.CheckpointEveryK = 1;
    CampaignResult R =
        runCampaign(Prog, Golden, CampaignPlan::build(A, Golden, PO));
    EXPECT_TRUE(R.Error.empty()) << R.Error;
    return R;
  };

  // Dead flips only: each splices before a single faulty instruction
  // runs, so the only simulation is the checkpoint table's golden replay.
  CampaignResult Dead = campaign(1, true);
  EXPECT_EQ(Dead.Runs, uint64_t(NumRegs) * Prog.Width);
  EXPECT_EQ(Dead.SplicedRuns, Dead.Runs);
  EXPECT_EQ(Dead.SimulatedCycles, Golden.Cycles);
  expectSameResult(campaign(1, false), Dead);

  // Add the flips after the first instruction: the Width live t0 flips
  // execute, every other one still splices.
  CampaignResult On = campaign(2, true);
  CampaignResult Off = campaign(2, false);
  expectSameResult(Off, On);
  EXPECT_EQ(On.SplicedRuns, On.Runs - Prog.Width);
  std::vector<PlannedRun> Runs =
      planCampaign(A, Golden, PlanKind::Exhaustive, 2);
  ASSERT_EQ(Runs.size(), On.Effects.size());
  Reg T0 = *parseRegName("t0");
  uint64_t LiveFlips = 0;
  for (size_t I = 0; I < Runs.size(); ++I) {
    if (Runs[I].AfterCycle != 1 || Runs[I].R != T0)
      continue;
    ++LiveFlips;
    EXPECT_NE(On.Effects[I], FaultEffect::Masked)
        << "bit " << int(Runs[I].Bit);
    EXPECT_EQ(On.Effects[I], Off.Effects[I]);
  }
  EXPECT_EQ(LiveFlips, Prog.Width);
}

//===----------------------------------------------------------------------===//
// The dirty-line fork and the injection-point settle
//===----------------------------------------------------------------------===//

/// Drives a walker and a fork synced from it through a random sequence
/// of walker advances, forks, flips, faulty runs and walker restores.
/// After every syncFrom, the fork must hold exactly the state a
/// copy-assigned fork holds; after every faulty run, the two forks must
/// have produced the same trace.
void checkDirtyLineFork(const Program &Prog, uint64_t Seed) {
  SCOPED_TRACE(Prog.Name + ", seed " + std::to_string(Seed));
  Trace Golden = simulate(Prog);
  RunOptions RO = hashOnly(Golden.Cycles);
  // Restore targets: golden snapshots, and faulty ones taken below.
  std::vector<MachineState> Targets = buildTable(Prog, RO, /*K=*/5);
  Xoshiro256 Rng(Seed);
  Interpreter Walker(Prog, RO);
  Interpreter CopyFork(Prog, RO);
  std::optional<Interpreter> Fork;
  for (unsigned Step = 0; Step < 200; ++Step) {
    uint64_t Action = Rng.below(8);
    if (Action < 3) {
      Walker.runToCycle(Walker.cycle() + Rng.range(1, 40));
      continue;
    }
    if (Action == 3) {
      Walker.restore(Targets[Rng.below(Targets.size())]);
      continue;
    }
    if (Fork)
      Fork->syncFrom(Walker);
    else
      Fork.emplace(Walker);
    CopyFork = Walker;
    ASSERT_TRUE(Fork->snapshot() == CopyFork.snapshot()) << "step " << Step;
    if (Fork->done())
      continue;
    Reg R = static_cast<Reg>(Rng.below(NumRegs));
    unsigned Bit = static_cast<unsigned>(Rng.below(Prog.Width));
    Fork->machine().flipRegBit(R, Bit);
    CopyFork.machine().flipRegBit(R, Bit);
    // A faulty run that stops part way leaves its writes for the next
    // sync to undo; one that runs to the end also checks the trace.
    if (Rng.chance(1, 2)) {
      uint64_t Stop = Fork->cycle() + Rng.range(1, 60);
      Fork->runToCycle(Stop);
      CopyFork.runToCycle(Stop);
      ASSERT_TRUE(Fork->snapshot() == CopyFork.snapshot()) << "step " << Step;
      if (!Fork->done())
        Targets.push_back(Fork->snapshot());
    } else {
      Fork->run();
      CopyFork.run();
      ASSERT_TRUE(Fork->snapshot() == CopyFork.snapshot()) << "step " << Step;
      Trace FT = Fork->takeTrace();
      Trace CT = CopyFork.takeTrace();
      ASSERT_EQ(FT.TraceHash, CT.TraceHash) << "step " << Step;
      ASSERT_EQ(FT.ObservableHash, CT.ObservableHash) << "step " << Step;
    }
  }
}

TEST(CheckpointEquivalence, DirtyLineForkMatchesCopyAssignment) {
  // Store-heavy generated programs: 32-bit width, several memory-mix
  // idioms over the .data buffer of a 64 KiB memory.
  fuzz::GeneratorOptions GO;
  GO.Widths = {32};
  GO.MinBlocks = 4;
  GO.MaxBlocks = 6;
  unsigned Programs = 0;
  for (uint64_t I = 0; I < 400 && Programs < 6; ++I) {
    fuzz::GeneratedProgram G =
        fuzz::generateProgram(fuzz::programSeed(17, I), GO);
    ASSERT_TRUE(G.Error.empty()) << G.Error;
    uint32_t Stores = G.OpcodeCount[unsigned(Opcode::SW)] +
                      G.OpcodeCount[unsigned(Opcode::SH)] +
                      G.OpcodeCount[unsigned(Opcode::SB)];
    if (G.IdiomCount[unsigned(fuzz::Idiom::MemoryMix)] < 2 || Stores < 4)
      continue;
    ++Programs;
    checkDirtyLineFork(G.Prog, G.Seed);
  }
  EXPECT_EQ(Programs, 6u);

  // A memory of 4100 bytes (the smallest the verifier accepts is the
  // 4 KiB below the data base): 64 full lines and a 4-byte one, which
  // both loops store into (the last word is bytes 4096..4099).
  static const char *Src = R"(
.width 32
.memsize 4100
main:
  li   t0, 3900
  li   t1, 50
  li   t2, 0x12345
fill:
  sw   t2, 0(t0)
  addi t2, t2, 77
  addi t0, t0, 4
  addi t1, t1, -1
  bnez t1, fill
  li   t1, 50
  li   a0, 0
mix:
  addi t0, t0, -4
  lw   t3, 0(t0)
  xor  t3, t3, t1
  sh   t3, 2(t0)
  sb   t1, 1(t0)
  add  a0, a0, t3
  addi t1, t1, -1
  bnez t1, mix
  out  a0
  ret
)";
  Program Short = parseAsmOrDie(Src, "short-line");
  ASSERT_EQ(Short.MemSize % 64, 4u);
  ASSERT_EQ(simulate(Short).End, Outcome::Finished);
  for (uint64_t Seed = 1; Seed <= 4; ++Seed)
    checkDirtyLineFork(Short, Seed);
}

TEST(CheckpointEquivalence, DeadFlipsSettleAtInjection) {
  // The exhaustive plan flips every bit of every register: most flips
  // land in a register no path reads before redefining it, and those
  // settle at the injection point without a fork. Their number follows
  // from the recorded golden trace and the plan's live-in masks alone:
  // every (cycle, register) site whose register is x0 or not live into
  // the PC about to execute, times the width.
  const Workload *W = findWorkload("bitcount");
  ASSERT_NE(W, nullptr);
  Program Prog = loadWorkload(*W);
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);

  PlanOptions On;
  On.Kind = PlanKind::Exhaustive;
  On.MaxCycles = 200;
  PlanOptions Off = On;
  Off.PrefixCheckpoint = false;
  CampaignPlan OnPlan = CampaignPlan::build(A, Golden, On);
  ASSERT_TRUE(OnPlan.prefixCheckpoint());
  const std::vector<uint32_t> &LiveIn = OnPlan.liveInMasks();

  uint64_t DeadSites = 0;
  for (uint64_t C = 0; C < On.MaxCycles; ++C)
    for (Reg R = 0; R < NumRegs; ++R)
      DeadSites += R == RegZero || !((LiveIn[Golden.Executed[C]] >> R) & 1);
  ASSERT_GT(DeadSites, 0u);

  CampaignExecOptions Serial;
  Serial.Threads = 1;
  CampaignResult ROn = runCampaign(Prog, Golden, OnPlan, Serial);
  CampaignResult ROff =
      runCampaign(Prog, Golden, CampaignPlan::build(A, Golden, Off), Serial);
  ASSERT_TRUE(ROn.Error.empty()) << ROn.Error;
  ASSERT_TRUE(ROff.Error.empty()) << ROff.Error;
  EXPECT_EQ(ROn.InjectionSplices, DeadSites * Prog.Width);
  EXPECT_GE(ROn.SplicedRuns, ROn.InjectionSplices);
  EXPECT_EQ(ROff.InjectionSplices, 0u);
  EXPECT_EQ(ROff.SplicedRuns, 0u);
  expectSameResult(ROff, ROn);

  CampaignExecOptions Stealing;
  Stealing.Threads = 3;
  Stealing.ShardSize = 64;
  CampaignResult Threaded = runCampaign(Prog, Golden, OnPlan, Stealing);
  ASSERT_TRUE(Threaded.Error.empty()) << Threaded.Error;
  EXPECT_EQ(Threaded.InjectionSplices, ROn.InjectionSplices);
  expectSameResult(ROff, Threaded);
}

//===----------------------------------------------------------------------===//
// The speedup obligation (deterministic form)
//===----------------------------------------------------------------------===//

TEST(CheckpointEquivalence, PrefixCheckpointingCutsSimulatedWorkAtLeast5x) {
  // The acceptance bar: exhaustive bitcount, one thread, prefix
  // checkpointing on vs off — identical verdicts, at least 5x less
  // simulation. Asserted on SimulatedCycles (total interpreter steps),
  // which at one thread is deterministic, unlike wall clock on a loaded
  // CI host.
  const Workload *W = findWorkload("bitcount");
  ASSERT_NE(W, nullptr);
  Program Prog = loadWorkload(*W);
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);

  PlanOptions On;
  On.Kind = PlanKind::Exhaustive;
  On.MaxCycles = 24;
  PlanOptions Off = On;
  Off.PrefixCheckpoint = false;

  CampaignExecOptions Exec;
  Exec.Threads = 1;
  CampaignResult ROn =
      runCampaign(Prog, Golden, CampaignPlan::build(A, Golden, On), Exec);
  CampaignResult ROff =
      runCampaign(Prog, Golden, CampaignPlan::build(A, Golden, Off), Exec);
  ASSERT_TRUE(ROn.Error.empty()) << ROn.Error;
  ASSERT_TRUE(ROff.Error.empty()) << ROff.Error;

  expectSameResult(ROff, ROn);
  EXPECT_GT(ROn.CheckpointsCreated, 0u);
  EXPECT_GT(ROn.CheckpointBytes, 0u);
  EXPECT_GE(ROn.CheckpointRestores, 1u);
  EXPECT_GT(ROn.SplicedRuns, 0u);
  ASSERT_GT(ROff.SimulatedCycles, 0u);
  EXPECT_LE(ROn.SimulatedCycles * 5, ROff.SimulatedCycles)
      << "prefix checkpointing must cut simulated work at least 5x "
      << "(on: " << ROn.SimulatedCycles << ", off: " << ROff.SimulatedCycles
      << ")";
}

} // namespace
