//===- fuzz/Fuzzer.cpp - The differential fuzzing campaign ----------------===//
//
// Determinism invariants (asserted by FuzzTest and DriverTest):
//   - the selected corpus is a pure function of Seed/Count/Budget/Gen/
//     Oracle (the budget pre-pass walks programs in index order and takes
//     the maximal affordable prefix);
//   - per-program verdicts are pure functions of the program, so the
//     aggregate totals are order-independent sums and identical under any
//     thread count;
//   - the checkpoint stores per-program records addressed by index; a
//     resumed campaign trusts clean records, re-runs mismatching ones
//     (to regenerate details and reproducers), and converges on the same
//     aggregate as an uninterrupted run.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "fi/Checkpoint.h"
#include "fuzz/Minimizer.h"
#include "sim/Interpreter.h"
#include "support/File.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>

using namespace bec;
using namespace bec::fuzz;

namespace {

/// Fingerprint over every option that can change a verdict or the
/// selected corpus. Threads, checkpointing, interruption, banking and
/// minimization are execution-side and deliberately excluded (same rule
/// as the campaign engine's plan fingerprint).
uint64_t optionsFingerprint(const FuzzOptions &O) {
  TraceHasher H;
  H.absorb(0xbecf077e00000001ull);
  H.absorb(O.Seed);
  H.absorb(O.Count);
  H.absorb(O.Budget);
  H.absorb(O.Gen.MinBlocks);
  H.absorb(O.Gen.MaxBlocks);
  H.absorb(O.Gen.MinLoopIters);
  H.absorb(O.Gen.MaxLoopIters);
  H.absorb((uint64_t(O.Gen.AllowMemory) << 1) | O.Gen.AllowMulDiv);
  H.absorb(O.Gen.Widths.size());
  for (unsigned W : O.Gen.Widths)
    H.absorb(W);
  H.absorb(O.Oracle.MaxCycles);
  H.absorb((uint64_t(O.Oracle.CheckRoundTrip) << 5) |
           (uint64_t(O.Oracle.CheckFates) << 4) |
           (uint64_t(O.Oracle.CheckEngine) << 3) |
           (uint64_t(O.Oracle.CheckCheckpoint) << 2) |
           (uint64_t(O.Oracle.CheckHarden) << 1) |
           uint64_t(O.Oracle.CheckSession));
  H.absorb(static_cast<uint64_t>(O.Oracle.HardenBudget * 1000.0));
  return H.value();
}

/// The deterministic budget pre-pass: programs in index order, maximal
/// affordable prefix, at least one program.
struct CorpusSelection {
  std::vector<uint64_t> Seeds; ///< Seeds[i] = programSeed(Seed, i).
  uint64_t Skipped = 0;
  std::array<uint64_t, NumOpcodes> OpcodeCount{};
  std::array<uint64_t, NumIdioms> IdiomCount{};
};

CorpusSelection selectCorpus(const FuzzOptions &O) {
  CorpusSelection Sel;
  uint64_t Spent = 0;
  for (uint64_t I = 0; I < O.Count; ++I) {
    uint64_t Seed = programSeed(O.Seed, I);
    GeneratedProgram G = generateProgram(Seed, O.Gen);
    uint64_t Cost = 0;
    if (G.Error.empty()) {
      // Exhaustive plan size of this program's oracle window: the
      // population of CampaignPlan::build with PlanKind::Exhaustive.
      Trace Golden = simulate(G.Prog);
      uint64_t Limit = O.Oracle.MaxCycles
                           ? std::min<uint64_t>(O.Oracle.MaxCycles,
                                                Golden.Cycles)
                           : Golden.Cycles;
      Cost = Limit * NumRegs * G.Prog.Width;
    }
    if (O.Budget && !Sel.Seeds.empty() && Spent + Cost > O.Budget) {
      Sel.Skipped = O.Count - I;
      break;
    }
    Spent += Cost;
    Sel.Seeds.push_back(Seed);
    for (unsigned Op = 0; Op < NumOpcodes; ++Op)
      Sel.OpcodeCount[Op] += G.OpcodeCount[Op];
    for (unsigned Id = 0; Id < NumIdioms; ++Id)
      Sel.IdiomCount[Id] += G.IdiomCount[Id];
  }
  return Sel;
}

} // namespace

FuzzResult bec::fuzz::runFuzz(const FuzzOptions &O) {
  auto Start = std::chrono::steady_clock::now();
  FuzzResult Result;

  CorpusSelection Sel = selectCorpus(O);
  Result.Programs = Sel.Seeds.size();
  Result.SkippedByBudget = Sel.Skipped;
  Result.OpcodeCount = Sel.OpcodeCount;
  Result.IdiomCount = Sel.IdiomCount;

  uint64_t Fingerprint = optionsFingerprint(O);

  // Resume: trust clean records of this corpus; mismatching records
  // re-run so their details and reproducers are regenerated.
  std::map<uint64_t, ProgramRecord> Trusted;
  if (!O.CheckpointPath.empty() && O.Resume) {
    std::vector<ProgramRecord> Records;
    if (!loadPrograms(O.CheckpointPath, Fingerprint, Sel.Seeds.size(),
                      Records, Result.Error))
      return Result;
    for (const ProgramRecord &R : Records) // duplicates: last wins
      if (R.Seed == Sel.Seeds[R.Program]) {
        if (R.Mismatches == 0)
          Trusted[R.Program] = R;
        else
          Trusted.erase(R.Program);
      }
  }

  if (!O.BankDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(O.BankDir, EC);
    if (EC) {
      Result.Error = "cannot create bank directory '" + O.BankDir +
                     "': " + EC.message();
      return Result;
    }
  }

  CheckpointWriter Checkpoint;
  if (!O.CheckpointPath.empty() &&
      !Checkpoint.open(O.CheckpointPath,
                       programIdentity(Fingerprint, Sel.Seeds.size()),
                       O.Resume, Result.Error))
    return Result;

  for (const auto &[Index, R] : Trusted) {
    (void)Index;
    ++Result.Resumed;
    Result.ExhaustiveRuns += R.ExRuns;
    Result.PrunedRuns += R.BitRuns;
    for (unsigned E = 0; E < NumFaultEffects; ++E)
      Result.PrunedEffects[E] += R.Effects[E];
  }

  std::vector<uint64_t> ToRun;
  for (uint64_t I = 0; I < Sel.Seeds.size(); ++I)
    if (!Trusted.count(I))
      ToRun.push_back(I);
  if (O.StopAfterPrograms && O.StopAfterPrograms < ToRun.size()) {
    ToRun.resize(O.StopAfterPrograms);
    Result.Interrupted = true;
  }

  std::mutex Mutex; // guards Result, Checkpoint, progress
  uint64_t Done = 0;
  ThreadPool Pool(O.Threads);
  for (uint64_t Index : ToRun)
    Pool.submit([&, Index] {
      uint64_t Seed = Sel.Seeds[Index];
      GeneratedProgram G = generateProgram(Seed, O.Gen);
      ProgramRecord R;
      R.Program = Index;
      R.Seed = Seed;
      std::optional<FuzzMismatch> Bad;
      if (!G.Error.empty()) {
        R.Mismatches = 1;
        Bad = FuzzMismatch{Index,  Seed,  "generator", G.Error,
                           1,      G.Asm, G.Asm,       ""};
      } else {
        OracleReport Report = runOracles(G.Prog, O.Oracle);
        R.ExRuns = Report.ExhaustiveRuns;
        R.BitRuns = Report.PrunedRuns;
        R.Effects = Report.PrunedEffects;
        R.Mismatches = Report.Mismatches.size();
        if (!Report.ok()) {
          Bad = FuzzMismatch{Index,
                             Seed,
                             Report.Mismatches[0].Oracle,
                             Report.Mismatches[0].Detail,
                             Report.Mismatches.size(),
                             G.Asm,
                             G.Asm,
                             ""};
          if (O.Minimize) {
            MinimizeOptions MO;
            MO.MaxTests = O.MinimizeMaxTests;
            MinimizeResult Min = minimizeProgram(
                G.Asm, G.Name,
                [&](const Program &P) { return !runOracles(P, O.Oracle).ok(); },
                MO);
            Bad->MinimizedAsm = Min.Asm;
          }
          if (!O.BankDir.empty()) {
            std::string Path =
                O.BankDir + "/repro_" + hex64(Seed) + ".s";
            if (writeFile(Path, "# bec fuzz reproducer\n# seed 0x" +
                                    hex64(Seed) + " (program " +
                                    std::to_string(Index) +
                                    " of corpus seed " +
                                    std::to_string(O.Seed) + ")\n# oracle: " +
                                    Bad->Oracle + "\n# detail: " +
                                    Bad->Detail + "\n" + Bad->MinimizedAsm))
              Bad->BankedPath = Path;
          }
        }
      }
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Result.Executed;
      Result.ExhaustiveRuns += R.ExRuns;
      Result.PrunedRuns += R.BitRuns;
      for (unsigned E = 0; E < NumFaultEffects; ++E)
        Result.PrunedEffects[E] += R.Effects[E];
      if (Bad)
        Result.Mismatches.push_back(std::move(*Bad));
      std::string Ignored; // A failed append costs a re-run on resume.
      if (Checkpoint.isOpen())
        Checkpoint.append(encodeProgram(R), Ignored);
      ++Done;
      if (O.OnProgress)
        O.OnProgress({Done, ToRun.size(),
                      static_cast<uint64_t>(Result.Mismatches.size())});
    });
  Pool.wait();

  std::sort(Result.Mismatches.begin(), Result.Mismatches.end(),
            [](const FuzzMismatch &A, const FuzzMismatch &B) {
              return A.Index < B.Index;
            });
  Result.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Result;
}

std::string bec::fuzz::emitCorpus(const FuzzOptions &O,
                                  const std::string &Dir) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    return "cannot create corpus directory '" + Dir + "': " + EC.message();
  CorpusSelection Sel = selectCorpus(O);
  for (uint64_t Seed : Sel.Seeds) {
    GeneratedProgram G = generateProgram(Seed, O.Gen);
    if (!G.Error.empty())
      return "seed " + hex64(Seed) + " does not generate: " + G.Error;
    std::string Path = Dir + "/seed_" + hex64(Seed) + ".s";
    if (!writeFile(Path, G.Asm))
      return "cannot write '" + Path + "'";
  }
  return {};
}
