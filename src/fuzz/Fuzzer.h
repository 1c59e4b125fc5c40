//===- fuzz/Fuzzer.h - The differential fuzzing campaign ------------------===//
///
/// \file
/// Orchestration of `bec fuzz` (docs/fuzzing.md): generate a seeded
/// corpus of programs (fuzz/Generator.h), run every oracle over each
/// (fuzz/Oracles.h), minimize and bank whatever disagrees
/// (fuzz/Minimizer.h). The campaign rides the same conventions as the
/// PR-5 engine — a deterministic run budget, a JSONL checkpoint so an
/// interrupted corpus resumes without repeating finished programs, and an
/// aggregate result that is a pure function of seed + options: neither
/// thread count nor interruption/resume can change a verdict.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_FUZZ_FUZZER_H
#define BEC_FUZZ_FUZZER_H

#include "fuzz/Generator.h"
#include "fuzz/Oracles.h"

#include <functional>
#include <string>
#include <vector>

namespace bec {
namespace fuzz {

/// Progress at a program boundary (what `bec fuzz --progress` prints).
struct FuzzProgress {
  uint64_t Done = 0;  ///< Programs completed this invocation.
  uint64_t Total = 0; ///< Programs to execute this invocation.
  uint64_t Mismatches = 0;
};

struct FuzzOptions {
  /// Corpus seed; program i is generated from programSeed(Seed, i).
  uint64_t Seed = 1;
  /// Number of programs to generate.
  uint64_t Count = 100;
  /// Cap on the cumulative *exhaustive* planned runs of the corpus
  /// (0 = unlimited). Programs are selected in index order until the
  /// budget is spent — a deterministic prefix, never a sample — and at
  /// least one program always runs. The CI smoke job bounds cost this
  /// way.
  uint64_t Budget = 0;
  /// Worker threads (<= 1 = inline, deterministic scheduling).
  unsigned Threads = 1;
  /// JSONL checkpoint path ("" = none); Resume loads finished programs
  /// from it first. The same codec layer as campaign checkpoints
  /// (fi/Checkpoint.h): missing file = zero resumed, wrong fingerprint =
  /// error.
  std::string CheckpointPath;
  bool Resume = false;
  /// Stop dispatching new programs once this many completed in this
  /// invocation (0 = run all). The interruption hook used by tests; the
  /// result is then Interrupted.
  uint64_t StopAfterPrograms = 0;
  /// Directory where minimized reproducers are written ("" = no
  /// banking).
  std::string BankDir;
  /// Shrink mismatching programs with the delta-debugging minimizer.
  bool Minimize = true;
  /// Cap on oracle re-evaluations per minimization.
  uint64_t MinimizeMaxTests = 256;
  GeneratorOptions Gen;
  OracleOptions Oracle;
  std::function<void(const FuzzProgress &)> OnProgress;
};

/// One mismatching program, minimized and (optionally) banked.
struct FuzzMismatch {
  uint64_t Index = 0; ///< Program index within the corpus.
  uint64_t Seed = 0;  ///< programSeed(CorpusSeed, Index).
  std::string Oracle; ///< Tag of the first disagreeing oracle.
  std::string Detail;
  uint64_t NumMismatches = 0; ///< All disagreements of this program.
  std::string Asm;            ///< The original generated assembly.
  std::string MinimizedAsm;   ///< == Asm when minimization is off/failed.
  std::string BankedPath;     ///< Where the reproducer was written, or "".
};

/// Aggregate result of one `runFuzz` invocation.
struct FuzzResult {
  /// Non-empty when the campaign could not run at all (bad checkpoint,
  /// unwritable bank directory); other fields are then unset.
  std::string Error;
  uint64_t Programs = 0;        ///< Programs selected (after the budget).
  uint64_t SkippedByBudget = 0; ///< Generated but outside the budget.
  uint64_t Executed = 0;        ///< Oracle runs in this invocation.
  uint64_t Resumed = 0;         ///< Programs trusted from the checkpoint.
  bool Interrupted = false;     ///< StopAfterPrograms fired.
  /// Fault-space totals over all finished programs.
  uint64_t ExhaustiveRuns = 0;
  uint64_t PrunedRuns = 0;
  std::array<uint64_t, NumFaultEffects> PrunedEffects{};
  /// Coverage counters over the *selected* corpus (independent of
  /// execution), for shape-diversity assertions and the report.
  std::array<uint64_t, NumOpcodes> OpcodeCount{};
  std::array<uint64_t, NumIdioms> IdiomCount{};
  /// Every mismatching program, sorted by Index.
  std::vector<FuzzMismatch> Mismatches;
  double Seconds = 0;
};

/// Runs the fuzzing campaign. The aggregate totals and mismatch set are
/// a pure function of Seed/Count/Budget/Gen/Oracle: thread count,
/// checkpointing and interruption+resume only change Seconds.
FuzzResult runFuzz(const FuzzOptions &O);

/// Writes the corpus that \p O selects (seed, count, budget) into
/// \p Dir as one `seed_<hex64>.s` file per program, creating the
/// directory if needed. Used to (re)generate tests/corpus/. Returns ""
/// on success or a diagnostic.
std::string emitCorpus(const FuzzOptions &O, const std::string &Dir);

} // namespace fuzz
} // namespace bec

#endif // BEC_FUZZ_FUZZER_H
