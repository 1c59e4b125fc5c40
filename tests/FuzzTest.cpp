//===- tests/FuzzTest.cpp - Generator, oracle, minimizer, fuzz campaign ---===//
///
/// \file
/// The fuzz subsystem's own contract tests: generator determinism and
/// shape diversity, oracle sensitivity (a corrupted verdict must be
/// caught), ddmin 1-minimality, and the campaign-level invariants — the
/// aggregate report is a pure function of seed + options regardless of
/// thread count, interruption, resume, or budget.
///
//===----------------------------------------------------------------------===//

#include "core/BECAnalysis.h"
#include "fi/Engine.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Minimizer.h"
#include "ir/AsmParser.h"
#include "sim/Interpreter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace bec;
using namespace bec::fuzz;

namespace {

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

TEST(FuzzGenerator, ProgramSeedsAreDistinct) {
  std::set<uint64_t> Seeds;
  for (uint64_t I = 0; I < 256; ++I)
    Seeds.insert(programSeed(1, I));
  EXPECT_EQ(Seeds.size(), 256u);
  // Different corpus seeds derive different program seeds.
  EXPECT_NE(programSeed(1, 0), programSeed(2, 0));
  // Pure function: no hidden state between calls.
  EXPECT_EQ(programSeed(7, 42), programSeed(7, 42));
}

TEST(FuzzGenerator, SameSeedIsByteIdentical) {
  for (uint64_t Seed : {1ull, 99ull, 0xdeadbeefull}) {
    GeneratedProgram A = generateProgram(Seed);
    GeneratedProgram B = generateProgram(Seed);
    EXPECT_EQ(A.Asm, B.Asm);
    EXPECT_EQ(A.Name, B.Name);
    EXPECT_EQ(A.OpcodeCount, B.OpcodeCount);
    EXPECT_EQ(A.IdiomCount, B.IdiomCount);
  }
}

TEST(FuzzGenerator, DistinctSeedsAreDistinctPrograms) {
  std::set<std::string> Asms;
  for (uint64_t I = 0; I < 32; ++I)
    Asms.insert(generateProgram(programSeed(3, I)).Asm);
  EXPECT_EQ(Asms.size(), 32u);
}

TEST(FuzzGenerator, GeneratedProgramsAreLegalAndTerminate) {
  for (uint64_t I = 0; I < 50; ++I) {
    GeneratedProgram G = generateProgram(programSeed(11, I));
    ASSERT_TRUE(G.Error.empty()) << G.Error << "\n" << G.Asm;
    Trace Golden = simulate(G.Prog);
    EXPECT_EQ(Golden.End, Outcome::Finished) << G.Asm;
    EXPECT_TRUE(Golden.HasReturnValue) << G.Asm;
  }
  // Legality alone over the first 2000 programs of the seed-1 corpus,
  // the one `bec fuzz --seed 1` and the CI fuzz smoke draw from.
  for (uint64_t I = 0; I < 2000; ++I) {
    GeneratedProgram G = generateProgram(programSeed(1, I));
    ASSERT_TRUE(G.Error.empty()) << G.Error << "\n" << G.Asm;
  }
}

TEST(FuzzGenerator, CorpusCoversAllIdiomsAndWidths) {
  std::array<uint64_t, NumIdioms> Idioms{};
  std::set<unsigned> Widths;
  for (uint64_t I = 0; I < 64; ++I) {
    GeneratedProgram G = generateProgram(programSeed(5, I));
    ASSERT_TRUE(G.Error.empty()) << G.Error;
    Widths.insert(G.Prog.Width);
    for (unsigned K = 0; K < NumIdioms; ++K)
      Idioms[K] += G.IdiomCount[K];
  }
  for (unsigned K = 0; K < NumIdioms; ++K)
    EXPECT_GT(Idioms[K], 0u) << "idiom never generated: "
                             << idiomName(Idiom(K));
  EXPECT_EQ(Widths, (std::set<unsigned>{4, 8, 16, 32}));
}

TEST(FuzzGenerator, OptionsRestrictShape) {
  GeneratorOptions O;
  O.AllowMemory = false;
  O.AllowMulDiv = false;
  O.Widths = {8};
  for (uint64_t I = 0; I < 16; ++I) {
    GeneratedProgram G = generateProgram(programSeed(13, I), O);
    ASSERT_TRUE(G.Error.empty()) << G.Error;
    EXPECT_EQ(G.Prog.Width, 8u);
    EXPECT_EQ(G.IdiomCount[unsigned(Idiom::MemoryMix)], 0u);
    EXPECT_EQ(G.OpcodeCount[size_t(Opcode::MUL)], 0u);
    EXPECT_EQ(G.OpcodeCount[size_t(Opcode::DIVU)], 0u);
  }
}

//===----------------------------------------------------------------------===//
// Oracles
//===----------------------------------------------------------------------===//

TEST(FuzzOracles, CleanOnGeneratedPrograms) {
  OracleOptions O;
  O.MaxCycles = 24;
  for (uint64_t I = 0; I < 5; ++I) {
    GeneratedProgram G = generateProgram(programSeed(17, I));
    ASSERT_TRUE(G.Error.empty()) << G.Error;
    OracleReport R = runOracles(G.Prog, O);
    EXPECT_TRUE(R.ok()) << G.Asm << "\nfirst mismatch: ["
                        << (R.Mismatches.empty() ? ""
                                                 : R.Mismatches[0].Oracle)
                        << "] "
                        << (R.Mismatches.empty() ? ""
                                                 : R.Mismatches[0].Detail);
    EXPECT_GT(R.ExhaustiveRuns, 0u);
    EXPECT_GT(R.PrunedRuns, 0u);
    // Pruning must actually prune, or the differential check is vacuous.
    EXPECT_LT(R.PrunedRuns, R.ExhaustiveRuns);
  }
}

TEST(FuzzOracles, CompareVerdictsCatchesACorruptedEffect) {
  GeneratedProgram G = generateProgram(programSeed(19, 0));
  ASSERT_TRUE(G.Error.empty()) << G.Error;
  Trace Golden = simulate(G.Prog);
  ASSERT_EQ(Golden.End, Outcome::Finished);
  uint64_t Limit = std::min<uint64_t>(24, Golden.Cycles);
  ASSERT_GT(Limit, 1u);
  BECAnalysis A = BECAnalysis::run(G.Prog);
  // Ground truth: every suffix replayed in full, as the primary oracle.
  CampaignPlan ExCampaign = CampaignPlan::build(
      A, Golden,
      {.Kind = PlanKind::Exhaustive, .MaxCycles = Limit,
       .PrefixCheckpoint = false});
  const std::vector<PlannedRun> &ExPlan = ExCampaign.runs();
  CampaignResult Ex = runCampaign(G.Prog, Golden, ExCampaign);
  CampaignPlan BitCampaign = CampaignPlan::build(
      A, Golden,
      {.Kind = PlanKind::BitLevel, .MaxCycles = Limit - 1,
       .PrefixCheckpoint = false});
  const std::vector<PlannedRun> &BitPlan = BitCampaign.runs();
  CampaignResult Bit = runCampaign(G.Prog, Golden, BitCampaign);
  ASSERT_FALSE(Bit.Effects.empty());

  std::vector<OracleMismatch> Mismatches;
  EXPECT_EQ(compareVerdicts(ExPlan, Ex.Effects, BitPlan, Bit.Effects,
                            Mismatches),
            0u);

  // Flip one pruned verdict: the comparison must notice exactly it.
  std::vector<FaultEffect> Corrupt = Bit.Effects;
  Corrupt[0] = Corrupt[0] == FaultEffect::SDC ? FaultEffect::Masked
                                              : FaultEffect::SDC;
  EXPECT_EQ(compareVerdicts(ExPlan, Ex.Effects, BitPlan, Corrupt, Mismatches),
            1u);
  ASSERT_EQ(Mismatches.size(), 1u);
  EXPECT_EQ(Mismatches[0].Oracle, "verdict");

  // A pruned site outside exhaustive coverage is flagged as such.
  std::vector<PlannedRun> Outside = {BitPlan[0]};
  Outside[0].AfterCycle = Limit + 100;
  std::vector<FaultEffect> OutsideEffects = {FaultEffect::Masked};
  Mismatches.clear();
  EXPECT_EQ(compareVerdicts(ExPlan, Ex.Effects, Outside, OutsideEffects,
                            Mismatches),
            1u);
  EXPECT_NE(Mismatches[0].Detail.find("outside exhaustive coverage"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Minimizer
//===----------------------------------------------------------------------===//

TEST(FuzzMinimizer, ShrinksToOneMinimalReproducer) {
  // The "failure" is simply containing an XOR: the minimizer should strip
  // everything except the xor line and whatever keeps the program legal.
  std::string Asm = ".width 8\n"
                    "main:\n"
                    "  li t0, 1\n"
                    "  li t1, 2\n"
                    "  add t2, t0, t1\n"
                    "  xor t3, t2, t0\n"
                    "  sub t4, t3, t1\n"
                    "  out t4\n"
                    "  mv a0, t4\n"
                    "  ret\n";
  auto Fails = [](const Program &P) {
    for (const Instruction &I : P.Instrs)
      if (I.Op == Opcode::XOR)
        return true;
    return false;
  };
  ASSERT_TRUE(Fails(parseAsmOrDie(Asm, "seed")));

  MinimizeResult R = minimizeProgram(Asm, "min", Fails);
  EXPECT_TRUE(R.OneMinimal);
  EXPECT_LT(R.LinesAfter, R.LinesBefore);
  // The survivors are the xor and the ret keeping it verifier-legal.
  EXPECT_LE(R.LinesAfter, 3u);
  AsmParseResult Min = parseAsm(R.Asm, "min");
  ASSERT_TRUE(Min.succeeded()) << R.Asm;
  EXPECT_TRUE(Fails(*Min.Prog)) << R.Asm;
}

TEST(FuzzMinimizer, BudgetExhaustionStillReturnsAReproducer) {
  GeneratedProgram G = generateProgram(programSeed(23, 1));
  ASSERT_TRUE(G.Error.empty());
  auto Fails = [](const Program &P) { return !P.Instrs.empty(); };
  MinimizeOptions O;
  O.MaxTests = 3;
  MinimizeResult R = minimizeProgram(G.Asm, "min", Fails, O);
  EXPECT_LE(R.Tests, 3u);
  AsmParseResult Min = parseAsm(R.Asm, "min");
  ASSERT_TRUE(Min.succeeded()) << R.Asm;
  EXPECT_TRUE(Fails(*Min.Prog));
}

//===----------------------------------------------------------------------===//
// The fuzz campaign
//===----------------------------------------------------------------------===//

/// Small, fast campaign options shared by the invariance tests.
FuzzOptions smallCampaign() {
  FuzzOptions O;
  O.Seed = 5;
  O.Count = 6;
  O.Oracle.MaxCycles = 16;
  return O;
}

/// The fields that must be invariant under threads/interruption/resume.
void expectSameAggregates(const FuzzResult &A, const FuzzResult &B) {
  EXPECT_EQ(A.Programs, B.Programs);
  EXPECT_EQ(A.ExhaustiveRuns, B.ExhaustiveRuns);
  EXPECT_EQ(A.PrunedRuns, B.PrunedRuns);
  EXPECT_EQ(A.PrunedEffects, B.PrunedEffects);
  EXPECT_EQ(A.OpcodeCount, B.OpcodeCount);
  EXPECT_EQ(A.IdiomCount, B.IdiomCount);
  EXPECT_EQ(A.Mismatches.size(), B.Mismatches.size());
}

TEST(FuzzCampaign, ReportIsThreadCountInvariant) {
  FuzzOptions O = smallCampaign();
  O.Threads = 1;
  FuzzResult Serial = runFuzz(O);
  ASSERT_TRUE(Serial.Error.empty()) << Serial.Error;
  EXPECT_TRUE(Serial.Mismatches.empty());
  EXPECT_EQ(Serial.Programs, 6u);
  EXPECT_EQ(Serial.Executed, 6u);

  O.Threads = 4;
  FuzzResult Parallel = runFuzz(O);
  ASSERT_TRUE(Parallel.Error.empty()) << Parallel.Error;
  expectSameAggregates(Serial, Parallel);
}

TEST(FuzzCampaign, InterruptAndResumeMatchesStraightRun) {
  std::string Path = testing::TempDir() + "/fuzz_resume_ck.jsonl";
  std::remove(Path.c_str());

  FuzzOptions O = smallCampaign();
  FuzzResult Straight = runFuzz(O);
  ASSERT_TRUE(Straight.Error.empty()) << Straight.Error;

  O.CheckpointPath = Path;
  O.StopAfterPrograms = 2;
  FuzzResult Partial = runFuzz(O);
  ASSERT_TRUE(Partial.Error.empty()) << Partial.Error;
  EXPECT_TRUE(Partial.Interrupted);
  EXPECT_EQ(Partial.Executed, 2u);

  O.StopAfterPrograms = 0;
  O.Resume = true;
  FuzzResult Resumed = runFuzz(O);
  ASSERT_TRUE(Resumed.Error.empty()) << Resumed.Error;
  EXPECT_FALSE(Resumed.Interrupted);
  EXPECT_EQ(Resumed.Resumed, 2u);
  EXPECT_EQ(Resumed.Executed, 4u);
  expectSameAggregates(Straight, Resumed);
  std::remove(Path.c_str());
}

TEST(FuzzCampaign, ResumeRejectsACheckpointOfDifferentOptions) {
  std::string Path = testing::TempDir() + "/fuzz_fp_ck.jsonl";
  std::remove(Path.c_str());

  FuzzOptions O = smallCampaign();
  O.Count = 2;
  O.CheckpointPath = Path;
  FuzzResult First = runFuzz(O);
  ASSERT_TRUE(First.Error.empty()) << First.Error;

  O.Seed = 6; // different corpus, same checkpoint file
  O.Resume = true;
  FuzzResult Clash = runFuzz(O);
  EXPECT_FALSE(Clash.Error.empty());
  EXPECT_NE(Clash.Error.find("fingerprint"), std::string::npos)
      << Clash.Error;
  std::remove(Path.c_str());
}

TEST(FuzzCampaign, BudgetSelectsADeterministicPrefix) {
  FuzzOptions O = smallCampaign();
  FuzzResult Full = runFuzz(O);
  ASSERT_TRUE(Full.Error.empty()) << Full.Error;
  ASSERT_EQ(Full.Programs, 6u);
  ASSERT_GT(Full.ExhaustiveRuns, 0u);

  // A budget below the full corpus cost keeps a proper prefix...
  O.Budget = Full.ExhaustiveRuns - 1;
  FuzzResult Capped = runFuzz(O);
  ASSERT_TRUE(Capped.Error.empty()) << Capped.Error;
  EXPECT_LT(Capped.Programs, Full.Programs);
  EXPECT_EQ(Capped.Programs + Capped.SkippedByBudget, 6u);
  EXPECT_LE(Capped.ExhaustiveRuns, O.Budget);

  // ...a tiny budget still runs at least one program...
  O.Budget = 1;
  FuzzResult Tiny = runFuzz(O);
  ASSERT_TRUE(Tiny.Error.empty()) << Tiny.Error;
  EXPECT_EQ(Tiny.Programs, 1u);

  // ...and a generous one changes nothing.
  O.Budget = Full.ExhaustiveRuns;
  FuzzResult Loose = runFuzz(O);
  ASSERT_TRUE(Loose.Error.empty()) << Loose.Error;
  expectSameAggregates(Full, Loose);
}

TEST(FuzzCampaign, EmitCorpusWritesOneLegalFilePerProgram) {
  std::string Dir = testing::TempDir() + "/fuzz_emit_corpus";
  std::filesystem::remove_all(Dir);

  FuzzOptions O = smallCampaign();
  O.Count = 4;
  ASSERT_EQ(emitCorpus(O, Dir), "");

  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Files.push_back(Entry.path());
  EXPECT_EQ(Files.size(), 4u);
  for (const std::filesystem::path &P : Files) {
    EXPECT_EQ(P.extension(), ".s");
    std::ifstream In(P);
    std::stringstream Buf;
    Buf << In.rdbuf();
    AsmParseResult Res = parseAsm(Buf.str(), P.filename().string());
    EXPECT_TRUE(Res.succeeded()) << P << "\n" << Res.diagText();
  }

  // Re-emitting is idempotent: same file set, same bytes.
  std::vector<std::string> Before;
  for (const std::filesystem::path &P : Files) {
    std::ifstream In(P);
    std::stringstream Buf;
    Buf << In.rdbuf();
    Before.push_back(Buf.str());
  }
  ASSERT_EQ(emitCorpus(O, Dir), "");
  for (size_t I = 0; I < Files.size(); ++I) {
    std::ifstream In(Files[I]);
    std::stringstream Buf;
    Buf << In.rdbuf();
    EXPECT_EQ(Buf.str(), Before[I]);
  }
  std::filesystem::remove_all(Dir);
}

} // namespace
