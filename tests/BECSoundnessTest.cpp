//===- tests/BECSoundnessTest.cpp - Randomized soundness fuzzing -----------===//
///
/// \file
/// The strongest property test in the suite: generates random loopy ALU
/// programs, runs the full BEC analysis, then performs an exhaustive
/// per-segment fault-injection campaign and checks every prediction
/// against ground truth (the paper's Section V methodology):
///
///   * sites classified masked must reproduce the golden trace,
///   * sites in one equivalence class must produce identical traces,
///   * cross-segment (ToOutput) merges must link identical traces,
///
/// across random widths, opcodes, and control flow. Any unsound
/// classification fails the test with the offending program attached.
///
//===----------------------------------------------------------------------===//

#include "fi/Validation.h"
#include "fuzz/Generator.h"
#include "ir/AsmParser.h"
#include "sim/Interpreter.h"
#include "support/Xoshiro.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <iterator>
#include <type_traits>

using namespace bec;

namespace {

/// Generates a random halting program: a handful of constants, a bounded
/// counting loop whose body is a random mix of ALU operations and an
/// optional skip branch, and observable outputs.
static std::string randomProgram(Xoshiro256 &Rng, unsigned Width) {
  const char *Pool[] = {"t0", "t1", "t2", "t3", "t4", "t5",
                        "t6", "s2", "s3", "s4", "s5"};
  constexpr unsigned PoolSize = sizeof(Pool) / sizeof(Pool[0]);
  auto Reg = [&] { return Pool[Rng.below(PoolSize)]; };
  int64_t MaxImm = static_cast<int64_t>(lowBitMask(Width) >> 1);
  auto Imm = [&] { return std::to_string(Rng.range(-MaxImm - 1, MaxImm)); };
  auto ShiftImm = [&] { return std::to_string(Rng.below(Width)); };

  std::string Src = ".width " + std::to_string(Width) + "\nmain:\n";
  // Seed some registers with constants, leave others machine-initialized.
  unsigned Seeds = 3 + static_cast<unsigned>(Rng.below(4));
  for (unsigned I = 0; I < Seeds; ++I)
    Src += std::string("  li ") + Reg() + ", " + Imm() + "\n";
  unsigned Iters = 2 + static_cast<unsigned>(Rng.below(4));
  Src += "  li s1, " + std::to_string(Iters) + "\n";
  Src += "loop:\n";

  unsigned BodyLen = 6 + static_cast<unsigned>(Rng.below(12));
  bool InSkip = false;
  unsigned SkipId = 0;
  for (unsigned I = 0; I < BodyLen; ++I) {
    if (!InSkip && Rng.chance(1, 6)) {
      Src += std::string("  beqz ") + Reg() + ", skip" +
             std::to_string(SkipId) + "\n";
      InSkip = true;
    }
    switch (Rng.below(16)) {
    case 0:
      Src += std::string("  add ") + Reg() + ", " + Reg() + ", " + Reg() +
             "\n";
      break;
    case 1:
      Src += std::string("  sub ") + Reg() + ", " + Reg() + ", " + Reg() +
             "\n";
      break;
    case 2:
      Src += std::string("  and ") + Reg() + ", " + Reg() + ", " + Reg() +
             "\n";
      break;
    case 3:
      Src += std::string("  or ") + Reg() + ", " + Reg() + ", " + Reg() +
             "\n";
      break;
    case 4:
      Src += std::string("  xor ") + Reg() + ", " + Reg() + ", " + Reg() +
             "\n";
      break;
    case 5:
      Src += std::string("  mv ") + Reg() + ", " + Reg() + "\n";
      break;
    case 6:
      Src += std::string("  andi ") + Reg() + ", " + Reg() + ", " + Imm() +
             "\n";
      break;
    case 7:
      Src += std::string("  ori ") + Reg() + ", " + Reg() + ", " + Imm() +
             "\n";
      break;
    case 8:
      Src += std::string("  xori ") + Reg() + ", " + Reg() + ", " + Imm() +
             "\n";
      break;
    case 9:
      Src += std::string("  addi ") + Reg() + ", " + Reg() + ", " + Imm() +
             "\n";
      break;
    case 10:
      Src += std::string("  slli ") + Reg() + ", " + Reg() + ", " +
             ShiftImm() + "\n";
      break;
    case 11:
      Src += std::string("  srli ") + Reg() + ", " + Reg() + ", " +
             ShiftImm() + "\n";
      break;
    case 12:
      Src += std::string("  srai ") + Reg() + ", " + Reg() + ", " +
             ShiftImm() + "\n";
      break;
    case 13:
      Src += std::string("  sltiu ") + Reg() + ", " + Reg() + ", " + Imm() +
             "\n";
      break;
    case 14:
      Src += std::string("  slt ") + Reg() + ", " + Reg() + ", " + Reg() +
             "\n";
      break;
    case 15:
      Src += std::string("  seqz ") + Reg() + ", " + Reg() + "\n";
      break;
    }
    if (InSkip && Rng.chance(1, 3)) {
      Src += "skip" + std::to_string(SkipId++) + ":\n";
      InSkip = false;
    }
  }
  if (InSkip)
    Src += "skip" + std::to_string(SkipId++) + ":\n";
  Src += "  addi s1, s1, -1\n  bnez s1, loop\n";
  Src += std::string("  out ") + Reg() + "\n";
  Src += std::string("  out ") + Reg() + "\n";
  Src += "  mv a0, " + std::string(Reg()) + "\n  ret\n";
  return Src;
}

class BECSoundnessFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(BECSoundnessFuzz, RandomProgramsValidateSound) {
  Xoshiro256 Rng(0xbec00000ull + GetParam());
  unsigned Widths[] = {4, 8, 16, 32};
  unsigned Width = Widths[GetParam() % 4];
  std::string Src = randomProgram(Rng, Width);
  AsmParseResult Parsed = parseAsm(Src, "fuzz");
  ASSERT_TRUE(Parsed.succeeded()) << Parsed.diagText() << "\n" << Src;

  Program &Prog = *Parsed.Prog;
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  ASSERT_EQ(Golden.End, Outcome::Finished) << Src;

  ValidationResult R = validateAnalysis(A, Golden);
  EXPECT_EQ(R.UnsoundPairs, 0u) << Src;
  EXPECT_EQ(R.MaskedViolations, 0u) << Src;
  EXPECT_EQ(R.CrossViolations, 0u) << Src;
  EXPECT_GT(R.RunsExecuted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, BECSoundnessFuzz,
                         ::testing::Range<unsigned>(0, 48));

/// The same soundness property over the `bec fuzz` generator's richer
/// idiom menu (memory mixes, compare chains, multiple loops — shapes the
/// local randomProgram above never emits). A seeded sample of 50
/// programs; the validation window is bounded so the exhaustive ground
/// truth stays cheap per program.
class GeneratedCorpusSoundness : public ::testing::TestWithParam<unsigned> {};

TEST_P(GeneratedCorpusSoundness, ValidatesSound) {
  fuzz::GeneratedProgram G =
      fuzz::generateProgram(fuzz::programSeed(0xbec5eed5ull, GetParam()));
  ASSERT_TRUE(G.Error.empty()) << G.Error << "\n" << G.Asm;

  BECAnalysis A = BECAnalysis::run(G.Prog);
  Trace Golden = simulate(G.Prog);
  ASSERT_EQ(Golden.End, Outcome::Finished) << G.Asm;

  ValidationResult R = validateAnalysis(A, Golden, /*MaxCycles=*/48);
  EXPECT_EQ(R.UnsoundPairs, 0u) << G.Asm;
  EXPECT_EQ(R.MaskedViolations, 0u) << G.Asm;
  EXPECT_EQ(R.CrossViolations, 0u) << G.Asm;
  EXPECT_GT(R.RunsExecuted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, GeneratedCorpusSoundness,
                         ::testing::Range<unsigned>(0, 50));

/// Calls BECAnalysis::run; invocable exactly when that call compiles.
struct CallRun {
  template <typename... Args>
  auto operator()(Args &&...A) const
      -> decltype(BECAnalysis::run(std::forward<Args>(A)...));
};

/// A BECAnalysis keeps a pointer to its program, so neither run() accepts
/// a temporary: `BECAnalysis::run(loadWorkload(W))` must not compile.
TEST(BEC, RunRejectsTemporaryPrograms) {
  using LivePtr = std::shared_ptr<const Liveness>;
  using UsesPtr = std::shared_ptr<const UseDef>;
  using BitsPtr = std::shared_ptr<const BitValueAnalysis>;
  static_assert(std::is_invocable_v<CallRun, const Program &>);
  static_assert(std::is_invocable_v<CallRun, Program &, const BECOptions &>);
  static_assert(std::is_invocable_v<CallRun, const Program &, BECOptions,
                                    LivePtr, UsesPtr, BitsPtr>);
  static_assert(!std::is_invocable_v<CallRun, Program>);
  static_assert(!std::is_invocable_v<CallRun, Program &&, const BECOptions &>);
  static_assert(!std::is_invocable_v<CallRun, Program, BECOptions, LivePtr,
                                     UsesPtr, BitsPtr>);
}

/// FNV-1a 64 over the little-endian bytes of a sequence of words.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ull;
  void add(uint64_t V) {
    for (unsigned I = 0; I < 8; ++I, V >>= 8)
      H = (H ^ (V & 0xff)) * 0x100000001b3ull;
  }
};

/// FNV-1a of classOf() for every fault index, iterations(), mergeCount()
/// and every access point's summary.
uint64_t classDigest(const BECAnalysis &A) {
  Digest D;
  for (uint32_t Idx = 0; Idx < A.space().numFaultIndices(); ++Idx)
    D.add(A.classOf(Idx));
  D.add(A.iterations());
  D.add(A.mergeCount());
  for (uint32_t Ap = 0; Ap < A.space().numAccessPoints(); ++Ap) {
    const BECAnalysis::PointSummary &S = A.summary(Ap);
    D.add(S.LiveAfter);
    D.add(S.MaskedMask);
    D.add(S.NumProbes);
  }
  return D.H;
}

/// The coalescing result, recorded from the solver that rescanned every
/// fault site in every round. Kernels are pinned under the default options
/// and the three ablations; the generated programs under the defaults.
TEST(BEC, ClassesArePinned) {
  struct Pin {
    const char *Name;
    uint64_t Full, NoEval, NoBitwise, LocalOnly;
  };
  const Pin Pins[] = {
      {"bitcount", 0xc7d2d8adae7f61ce, 0xc7d2d8adae7f61ce, 0xa6f3351b562e5e2f,
       0xc7d2d8adae7f61ce},
      {"dijkstra", 0xaa19f11a54e13c68, 0xaa19f11a54e13c68, 0x559ff6d32c9fca1d,
       0xaa19f11a54e13c68},
      {"CRC32", 0x261d268e2804ea02, 0x3178060ad5b98383, 0x28f01ed5550da10a,
       0x3178060ad5b98383},
      {"adpcm_enc", 0x9ab875c730aff270, 0xc3906df8012c6cea, 0x5e3db8d025b6bf80,
       0x37f18fa1c5939a61},
      {"adpcm_dec", 0x584c799cbe52059d, 0x30e668f22809a7ff, 0xe4e6cd132dd2f051,
       0xce66d17016eb52c0},
      {"AES", 0xaf66ff16bb5bc1b0, 0x8ffa9ae8b053646a, 0x8f228716a5877be8,
       0x787fb9d4a389917a},
      {"RSA", 0x91014ba8c283a8c4, 0x91014ba8c283a8c4, 0x91014ba8c283a8c4,
       0x91014ba8c283a8c4},
      {"SHA", 0xe8ef2094537ffa5f, 0x564beab2f03b0bd2, 0x8fdcb8e88d02764f,
       0x71ae95b9b1e612ee},
  };
  const uint64_t GeneratedPin = 0xc826820a977a7da2;
  ASSERT_EQ(std::size(Pins), allWorkloads().size());
  BECOptions NoEval, NoBitwise, LocalOnly;
  NoEval.Fates.EvalRules = false;
  NoBitwise.Fates.BitwiseRules = false;
  LocalOnly.GlobalBitValues = false;
  for (size_t K = 0; K < std::size(Pins); ++K) {
    const Workload &W = allWorkloads()[K];
    ASSERT_EQ(W.Name, Pins[K].Name);
    Program Prog = loadWorkload(W);
    uint64_t Got[] = {classDigest(BECAnalysis::run(Prog)),
                      classDigest(BECAnalysis::run(Prog, NoEval)),
                      classDigest(BECAnalysis::run(Prog, NoBitwise)),
                      classDigest(BECAnalysis::run(Prog, LocalOnly))};
    uint64_t Want[] = {Pins[K].Full, Pins[K].NoEval, Pins[K].NoBitwise,
                       Pins[K].LocalOnly};
    for (size_t O = 0; O < std::size(Got); ++O)
      EXPECT_EQ(Got[O], Want[O])
          << W.Name << " options " << O << std::hex << " 0x" << Got[O];
  }
  Digest Generated;
  for (uint64_t I = 0; I < 300; ++I) {
    fuzz::GeneratedProgram G =
        fuzz::generateProgram(fuzz::programSeed(0xc1a55e5ull, I));
    ASSERT_TRUE(G.Error.empty()) << G.Error;
    Generated.add(classDigest(BECAnalysis::run(G.Prog)));
  }
  EXPECT_EQ(Generated.H, GeneratedPin) << std::hex << "0x" << Generated.H;
}

} // namespace
