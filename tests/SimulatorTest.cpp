//===- tests/SimulatorTest.cpp - ISA semantics of the interpreter ----------===//
///
/// \file
/// Per-opcode semantics (including the RISC-V division edge cases and
/// shift-amount masking), memory/trap behaviour, fault-injection
/// mechanics, the trace model, and the trace hashes of the bundled
/// kernels pinned as constants.
///
//===----------------------------------------------------------------------===//

#include "ir/AsmParser.h"
#include "sim/Interpreter.h"
#include "support/Xoshiro.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace bec;

namespace {

/// Runs a snippet that leaves its result in a0 and returns it.
static uint64_t evalSnippet(const std::string &Body, unsigned Width = 32) {
  Program Prog = parseAsmOrDie(".width " + std::to_string(Width) +
                                   "\nmain:\n" + Body + "\n  ret\n",
                               "snippet");
  Trace T = simulate(Prog);
  EXPECT_EQ(T.End, Outcome::Finished);
  EXPECT_TRUE(T.HasReturnValue);
  return T.ReturnValue;
}

TEST(SimulatorAlu, BasicArithmetic) {
  EXPECT_EQ(evalSnippet("  li t0, 40\n  addi a0, t0, 2"), 42u);
  EXPECT_EQ(evalSnippet("  li t0, 5\n  li t1, 7\n  mul a0, t0, t1"), 35u);
  EXPECT_EQ(evalSnippet("  li t0, 5\n  li t1, 7\n  sub a0, t0, t1"),
            0xfffffffeu);
  EXPECT_EQ(evalSnippet("  li t0, 0xf0\n  andi a0, t0, 0x3c"), 0x30u);
  EXPECT_EQ(evalSnippet("  li t0, 0xf0\n  ori a0, t0, 0x0f"), 0xffu);
  EXPECT_EQ(evalSnippet("  li t0, 0xff\n  xori a0, t0, 0x0f"), 0xf0u);
}

TEST(SimulatorAlu, ShiftsMaskTheAmount) {
  // RV32 uses only the low five bits of the shift amount.
  EXPECT_EQ(evalSnippet("  li t0, 1\n  li t1, 33\n  sll a0, t0, t1"), 2u);
  EXPECT_EQ(evalSnippet("  li t0, 0x80000000\n  li t1, 31\n  srl a0, t0, t1"),
            1u);
  EXPECT_EQ(evalSnippet("  li t0, 0x80000000\n  srai a0, t0, 31"),
            0xffffffffu);
}

TEST(SimulatorAlu, SetLessThan) {
  EXPECT_EQ(evalSnippet("  li t0, -1\n  li t1, 1\n  slt a0, t0, t1"), 1u);
  EXPECT_EQ(evalSnippet("  li t0, -1\n  li t1, 1\n  sltu a0, t0, t1"), 0u);
  EXPECT_EQ(evalSnippet("  li t0, 0\n  seqz a0, t0"), 1u);
  EXPECT_EQ(evalSnippet("  li t0, 9\n  snez a0, t0"), 1u);
  EXPECT_EQ(evalSnippet("  li t0, 3\n  slti a0, t0, 4"), 1u);
  EXPECT_EQ(evalSnippet("  li t0, -3\n  sltiu a0, t0, 4"), 0u);
}

TEST(SimulatorAlu, RiscvDivisionEdgeCases) {
  // Division by zero: quotient all-ones, remainder = dividend; no trap.
  EXPECT_EQ(evalSnippet("  li t0, 17\n  li t1, 0\n  divu a0, t0, t1"),
            0xffffffffu);
  EXPECT_EQ(evalSnippet("  li t0, 17\n  li t1, 0\n  remu a0, t0, t1"), 17u);
  EXPECT_EQ(evalSnippet("  li t0, -17\n  li t1, 0\n  div a0, t0, t1"),
            0xffffffffu);
  EXPECT_EQ(evalSnippet("  li t0, -17\n  li t1, 0\n  rem a0, t0, t1"),
            static_cast<uint32_t>(-17));
  // Signed overflow.
  EXPECT_EQ(evalSnippet("  li t0, 0x80000000\n  li t1, -1\n  div a0, t0, t1"),
            0x80000000u);
  EXPECT_EQ(evalSnippet("  li t0, 0x80000000\n  li t1, -1\n  rem a0, t0, t1"),
            0u);
  EXPECT_EQ(evalSnippet("  li t0, -7\n  li t1, 2\n  div a0, t0, t1"),
            static_cast<uint32_t>(-3)); // truncation toward zero
  EXPECT_EQ(evalSnippet("  li t0, -7\n  li t1, 2\n  rem a0, t0, t1"),
            static_cast<uint32_t>(-1));
  // 64-bit machine: the high product word, and min / -1 at full width.
  EXPECT_EQ(evalSnippet("  li t0, -1\n  li t1, -1\n  mulhu a0, t0, t1", 64),
            0xfffffffffffffffeull);
  EXPECT_EQ(evalSnippet("  li t0, 3\n  slli t0, t0, 62\n  li t1, 6\n"
                        "  mulhu a0, t0, t1",
                        64),
            4u);
  const std::string Min64 = "  li t0, 1\n  slli t0, t0, 63\n  li t1, -1\n";
  EXPECT_EQ(evalSnippet(Min64 + "  div a0, t0, t1", 64),
            0x8000000000000000ull);
  EXPECT_EQ(evalSnippet(Min64 + "  rem a0, t0, t1", 64), 0u);
}

TEST(SimulatorAlu, X0IsHardwiredToZero) {
  EXPECT_EQ(evalSnippet("  li zero, 55\n  mv a0, zero"), 0u);
  EXPECT_EQ(evalSnippet("  addi x0, x0, 1\n  addi a0, x0, 0"), 0u);
  // ALU, lui and load writes to x0 all leave it zero.
  EXPECT_EQ(evalSnippet("  li t0, 9\n  add zero, t0, t0\n  mv a0, zero"), 0u);
  EXPECT_EQ(evalSnippet("  lui zero, 3\n  addi a0, zero, 4"), 4u);
  EXPECT_EQ(evalSnippet("  li t0, 0x1000\n  li t1, 77\n  sw t1, 0(t0)\n"
                        "  lw zero, 0(t0)\n  mv a0, zero"),
            0u);
}

TEST(SimulatorMemory, LoadStoreRoundTrip) {
  const char *Src = R"(
.data
buf:
  .zero 16
.text
main:
  la   t0, buf
  li   t1, 0x12345678
  sw   t1, 0(t0)
  lw   a0, 0(t0)
  lbu  t2, 1(t0)      # little endian: byte 1 is 0x56
  out  t2
  lhu  t3, 2(t0)      # halfword 1 is 0x1234
  out  t3
  lb   t4, 3(t0)      # sign-extended 0x12 stays 0x12
  out  t4
  ret
)";
  Program Prog = parseAsmOrDie(Src, "mem");
  Trace T = simulate(Prog);
  EXPECT_EQ(T.ReturnValue, 0x12345678u);
  std::vector<uint64_t> Outs = T.outputValues();
  ASSERT_EQ(Outs.size(), 3u);
  EXPECT_EQ(Outs[0], 0x56u);
  EXPECT_EQ(Outs[1], 0x1234u);
  EXPECT_EQ(Outs[2], 0x12u);
}

TEST(SimulatorMemory, SignExtendingLoads) {
  const char *Src = R"(
.data
buf:
  .byte 0x80, 0xff
.text
main:
  la  t0, buf
  lb  a0, 0(t0)
  ret
)";
  Program Prog = parseAsmOrDie(Src, "mem");
  EXPECT_EQ(simulate(Prog).ReturnValue, 0xffffff80u);
}

TEST(SimulatorMemory, OutOfBoundsTraps) {
  const char *Src = R"(
main:
  li  t0, 0x7ffffff0
  lw  a0, 0(t0)
  ret
)";
  Program Prog = parseAsmOrDie(Src, "trap");
  Trace T = simulate(Prog);
  EXPECT_EQ(T.End, Outcome::Trap);
  EXPECT_FALSE(T.HasReturnValue);
}

TEST(SimulatorMemory, MisalignedAccessTraps) {
  const char *Src = R"(
main:
  li  t0, 0x1001
  lw  a0, 0(t0)
  ret
)";
  Program Prog = parseAsmOrDie(Src, "trap");
  EXPECT_EQ(simulate(Prog).End, Outcome::Trap);
}

TEST(SimulatorControl, BranchesAndLoops) {
  const char *Src = R"(
main:
  li  t0, 10
  li  a0, 0
loop:
  add a0, a0, t0
  addi t0, t0, -1
  bgtz t0, loop
  ret
)";
  Program Prog = parseAsmOrDie(Src, "sum");
  EXPECT_EQ(simulate(Prog).ReturnValue, 55u);
}

TEST(SimulatorControl, CycleBudgetHangs) {
  const char *Src = R"(
main:
loop:
  j loop
)";
  Program Prog = parseAsmOrDie(Src, "hang");
  RunOptions Opts;
  Opts.MaxCycles = 100;
  Trace T = simulate(Prog, Opts);
  EXPECT_EQ(T.End, Outcome::Hang);
  EXPECT_EQ(T.Cycles, 100u);

  // Running exactly to the budget leaves the run live; asking for one
  // more cycle hangs it without executing another instruction.
  Interpreter I(Prog, Opts);
  I.runToCycle(Opts.MaxCycles);
  EXPECT_FALSE(I.done());
  EXPECT_EQ(I.cycle(), 100u);
  I.runToCycle(Opts.MaxCycles + 1);
  ASSERT_TRUE(I.done());
  Trace Chunked = I.takeTrace();
  EXPECT_EQ(Chunked.End, Outcome::Hang);
  EXPECT_EQ(Chunked.Cycles, 100u);
  EXPECT_EQ(Chunked.TraceHash, T.TraceHash);

  // A trap on the last budgeted cycle is a Trap, and ret as the last
  // budgeted instruction finishes.
  Opts.MaxCycles = 2;
  Trace Trapped = simulate(
      parseAsmOrDie("main:\n  li t0, 0x1001\n  lw a0, 0(t0)\n  ret\n", "t"),
      Opts);
  EXPECT_EQ(Trapped.End, Outcome::Trap);
  EXPECT_EQ(Trapped.Cycles, 1u);
  Trace Returned =
      simulate(parseAsmOrDie("main:\n  li a0, 5\n  ret\n", "r"), Opts);
  EXPECT_EQ(Returned.End, Outcome::Finished);
  EXPECT_EQ(Returned.Cycles, 2u);
  EXPECT_EQ(Returned.ReturnValue, 5u);
}

TEST(SimulatorInjection, FlipChangesOneBit) {
  const char *Src = R"(
main:
  li  a0, 0
  nop
  nop
  ret
)";
  Program Prog = parseAsmOrDie(Src, "inj");
  // Flip bit 3 of a0 after the first instruction: returns 8.
  Trace T = simulateWithInjection(Prog, {1, 10, 3});
  EXPECT_EQ(T.ReturnValue, 8u);
  // Same flip before `li` is overwritten: masked.
  Trace T2 = simulateWithInjection(Prog, {0, 10, 3});
  EXPECT_EQ(T2.ReturnValue, 0u);
  EXPECT_EQ(T2.TraceHash, simulate(Prog).TraceHash);
}

TEST(SimulatorInjection, X0InjectionIsANop) {
  const char *Src = R"(
main:
  li  a0, 7
  ret
)";
  Program Prog = parseAsmOrDie(Src, "inj");
  Trace Golden = simulate(Prog);
  Trace T = simulateWithInjection(Prog, {0, RegZero, 5});
  EXPECT_EQ(T.TraceHash, Golden.TraceHash);
}

TEST(SimulatorTrace, HashDistinguishesControlFlow) {
  const char *Src = R"(
main:
  li  t0, 1
  beqz t0, alt
  li  a0, 10
  ret
alt:
  li  a0, 20
  ret
)";
  Program Prog = parseAsmOrDie(Src, "cf");
  Trace Golden = simulate(Prog);
  // Flipping t0's LSB after the li flips the branch: different trace AND
  // different observable (return value).
  Trace Faulty = simulateWithInjection(Prog, {1, 5, 0});
  EXPECT_NE(Faulty.TraceHash, Golden.TraceHash);
  EXPECT_NE(Faulty.ObservableHash, Golden.ObservableHash);
  EXPECT_EQ(Faulty.ReturnValue, 20u);
}

TEST(SimulatorTrace, NarrowWidthMachines) {
  const char *Src = R"(
.width 4
main:
  li  t0, 7
  addi t0, t0, 12     # 19 mod 16 = 3
  mv  a0, t0
  ret
)";
  Program Prog = parseAsmOrDie(Src, "w4");
  EXPECT_EQ(simulate(Prog).ReturnValue, 3u);

  // 12 bits is not a power of two: register shift amounts wrap mod 12.
  EXPECT_EQ(evalSnippet("  li t0, 1\n  li t1, 13\n  sll a0, t0, t1", 12), 2u);
  EXPECT_EQ(evalSnippet("  li t0, 0x800\n  li t1, 23\n  srl a0, t0, t1", 12),
            1u);
  EXPECT_EQ(evalSnippet("  li t0, 0x800\n  li t1, 14\n  sra a0, t0, t1", 12),
            0xe00u);
  EXPECT_EQ(evalSnippet("  li t0, 0x800\n  li t1, 1\n  slt a0, t0, t1", 12),
            1u);
  EXPECT_EQ(evalSnippet("  li t0, 0x800\n  li t1, 1\n  sltu a0, t0, t1", 12),
            0u);
}

/// FNV-1a over a value's 8 little-endian bytes, one byte at a time: the
/// definition TraceHasher's zero-byte fold must reproduce.
uint64_t byteWiseFnv(uint64_t H, uint64_t Value) {
  for (unsigned I = 0; I < 8; ++I)
    H = (H ^ ((Value >> (8 * I)) & 0xff)) * 0x100000001b3ull;
  return H;
}

TEST(SimulatorTrace, FoldedHashMatchesByteWiseFnv) {
  Xoshiro256 Rng(16);
  uint64_t H = 0xcbf29ce484222325ull;
  std::vector<uint64_t> Values = {0, 1, 0xff, 0x100, 0xffff, 0x10000,
                                  0x8000000000000000ull, ~uint64_t(0)};
  for (unsigned Shift = 0; Shift < 64; ++Shift)
    Values.push_back((Rng.next() | 1) >> Shift);
  for (uint64_t V : Values) {
    uint64_t Want = byteWiseFnv(H, V);
    EXPECT_EQ(TraceHasher::absorbInto(H, V), Want) << V;
    TraceHasher Hasher;
    Hasher.restore(H);
    Hasher.absorb(V);
    EXPECT_EQ(Hasher.value(), Want) << V;
    H = Want;
  }
  // Every PC of a program of up to 2^16 instructions.
  for (uint64_t PC = 0; PC < (1u << 16); ++PC)
    ASSERT_EQ(TraceHasher::absorbInto(H, PC), byteWiseFnv(H, PC)) << PC;
}

/// Golden traces of the bundled kernels as recorded before the run loop
/// was specialised. Every trace hash downstream (Masked verdicts, distinct
/// counts, checkpoints) inherits these values, so they must never drift.
struct PinnedTrace {
  const char *Name;
  uint64_t Cycles;
  Outcome End;
  uint64_t ReturnValue;
  uint64_t TraceHash;
  uint64_t ObservableHash;
};

const PinnedTrace PinnedTraces[] = {
    {"bitcount", 3105, Outcome::Finished, 0xb9, 0x93d2b9069bd95ccdull,
     0x7366eadc273c9a06ull},
    {"dijkstra", 1203, Outcome::Finished, 0xf, 0x2eee366fb5c28e09ull,
     0xd82526bebc87478full},
    {"CRC32", 1665, Outcome::Finished, 0x92211222, 0xea2e5c24dc05c520ull,
     0x8bfff8378d1f2964ull},
    {"adpcm_enc", 1172, Outcome::Finished, 0xdc38, 0xc3353986e5948166ull,
     0x847f91458c63dd4aull},
    {"adpcm_dec", 1959, Outcome::Finished, 0x39, 0xbc5427345b4d7221ull,
     0x86ecc50758b0be13ull},
    {"AES", 5882, Outcome::Finished, 0x69, 0x401df03a08d0f333ull,
     0x855e6860a21da250ull},
    {"RSA", 1806, Outcome::Finished, 0xa8693, 0x5f72826ae59fa188ull,
     0xc45c01eb4f33e043ull},
    {"SHA", 3538, Outcome::Finished, 0xa9993e36, 0x7d087cfca9912741ull,
     0x977f2fc756ba0937ull},
};

void expectPinned(const Trace &T, const PinnedTrace &P, const char *How) {
  SCOPED_TRACE(std::string(P.Name) + ", " + How);
  EXPECT_EQ(T.Cycles, P.Cycles);
  EXPECT_EQ(T.End, P.End);
  EXPECT_TRUE(T.HasReturnValue);
  EXPECT_EQ(T.ReturnValue, P.ReturnValue);
  EXPECT_EQ(T.TraceHash, P.TraceHash);
  EXPECT_EQ(T.ObservableHash, P.ObservableHash);
}

TEST(SimulatorTrace, BundledKernelTracesArePinned) {
  ASSERT_EQ(std::size(PinnedTraces), allWorkloads().size());
  RunOptions HashOnly;
  HashOnly.Record = false;
  for (const PinnedTrace &P : PinnedTraces) {
    const Workload *W = findWorkload(P.Name);
    ASSERT_NE(W, nullptr) << P.Name;
    Program Prog = loadWorkload(*W);

    Trace Recorded = simulate(Prog);
    expectPinned(Recorded, P, "recorded");
    EXPECT_EQ(Recorded.Executed.size(), P.Cycles) << P.Name;
    expectPinned(simulate(Prog, HashOnly), P, "hash-only");

    Interpreter OneShot(Prog, HashOnly);
    OneShot.run();
    MachineState Final = OneShot.snapshot();
    expectPinned(OneShot.takeTrace(), P, "one-shot run()");

    // Chunked runs stop and resume the loop at arbitrary cycles; the
    // cursors and machine must come out exactly as from one call.
    for (uint64_t Chunk : {1, 7, 16, 1000}) {
      Interpreter Chunked(Prog, HashOnly);
      while (!Chunked.done())
        Chunked.runToCycle(Chunked.cycle() + Chunk);
      std::string How = "chunks of " + std::to_string(Chunk);
      EXPECT_TRUE(Chunked.snapshot() == Final) << P.Name << ", " << How;
      expectPinned(Chunked.takeTrace(), P, How.c_str());
    }
  }
}

} // namespace
