//===- tests/AsmParserTest.cpp - Assembler and verifier tests --------------===//

#include "api/AnalysisSession.h"
#include "fuzz/Generator.h"
#include "ir/AsmParser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace bec;

namespace {

TEST(AsmParser, ParsesEveryOperandFormat) {
  const char *Src = R"(
.data
tab:
  .word 1, 2, 3
.text
main:
  li   t0, -5
  lui  t1, 0x12345
  mv   t2, t0
  add  t3, t0, t1
  addi t4, t0, 100
  beq  t0, t1, main
  j    main
  lw   t5, 4(t0)
  sw   t5, -4(t0)
  out  t5
  nop
  halt
)";
  AsmParseResult R = parseAsm(Src);
  ASSERT_TRUE(R.succeeded()) << R.diagText();
  EXPECT_EQ(R.Prog->size(), 12u);
  EXPECT_EQ(R.Prog->instr(0).Op, Opcode::LI);
  EXPECT_EQ(R.Prog->instr(0).Imm, -5);
  EXPECT_EQ(R.Prog->instr(5).Target, 0);
  EXPECT_EQ(R.Prog->instr(8).Imm, -4);
}

TEST(AsmParser, LowersPseudoInstructions) {
  const char *Src = R"(
main:
  seqz t0, t1
  snez t0, t1
  not  t0, t1
  neg  t0, t1
  beqz t0, main
  bnez t0, main
  bltz t0, main
  bgez t0, main
  blez t0, main
  bgtz t0, main
  ble  t0, t1, main
  bgt  t0, t1, main
  bleu t0, t1, main
  bgtu t0, t1, main
  halt
)";
  AsmParseResult R = parseAsm(Src);
  ASSERT_TRUE(R.succeeded()) << R.diagText();
  const Program &P = *R.Prog;
  EXPECT_EQ(P.instr(0).Op, Opcode::SLTIU); // seqz -> sltiu rd, rs, 1
  EXPECT_EQ(P.instr(0).Imm, 1);
  EXPECT_EQ(P.instr(1).Op, Opcode::SLTU); // snez -> sltu rd, x0, rs
  EXPECT_EQ(P.instr(1).Rs1, RegZero);
  EXPECT_EQ(P.instr(2).Op, Opcode::XORI); // not -> xori rd, rs, -1
  EXPECT_EQ(P.instr(2).Imm, -1);
  EXPECT_EQ(P.instr(3).Op, Opcode::SUB); // neg -> sub rd, x0, rs
  EXPECT_EQ(P.instr(4).Op, Opcode::BEQ);
  EXPECT_EQ(P.instr(10).Op, Opcode::BGE); // ble a,b -> bge b,a
  EXPECT_EQ(P.instr(10).Rs1, *parseRegName("t1"));
  EXPECT_EQ(P.instr(10).Rs2, *parseRegName("t0"));
  EXPECT_EQ(P.instr(11).Op, Opcode::BLT); // bgt a,b -> blt b,a
}

TEST(AsmParser, ResolvesDataLabels) {
  const char *Src = R"(
.data
first:
  .word 7
second:
  .byte 1
  .align 4
third:
  .zero 8
.text
main:
  la a0, second
  la a1, third
  ret
)";
  AsmParseResult R = parseAsm(Src);
  ASSERT_TRUE(R.succeeded()) << R.diagText();
  EXPECT_EQ(R.Prog->instr(0).Imm,
            static_cast<int64_t>(R.Prog->DataBase + 4));
  EXPECT_EQ(R.Prog->instr(1).Imm,
            static_cast<int64_t>(R.Prog->DataBase + 8)); // aligned past byte
  EXPECT_EQ(R.Prog->Data.size(), 16u);
}

TEST(AsmParser, RegisterAliases) {
  EXPECT_EQ(parseRegName("zero"), parseRegName("x0"));
  EXPECT_EQ(parseRegName("fp"), parseRegName("s0"));
  EXPECT_EQ(parseRegName("fp"), parseRegName("x8"));
  EXPECT_EQ(parseRegName("t6"), parseRegName("x31"));
  EXPECT_FALSE(parseRegName("x32").has_value());
  EXPECT_FALSE(parseRegName("q7").has_value());
  EXPECT_FALSE(parseRegName("x01").has_value());
}

TEST(AsmParser, ReportsUnknownMnemonic) {
  // Structured position, not just message text: line 2, and the mnemonic
  // starts at column 3 ("  frobnicate").
  AsmParseResult R = parseAsm("main:\n  frobnicate t0, t1\n  ret\n");
  ASSERT_FALSE(R.succeeded());
  ASSERT_GE(R.Diags.size(), 1u); // Unconsumed operands add a second diag.
  EXPECT_NE(R.Diags[0].Message.find("unknown mnemonic"), std::string::npos);
  EXPECT_EQ(R.Diags[0].Line, 2u);
  EXPECT_EQ(R.Diags[0].Col, 3u);
  EXPECT_NE(R.diagText().find("line 2, col 3"), std::string::npos);
}

TEST(AsmParser, ReportsUnknownLabel) {
  AsmParseResult R = parseAsm("main:\n  j nowhere\n");
  ASSERT_FALSE(R.succeeded());
  ASSERT_EQ(R.Diags.size(), 1u);
  EXPECT_NE(R.Diags[0].Message.find("unknown label 'nowhere'"),
            std::string::npos);
  EXPECT_EQ(R.Diags[0].Line, 2u);
  EXPECT_EQ(R.Diags[0].Col, 5u); // "  j nowhere": the label operand.
}

TEST(AsmParser, ReportsDuplicateLabel) {
  AsmParseResult R = parseAsm("main:\nmain:\n  ret\n");
  ASSERT_FALSE(R.succeeded());
  ASSERT_EQ(R.Diags.size(), 1u);
  EXPECT_NE(R.Diags[0].Message.find("redefinition"), std::string::npos);
  EXPECT_EQ(R.Diags[0].Line, 2u);
  EXPECT_EQ(R.Diags[0].Col, 1u);
}

TEST(AsmParser, CollectsMultipleErrors) {
  AsmParseResult R = parseAsm("main:\n  bogus\n  also_bogus\n  ret\n");
  ASSERT_FALSE(R.succeeded());
  ASSERT_GE(R.Diags.size(), 2u);
  EXPECT_EQ(R.Diags[0].Line, 2u);
  EXPECT_EQ(R.Diags[1].Line, 3u);
}

TEST(AsmParser, DiagnosticColumnsPointAtTheOffendingToken) {
  struct Case {
    const char *Src;
    uint32_t Line, Col;
    const char *MessagePart;
  };
  const Case Cases[] = {
      // "  add t0, t1" missing the second source: col after the operands.
      {"main:\n  add t0, t1\n  ret\n", 2, 13, "expected ','"},
      // "  li t0," with no immediate: the cursor past the comma.
      {"main:\n  li t0,\n  ret\n", 2, 9, "expected immediate"},
      // Bad register name: the token itself.
      {"main:\n  mv q9, t0\n  ret\n", 2, 6, "expected register"},
      // Trailing garbage after a complete instruction.
      {"main:\n  ret extra\n", 2, 7, "trailing characters"},
      // Directive value out of range: the value token.
      {".width 99\nmain:\n  ret\n", 1, 8, ".width must be"},
      // Unknown directive: the directive token.
      {".frob 1\nmain:\n  ret\n", 1, 1, "unknown directive"},
  };
  for (const Case &C : Cases) {
    AsmParseResult R = parseAsm(C.Src);
    ASSERT_FALSE(R.succeeded()) << C.Src;
    ASSERT_FALSE(R.Diags.empty()) << C.Src;
    EXPECT_EQ(R.Diags[0].Line, C.Line) << C.Src;
    EXPECT_EQ(R.Diags[0].Col, C.Col) << C.Src;
    EXPECT_NE(R.Diags[0].Message.find(C.MessagePart), std::string::npos)
        << C.Src << " -> " << R.Diags[0].Message;
  }
}

TEST(AsmParser, VerifierDiagnosticsCarryNoPosition) {
  // Program-level verifier findings are whole-program, not token-level.
  AsmParseResult R = parseAsm("main:\n  li t0, 1\n");
  ASSERT_FALSE(R.succeeded());
  ASSERT_FALSE(R.Diags.empty());
  EXPECT_EQ(R.Diags[0].Col, 0u);
  EXPECT_EQ(R.diagText().find("col"), std::string::npos);
}

TEST(Verifier, RejectsFallthroughOffTheEnd) {
  AsmParseResult R = parseAsm("main:\n  li t0, 1\n");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.diagText().find("falls off the end"), std::string::npos);
}

TEST(Verifier, RejectsOversizedShiftImmediate) {
  AsmParseResult R = parseAsm("main:\n  slli t0, t0, 32\n  ret\n");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.diagText().find("shift amount"), std::string::npos);
}

TEST(Verifier, RejectsMemoryOpsOnNarrowMachines) {
  AsmParseResult R = parseAsm(".width 4\nmain:\n  lw t0, 0(t1)\n  ret\n");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.diagText().find("32-bit register width"), std::string::npos);
}

TEST(Verifier, RejectsImmediateOutsideWidth) {
  AsmParseResult R = parseAsm(".width 4\nmain:\n  li t0, 300\n  ret\n");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.diagText().find("immediate"), std::string::npos);
}

TEST(AsmPrinter, RoundTripsThroughTheParser) {
  const char *Src = R"(
main:
  li   t0, 10
  li   a0, 0
loop:
  add  a0, a0, t0
  addi t0, t0, -1
  bnez t0, loop
  out  a0
  ret
)";
  Program First = parseAsmOrDie(Src, "rt");
  std::string Printed = First.toString();
  AsmParseResult Again = parseAsm(Printed, "rt2");
  ASSERT_TRUE(Again.succeeded()) << Again.diagText() << "\n" << Printed;
  ASSERT_EQ(Again.Prog->size(), First.size());
  for (uint32_t P = 0; P < First.size(); ++P) {
    EXPECT_EQ(Again.Prog->instr(P).Op, First.instr(P).Op) << P;
    EXPECT_EQ(Again.Prog->instr(P).Imm, First.instr(P).Imm) << P;
    EXPECT_EQ(Again.Prog->instr(P).Target, First.instr(P).Target) << P;
  }
}

/// The enforcing property behind the fuzzer's round-trip oracle: for any
/// verifier-legal program, parse(print(P)) is structurally identical to P
/// — same semantic content key, and the printer is idempotent over the
/// trip. Exercised across the generator's whole idiom menu (.data images,
/// non-zero entry points, loops, every operand format).
TEST(AsmPrinter, RoundTripIsStructurallyExactOnGeneratedPrograms) {
  for (uint64_t I = 0; I < 40; ++I) {
    fuzz::GeneratedProgram G =
        fuzz::generateProgram(fuzz::programSeed(0xa5171ull, I));
    ASSERT_TRUE(G.Error.empty()) << G.Error << "\n" << G.Asm;

    std::string Printed = G.Prog.toString();
    AsmParseResult Again = parseAsm(Printed, G.Prog.Name);
    ASSERT_TRUE(Again.succeeded()) << Again.diagText() << "\n" << Printed;

    const Program &Re = *Again.Prog;
    EXPECT_EQ(AnalysisSession::contentKeyOf(Re),
              AnalysisSession::contentKeyOf(G.Prog))
        << Printed;
    EXPECT_EQ(Re.Width, G.Prog.Width);
    EXPECT_EQ(Re.Entry, G.Prog.Entry);
    EXPECT_EQ(Re.MemSize, G.Prog.MemSize);
    EXPECT_EQ(Re.DataBase, G.Prog.DataBase);
    EXPECT_EQ(Re.Data, G.Prog.Data);
    ASSERT_EQ(Re.size(), G.Prog.size());
    for (uint32_t P = 0; P < Re.size(); ++P) {
      EXPECT_EQ(Re.instr(P).Op, G.Prog.instr(P).Op) << P;
      EXPECT_EQ(Re.instr(P).Rd, G.Prog.instr(P).Rd) << P;
      EXPECT_EQ(Re.instr(P).Rs1, G.Prog.instr(P).Rs1) << P;
      EXPECT_EQ(Re.instr(P).Rs2, G.Prog.instr(P).Rs2) << P;
      EXPECT_EQ(Re.instr(P).Imm, G.Prog.instr(P).Imm) << P;
      EXPECT_EQ(Re.instr(P).Target, G.Prog.instr(P).Target) << P;
    }
    // Printing the re-parsed program reproduces the first print exactly.
    EXPECT_EQ(Re.toString(), Printed);
  }
}

/// A non-default memory size and a mid-program entry point survive the
/// round trip (both were silently dropped by earlier printers).
TEST(AsmPrinter, RoundTripsMemsizeAndEntry) {
  const char *Src = R"(
.width 32
.memsize 4096
  nop
main:
  li a0, 7
  out a0
  ret
)";
  Program First = parseAsmOrDie(Src, "entry");
  ASSERT_EQ(First.Entry, 1u);
  Program Again = parseAsmOrDie(First.toString(), "entry");
  EXPECT_EQ(Again.Entry, 1u);
  EXPECT_EQ(Again.MemSize, 4096u);
  EXPECT_EQ(Again.toString(), First.toString());
}

TEST(ProgramCfg, BlocksAndEdges) {
  const char *Src = R"(
main:
  li t0, 3
loop:
  addi t0, t0, -1
  bnez t0, loop
  ret
)";
  Program Prog = parseAsmOrDie(Src, "cfg");
  ASSERT_EQ(Prog.blocks().size(), 3u);
  // Block 1 (the loop) has itself and block 0 as predecessors.
  const BasicBlock &Loop = Prog.blocks()[1];
  EXPECT_EQ(Loop.First, 1u);
  EXPECT_EQ(Loop.Last, 2u);
  ASSERT_EQ(Prog.blockSuccs(1).size(), 2u);
  // Fallthrough edge first, then the taken edge.
  EXPECT_EQ(Prog.blockSuccs(1)[0], 2u);
  EXPECT_EQ(Prog.blockSuccs(1)[1], 1u);
  for (uint32_t P = 0; P < Prog.size(); ++P)
    EXPECT_TRUE(Prog.isReachable(P));
}

} // namespace
