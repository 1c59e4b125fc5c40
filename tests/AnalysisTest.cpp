//===- tests/AnalysisTest.cpp - Liveness, use/def, global bit values -------===//

#include "analysis/BitValueAnalysis.h"
#include "analysis/Liveness.h"
#include "analysis/UseDef.h"
#include "fuzz/Generator.h"
#include "ir/AsmParser.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace bec;

namespace {

Program prog(const char *Src) { return parseAsmOrDie(Src, "analysis"); }

TEST(Liveness, StraightLine) {
  Program P = prog(R"(
main:
  li  t0, 1
  li  t1, 2
  add a0, t0, t1
  ret
)");
  Liveness L = Liveness::run(P);
  Reg T0 = *parseRegName("t0"), T1 = *parseRegName("t1");
  EXPECT_TRUE(L.isLiveAfter(0, T0));
  EXPECT_TRUE(L.isLiveAfter(1, T1));
  EXPECT_FALSE(L.isLiveAfter(2, T0)); // consumed by the add
  EXPECT_TRUE(L.isLiveAfter(2, RegA0)); // read by ret
  EXPECT_FALSE(L.isLiveAfter(3, RegA0));
}

TEST(Liveness, LoopCarriedValuesStayLive) {
  Program P = prog(R"(
main:
  li  t0, 5
  li  a0, 0
loop:
  add a0, a0, t0
  addi t0, t0, -1
  bnez t0, loop
  ret
)");
  Liveness L = Liveness::run(P);
  Reg T0 = *parseRegName("t0");
  // t0 is live after the backedge branch (read next iteration).
  EXPECT_TRUE(L.isLiveAfter(4, T0));
  EXPECT_TRUE(L.isLiveAfter(4, RegA0));
}

TEST(Liveness, DeadWriteIsNotLive) {
  Program P = prog(R"(
main:
  li  t0, 5
  li  t0, 6
  mv  a0, t0
  ret
)");
  Liveness L = Liveness::run(P);
  Reg T0 = *parseRegName("t0");
  EXPECT_FALSE(L.isLiveAfter(0, T0)); // overwritten before any read
  EXPECT_TRUE(L.isLiveAfter(1, T0));
}

TEST(UseDef, ReadsDoNotKill) {
  Program P = prog(R"(
main:
  li  t0, 1          # p0
  add t1, t0, t0     # p1 reads t0
  add t2, t0, t1     # p2 reads t0 again
  li  t0, 9          # p3 kills t0
  add a0, t2, t0     # p4
  ret                # p5
)");
  UseDef U = UseDef::run(P);
  Reg T0 = *parseRegName("t0");
  // From p0, both reads are reachable without a kill.
  std::span<const uint32_t> Uses = U.uses(0, T0);
  ASSERT_EQ(Uses.size(), 2u);
  EXPECT_EQ(Uses[0], 1u);
  EXPECT_EQ(Uses[1], 2u);
  // From the kill at p3, only p4 reads.
  Uses = U.uses(3, T0);
  ASSERT_EQ(Uses.size(), 1u);
  EXPECT_EQ(Uses[0], 4u);
}

TEST(UseDef, LoopSelfUse) {
  Program P = prog(R"(
main:
  li  t0, 3
loop:
  addi t0, t0, -1   # p1 reads and kills t0
  bnez t0, loop     # p2 reads t0
  mv  a0, t0        # p3
  ret
)");
  UseDef U = UseDef::run(P);
  Reg T0 = *parseRegName("t0");
  // After the addi, readers without an intervening kill: the branch, the
  // next iteration's addi, and the final mv.
  std::span<const uint32_t> Uses = U.uses(1, T0);
  ASSERT_EQ(Uses.size(), 3u);
  EXPECT_EQ(Uses[0], 1u);
  EXPECT_EQ(Uses[1], 2u);
  EXPECT_EQ(Uses[2], 3u);
}

TEST(BitValues, ConstantsPropagateAcrossBlocks) {
  Program P = prog(R"(
main:
  li  t0, 12
  beqz t1, other
  addi t0, t0, 0
other:
  mv  a0, t0
  ret
)");
  BitValueAnalysis A = BitValueAnalysis::run(P);
  Reg T0 = *parseRegName("t0");
  // Both paths carry t0 = 12 into the join.
  EXPECT_TRUE(A.after(3, T0).isConstant());
  EXPECT_EQ(A.after(3, T0).constValue(), 12u);
}

TEST(BitValues, LoopInductionVariableRisesToTop) {
  Program P = prog(R"(
main:
  li  t0, 7
loop:
  addi t0, t0, -1
  bnez t0, loop
  mv  a0, t0
  ret
)");
  BitValueAnalysis A = BitValueAnalysis::run(P);
  Reg T0 = *parseRegName("t0");
  // Inside the loop the value must be unknown (it varies by iteration).
  EXPECT_FALSE(A.before(1, T0).isConstant());
  EXPECT_NE(A.before(1, T0).topMask(), 0u);
}

TEST(BitValues, AndiMasksHighBits) {
  Program P = prog(R"(
main:
loop:
  andi t1, t0, 1
  addi t0, t0, 1
  beqz t1, loop
  mv  a0, t1
  ret
)");
  BitValueAnalysis A = BitValueAnalysis::run(P);
  Reg T1 = *parseRegName("t1");
  // k(p0, t1) = 0...0x regardless of t0 (the paper's 000x pattern).
  const KnownBits &K = A.after(0, T1);
  EXPECT_EQ(K.bit(0), BitValue::Top);
  for (unsigned B = 1; B < 32; ++B)
    EXPECT_EQ(K.bit(B), BitValue::Zero) << B;
}

TEST(BitValues, SccpPrunesInfeasibleBranches) {
  Program P = prog(R"(
main:
  li  t0, 5
  beqz t0, dead      # never taken: t0 == 5
  li  a0, 1
  ret
dead:
  li  a0, 2
  ret
)");
  BitValueAnalysis A = BitValueAnalysis::run(P);
  EXPECT_TRUE(A.isExecutable(2));
  EXPECT_FALSE(A.isExecutable(4)) << "constant branch should prune the edge";
}

TEST(BitValues, X0ReadsAsZero) {
  Program P = prog(R"(
main:
  add a0, zero, zero
  ret
)");
  BitValueAnalysis A = BitValueAnalysis::run(P);
  EXPECT_TRUE(A.after(0, RegA0).isConstant());
  EXPECT_EQ(A.after(0, RegA0).constValue(), 0u);
}

TEST(BitValues, SltProducesBooleanShape) {
  Program P = prog(R"(
main:
  slt t2, t0, t1
  mv  a0, t2
  ret
)");
  BitValueAnalysis A = BitValueAnalysis::run(P);
  Reg T2 = *parseRegName("t2");
  const KnownBits &K = A.after(0, T2);
  for (unsigned B = 1; B < 32; ++B)
    EXPECT_EQ(K.bit(B), BitValue::Zero);
  EXPECT_EQ(K.bit(0), BitValue::Top);
}

/// Checks that \p A is a fixed point of the bit-value equations of \p Prog,
/// using only the public queries (not how the solver reached it):
///  * every executable instruction's before() is the meet of after() over
///    its feasible incoming edges, plus the entry state at the entry;
///  * after() is evalResult() applied to before() for the destination and
///    before() for every other register;
///  * no non-executable instruction has a feasible incoming edge from an
///    executable one.
void expectFixedPoint(const Program &Prog, const BitValueAnalysis &A) {
  unsigned W = Prog.Width;
  auto StateBefore = [&](uint32_t P) {
    RegState S;
    for (Reg V = 0; V < NumRegs; ++V)
      S[V] = A.before(P, V);
    return S;
  };
  // An edge Pred -> Succs[Slot] is feasible if Pred is executable and, for
  // a two-way conditional branch, the abstract condition allows the slot
  // (slot 0 is the fallthrough, slot 1 the taken edge).
  auto Feasible = [&](uint32_t Pred, uint32_t Slot) {
    if (!A.isExecutable(Pred))
      return false;
    const Instruction &I = Prog.instr(Pred);
    if (!isConditionalBranch(I.Op) || Prog.succs(Pred).size() == 1)
      return true;
    BitValue Cond = BitValueAnalysis::evalBranch(I, StateBefore(Pred), W);
    return Slot == 0 ? Cond != BitValue::One : Cond != BitValue::Zero;
  };

  ASSERT_TRUE(A.isExecutable(Prog.Entry)) << Prog.Name;
  for (uint32_t P = 0; P < Prog.size(); ++P) {
    RegState Meet;
    for (Reg V = 0; V < NumRegs; ++V)
      Meet[V] = P != Prog.Entry ? KnownBits::bottom(W)
                : V == RegZero  ? KnownBits::constant(0, W)
                                : KnownBits::top(W);
    bool AnyFeasibleIn = false;
    for (uint32_t Pred : Prog.preds(P)) {
      const auto &Succs = Prog.succs(Pred);
      for (uint32_t Slot = 0; Slot < Succs.size(); ++Slot) {
        if (Succs[Slot] != P || !Feasible(Pred, Slot))
          continue;
        AnyFeasibleIn = true;
        for (Reg V = 0; V < NumRegs; ++V)
          Meet[V] = KnownBits::meet(Meet[V], A.after(Pred, V));
      }
    }
    if (!A.isExecutable(P)) {
      EXPECT_FALSE(AnyFeasibleIn)
          << Prog.Name << " p" << P << " has a feasible edge in";
      continue;
    }
    const Instruction &I = Prog.instr(P);
    for (Reg V = 0; V < NumRegs; ++V) {
      ASSERT_EQ(A.before(P, V), Meet[V])
          << Prog.Name << " before p" << P << " r" << unsigned(V);
      KnownBits Want = I.writesReg() && V == I.Rd
                           ? BitValueAnalysis::evalResult(I, StateBefore(P), W)
                           : A.before(P, V);
      ASSERT_EQ(A.after(P, V), Want)
          << Prog.Name << " after p" << P << " r" << unsigned(V);
    }
  }
}

TEST(BitValues, KernelsReachAFixedPoint) {
  for (const Workload &W : allWorkloads()) {
    Program P = loadWorkload(W);
    expectFixedPoint(P, BitValueAnalysis::run(P));
  }
}

TEST(BitValues, GeneratedProgramsReachAFixedPoint) {
  for (uint64_t I = 0; I < 200; ++I) {
    fuzz::GeneratedProgram G =
        fuzz::generateProgram(fuzz::programSeed(0xb17fa1ull, I));
    ASSERT_TRUE(G.Error.empty()) << G.Error;
    expectFixedPoint(G.Prog, BitValueAnalysis::run(G.Prog));
  }
}

} // namespace
