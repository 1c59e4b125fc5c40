//===- tests/AnalysisTest.cpp - Liveness, use/def, global bit values -------===//

#include "analysis/BitValueAnalysis.h"
#include "analysis/Liveness.h"
#include "analysis/UseDef.h"
#include "fuzz/Generator.h"
#include "ir/AsmParser.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <iterator>

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

/// The bundled kernels plus \p Count generated programs of corpus \p Seed.
std::vector<Program> kernelsAndGenerated(uint64_t Seed, uint64_t Count) {
  std::vector<Program> Progs;
  for (const Workload &W : allWorkloads())
    Progs.push_back(loadWorkload(W));
  for (uint64_t I = 0; I < Count; ++I) {
    fuzz::GeneratedProgram G =
        fuzz::generateProgram(fuzz::programSeed(Seed, I));
    EXPECT_TRUE(G.Error.empty()) << G.Error;
    Progs.push_back(std::move(G.Prog));
  }
  return Progs;
}

/// FNV-1a 64 over the little-endian bytes of a sequence of words.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ull;
  void add(uint64_t V) {
    for (unsigned I = 0; I < 8; ++I, V >>= 8)
      H = (H ^ (V & 0xff)) * 0x100000001b3ull;
  }
  void add(const KnownBits &K) {
    add(K.zeroMask());
    add(K.oneMask());
    add(K.initMask());
  }
};

/// The per-register use-def solver that UseDef::run replaced, kept as the
/// oracle for the one-solve form: one backward bitset problem per register
/// over that register's readers. uses() is empty wherever the solver did
/// not materialize a set (instructions that do not access the register).
class PerRegisterUseDef {
public:
  static PerRegisterUseDef run(const Program &Prog) {
    uint32_t N = Prog.size();
    PerRegisterUseDef Result;
    Result.NumInstrs = N;
    Result.Slices.assign(static_cast<size_t>(N) * NumRegs, {});

    // Per register: a backward reachability problem over bitsets indexed by
    // that register's reader instructions.
    for (Reg V = 1; V < NumRegs; ++V) {
      // Enumerate readers of V.
      std::vector<uint32_t> Readers;
      for (uint32_t P = 0; P < N; ++P)
        if (Prog.instr(P).reads(V))
          Readers.push_back(P);
      if (Readers.empty())
        continue;
      std::vector<int32_t> ReaderId(N, -1);
      for (uint32_t I = 0; I < Readers.size(); ++I)
        ReaderId[Readers[I]] = static_cast<int32_t>(I);

      size_t Words = (Readers.size() + 63) / 64;
      // In[p] = readers visible at entry of p; Out[p] = after p.
      std::vector<uint64_t> In(N * Words, 0), Out(N * Words, 0);

      auto Or = [&](std::vector<uint64_t> &Dst, size_t D,
                    const std::vector<uint64_t> &Src, size_t S) {
        bool Changed = false;
        for (size_t W = 0; W < Words; ++W) {
          uint64_t New = Dst[D * Words + W] | Src[S * Words + W];
          if (New != Dst[D * Words + W]) {
            Dst[D * Words + W] = New;
            Changed = true;
          }
        }
        return Changed;
      };

      bool Changed = true;
      while (Changed) {
        Changed = false;
        for (uint32_t P = N; P-- > 0;) {
          // Out = union of successors' In.
          for (uint32_t S : Prog.succs(P))
            Changed |= Or(Out, P, In, S);
          // In = {P if P reads V} + (Out unless P writes V).
          const Instruction &I = Prog.instr(P);
          bool Writes = I.writesReg() && I.Rd == V;
          if (ReaderId[P] >= 0) {
            size_t W = static_cast<size_t>(ReaderId[P]) / 64;
            uint64_t Bit = uint64_t(1) << (ReaderId[P] % 64);
            if (!(In[P * Words + W] & Bit)) {
              In[P * Words + W] |= Bit;
              Changed = true;
            }
          }
          if (!Writes)
            Changed |= Or(In, P, Out, P);
        }
      }

      // Materialize Out[p] for every instruction that accesses V.
      for (uint32_t P = 0; P < N; ++P) {
        const Instruction &I = Prog.instr(P);
        bool Accesses = I.reads(V) || (I.writesReg() && I.Rd == V);
        if (!Accesses)
          continue;
        Slice &S = Result.Slices[Index(P, V, N)];
        S.Offset = static_cast<uint32_t>(Result.Storage.size());
        for (uint32_t R = 0; R < Readers.size(); ++R)
          if (Out[P * Words + R / 64] & (uint64_t(1) << (R % 64)))
            Result.Storage.push_back(Readers[R]);
        S.Count = static_cast<uint32_t>(Result.Storage.size()) - S.Offset;
      }
    }
    return Result;
  }

  std::span<const uint32_t> uses(uint32_t P, Reg V) const {
    const Slice &S = Slices[Index(P, V, NumInstrs)];
    return {Storage.data() + S.Offset, S.Count};
  }

private:
  static size_t Index(uint32_t P, Reg V, uint32_t N) {
    return static_cast<size_t>(V) * N + P;
  }

  struct Slice {
    uint32_t Offset = 0;
    uint32_t Count = 0;
  };
  uint32_t NumInstrs = 0;
  std::vector<Slice> Slices;
  std::vector<uint32_t> Storage;
};

/// uses(p, v) for every instruction and register equals the per-register
/// oracle's on the kernels and 2,000 generated programs.
TEST(UseDef, MatchesPerRegisterOracle) {
  uint64_t Checked = 0;
  for (const Program &Prog : kernelsAndGenerated(0x05edefull, 2000)) {
    UseDef U = UseDef::run(Prog);
    PerRegisterUseDef Want = PerRegisterUseDef::run(Prog);
    for (uint32_t P = 0; P < Prog.size(); ++P)
      for (Reg V = 0; V < NumRegs; ++V) {
        std::span<const uint32_t> Got = U.uses(P, V), Exp = Want.uses(P, V);
        ASSERT_TRUE(std::equal(Got.begin(), Got.end(), Exp.begin(),
                               Exp.end()))
            << Prog.Name << " p" << P << " r" << unsigned(V);
        Checked += Exp.size();
      }
  }
  EXPECT_GT(Checked, 80000u);
}

/// FNV-1a of before()/after() of every register at every instruction and
/// of isExecutable(), recorded from the solver whose block states were
/// arrays of per-register KnownBits.
uint64_t bitValueDigest(const Program &Prog) {
  BitValueAnalysis A = BitValueAnalysis::run(Prog);
  Digest D;
  for (uint32_t P = 0; P < Prog.size(); ++P) {
    D.add(A.isExecutable(P));
    for (Reg V = 0; V < NumRegs; ++V) {
      D.add(A.before(P, V));
      D.add(A.after(P, V));
    }
  }
  return D.H;
}

TEST(BitValues, StatesArePinned) {
  // bitcount, dijkstra, CRC32, adpcm_enc, adpcm_dec, AES, RSA, SHA.
  const uint64_t KernelPins[] = {
      0xb8cb6c2157fb7037, 0x540215c2e7ad5f8a, 0x81fdac7ade99e2f1,
      0x27f56d12c42e2d2e, 0x7b248fc939b2017a, 0x10a3b1a2ff6e01bc,
      0xc77f6d4cd34c0f00, 0x6b6a8698f7a862ea,
  };
  const uint64_t GeneratedPin = 0x730d1647310464f9;
  std::vector<Program> Progs = kernelsAndGenerated(0xb175a7e5ull, 300);
  ASSERT_EQ(std::size(KernelPins), allWorkloads().size());
  Digest Generated;
  for (size_t K = 0; K < Progs.size(); ++K) {
    uint64_t H = bitValueDigest(Progs[K]);
    if (K < std::size(KernelPins))
      EXPECT_EQ(H, KernelPins[K]) << Progs[K].Name << std::hex << " 0x" << H;
    else
      Generated.add(H);
  }
  EXPECT_EQ(Generated.H, GeneratedPin) << std::hex << "0x" << Generated.H;
}

/// The premise of dense block states: the solver reaches a block only with
/// every bit of every register initialized, so Bottom is a property of a
/// whole unreachable instruction, never of a single bit.
TEST(BitValues, ReachedStatesAreFullyInitialized) {
  for (const Program &Prog : kernelsAndGenerated(0x1417ull, 300)) {
    BitValueAnalysis A = BitValueAnalysis::run(Prog);
    uint64_t Full = lowBitMask(Prog.Width);
    for (uint32_t P = 0; P < Prog.size(); ++P) {
      if (!A.isExecutable(P))
        continue;
      for (Reg V = 0; V < NumRegs; ++V) {
        ASSERT_EQ(A.before(P, V).initMask(), Full)
            << Prog.Name << " before p" << P << " r" << unsigned(V);
        ASSERT_EQ(A.after(P, V).initMask(), Full)
            << Prog.Name << " after p" << P << " r" << unsigned(V);
      }
    }
  }
}

} // namespace
