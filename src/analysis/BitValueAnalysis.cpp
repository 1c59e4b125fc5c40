//===- analysis/BitValueAnalysis.cpp - Global bit-value analysis ----------===//

#include "analysis/BitValueAnalysis.h"

#include "support/Debug.h"

#include <algorithm>
#include <bit>

using namespace bec;

namespace {

/// Reads the abstract value of operand register \p V (x0 is constant 0).
KnownBits readOperand(const RegState &S, Reg V, unsigned Width) {
  if (V == RegZero)
    return KnownBits::constant(0, Width);
  return S[V];
}

/// evalResult() over any state: \p Read(V) is the value of operand V. Only
/// the operands the opcode has are read.
template <typename ReadFn>
KnownBits resultWith(const Instruction &I, ReadFn Read, unsigned Width) {
  auto Src1 = [&] { return Read(I.Rs1); };
  auto Src2 = [&] { return Read(I.Rs2); };
  auto Imm = [&] {
    return KnownBits::constant(static_cast<uint64_t>(I.Imm), Width);
  };
  using KB = KnownBits;
  switch (I.Op) {
  case Opcode::LI:
    return Imm();
  case Opcode::LUI:
    return KB::constant(static_cast<uint64_t>(I.Imm) << 12, Width);
  case Opcode::MV:
    return Src1();
  case Opcode::ADD:
    return KB::add(Src1(), Src2());
  case Opcode::SUB:
    return KB::sub(Src1(), Src2());
  case Opcode::AND:
    return KB::and_(Src1(), Src2());
  case Opcode::OR:
    return KB::or_(Src1(), Src2());
  case Opcode::XOR:
    return KB::xor_(Src1(), Src2());
  case Opcode::SLL:
    return KB::shl(Src1(), Src2());
  case Opcode::SRL:
    return KB::lshr(Src1(), Src2());
  case Opcode::SRA:
    return KB::ashr(Src1(), Src2());
  case Opcode::SLT:
    return KB::fromBool(KB::cmpSlt(Src1(), Src2()), Width);
  case Opcode::SLTU:
    return KB::fromBool(KB::cmpUlt(Src1(), Src2()), Width);
  case Opcode::ADDI:
    return KB::add(Src1(), Imm());
  case Opcode::ANDI:
    return KB::and_(Src1(), Imm());
  case Opcode::ORI:
    return KB::or_(Src1(), Imm());
  case Opcode::XORI:
    return KB::xor_(Src1(), Imm());
  case Opcode::SLLI:
    return KB::shlConst(Src1(), static_cast<unsigned>(I.Imm));
  case Opcode::SRLI:
    return KB::lshrConst(Src1(), static_cast<unsigned>(I.Imm));
  case Opcode::SRAI:
    return KB::ashrConst(Src1(), static_cast<unsigned>(I.Imm));
  case Opcode::SLTI:
    return KB::fromBool(KB::cmpSlt(Src1(), Imm()), Width);
  case Opcode::SLTIU:
    return KB::fromBool(KB::cmpUlt(Src1(), Imm()), Width);
  case Opcode::MUL:
    return KB::mul(Src1(), Src2());
  case Opcode::MULHU:
    return KB::mulhu(Src1(), Src2());
  case Opcode::DIV:
    return KB::div(Src1(), Src2());
  case Opcode::DIVU:
    return KB::divu(Src1(), Src2());
  case Opcode::REM:
    return KB::rem(Src1(), Src2());
  case Opcode::REMU:
    return KB::remu(Src1(), Src2());
  case Opcode::LW:
  case Opcode::LH:
  case Opcode::LHU:
  case Opcode::LB:
  case Opcode::LBU:
    // Memory is not modeled as a data point; loads produce Top. (LB/LH
    // could refine sign/zero-extension bits; kept Top for symmetry with
    // the paper's register-file scope.)
    return KB::top(Width);
  default:
    bec_unreachable("evalResult on an instruction with no destination");
  }
}

/// evalBranch() over any state, as resultWith().
template <typename ReadFn>
BitValue branchWith(const Instruction &I, ReadFn Read) {
  KnownBits A = Read(I.Rs1);
  KnownBits B = Read(I.Rs2);
  switch (I.Op) {
  case Opcode::BEQ:
    return KnownBits::cmpEq(A, B);
  case Opcode::BNE: {
    BitValue Eq = KnownBits::cmpEq(A, B);
    if (Eq == BitValue::Zero)
      return BitValue::One;
    if (Eq == BitValue::One)
      return BitValue::Zero;
    return Eq;
  }
  case Opcode::BLT:
    return KnownBits::cmpSlt(A, B);
  case Opcode::BGE: {
    BitValue Lt = KnownBits::cmpSlt(A, B);
    if (Lt == BitValue::Zero)
      return BitValue::One;
    if (Lt == BitValue::One)
      return BitValue::Zero;
    return Lt;
  }
  case Opcode::BLTU:
    return KnownBits::cmpUlt(A, B);
  case Opcode::BGEU: {
    BitValue Lt = KnownBits::cmpUlt(A, B);
    if (Lt == BitValue::Zero)
      return BitValue::One;
    if (Lt == BitValue::One)
      return BitValue::Zero;
    return Lt;
  }
  default:
    bec_unreachable("evalBranch on a non-branch");
  }
}

} // namespace

KnownBits BitValueAnalysis::evalResult(const Instruction &I, const RegState &S,
                                       unsigned Width) {
  return resultWith(
      I, [&](Reg V) { return readOperand(S, V, Width); }, Width);
}

BitValue BitValueAnalysis::evalBranch(const Instruction &I, const RegState &S,
                                      unsigned Width) {
  return branchWith(I, [&](Reg V) { return readOperand(S, V, Width); });
}

namespace {

/// The blocks reachable from \p Entry, in reverse postorder.
std::vector<uint32_t> reversePostorder(const Program &Prog, uint32_t Entry) {
  std::vector<uint32_t> Order;
  std::vector<bool> Seen(Prog.blocks().size(), false);
  // Depth-first search; each frame is (block, next successor slot).
  std::vector<std::pair<uint32_t, uint32_t>> Stack = {{Entry, 0}};
  Seen[Entry] = true;
  while (!Stack.empty()) {
    auto [B, Slot] = Stack.back();
    std::span<const uint32_t> Succs = Prog.blockSuccs(B);
    if (Slot < Succs.size()) {
      ++Stack.back().second;
      uint32_t S = Succs[Slot];
      if (!Seen[S]) {
        Seen[S] = true;
        Stack.push_back({S, 0});
      }
      continue;
    }
    Order.push_back(B);
    Stack.pop_back();
  }
  std::reverse(Order.begin(), Order.end());
  return Order;
}

} // namespace

BitValueAnalysis BitValueAnalysis::run(const Program &Prog) {
  uint32_t N = Prog.size();
  unsigned Width = Prog.Width;
  uint64_t Full = lowBitMask(Width);
  BitValueAnalysis Result;
  Result.Width = Width;
  Result.In.resize(N);
  Result.Steps.assign(N, {});
  if (N == 0)
    return Result;

  // Blocks are numbered by their reverse-postorder position from here on;
  // blocks unreachable in the CFG get no number and are never executable.
  const std::vector<BasicBlock> &Blocks = Prog.blocks();
  std::vector<uint32_t> Order =
      reversePostorder(Prog, Prog.blockOf(Prog.Entry));
  std::vector<uint32_t> RpoIndex(Blocks.size(), 0);
  for (uint32_t Idx = 0; Idx < Order.size(); ++Idx)
    RpoIndex[Order[Idx]] = Idx;

  // State at each reached block's entry: the meet over the block's
  // executable incoming edges. The entry block additionally meets the
  // entry state: x0 is zero, everything else unknown (machine-initialized
  // contents are not assumed).
  std::vector<Regs> EntryOf(Order.size());
  EntryOf[0].Zero[RegZero] = Full;

  // S is the state being transferred; Read views one of its registers.
  Regs S;
  auto Read = [&](Reg V) {
    return KnownBits::fromMasks(S.Zero[V], S.One[V], Width);
  };
  auto Transfer = [&](const Instruction &I) -> KnownBits {
    KnownBits Value = resultWith(I, Read, Width);
    assert(Value.initMask() == Full && "transfer left a bit Bottom");
    S.Zero[I.Rd] = Value.zeroMask();
    S.One[I.Rd] = Value.oneMask();
    return Value;
  };

  // Executable blocks are those with a feasible incoming edge (plus the
  // entry). The worklist always visits the pending block earliest in
  // reverse postorder, so a block's predecessors outside loops are stable
  // before it is visited. Pending is a bitset over RPO positions with no
  // pending bit in a word below FirstWord.
  std::vector<bool> Reached(Order.size(), false);
  std::vector<uint64_t> Pending((Order.size() + 63) / 64, 0);
  size_t FirstWord = 0;
  Reached[0] = true;
  Pending[0] = 1;
  while (true) {
    while (FirstWord < Pending.size() && !Pending[FirstWord])
      ++FirstWord;
    if (FirstWord == Pending.size())
      break;
    uint64_t &Word = Pending[FirstWord];
    uint32_t Idx = static_cast<uint32_t>(FirstWord * 64) +
                   static_cast<uint32_t>(std::countr_zero(Word));
    Word &= Word - 1;

    // Transfer through the block. Terminators write no register, so S is
    // also the state the terminator reads.
    const BasicBlock &BB = Blocks[Order[Idx]];
    std::span<const uint32_t> Succs = Prog.blockSuccs(Order[Idx]);
    S = EntryOf[Idx];
    for (uint32_t P = BB.First; P <= BB.Last; ++P)
      if (Prog.instr(P).writesReg())
        Transfer(Prog.instr(P));

    // Propagate along feasible outgoing edges (Wegman-Zadeck). Slot 0 of a
    // conditional branch is the fallthrough, slot 1 the taken edge (unless
    // the target *is* the fallthrough, in which case there is one slot).
    const Instruction &Term = Prog.instr(BB.Last);
    bool TakenFeasible = true, FallFeasible = true;
    if (isConditionalBranch(Term.Op) && Succs.size() == 2) {
      BitValue Cond = branchWith(Term, Read);
      TakenFeasible = Cond != BitValue::Zero;
      FallFeasible = Cond != BitValue::One;
    }
    for (uint32_t Slot = 0; Slot < Succs.size(); ++Slot) {
      if (!(Slot == 0 ? FallFeasible : TakenFeasible))
        continue;
      uint32_t T = RpoIndex[Succs[Slot]];
      // The first edge into a block copies the state; later ones keep the
      // bits both sides know, two ANDs per register.
      Regs &Dst = EntryOf[T];
      uint64_t Changed = 0;
      if (!Reached[T]) {
        Reached[T] = true;
        Dst = S;
        Changed = 1;
      } else {
        for (Reg V = 0; V < NumRegs; ++V) {
          uint64_t Zero = Dst.Zero[V] & S.Zero[V], One = Dst.One[V] & S.One[V];
          Changed |= (Zero ^ Dst.Zero[V]) | (One ^ Dst.One[V]);
          Dst.Zero[V] = Zero;
          Dst.One[V] = One;
        }
      }
      if (Changed) {
        Pending[T / 64] |= uint64_t(1) << (T % 64);
        FirstWord = std::min<size_t>(FirstWord, T / 64);
      }
    }
  }

  // Materialize the per-instruction states of the executable blocks.
  for (uint32_t Idx = 0; Idx < Order.size(); ++Idx) {
    if (!Reached[Idx])
      continue;
    const BasicBlock &BB = Blocks[Order[Idx]];
    S = EntryOf[Idx];
    for (uint32_t P = BB.First; P <= BB.Last; ++P) {
      const Instruction &I = Prog.instr(P);
      Result.In[P] = S;
      Step &St = Result.Steps[P];
      St.Executable = true;
      if (I.writesReg()) {
        KnownBits Value = Transfer(I);
        St.R = I.Rd;
        St.Zero = Value.zeroMask();
        St.One = Value.oneMask();
      }
    }
  }
  return Result;
}
