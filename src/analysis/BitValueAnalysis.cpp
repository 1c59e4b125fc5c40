//===- analysis/BitValueAnalysis.cpp - Global bit-value analysis ----------===//

#include "analysis/BitValueAnalysis.h"

#include "support/Debug.h"

#include <algorithm>
#include <queue>

using namespace bec;

/// Reads the abstract value of operand register \p V (x0 is constant 0).
static KnownBits readOperand(const RegState &S, Reg V, unsigned Width) {
  if (V == RegZero)
    return KnownBits::constant(0, Width);
  return S[V];
}

KnownBits BitValueAnalysis::evalResult(const Instruction &I, const RegState &S,
                                       unsigned Width) {
  auto Src1 = [&] { return readOperand(S, I.Rs1, Width); };
  auto Src2 = [&] { return readOperand(S, I.Rs2, Width); };
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

BitValue BitValueAnalysis::evalBranch(const Instruction &I, const RegState &S,
                                      unsigned Width) {
  KnownBits A = readOperand(S, I.Rs1, Width);
  KnownBits B = readOperand(S, I.Rs2, Width);
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

namespace {

/// Meets \p Src into \p Dst register by register. \returns true if \p Dst
/// changed.
bool meetInto(RegState &Dst, const RegState &Src) {
  bool Changed = false;
  for (Reg V = 0; V < NumRegs; ++V) {
    KnownBits M = KnownBits::meet(Dst[V], Src[V]);
    if (M != Dst[V]) {
      Dst[V] = M;
      Changed = true;
    }
  }
  return Changed;
}

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
  BitValueAnalysis Result;
  RegState BottomState;
  for (auto &KB : BottomState)
    KB = KnownBits::bottom(Width);
  Result.In.assign(N, BottomState);
  Result.Defs.assign(N, {});
  Result.Executable.assign(N, false);
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

  // State at each block entry: the meet over the block's executable
  // incoming edges. The entry block additionally meets the entry state:
  // x0 is zero, everything else unknown (machine-initialized contents are
  // not assumed).
  std::vector<RegState> EntryOf(Order.size(), BottomState);
  EntryOf[0][RegZero] = KnownBits::constant(0, Width);
  for (Reg V = 1; V < NumRegs; ++V)
    EntryOf[0][V] = KnownBits::top(Width);

  // Executable blocks are those with a feasible incoming edge (plus the
  // entry). The worklist always visits the pending block earliest in
  // reverse postorder, so a block's predecessors outside loops are stable
  // before it is visited.
  std::vector<bool> Reached(Order.size(), false);
  std::vector<bool> Queued(Order.size(), false);
  std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<>>
      Worklist;
  Reached[0] = Queued[0] = true;
  Worklist.push(0);

  RegState S;
  while (!Worklist.empty()) {
    uint32_t Idx = Worklist.top();
    Worklist.pop();
    Queued[Idx] = false;

    // Transfer through the block. Terminators write no register, so S is
    // also the state the terminator reads.
    const BasicBlock &BB = Blocks[Order[Idx]];
    std::span<const uint32_t> Succs = Prog.blockSuccs(Order[Idx]);
    S = EntryOf[Idx];
    for (uint32_t P = BB.First; P <= BB.Last; ++P) {
      const Instruction &I = Prog.instr(P);
      if (I.writesReg())
        S[I.Rd] = evalResult(I, S, Width);
    }

    // Propagate along feasible outgoing edges (Wegman-Zadeck). Slot 0 of a
    // conditional branch is the fallthrough, slot 1 the taken edge (unless
    // the target *is* the fallthrough, in which case there is one slot).
    const Instruction &Term = Prog.instr(BB.Last);
    bool TakenFeasible = true, FallFeasible = true;
    if (isConditionalBranch(Term.Op) && Succs.size() == 2) {
      BitValue Cond = evalBranch(Term, S, Width);
      TakenFeasible = Cond != BitValue::Zero;
      FallFeasible = Cond != BitValue::One;
    }
    for (uint32_t Slot = 0; Slot < Succs.size(); ++Slot) {
      if (!(Slot == 0 ? FallFeasible : TakenFeasible))
        continue;
      uint32_t T = RpoIndex[Succs[Slot]];
      // A first edge always changes the target: x0 is never Bottom in S.
      if (meetInto(EntryOf[T], S) && !Queued[T]) {
        Reached[T] = Queued[T] = true;
        Worklist.push(T);
      }
    }
  }

  // Materialize the per-instruction states of the executable blocks.
  for (uint32_t Idx = 0; Idx < Order.size(); ++Idx) {
    if (!Reached[Idx])
      continue;
    const BasicBlock &BB = Blocks[Order[Idx]];
    RegState &State = EntryOf[Idx];
    for (uint32_t P = BB.First; P <= BB.Last; ++P) {
      const Instruction &I = Prog.instr(P);
      Result.In[P] = State;
      Result.Executable[P] = true;
      if (I.writesReg()) {
        KnownBits Value = evalResult(I, State, Width);
        Result.Defs[P] = {I.Rd, Value};
        State[I.Rd] = Value;
      }
    }
  }
  return Result;
}
