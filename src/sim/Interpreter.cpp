//===- sim/Interpreter.cpp - RISC-V functional simulator -------------------===//

#include "sim/Interpreter.h"

#include "support/Debug.h"

#include <algorithm>
#include <bit>
#include <cstring>

using namespace bec;

const char *bec::outcomeName(Outcome O) {
  switch (O) {
  case Outcome::Finished:
    return "finished";
  case Outcome::Trap:
    return "trap";
  case Outcome::Hang:
    return "hang";
  }
  bec_unreachable("invalid outcome");
}

/// An instruction as the run loop reads it: 16 bytes, no source line,
/// immediates already in their executed form. LUI becomes LI of its
/// shifted constant; ALU and address immediates are masked to the width;
/// shift immediates are the raw amount and SLTI's is the signed constant.
struct Interpreter::DecodedOp {
  Opcode Op;
  Reg Rd;
  Reg Rs1;
  Reg Rs2;
  uint32_t Target;
  uint64_t Imm;
};

std::shared_ptr<const std::vector<Interpreter::DecodedOp>>
Interpreter::decode(const Program &Prog) {
  uint64_t Mask = lowBitMask(Prog.Width);
  auto Ops = std::make_shared<std::vector<DecodedOp>>();
  Ops->reserve(Prog.size());
  for (const Instruction &I : Prog.Instrs) {
    DecodedOp D{I.Op, I.Rd, I.Rs1, I.Rs2,
                static_cast<uint32_t>(I.Target),
                static_cast<uint64_t>(I.Imm) & Mask};
    switch (I.Op) {
    case Opcode::LUI:
      D.Op = Opcode::LI;
      D.Imm = (static_cast<uint64_t>(I.Imm) << 12) & Mask;
      break;
    case Opcode::SLLI:
    case Opcode::SRLI:
    case Opcode::SRAI:
    case Opcode::SLTI:
      D.Imm = static_cast<uint64_t>(I.Imm);
      break;
    default:
      break;
    }
    Ops->push_back(D);
  }
  return Ops;
}

Interpreter::Interpreter(const Program &Prog, RunOptions Opts)
    : Ops(decode(Prog)), Opts(Opts), PC(Prog.Entry) {
  M.reset(Prog);
  markAllLinesDirty();
}

void Interpreter::markAllLinesDirty() {
  uint64_t Lines = (M.Mem.size() + (uint64_t(1) << LineShift) - 1) >> LineShift;
  DirtyLines.assign((Lines + 63) / 64, ~uint64_t(0));
  if (Lines % 64)
    DirtyLines.back() = lowBitMask(Lines % 64);
}

void Interpreter::syncFrom(Interpreter &Src) {
  if (M.Mem.size() != Src.M.Mem.size()) {
    *this = Src;
  } else {
    // Lines outside both maps are equal on both sides: neither wrote
    // them since the last sync, which left them equal. The last line of
    // a memory size that is not a multiple of the line size is short.
    const uint64_t Size = M.Mem.size();
    for (size_t Word = 0; Word < DirtyLines.size(); ++Word)
      for (uint64_t Bits = DirtyLines[Word] | Src.DirtyLines[Word]; Bits;
           Bits &= Bits - 1) {
        uint64_t Off = (Word * 64 + std::countr_zero(Bits)) << LineShift;
        std::memcpy(M.Mem.data() + Off, Src.M.Mem.data() + Off,
                    std::min<uint64_t>(uint64_t(1) << LineShift, Size - Off));
      }
    if (Ops != Src.Ops)
      Ops = Src.Ops;
    Opts = Src.Opts;
    M.Width = Src.M.Width;
    M.Mask = Src.M.Mask;
    M.Regs = Src.M.Regs;
    PC = Src.PC;
    CycleCount = Src.CycleCount;
    Done = Src.Done;
    Result = Src.Result;
    FullHash = Src.FullHash;
    ObsHash = Src.ObsHash;
  }
  std::fill(DirtyLines.begin(), DirtyLines.end(), 0);
  std::fill(Src.DirtyLines.begin(), Src.DirtyLines.end(), 0);
}

namespace {

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (unsigned I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

uint64_t getU64(const uint8_t *Data) {
  uint64_t V = 0;
  for (unsigned I = 0; I < 8; ++I)
    V |= uint64_t(Data[I]) << (8 * I);
  return V;
}

/// Format tag of the MachineState encoding; bump on layout changes.
constexpr uint64_t MachineStateTag = 0xbec0057a7e000001ull;

} // namespace

uint64_t MachineState::byteSize() const {
  // Tag, width, PC, cycle, flags, return value, two hash cursors, the
  // register file, the memory length, then the memory image.
  return 8 * 8 + NumRegs * 8 + 8 + M.memory().size();
}

std::vector<uint8_t> MachineState::serialize() const {
  std::vector<uint8_t> Out;
  Out.reserve(byteSize());
  putU64(Out, MachineStateTag);
  putU64(Out, M.width());
  putU64(Out, PC);
  putU64(Out, CycleCount);
  putU64(Out, (uint64_t(Done) << 0) | (uint64_t(HasReturnValue) << 1) |
                  (static_cast<uint64_t>(End) << 8));
  putU64(Out, ReturnValue);
  putU64(Out, FullHashState);
  putU64(Out, ObsHashState);
  for (uint64_t R : M.regs())
    putU64(Out, R);
  putU64(Out, M.memory().size());
  Out.insert(Out.end(), M.memory().begin(), M.memory().end());
  return Out;
}

std::optional<MachineState> MachineState::deserialize(const uint8_t *Data,
                                                      size_t Size) {
  constexpr size_t FixedBytes = 8 * 8 + NumRegs * 8 + 8;
  if (Size < FixedBytes || getU64(Data) != MachineStateTag)
    return std::nullopt;
  MachineState S;
  uint64_t Width = getU64(Data + 8);
  if (Width == 0 || Width > 64)
    return std::nullopt;
  S.PC = static_cast<uint32_t>(getU64(Data + 16));
  S.CycleCount = getU64(Data + 24);
  uint64_t Flags = getU64(Data + 32);
  S.Done = Flags & 1;
  S.HasReturnValue = (Flags >> 1) & 1;
  uint64_t EndByte = (Flags >> 8) & 0xff;
  if (EndByte > static_cast<uint64_t>(Outcome::Hang))
    return std::nullopt;
  S.End = static_cast<Outcome>(EndByte);
  S.ReturnValue = getU64(Data + 40);
  S.FullHashState = getU64(Data + 48);
  S.ObsHashState = getU64(Data + 56);
  // No run reaches a non-zero x0 or a register wider than the machine,
  // and the run loop relies on both never happening.
  std::array<uint64_t, NumRegs> Regs;
  for (unsigned R = 0; R < NumRegs; ++R)
    Regs[R] = getU64(Data + 64 + 8 * R);
  if (Regs[RegZero] != 0)
    return std::nullopt;
  for (uint64_t V : Regs)
    if (V & ~lowBitMask(static_cast<unsigned>(Width)))
      return std::nullopt;
  uint64_t MemSize = getU64(Data + 64 + 8 * NumRegs);
  if (Size != FixedBytes + MemSize)
    return std::nullopt;
  std::vector<uint8_t> Mem(Data + FixedBytes, Data + FixedBytes + MemSize);
  S.M.restoreParts(static_cast<unsigned>(Width), Regs, std::move(Mem));
  return S;
}

MachineState Interpreter::snapshot() const {
  assert(!Opts.Record && "snapshots cover hash-only runs; recorded "
                         "Executed/Events vectors are not part of the state");
  MachineState S;
  S.M = M;
  S.PC = PC;
  S.CycleCount = CycleCount;
  S.Done = Done;
  S.FullHashState = FullHash.value();
  S.ObsHashState = ObsHash.value();
  S.End = Result.End;
  S.ReturnValue = Result.ReturnValue;
  S.HasReturnValue = Result.HasReturnValue;
  return S;
}

void Interpreter::restore(const MachineState &S) {
  assert(!Opts.Record && "snapshots cover hash-only runs; recorded "
                         "Executed/Events vectors are not part of the state");
  assert(S.M.width() == M.width() &&
         "the predecoded immediates are masked to the program's width");
  M = S.M;
  PC = S.PC;
  CycleCount = S.CycleCount;
  Done = S.Done;
  Result = Trace{};
  Result.End = S.End;
  Result.ReturnValue = S.ReturnValue;
  Result.HasReturnValue = S.HasReturnValue;
  FullHash.restore(S.FullHashState);
  ObsHash.restore(S.ObsHashState);
  markAllLinesDirty();
}

void Interpreter::growExecuted(uint32_t *&Pos, uint32_t *&Limit) {
  size_t N = Pos - Result.Executed.data();
  Result.Executed.resize(2 * N + 4096);
  Pos = Result.Executed.data() + N;
  Limit = Result.Executed.data() + Result.Executed.size();
}

void Interpreter::finish(Outcome End) {
  Done = true;
  Result.End = End;
  FullHash.absorb(0x9e3700 + static_cast<uint64_t>(End));
}

Trace Interpreter::takeTrace() {
  assert(Done && "takeTrace before the run ended");
  Result.Cycles = CycleCount;
  // Outcome and return value enter both hashes at the end.
  ObsHash.absorb(static_cast<uint64_t>(Result.End));
  ObsHash.absorb(Result.HasReturnValue ? Result.ReturnValue + 1 : 0);
  FullHash.absorb(Result.HasReturnValue ? Result.ReturnValue + 1 : 0);
  Result.TraceHash = FullHash.value();
  Result.ObservableHash = ObsHash.value();
  return std::move(Result);
}

void Interpreter::runToCycle(uint64_t Cycle) {
  if (Opts.Record)
    runLoop<true>(Cycle);
  else
    runLoop<false>(Cycle);
}

// The run loop's direct-threaded dispatch (the GCC/Clang labels-as-values
// extension), over runLoop's locals. DISPATCH checks the bound, fetches
// the op at Pc, reads its sources, absorbs its PC and jumps straight to
// its handler; every handler ends in its own copy, so each opcode gets
// its own indirect-branch history.
#define DISPATCH()                                                             \
  if (Cyc >= Bound)                                                            \
    goto Bounded;                                                              \
  I = Code + Pc;                                                               \
  A = R[I->Rs1];                                                               \
  B = R[I->Rs2];                                                               \
  if (PCBytes == 1)                                                            \
    H = TraceHasher::absorbInto(H, Pc, 1);                                     \
  else if (PCBytes == 2)                                                       \
    H = TraceHasher::absorbInto(H, Pc, 2);                                     \
  else                                                                         \
    H = TraceHasher::absorbInto(H, Pc, 4);                                     \
  if constexpr (Record) {                                                      \
    if (ExPos == ExEnd)                                                        \
      growExecuted(ExPos, ExEnd);                                              \
    *ExPos++ = Pc;                                                             \
  }                                                                            \
  goto *Handlers[static_cast<unsigned>(I->Op)]
// Retires the op and falls through to the next one.
#define NEXT()                                                                 \
  ++Pc;                                                                        \
  ++Cyc;                                                                       \
  DISPATCH()
// Retires a branch: to its target when \p Taken, else to the next op.
#define BRANCH(Taken)                                                          \
  Pc = (Taken) ? I->Target : Pc + 1;                                           \
  ++Cyc;                                                                       \
  DISPATCH()
// A memory access of \p Bytes at rs1 + imm; out of bounds or misaligned
// traps before the op retires.
#define ADDRESS(Bytes)                                                         \
  Addr = (A + I->Imm) & Mask;                                                  \
  if (!InBounds(Addr, Bytes))                                                  \
    goto Trapped

template <bool Record> void Interpreter::runLoop(uint64_t Cycle) {
  // Nothing to run (the walker is often already at the next injection
  // cycle); this also covers the Hang rule below, which needs Cycle past
  // the current cycle.
  if (Done || Cycle <= CycleCount)
    return;
  const DecodedOp *Code = Ops->data();
  uint64_t *R = M.Regs.data();
  uint8_t *Mem = M.Mem.data();
  uint64_t *Dirty = DirtyLines.data();
  const uint64_t MemSize = M.Mem.size();
  const unsigned W = M.Width;
  const uint64_t Mask = M.Mask;
  const uint64_t SignBit = uint64_t(1) << (W - 1);
  const bool PowerOfTwoWidth = (W & (W - 1)) == 0;
  // The PC absorb walks as many bytes as the largest PC needs.
  const size_t NumOps = Ops->size();
  const unsigned PCBytes = NumOps <= (1u << 8)    ? 1
                           : NumOps <= (1u << 16) ? 2
                                                  : 4;
  const uint64_t Bound = std::min(Cycle, Opts.MaxCycles);

  // Register values fit in Mask, so sign extension is one xor-subtract.
  auto Signed = [SignBit](uint64_t V) {
    return static_cast<int64_t>((V ^ SignBit) - SignBit);
  };
  auto ShiftAmount = [&](uint64_t V) -> unsigned {
    return PowerOfTwoWidth ? static_cast<unsigned>(V & (W - 1))
                           : static_cast<unsigned>(V % W);
  };
  auto InBounds = [&](uint64_t Addr, unsigned Bytes) {
    return Addr % Bytes == 0 && Addr + Bytes <= MemSize;
  };

  uint32_t Pc = PC;
  uint64_t Cyc = CycleCount;
  uint64_t H = FullHash.value();
  Outcome End = Outcome::Finished;
  // A recording run writes executed PCs through a cursor into room made
  // ahead in Result.Executed, sized by the cycles this call may run (at
  // most 4096 at first, then doubling), and trims the rest on exit.
  uint32_t *ExPos = nullptr, *ExEnd = nullptr;
  if constexpr (Record) {
    size_t N = Result.Executed.size();
    uint64_t Room = std::min<uint64_t>(Bound > Cyc ? Bound - Cyc : 0, 4096);
    Result.Executed.resize(N + Room);
    ExPos = Result.Executed.data() + N;
    ExEnd = Result.Executed.data() + Result.Executed.size();
  }
  // The op being executed and its two source registers.
  const DecodedOp *I = nullptr;
  uint64_t A = 0, B = 0;

  // Writes mask to the width and re-zero x0 (cheaper than testing Rd).
  auto Set = [&](uint64_t V) {
    R[I->Rd] = V & Mask;
    R[RegZero] = 0;
  };
  // Memory helpers: little-endian, Bytes known at each call site. An
  // access is aligned, so it never straddles a dirty-map line.
  auto Load = [&](uint64_t Addr, unsigned Bytes) {
    uint64_t V = 0;
    for (unsigned K = 0; K < Bytes; ++K)
      V |= uint64_t(Mem[Addr + K]) << (8 * K);
    return V;
  };
  auto Store = [&](uint64_t Addr, uint64_t V, unsigned Bytes) {
    for (unsigned K = 0; K < Bytes; ++K)
      Mem[Addr + K] = static_cast<uint8_t>(V >> (8 * K));
    Dirty[Addr >> (LineShift + 6)] |= uint64_t(1) << ((Addr >> LineShift) & 63);
    V &= lowBitMask(8 * Bytes);
    H = TraceHasher::absorbInto(H, 0x5700 + Addr);
    H = TraceHasher::absorbInto(H, V);
    if constexpr (Record)
      Result.Events.push_back({TraceEvent::Kind::Store, Addr, V,
                               static_cast<uint8_t>(Bytes)});
  };

  // The address of the memory op being executed (set by ADDRESS).
  uint64_t Addr = 0;

  // The handlers, indexed by Opcode; decode() turns every LUI into an LI.
  static void *const Handlers[] = {
      &&Op_LI,
      &&Op_LI,
      &&Op_MV,
      &&Op_ADD,
      &&Op_SUB,
      &&Op_AND,
      &&Op_OR,
      &&Op_XOR,
      &&Op_SLL,
      &&Op_SRL,
      &&Op_SRA,
      &&Op_SLT,
      &&Op_SLTU,
      &&Op_ADDI,
      &&Op_ANDI,
      &&Op_ORI,
      &&Op_XORI,
      &&Op_SLLI,
      &&Op_SRLI,
      &&Op_SRAI,
      &&Op_SLTI,
      &&Op_SLTIU,
      &&Op_MUL,
      &&Op_MULHU,
      &&Op_DIV,
      &&Op_DIVU,
      &&Op_REM,
      &&Op_REMU,
      &&Op_BEQ,
      &&Op_BNE,
      &&Op_BLT,
      &&Op_BGE,
      &&Op_BLTU,
      &&Op_BGEU,
      &&Op_J,
      &&Op_LW,
      &&Op_LH,
      &&Op_LHU,
      &&Op_LB,
      &&Op_LBU,
      &&Op_SW,
      &&Op_SH,
      &&Op_SB,
      &&Op_OUT,
      &&Op_RET,
      &&Op_HALT,
      &&Op_NOP,
  };
  static_assert(std::size(Handlers) == NumOpcodes,
                "one handler per opcode, in Opcode order");

  DISPATCH();

Op_LI:
  Set(I->Imm);
  NEXT();
Op_MV:
  Set(A);
  NEXT();
Op_ADD:
  Set(A + B);
  NEXT();
Op_SUB:
  Set(A - B);
  NEXT();
Op_AND:
  Set(A & B);
  NEXT();
Op_OR:
  Set(A | B);
  NEXT();
Op_XOR:
  Set(A ^ B);
  NEXT();
Op_SLL:
  Set(A << ShiftAmount(B));
  NEXT();
Op_SRL:
  Set(A >> ShiftAmount(B));
  NEXT();
Op_SRA:
  Set(static_cast<uint64_t>(Signed(A) >> ShiftAmount(B)));
  NEXT();
Op_SLT:
  Set(Signed(A) < Signed(B));
  NEXT();
Op_SLTU:
  Set(A < B);
  NEXT();
Op_ADDI:
  Set(A + I->Imm);
  NEXT();
Op_ANDI:
  Set(A & I->Imm);
  NEXT();
Op_ORI:
  Set(A | I->Imm);
  NEXT();
Op_XORI:
  Set(A ^ I->Imm);
  NEXT();
Op_SLLI:
  Set(A << I->Imm);
  NEXT();
Op_SRLI:
  Set(A >> I->Imm);
  NEXT();
Op_SRAI:
  Set(static_cast<uint64_t>(Signed(A) >> I->Imm));
  NEXT();
Op_SLTI:
  Set(Signed(A) < static_cast<int64_t>(I->Imm));
  NEXT();
Op_SLTIU:
  Set(A < I->Imm);
  NEXT();
Op_MUL:
  Set(A * B);
  NEXT();
Op_MULHU:
  Set(W <= 32 ? (A * B) >> W
              : static_cast<uint64_t>((static_cast<__uint128_t>(A) * B) >> W));
  NEXT();
Op_DIV:
  // RISC-V: x / 0 is all ones; min / -1 overflows to min.
  if (B == 0)
    Set(Mask);
  else if (A == SignBit && B == Mask)
    Set(SignBit);
  else
    Set(static_cast<uint64_t>(Signed(A) / Signed(B)));
  NEXT();
Op_DIVU:
  Set(B == 0 ? Mask : A / B);
  NEXT();
Op_REM:
  // RISC-V: x % 0 is x; min % -1 is 0.
  if (B == 0)
    Set(A);
  else if (A == SignBit && B == Mask)
    Set(0);
  else
    Set(static_cast<uint64_t>(Signed(A) % Signed(B)));
  NEXT();
Op_REMU:
  Set(B == 0 ? A : A % B);
  NEXT();
Op_BEQ:
  BRANCH(A == B);
Op_BNE:
  BRANCH(A != B);
Op_BLT:
  BRANCH(Signed(A) < Signed(B));
Op_BGE:
  BRANCH(Signed(A) >= Signed(B));
Op_BLTU:
  BRANCH(A < B);
Op_BGEU:
  BRANCH(A >= B);
Op_J:
  BRANCH(true);
Op_LW:
  ADDRESS(4);
  Set(Load(Addr, 4));
  NEXT();
Op_LH:
  ADDRESS(2);
  Set(static_cast<uint64_t>(signExtend(Load(Addr, 2), 16)));
  NEXT();
Op_LHU:
  ADDRESS(2);
  Set(Load(Addr, 2));
  NEXT();
Op_LB:
  ADDRESS(1);
  Set(static_cast<uint64_t>(signExtend(Load(Addr, 1), 8)));
  NEXT();
Op_LBU:
  ADDRESS(1);
  Set(Load(Addr, 1));
  NEXT();
Op_SW:
  ADDRESS(4);
  Store(Addr, B, 4);
  NEXT();
Op_SH:
  ADDRESS(2);
  Store(Addr, B, 2);
  NEXT();
Op_SB:
  ADDRESS(1);
  Store(Addr, B, 1);
  NEXT();
Op_OUT:
  H = TraceHasher::absorbInto(H, 0xBEC0u + A);
  ObsHash.absorb(A);
  if constexpr (Record)
    Result.Events.push_back({TraceEvent::Kind::Out, 0, A, 0});
  NEXT();
Op_NOP:
  NEXT();
Op_RET:
  Result.ReturnValue = R[RegA0];
  Result.HasReturnValue = true;
  ++Cyc;
  goto Ended;
Op_HALT:
  ++Cyc;
  goto Ended;

Bounded:
  // The bound stopped the run. It hangs only if the caller asked for
  // cycles past the budget.
  if constexpr (Record)
    Result.Executed.resize(ExPos - Result.Executed.data());
  PC = Pc;
  CycleCount = Cyc;
  FullHash.restore(H);
  if (Cycle > Cyc && Cyc >= Opts.MaxCycles)
    finish(Outcome::Hang);
  return;

Trapped:
  End = Outcome::Trap;
Ended:
  if constexpr (Record)
    Result.Executed.resize(ExPos - Result.Executed.data());
  PC = Pc;
  CycleCount = Cyc;
  FullHash.restore(H);
  finish(End);
}

#undef ADDRESS
#undef BRANCH
#undef NEXT
#undef DISPATCH

Trace bec::simulate(const Program &Prog, RunOptions Opts) {
  Interpreter Interp(Prog, Opts);
  Interp.run();
  return Interp.takeTrace();
}

Trace bec::simulateWithInjection(const Program &Prog, const Injection &Inj,
                                 RunOptions Opts) {
  Interpreter Interp(Prog, Opts);
  Interp.runToCycle(Inj.AfterCycle);
  Interp.machine().flipRegBit(Inj.R, Inj.Bit);
  Interp.run();
  return Interp.takeTrace();
}
