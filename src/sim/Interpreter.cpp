//===- sim/Interpreter.cpp - RISC-V functional simulator -------------------===//

#include "sim/Interpreter.h"

#include "support/Debug.h"

#include <algorithm>

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

template <bool Record> void Interpreter::runLoop(uint64_t Cycle) {
  // Nothing to run (the walker is often already at the next injection
  // cycle); this also covers the Hang rule below, which needs Cycle past
  // the current cycle.
  if (Done || Cycle <= CycleCount)
    return;
  const DecodedOp *Code = Ops->data();
  uint64_t *R = M.Regs.data();
  uint8_t *Mem = M.Mem.data();
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

  // Memory helpers: little-endian, Bytes known at each call site.
  auto Load = [&](uint64_t Addr, unsigned Bytes) {
    uint64_t V = 0;
    for (unsigned I = 0; I < Bytes; ++I)
      V |= uint64_t(Mem[Addr + I]) << (8 * I);
    return V;
  };
  auto Store = [&](uint64_t Addr, uint64_t V, unsigned Bytes) {
    for (unsigned I = 0; I < Bytes; ++I)
      Mem[Addr + I] = static_cast<uint8_t>(V >> (8 * I));
    V &= lowBitMask(8 * Bytes);
    H = TraceHasher::absorbInto(H, 0x5700 + Addr);
    H = TraceHasher::absorbInto(H, V);
    if constexpr (Record)
      Result.Events.push_back({TraceEvent::Kind::Store, Addr, V,
                               static_cast<uint8_t>(Bytes)});
  };

  while (Cyc < Bound) {
    const DecodedOp &I = Code[Pc];
    const uint64_t A = R[I.Rs1];
    const uint64_t B = R[I.Rs2];
    const uint64_t Imm = I.Imm;
    uint32_t NextPC = Pc + 1;
    uint64_t Addr;
    if (PCBytes == 1)
      H = TraceHasher::absorbInto(H, Pc, 1);
    else if (PCBytes == 2)
      H = TraceHasher::absorbInto(H, Pc, 2);
    else
      H = TraceHasher::absorbInto(H, Pc, 4);
    if constexpr (Record)
      Result.Executed.push_back(Pc);

    // Writes mask to the width and re-zero x0 (cheaper than testing Rd).
    auto Set = [&](uint64_t V) {
      R[I.Rd] = V & Mask;
      R[RegZero] = 0;
    };

    switch (I.Op) {
    case Opcode::LI:
    case Opcode::LUI: // decode() turns every LUI into an LI
      Set(Imm);
      break;
    case Opcode::MV:
      Set(A);
      break;
    case Opcode::ADD:
      Set(A + B);
      break;
    case Opcode::SUB:
      Set(A - B);
      break;
    case Opcode::AND:
      Set(A & B);
      break;
    case Opcode::OR:
      Set(A | B);
      break;
    case Opcode::XOR:
      Set(A ^ B);
      break;
    case Opcode::SLL:
      Set(A << ShiftAmount(B));
      break;
    case Opcode::SRL:
      Set(A >> ShiftAmount(B));
      break;
    case Opcode::SRA:
      Set(static_cast<uint64_t>(Signed(A) >> ShiftAmount(B)));
      break;
    case Opcode::SLT:
      Set(Signed(A) < Signed(B));
      break;
    case Opcode::SLTU:
      Set(A < B);
      break;
    case Opcode::ADDI:
      Set(A + Imm);
      break;
    case Opcode::ANDI:
      Set(A & Imm);
      break;
    case Opcode::ORI:
      Set(A | Imm);
      break;
    case Opcode::XORI:
      Set(A ^ Imm);
      break;
    case Opcode::SLLI:
      Set(A << Imm);
      break;
    case Opcode::SRLI:
      Set(A >> Imm);
      break;
    case Opcode::SRAI:
      Set(static_cast<uint64_t>(Signed(A) >> Imm));
      break;
    case Opcode::SLTI:
      Set(Signed(A) < static_cast<int64_t>(Imm));
      break;
    case Opcode::SLTIU:
      Set(A < Imm);
      break;
    case Opcode::MUL:
      Set(A * B);
      break;
    case Opcode::MULHU:
      Set(W <= 32 ? (A * B) >> W
                  : static_cast<uint64_t>((static_cast<__uint128_t>(A) * B) >>
                                          W));
      break;
    case Opcode::DIV:
      // RISC-V: x / 0 is all ones; min / -1 overflows to min.
      if (B == 0)
        Set(Mask);
      else if (A == SignBit && B == Mask)
        Set(SignBit);
      else
        Set(static_cast<uint64_t>(Signed(A) / Signed(B)));
      break;
    case Opcode::DIVU:
      Set(B == 0 ? Mask : A / B);
      break;
    case Opcode::REM:
      // RISC-V: x % 0 is x; min % -1 is 0.
      if (B == 0)
        Set(A);
      else if (A == SignBit && B == Mask)
        Set(0);
      else
        Set(static_cast<uint64_t>(Signed(A) % Signed(B)));
      break;
    case Opcode::REMU:
      Set(B == 0 ? A : A % B);
      break;
    case Opcode::BEQ:
      if (A == B)
        NextPC = I.Target;
      break;
    case Opcode::BNE:
      if (A != B)
        NextPC = I.Target;
      break;
    case Opcode::BLT:
      if (Signed(A) < Signed(B))
        NextPC = I.Target;
      break;
    case Opcode::BGE:
      if (Signed(A) >= Signed(B))
        NextPC = I.Target;
      break;
    case Opcode::BLTU:
      if (A < B)
        NextPC = I.Target;
      break;
    case Opcode::BGEU:
      if (A >= B)
        NextPC = I.Target;
      break;
    case Opcode::J:
      NextPC = I.Target;
      break;
    case Opcode::LW:
      Addr = (A + Imm) & Mask;
      if (!InBounds(Addr, 4))
        goto Trapped;
      Set(Load(Addr, 4));
      break;
    case Opcode::LH:
      Addr = (A + Imm) & Mask;
      if (!InBounds(Addr, 2))
        goto Trapped;
      Set(static_cast<uint64_t>(signExtend(Load(Addr, 2), 16)));
      break;
    case Opcode::LHU:
      Addr = (A + Imm) & Mask;
      if (!InBounds(Addr, 2))
        goto Trapped;
      Set(Load(Addr, 2));
      break;
    case Opcode::LB:
      Addr = (A + Imm) & Mask;
      if (!InBounds(Addr, 1))
        goto Trapped;
      Set(static_cast<uint64_t>(signExtend(Load(Addr, 1), 8)));
      break;
    case Opcode::LBU:
      Addr = (A + Imm) & Mask;
      if (!InBounds(Addr, 1))
        goto Trapped;
      Set(Load(Addr, 1));
      break;
    case Opcode::SW:
      Addr = (A + Imm) & Mask;
      if (!InBounds(Addr, 4))
        goto Trapped;
      Store(Addr, B, 4);
      break;
    case Opcode::SH:
      Addr = (A + Imm) & Mask;
      if (!InBounds(Addr, 2))
        goto Trapped;
      Store(Addr, B, 2);
      break;
    case Opcode::SB:
      Addr = (A + Imm) & Mask;
      if (!InBounds(Addr, 1))
        goto Trapped;
      Store(Addr, B, 1);
      break;
    case Opcode::OUT:
      H = TraceHasher::absorbInto(H, 0xBEC0u + A);
      ObsHash.absorb(A);
      if constexpr (Record)
        Result.Events.push_back({TraceEvent::Kind::Out, 0, A, 0});
      break;
    case Opcode::RET:
      Result.ReturnValue = R[RegA0];
      Result.HasReturnValue = true;
      ++Cyc;
      goto Ended;
    case Opcode::HALT:
      ++Cyc;
      goto Ended;
    case Opcode::NOP:
      break;
    }
    Pc = NextPC;
    ++Cyc;
  }

  // The bound stopped the run. It hangs only if the caller asked for
  // cycles past the budget.
  PC = Pc;
  CycleCount = Cyc;
  FullHash.restore(H);
  if (Cycle > Cyc && Cyc >= Opts.MaxCycles)
    finish(Outcome::Hang);
  return;

Trapped:
  End = Outcome::Trap;
Ended:
  PC = Pc;
  CycleCount = Cyc;
  FullHash.restore(H);
  finish(End);
}

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
