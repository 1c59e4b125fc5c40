//===- analysis/UseDef.cpp - use(p,v) next-reader sets ---------------------===//

#include "analysis/UseDef.h"

#include <algorithm>
#include <array>
#include <bit>

using namespace bec;

namespace {

/// What one instruction contributes to the backward problem: the read ids
/// it generates and the register whose id range it kills.
struct Transfer {
  std::array<uint32_t, 2> Gen{};
  uint8_t NumGen = 0;
  Reg Kill = NumRegs; ///< NumRegs: writes no register.
};

/// A bitset over read ids, one word per 64 ids.
class ReadSet {
public:
  explicit ReadSet(size_t Words) : Bits(Words, 0) {}

  void clear() { std::fill(Bits.begin(), Bits.end(), 0); }
  void orWith(const uint64_t *Src) {
    for (size_t W = 0; W < Bits.size(); ++W)
      Bits[W] |= Src[W];
  }
  /// In = gen + (Out - kill), in place.
  void apply(const Transfer &T,
             const std::array<uint32_t, NumRegs + 1> &First) {
    if (T.Kill != NumRegs)
      clearRange(First[T.Kill], First[T.Kill + 1]);
    for (unsigned I = 0; I < T.NumGen; ++I)
      Bits[T.Gen[I] / 64] |= uint64_t(1) << (T.Gen[I] % 64);
  }
  /// Calls \p F on every set id in [Lo, Hi), ascending.
  template <typename Fn> void forEach(uint32_t Lo, uint32_t Hi, Fn F) const {
    for (uint32_t W = Lo / 64; W * 64 < Hi; ++W) {
      uint64_t Word = Bits[W] & rangeMask(W, Lo, Hi);
      while (Word) {
        F(W * 64 + static_cast<uint32_t>(std::countr_zero(Word)));
        Word &= Word - 1;
      }
    }
  }

  const uint64_t *data() const { return Bits.data(); }

private:
  /// The bits of word \p W that fall in [Lo, Hi).
  static uint64_t rangeMask(uint32_t W, uint32_t Lo, uint32_t Hi) {
    uint64_t M = ~uint64_t(0);
    if (Lo > W * 64)
      M &= ~uint64_t(0) << (Lo - W * 64);
    if (Hi < W * 64 + 64)
      M &= ~(~uint64_t(0) << (Hi - W * 64));
    return M;
  }
  void clearRange(uint32_t Lo, uint32_t Hi) {
    for (uint32_t W = Lo / 64; W * 64 < Hi; ++W)
      Bits[W] &= ~rangeMask(W, Lo, Hi);
  }

  std::vector<uint64_t> Bits;
};

} // namespace

UseDef UseDef::run(const Program &Prog) {
  uint32_t N = Prog.size();
  UseDef Result;
  Result.Slices.resize(N);

  // Global read ids, register-major and then by instruction: register V's
  // readers hold ids [First[V], First[V + 1]) in ascending instruction
  // order, so a write to V kills one contiguous range and use(p, V) reads
  // back sorted.
  std::array<uint32_t, NumRegs + 1> First{};
  std::vector<Transfer> Transfers(N);
  for (uint32_t P = 0; P < N; ++P) {
    const Instruction &I = Prog.instr(P);
    Reg Reads[2];
    Transfer &T = Transfers[P];
    T.NumGen = static_cast<uint8_t>(I.readRegs(Reads));
    for (unsigned K = 0; K < T.NumGen; ++K) {
      T.Gen[K] = Reads[K]; // The register for now; the id below.
      ++First[Reads[K] + 1];
    }
    if (I.writesReg())
      T.Kill = I.Rd;
  }
  for (Reg V = 0; V < NumRegs; ++V)
    First[V + 1] += First[V];
  std::vector<uint32_t> Reader(First[NumRegs]); // id -> instruction
  std::array<uint32_t, NumRegs> Next;
  std::copy(First.begin(), First.begin() + NumRegs, Next.begin());
  for (uint32_t P = 0; P < N; ++P) {
    Transfer &T = Transfers[P];
    for (unsigned K = 0; K < T.NumGen; ++K) {
      uint32_t Id = Next[T.Gen[K]]++;
      Reader[Id] = P;
      T.Gen[K] = Id;
    }
  }
  if (Reader.empty())
    return Result;

  // One backward solve for every register, holding the read set only at
  // block entries; a block's exit set is the union of its successors'.
  const std::vector<BasicBlock> &Blocks = Prog.blocks();
  size_t Words = (Reader.size() + 63) / 64;
  std::vector<uint64_t> EntryIn(Blocks.size() * Words, 0);
  ReadSet Cur(Words);
  auto ExitOf = [&](uint32_t B) {
    Cur.clear();
    for (uint32_t S : Prog.blockSuccs(B))
      Cur.orWith(&EntryIn[S * Words]);
  };
  // The worklist is a bitset over blocks, visited highest first: most
  // edges go forward, so a block usually sees its successors' final sets.
  // A block whose entry set changes queues its predecessors.
  uint32_t NumBlocks = static_cast<uint32_t>(Blocks.size());
  std::vector<uint64_t> Queued((NumBlocks + 63) / 64, ~uint64_t(0));
  Queued.back() = ~uint64_t(0) >> (Queued.size() * 64 - NumBlocks);
  size_t End = Queued.size(); // No queued block in a word at or past End.
  while (true) {
    while (End > 0 && !Queued[End - 1])
      --End;
    if (End == 0)
      break;
    uint32_t B = static_cast<uint32_t>(End * 64 - 1) -
                 static_cast<uint32_t>(std::countl_zero(Queued[End - 1]));
    Queued[B / 64] &= ~(uint64_t(1) << (B % 64));
    ExitOf(B);
    for (uint32_t P = Blocks[B].Last + 1; P-- > Blocks[B].First;)
      Cur.apply(Transfers[P], First);
    uint64_t *In = &EntryIn[B * Words];
    if (std::equal(Cur.data(), Cur.data() + Words, In))
      continue;
    std::copy(Cur.data(), Cur.data() + Words, In);
    for (uint32_t Pred : Prog.preds(Blocks[B].First)) {
      uint32_t PB = Prog.blockOf(Pred);
      Queued[PB / 64] |= uint64_t(1) << (PB % 64);
      End = std::max<size_t>(End, PB / 64 + 1);
    }
  }

  // use(p, v) is the part of the read set after p that lies in v's range,
  // kept for every register p reads or writes.
  Result.Storage.reserve(Reader.size());
  for (uint32_t B = 0; B < Blocks.size(); ++B) {
    ExitOf(B);
    for (uint32_t P = Blocks[B].Last + 1; P-- > Blocks[B].First;) {
      const Instruction &I = Prog.instr(P);
      Reg Accessed[3];
      unsigned NumAccessed = I.readRegs(Accessed);
      if (I.writesReg() && std::find(Accessed, Accessed + NumAccessed,
                                     I.Rd) == Accessed + NumAccessed)
        Accessed[NumAccessed++] = I.Rd;
      for (unsigned K = 0; K < NumAccessed; ++K) {
        Reg V = Accessed[K];
        Slice &S = Result.Slices[P][K];
        S.R = V;
        S.Offset = static_cast<uint32_t>(Result.Storage.size());
        Cur.forEach(First[V], First[V + 1], [&](uint32_t Id) {
          Result.Storage.push_back(Reader[Id]);
        });
        S.Count = static_cast<uint32_t>(Result.Storage.size()) - S.Offset;
      }
      Cur.apply(Transfers[P], First);
    }
  }
  return Result;
}
