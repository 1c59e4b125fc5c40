//===- fuzz/Generator.cpp - Seeded assembly program generator -------------===//
//
// Emits assembly *text*, then assembles it with the production AsmParser:
// the generator can only ever hand the oracles a program that the real
// parser and verifier accepted, and the text itself is the artifact that
// gets minimized and banked into tests/corpus/.
//
// Safety by construction (no generated program can hang or trap in its
// golden run):
//   - every loop is a bounded down-counter on s1 with a unique label;
//   - all other branches are forward skips;
//   - memory accesses go through t5 = &buf with offsets aligned to the
//     access size and inside the buffer;
//   - immediates are drawn inside the verifier's width-dependent range.
// Injected runs may of course still trap or hang — that is the point.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Generator.h"

#include "ir/AsmParser.h"
#include "support/Debug.h"
#include "support/StringUtils.h"
#include "support/Xoshiro.h"

using namespace bec;
using namespace bec::fuzz;

const char *bec::fuzz::idiomName(Idiom I) {
  switch (I) {
  case Idiom::AluChain:
    return "alu-chain";
  case Idiom::BitTwiddle:
    return "bit-twiddle";
  case Idiom::LoopReduction:
    return "loop-reduction";
  case Idiom::MemoryMix:
    return "memory-mix";
  case Idiom::SkipBranch:
    return "skip-branch";
  case Idiom::CompareChain:
    return "compare-chain";
  }
  bec_unreachable("invalid idiom");
}

uint64_t bec::fuzz::programSeed(uint64_t CorpusSeed, uint64_t Index) {
  // splitmix64 over a Weyl sequence keyed by the corpus seed: adjacent
  // indices land far apart, and the mapping is independent of execution
  // order (shards and threads derive the same per-program seed).
  uint64_t Z = CorpusSeed + 0x9e3779b97f4a7c15ull * (Index + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

namespace {

/// General-purpose register pool the idioms draw from. Excluded on
/// purpose: s1 (loop down-counter), t5 (memory base), a0 (result).
constexpr const char *Pool[] = {"t0", "t1", "t2", "t3",
                                "t4", "t6", "s2", "s3"};
constexpr unsigned PoolSize = sizeof(Pool) / sizeof(Pool[0]);

/// Number of 32-bit words in the .data buffer of memory-using programs.
constexpr unsigned BufWords = 8;

class Emitter {
public:
  Emitter(uint64_t Seed, const GeneratorOptions &O) : R(Seed), O(O) {}

  GeneratedProgram run(uint64_t Seed) {
    GeneratedProgram G;
    G.Seed = Seed;
    G.Name = "fuzz-" + hex64(Seed);

    W = O.Widths.empty() ? 32 : O.Widths[R.below(O.Widths.size())];
    UseMemory = O.AllowMemory && W == 32 && R.chance(2, 3);

    Asm += "# fuzz seed 0x" + hex64(Seed) + "\n";
    Asm += ".width " + std::to_string(W) + "\n";
    if (UseMemory) {
      Asm += ".data\n";
      Asm += "buf:\n";
      for (unsigned I = 0; I < BufWords; ++I)
        Asm += "  .word " + std::to_string(R.below(1 << 16)) + "\n";
      Asm += ".text\n";
    }
    Asm += "main:\n";

    // Seed the register pool so every idiom has live inputs.
    for (unsigned I = 0; I < PoolSize; ++I)
      line(std::string("li ") + Pool[I] + ", " + std::to_string(smallImm()));
    if (UseMemory)
      line("la t5, buf");

    Idiom Menu[NumIdioms];
    unsigned MenuSize = 0;
    Menu[MenuSize++] = Idiom::AluChain;
    Menu[MenuSize++] = Idiom::BitTwiddle;
    Menu[MenuSize++] = Idiom::LoopReduction;
    Menu[MenuSize++] = Idiom::SkipBranch;
    Menu[MenuSize++] = Idiom::CompareChain;
    if (UseMemory)
      Menu[MenuSize++] = Idiom::MemoryMix;

    unsigned Blocks =
        static_cast<unsigned>(R.range(O.MinBlocks, std::max(O.MinBlocks,
                                                            O.MaxBlocks)));
    for (unsigned B = 0; B < Blocks; ++B) {
      Idiom Pick = Menu[R.below(MenuSize)];
      ++IdiomCount[static_cast<unsigned>(Pick)];
      emitIdiom(Pick);
    }

    // Observable tail: two outputs plus the return value, so SDC vs
    // benign classification has real signal to work with.
    line(std::string("out ") + reg());
    line(std::string("out ") + reg());
    line(std::string("mv a0, ") + reg());
    line("ret");

    AsmParseResult Res = parseAsm(Asm, G.Name);
    G.Asm = std::move(Asm);
    G.IdiomCount = IdiomCount;
    if (!Res.succeeded()) {
      G.Error = Res.diagText();
      return G;
    }
    G.Prog = std::move(*Res.Prog);
    for (const Instruction &I : G.Prog.Instrs)
      ++G.OpcodeCount[static_cast<unsigned>(I.Op)];
    return G;
  }

private:
  const char *reg() { return Pool[R.below(PoolSize)]; }

  /// Non-negative immediate that fits every width >= 2 we generate:
  /// [0, 2^min(W-1, 8) - 1].
  int64_t smallImm() {
    unsigned Bits = std::min(W - 1, 8u);
    return static_cast<int64_t>(R.below(uint64_t(1) << Bits));
  }

  /// Signed immediate for addi-style ops; negatives stay above the
  /// verifier's lower bound -(2^(W-1)).
  int64_t signedImm() {
    int64_t V = smallImm();
    return R.chance(1, 4) ? -V : V;
  }

  void line(const std::string &S) { Asm += "  " + S + "\n"; }

  void op3(const char *Mnemonic) {
    line(std::string(Mnemonic) + " " + reg() + ", " + reg() + ", " + reg());
  }

  void opImm(const char *Mnemonic, int64_t Imm) {
    line(std::string(Mnemonic) + " " + reg() + ", " + reg() + ", " +
         std::to_string(Imm));
  }

  void emitIdiom(Idiom Pick) {
    switch (Pick) {
    case Idiom::AluChain:
      emitAluChain();
      return;
    case Idiom::BitTwiddle:
      emitBitTwiddle();
      return;
    case Idiom::LoopReduction:
      emitLoopReduction();
      return;
    case Idiom::MemoryMix:
      emitMemoryMix();
      return;
    case Idiom::SkipBranch:
      emitSkipBranch();
      return;
    case Idiom::CompareChain:
      emitCompareChain();
      return;
    }
    bec_unreachable("invalid idiom");
  }

  void emitAluChain() {
    static const char *RRR[] = {"add", "sub", "and", "or", "xor"};
    static const char *RRI[] = {"addi", "andi", "ori", "xori"};
    static const char *MulDiv[] = {"mul", "mulhu", "div", "divu", "rem", "remu"};
    unsigned N = static_cast<unsigned>(R.range(3, 6));
    for (unsigned I = 0; I < N; ++I) {
      unsigned Kind = static_cast<unsigned>(R.below(O.AllowMulDiv ? 4 : 3));
      if (Kind == 0)
        op3(RRR[R.below(5)]);
      else if (Kind == 1)
        opImm(RRI[R.below(4)], signedImm());
      else if (Kind == 2 && W == 32 && R.chance(1, 3))
        line(std::string("lui ") + reg() + ", " + std::to_string(R.below(64)));
      else if (Kind == 3)
        op3(MulDiv[R.below(6)]);
      else
        line(std::string("mv ") + reg() + ", " + reg());
    }
  }

  void emitBitTwiddle() {
    static const char *ShImm[] = {"slli", "srli", "srai"};
    static const char *ShReg[] = {"sll", "srl", "sra"};
    static const char *Mix[] = {"xor", "and", "or"};
    unsigned N = static_cast<unsigned>(R.range(3, 6));
    for (unsigned I = 0; I < N; ++I) {
      switch (R.below(5)) {
      case 0:
        opImm(ShImm[R.below(3)], static_cast<int64_t>(R.below(W)));
        break;
      case 1:
        op3(ShReg[R.below(3)]);
        break;
      case 2:
        op3(Mix[R.below(3)]);
        break;
      case 3:
        opImm(R.chance(1, 2) ? "xori" : "andi", smallImm());
        break;
      default:
        line(std::string(R.chance(1, 2) ? "not " : "neg ") + reg() + ", " +
             reg());
        break;
      }
    }
  }

  void emitLoopReduction() {
    unsigned Iters = static_cast<unsigned>(
        R.range(O.MinLoopIters, std::max(O.MinLoopIters, O.MaxLoopIters)));
    std::string Label = "loop" + std::to_string(NextLabel++);
    const char *Acc = reg();
    line("li s1, " + std::to_string(Iters));
    Asm += Label + ":\n";
    unsigned N = static_cast<unsigned>(R.range(2, 4));
    for (unsigned I = 0; I < N; ++I) {
      switch (R.below(4)) {
      case 0:
        line(std::string("add ") + Acc + ", " + Acc + ", " + reg());
        break;
      case 1:
        line(std::string("xor ") + Acc + ", " + Acc + ", " + reg());
        break;
      case 2:
        line(std::string("addi ") + Acc + ", " + Acc + ", " +
             std::to_string(signedImm()));
        break;
      default:
        line(std::string("slli ") + Acc + ", " + Acc + ", 1");
        break;
      }
    }
    line("addi s1, s1, -1");
    line("bnez s1, " + Label);
  }

  void emitMemoryMix() {
    unsigned N = static_cast<unsigned>(R.range(2, 4));
    for (unsigned I = 0; I < N; ++I) {
      unsigned Size = 1u << R.below(3); // 1, 2, or 4 bytes
      uint64_t Offset = Size * R.below(BufWords * 4 / Size);
      std::string Addr = std::to_string(Offset) + "(t5)";
      bool IsStore = R.chance(1, 2);
      const char *Mnemonic;
      if (Size == 4)
        Mnemonic = IsStore ? "sw" : "lw";
      else if (Size == 2)
        Mnemonic = IsStore ? "sh" : (R.chance(1, 2) ? "lh" : "lhu");
      else
        Mnemonic = IsStore ? "sb" : (R.chance(1, 2) ? "lb" : "lbu");
      line(std::string(Mnemonic) + " " + reg() + ", " + Addr);
    }
  }

  void emitSkipBranch() {
    static const char *Zero[] = {"beqz", "bnez", "blez", "bgtz"};
    static const char *Two[] = {"beq", "bne", "blt", "bge", "bltu", "bgeu"};
    std::string Label = "skip" + std::to_string(NextLabel++);
    if (R.chance(1, 2))
      line(std::string(Zero[R.below(4)]) + " " + reg() + ", " + Label);
    else
      line(std::string(Two[R.below(6)]) + " " + reg() + ", " + reg() + ", " +
           Label);
    unsigned N = static_cast<unsigned>(R.range(1, 3));
    for (unsigned I = 0; I < N; ++I)
      if (R.chance(1, 2))
        op3(R.chance(1, 2) ? "add" : "xor");
      else
        opImm("addi", signedImm());
    Asm += Label + ":\n";
  }

  void emitCompareChain() {
    unsigned N = static_cast<unsigned>(R.range(2, 4));
    for (unsigned I = 0; I < N; ++I) {
      switch (R.below(4)) {
      case 0:
        op3(R.chance(1, 2) ? "slt" : "sltu");
        break;
      case 1:
        opImm(R.chance(1, 2) ? "slti" : "sltiu", smallImm());
        break;
      case 2:
        line(std::string(R.chance(1, 2) ? "seqz " : "snez ") + reg() + ", " +
             reg());
        break;
      default:
        op3(R.chance(1, 2) ? "and" : "or");
        break;
      }
    }
  }

  Xoshiro256 R;
  const GeneratorOptions &O;
  unsigned W = 32;
  bool UseMemory = false;
  std::string Asm;
  std::array<uint32_t, NumIdioms> IdiomCount{};
  unsigned NextLabel = 0;
};

} // namespace

GeneratedProgram bec::fuzz::generateProgram(uint64_t Seed,
                                            const GeneratorOptions &Options) {
  return Emitter(Seed, Options).run(Seed);
}
