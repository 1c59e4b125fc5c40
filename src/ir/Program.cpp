//===- ir/Program.cpp - CFG construction and printing ---------------------===//

#include "ir/Program.h"

#include "support/Debug.h"

#include <algorithm>
#include <cassert>

using namespace bec;

void Program::buildCFG() {
  uint32_t N = size();
  InstrSuccs.clear();
  BlockSuccs.clear();
  BlockOf.assign(N, 0);
  Reachable.assign(N, false);
  BlockList.clear();

  // Instruction-level edges, one row per instruction; the predecessor rows
  // are their transpose.
  auto AddEdge = [&](uint32_t Succ) {
    assert(Succ < N && "branch target out of range");
    InstrSuccs.Edges.push_back(Succ);
  };
  for (uint32_t P = 0; P < N; ++P) {
    const Instruction &I = Instrs[P];
    if (I.Op == Opcode::J) {
      AddEdge(static_cast<uint32_t>(I.Target));
    } else if (isConditionalBranch(I.Op)) {
      // Fallthrough first, then the taken target (deterministic order).
      assert(P + 1 < N && "conditional branch falls off the program");
      AddEdge(P + 1);
      if (static_cast<uint32_t>(I.Target) != P + 1)
        AddEdge(static_cast<uint32_t>(I.Target));
    } else if (!isHalt(I.Op)) {
      assert(P + 1 < N && "non-terminator falls off the program");
      AddEdge(P + 1);
    }
    InstrSuccs.endRow();
  }
  InstrPreds.transposeOf(InstrSuccs);
  if (N == 0)
    return;

  // Reachability from the entry.
  std::vector<uint32_t> Worklist = {Entry};
  Reachable[Entry] = true;
  while (!Worklist.empty()) {
    uint32_t P = Worklist.back();
    Worklist.pop_back();
    for (uint32_t S : succs(P))
      if (!Reachable[S]) {
        Reachable[S] = true;
        Worklist.push_back(S);
      }
  }

  // Leaders: entry, branch targets, and fallthroughs of terminators.
  std::vector<bool> Leader(N, false);
  Leader[0] = true;
  Leader[Entry] = true;
  for (uint32_t P = 0; P < N; ++P) {
    const Instruction &I = Instrs[P];
    if (I.Target != NoTarget)
      Leader[static_cast<uint32_t>(I.Target)] = true;
    if (isTerminator(I.Op) && P + 1 < N)
      Leader[P + 1] = true;
  }

  // Blocks and block edges.
  for (uint32_t P = 0; P < N; ++P) {
    if (Leader[P]) {
      BasicBlock BB;
      BB.First = P;
      BlockList.push_back(BB);
    }
    BlockOf[P] = static_cast<uint32_t>(BlockList.size()) - 1;
    BlockList.back().Last = P;
  }
  for (const BasicBlock &B : BlockList) {
    for (uint32_t S : succs(B.Last))
      BlockSuccs.Edges.push_back(BlockOf[S]);
    BlockSuccs.endRow();
  }
}

void Program::insertInstructions(uint32_t At,
                                 std::span<const Instruction> New) {
  assert(At <= size() && "insertion point out of range");
  if (New.empty())
    return;
  uint32_t N = static_cast<uint32_t>(New.size());
  // Pre-existing control transfers to an index strictly after the
  // insertion point shift; transfers to At itself keep their index and
  // thus run the inserted code before the old instruction.
  for (Instruction &I : Instrs)
    if (I.Target != NoTarget && static_cast<uint32_t>(I.Target) > At)
      I.Target += static_cast<int32_t>(N);
  if (Entry > At)
    Entry += N;
  Instrs.insert(Instrs.begin() + At, New.begin(), New.end());
}

std::string Program::toString() const {
  std::string Out;
  Out += "# program: " + Name + "\n";
  Out += ".width " + std::to_string(Width) + "\n";
  if (MemSize != (uint64_t(1) << 16))
    Out += ".memsize " + std::to_string(MemSize) + "\n";
  if (!Data.empty()) {
    // The data image round-trips as raw bytes; symbolic data labels were
    // already resolved to absolute addresses at parse time.
    Out += ".data\n";
    for (size_t I = 0; I < Data.size(); ++I) {
      Out += I % 16 == 0 ? ".byte " : ",";
      Out += std::to_string(Data[I]);
      if ((I + 1) % 16 == 0 || I + 1 == Data.size())
        Out += "\n";
    }
    Out += ".text\n";
  }
  std::vector<bool> NeedsLabel(size(), false);
  for (const Instruction &I : Instrs)
    if (I.Target != NoTarget)
      NeedsLabel[static_cast<uint32_t>(I.Target)] = true;
  for (uint32_t P = 0; P < size(); ++P) {
    if (NeedsLabel[P])
      Out += ".L" + std::to_string(P) + ":\n";
    // `main:` pins the entry point; the parser defaults Entry to 0, so a
    // non-zero entry would otherwise be lost in the round trip.
    if (P == Entry)
      Out += "main:\n";
    std::string Label;
    if (Instrs[P].Target != NoTarget)
      Label = ".L" + std::to_string(Instrs[P].Target);
    Out += "  " + Instrs[P].toString(Label.empty() ? nullptr : Label.c_str()) +
           "\n";
  }
  return Out;
}
