//===- tests/SuffixMemoTest.cpp - Convergence-splice key and memo ---------===//
//
// The engine splices a faulty run into an already settled continuation
// when their suffixStateKey values agree, and looks the continuation up
// in the flat SuffixMemo table. Both are checked here in isolation:
//
//  * the table keeps every key it was given through any number of
//    rehashes, keeps the first value of a key, and stores the keys an
//    open-addressing table is most likely to get wrong (all-zero, keys
//    sharing a low word);
//  * the key separates exactly what the continuation can depend on: it
//    moves with every live register and either trace cursor, and it
//    ignores registers the live-in mask rules out;
//  * the ring of per-boundary buckets the engine keeps per worker holds
//    one boundary per bucket: a bucket asked for a later boundary forgets
//    its old keys, and one asked for an older boundary than its own
//    neither answers nor learns.
//
//===----------------------------------------------------------------------===//

#include "fi/SuffixMemo.h"

#include <gtest/gtest.h>

#include <array>
#include <random>

using namespace bec;

namespace {

SettledSuffix suffixNo(uint64_t I) {
  return {I * 3 + 1, I * 5 + 2, static_cast<Outcome>(I % 3), I + 16};
}

void expectSame(const std::optional<SettledSuffix> &Got,
                const SettledSuffix &Want) {
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(Got->TraceHash, Want.TraceHash);
  EXPECT_EQ(Got->ObsHash, Want.ObsHash);
  EXPECT_EQ(Got->End, Want.End);
  EXPECT_EQ(Got->Bytes, Want.Bytes);
}

Machine machineWith(const std::array<uint64_t, NumRegs> &Regs) {
  Machine M;
  M.restoreParts(64, Regs, {});
  return M;
}

std::array<uint64_t, NumRegs> someRegs() {
  std::array<uint64_t, NumRegs> R{};
  for (unsigned I = 1; I < NumRegs; ++I)
    R[I] = 0x1000 * I + 7;
  return R;
}

TEST(SuffixMemoTest, EveryKeySurvivesRehashes) {
  SuffixMemo Memo;
  std::mt19937_64 Rng(7);
  std::vector<SuffixKey> Keys(100000);
  for (SuffixKey &K : Keys)
    K = {Rng(), Rng()};
  for (size_t I = 0; I < Keys.size(); ++I)
    Memo.insert(std::span(&Keys[I], 1), suffixNo(I));
  EXPECT_EQ(Memo.size(), Keys.size());
  for (size_t I = 0; I < Keys.size(); ++I)
    expectSame(Memo.find(Keys[I]), suffixNo(I));
  // Keys never inserted stay absent.
  for (int I = 0; I < 1000; ++I)
    EXPECT_FALSE(Memo.find({Rng(), Rng()}).has_value());
}

TEST(SuffixMemoTest, OneSuffixSettlesManyKeys) {
  SuffixMemo Memo;
  std::vector<SuffixKey> Keys;
  for (uint64_t I = 0; I < 5000; ++I)
    Keys.push_back({I * 0x9e3779b97f4a7c15ull, I});
  Memo.insert(Keys, suffixNo(42));
  EXPECT_EQ(Memo.size(), Keys.size());
  for (const SuffixKey &K : Keys)
    expectSame(Memo.find(K), suffixNo(42));
}

TEST(SuffixMemoTest, FirstInsertWins) {
  SuffixMemo Memo;
  SuffixKey A{11, 12}, B{13, 14};
  Memo.insert(std::vector<SuffixKey>{A}, suffixNo(1));
  // A is already settled; only B takes the second suffix.
  Memo.insert(std::vector<SuffixKey>{A, B}, suffixNo(2));
  EXPECT_EQ(Memo.size(), 2u);
  expectSame(Memo.find(A), suffixNo(1));
  expectSame(Memo.find(B), suffixNo(2));
}

TEST(SuffixMemoTest, ZeroKeyAndSharedLowWords) {
  SuffixMemo Memo;
  EXPECT_FALSE(Memo.find({0, 0}).has_value());
  Memo.insert(std::vector<SuffixKey>{{0, 0}}, suffixNo(0));
  // Same low word, so the same home slot: only the high word tells
  // them apart.
  std::vector<SuffixKey> SameLo;
  for (uint64_t Hi = 1; Hi <= 2000; ++Hi)
    SameLo.push_back({0, Hi << 40});
  for (size_t I = 0; I < SameLo.size(); ++I)
    Memo.insert(std::span(&SameLo[I], 1), suffixNo(I + 1));
  EXPECT_EQ(Memo.size(), SameLo.size() + 1);
  expectSame(Memo.find({0, 0}), suffixNo(0));
  for (size_t I = 0; I < SameLo.size(); ++I)
    expectSame(Memo.find(SameLo[I]), suffixNo(I + 1));
  EXPECT_FALSE(Memo.find({0, 1}).has_value());
  EXPECT_FALSE(Memo.find({1, 0}).has_value());
}

TEST(SuffixMemoTest, KeyMovesWithLiveRegistersAndCursors) {
  const uint32_t PC = 3;
  // Live at PC 3: every register but x0 (which is never keyed).
  std::vector<uint32_t> LiveIn(8, 0);
  LiveIn[PC] = ~uint32_t(0);
  std::array<uint64_t, NumRegs> Regs = someRegs();
  SuffixKey Base =
      suffixStateKey(100, PC, 0xabc, 0xdef, machineWith(Regs), &LiveIn);

  for (unsigned R = 1; R < NumRegs; ++R)
    for (unsigned Bit : {0u, 31u, 63u}) {
      std::array<uint64_t, NumRegs> Flipped = Regs;
      Flipped[R] ^= uint64_t(1) << Bit;
      EXPECT_NE(suffixStateKey(100, PC, 0xabc, 0xdef, machineWith(Flipped),
                               &LiveIn),
                Base)
          << "x" << R << " bit " << Bit;
    }
  Machine M = machineWith(Regs);
  for (unsigned Bit = 0; Bit < 64; ++Bit) {
    uint64_t D = uint64_t(1) << Bit;
    EXPECT_NE(suffixStateKey(100, PC, 0xabc ^ D, 0xdef, M, &LiveIn), Base);
    EXPECT_NE(suffixStateKey(100, PC, 0xabc, 0xdef ^ D, M, &LiveIn), Base);
    EXPECT_NE(suffixStateKey(100 ^ D, PC, 0xabc, 0xdef, M, &LiveIn), Base);
  }
  EXPECT_NE(suffixStateKey(100, PC + 1, 0xabc, 0xdef, M, &LiveIn), Base);
  // Two high-bit flips must not cancel each other.
  std::array<uint64_t, NumRegs> Two = Regs;
  Two[5] ^= uint64_t(1) << 63;
  Two[9] ^= uint64_t(1) << 63;
  EXPECT_NE(
      suffixStateKey(100, PC, 0xabc, 0xdef, machineWith(Two), &LiveIn),
      Base);
}

TEST(SuffixMemoTest, KeyIgnoresRegistersOutsideLiveIn) {
  const uint32_t PC = 1;
  std::vector<uint32_t> LiveIn(4, ~uint32_t(0));
  LiveIn[PC] = (1u << 5) | (1u << 10);
  std::array<uint64_t, NumRegs> Regs = someRegs();
  SuffixKey Base =
      suffixStateKey(9, PC, 1, 2, machineWith(Regs), &LiveIn);
  for (unsigned R = 0; R < NumRegs; ++R) {
    std::array<uint64_t, NumRegs> Changed = Regs;
    Changed[R] ^= 0xff00ff;
    SuffixKey K = suffixStateKey(9, PC, 1, 2, machineWith(Changed), &LiveIn);
    if (R == 5 || R == 10)
      EXPECT_NE(K, Base) << "x" << R;
    else
      EXPECT_EQ(K, Base) << "x" << R;
  }
  // A PC without a mask keys every register.
  std::array<uint64_t, NumRegs> Changed = Regs;
  Changed[7] ^= 1;
  EXPECT_NE(suffixStateKey(9, 100, 1, 2, machineWith(Changed), &LiveIn),
            suffixStateKey(9, 100, 1, 2, machineWith(Regs), &LiveIn));
  // The mask itself is keyed: the same values under a different live
  // set name a different continuation.
  std::vector<uint32_t> Wider = LiveIn;
  Wider[PC] |= 1u << 11;
  Regs[11] = 0;
  EXPECT_NE(suffixStateKey(9, PC, 1, 2, machineWith(Regs), &Wider),
            suffixStateKey(9, PC, 1, 2, machineWith(Regs), &LiveIn));
}

TEST(SuffixMemoTest, RingHoldsOneBoundaryPerBucket) {
  SuffixMemoRing Ring;
  // A full window of boundaries, each in its own bucket, all live.
  std::vector<BoundaryKey> Window;
  for (size_t Ck = 5; Ck < 5 + MemoWindow; ++Ck)
    Window.push_back({Ck, {Ck * 0x9e3779b97f4a7c15ull, Ck}});
  Ring.insert(Window, suffixNo(1));
  EXPECT_EQ(Ring.size(), MemoWindow);
  EXPECT_EQ(Ring.recorded(), MemoWindow);
  for (const BoundaryKey &K : Window)
    expectSame(Ring.find(K), suffixNo(1));
  // The same key taken at another boundary is another continuation.
  EXPECT_FALSE(Ring.find({6, Window[0].Key}).has_value());
}

TEST(SuffixMemoTest, RetaggedBucketForgetsOldKeys) {
  SuffixMemoRing Ring;
  const size_t Old = 3, Later = Old + 2 * MemoWindow;
  std::vector<BoundaryKey> Keys;
  for (uint64_t I = 0; I < 500; ++I)
    Keys.push_back({Old, {I * 0x9e3779b97f4a7c15ull + 1, I}});
  Ring.insert(Keys, suffixNo(7));
  ASSERT_EQ(Ring.size(), Keys.size());
  uint64_t Bytes = Ring.byteSize();
  // Asking for a later boundary of the same bucket retags it: no old key
  // answers any more, whether asked at the old boundary or the new one.
  EXPECT_FALSE(Ring.find({Later, Keys[0].Key}).has_value());
  EXPECT_EQ(Ring.size(), 0u);
  for (const BoundaryKey &K : Keys) {
    EXPECT_FALSE(Ring.find(K).has_value());
    EXPECT_FALSE(Ring.find({Later, K.Key}).has_value());
  }
  // The allocation is kept for the new boundary's keys.
  EXPECT_EQ(Ring.byteSize(), Bytes);
  Ring.insert(std::vector<BoundaryKey>{{Later, Keys[1].Key}}, suffixNo(8));
  expectSame(Ring.find({Later, Keys[1].Key}), suffixNo(8));
  EXPECT_EQ(Ring.size(), 1u);
  EXPECT_EQ(Ring.recorded(), Keys.size() + 1);
  EXPECT_EQ(Ring.byteSize(), Bytes);
}

TEST(SuffixMemoTest, ProbeOlderThanItsBucketMissesAndInsertsNothing) {
  SuffixMemoRing Ring;
  const size_t Newer = 40, Older = Newer - MemoWindow;
  SuffixKey A{11, 12}, B{13, 14};
  Ring.insert(std::vector<BoundaryKey>{{Newer, A}}, suffixNo(1));
  // Boundary Older maps to the same bucket, which holds Newer: a miss,
  // even for A, and the bucket keeps its keys.
  EXPECT_FALSE(Ring.find({Older, A}).has_value());
  Ring.insert(std::vector<BoundaryKey>{{Older, A}, {Older, B}}, suffixNo(2));
  EXPECT_FALSE(Ring.find({Older, B}).has_value());
  EXPECT_EQ(Ring.size(), 1u);
  EXPECT_EQ(Ring.recorded(), 1u);
  expectSame(Ring.find({Newer, A}), suffixNo(1));
  EXPECT_FALSE(Ring.find({Newer, B}).has_value());
  // A reset forgets every key and accepts any boundary again.
  Ring.reset();
  EXPECT_EQ(Ring.size(), 0u);
  Ring.insert(std::vector<BoundaryKey>{{Older, B}}, suffixNo(3));
  expectSame(Ring.find({Older, B}), suffixNo(3));
}

} // namespace
