//===- tests/KnownBitsTest.cpp - Abstract domain unit + property tests ----===//
///
/// \file
/// Unit tests for the four-valued bit lattice (Fig. 3) and property-based
/// soundness tests for every abstract transfer function: for random
/// abstract operands and every concretization pair, the concrete result
/// must be contained in the abstract result.
///
//===----------------------------------------------------------------------===//

#include "analysis/KnownBits.h"
#include "support/Xoshiro.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

using namespace bec;

namespace {

TEST(BitValueLattice, MeetMatchesFig3b) {
  using BV = BitValue;
  // Bottom is the identity.
  EXPECT_EQ(meetBits(BV::Bottom, BV::Zero), BV::Zero);
  EXPECT_EQ(meetBits(BV::One, BV::Bottom), BV::One);
  EXPECT_EQ(meetBits(BV::Bottom, BV::Bottom), BV::Bottom);
  // Conflicting known values rise to Top.
  EXPECT_EQ(meetBits(BV::Zero, BV::One), BV::Top);
  EXPECT_EQ(meetBits(BV::One, BV::Zero), BV::Top);
  // Idempotent on equal values.
  EXPECT_EQ(meetBits(BV::Zero, BV::Zero), BV::Zero);
  EXPECT_EQ(meetBits(BV::One, BV::One), BV::One);
  // Top absorbs.
  EXPECT_EQ(meetBits(BV::Top, BV::Zero), BV::Top);
  EXPECT_EQ(meetBits(BV::Bottom, BV::Top), BV::Top);
}

TEST(BitValueLattice, MeetIsCommutativeAndAssociative) {
  const BitValue All[4] = {BitValue::Bottom, BitValue::Zero, BitValue::One,
                           BitValue::Top};
  for (BitValue A : All)
    for (BitValue B : All) {
      EXPECT_EQ(meetBits(A, B), meetBits(B, A));
      for (BitValue C : All)
        EXPECT_EQ(meetBits(meetBits(A, B), C), meetBits(A, meetBits(B, C)));
    }
}

TEST(BitValueLattice, Fig3cAndTable) {
  using BV = BitValue;
  EXPECT_EQ(fig3And(BV::Zero, BV::Top), BV::Zero);
  EXPECT_EQ(fig3And(BV::Top, BV::Zero), BV::Zero);
  EXPECT_EQ(fig3And(BV::One, BV::One), BV::One);
  EXPECT_EQ(fig3And(BV::One, BV::Top), BV::Top);
  EXPECT_EQ(fig3And(BV::Bottom, BV::Top), BV::Top);
  EXPECT_EQ(fig3And(BV::Bottom, BV::Zero), BV::Bottom);
}

TEST(KnownBits, ConstantsRoundTrip) {
  for (unsigned W : {2u, 4u, 7u, 32u, 64u}) {
    KnownBits K = KnownBits::constant(0x5a5a5a5a5a5a5a5aull, W);
    EXPECT_TRUE(K.isConstant());
    EXPECT_EQ(K.constValue(), truncate(0x5a5a5a5a5a5a5a5aull, W));
    EXPECT_TRUE(K.contains(K.constValue()));
    EXPECT_FALSE(K.contains(K.constValue() ^ 1));
  }
}

TEST(KnownBits, MeetLosesNoSoundness) {
  KnownBits A = KnownBits::constant(0b1010, 4);
  KnownBits B = KnownBits::constant(0b1100, 4);
  KnownBits M = KnownBits::meet(A, B);
  EXPECT_TRUE(M.contains(0b1010));
  EXPECT_TRUE(M.contains(0b1100));
  // Agreeing bits stay known: bit3 = 1, bit0 = 0.
  EXPECT_EQ(M.bit(3), BitValue::One);
  EXPECT_EQ(M.bit(0), BitValue::Zero);
  EXPECT_EQ(M.bit(1), BitValue::Top);
  EXPECT_EQ(M.bit(2), BitValue::Top);
}

TEST(KnownBits, MeetWithBottomIsIdentity) {
  KnownBits A = KnownBits::constant(0b0110, 4);
  KnownBits B = KnownBits::bottom(4);
  EXPECT_EQ(KnownBits::meet(A, B), A);
  EXPECT_EQ(KnownBits::meet(B, A), A);
}

TEST(KnownBits, RangeQueries) {
  KnownBits K = KnownBits::top(4);
  K.setBit(3, BitValue::One); // 1xxx: [8, 15] unsigned, [-8, -1] signed
  EXPECT_EQ(K.umin(), 8u);
  EXPECT_EQ(K.umax(), 15u);
  EXPECT_EQ(K.smin(), -8);
  EXPECT_EQ(K.smax(), -1);
}

TEST(KnownBits, ToStringMatchesPaperNotation) {
  KnownBits K = KnownBits::constant(0, 4);
  K.setBit(0, BitValue::Top);
  EXPECT_EQ(K.toString(), "0 0 0 x"); // the paper's 000x boxes
}

// --- Property-based soundness: abstract ops contain concrete results ----

/// Draws a random abstract value of width \p W together with one of its
/// concretizations.
static std::pair<KnownBits, uint64_t> randomAbstract(Xoshiro256 &Rng,
                                                     unsigned W) {
  KnownBits K = KnownBits::top(W);
  uint64_t Concrete = 0;
  for (unsigned B = 0; B < W; ++B) {
    switch (Rng.below(3)) {
    case 0:
      K.setBit(B, BitValue::Zero);
      break;
    case 1:
      K.setBit(B, BitValue::One);
      Concrete |= uint64_t(1) << B;
      break;
    default: // Top: concrete bit chosen freely.
      if (Rng.chance(1, 2))
        Concrete |= uint64_t(1) << B;
      break;
    }
  }
  return {K, Concrete};
}

struct BinOpCase {
  const char *Name;
  std::function<KnownBits(const KnownBits &, const KnownBits &)> Abstract;
  std::function<uint64_t(uint64_t, uint64_t, unsigned)> Concrete;
};

class BinOpSoundness : public ::testing::TestWithParam<size_t> {
public:
  static const std::vector<BinOpCase> &cases() {
    static const std::vector<BinOpCase> Cases = {
        {"and", &KnownBits::and_,
         [](uint64_t A, uint64_t B, unsigned W) { return truncate(A & B, W); }},
        {"or", &KnownBits::or_,
         [](uint64_t A, uint64_t B, unsigned W) { return truncate(A | B, W); }},
        {"xor", &KnownBits::xor_,
         [](uint64_t A, uint64_t B, unsigned W) { return truncate(A ^ B, W); }},
        {"add", &KnownBits::add,
         [](uint64_t A, uint64_t B, unsigned W) { return truncate(A + B, W); }},
        {"sub", &KnownBits::sub,
         [](uint64_t A, uint64_t B, unsigned W) { return truncate(A - B, W); }},
        {"mul", &KnownBits::mul,
         [](uint64_t A, uint64_t B, unsigned W) { return truncate(A * B, W); }},
        {"shl", &KnownBits::shl,
         [](uint64_t A, uint64_t B, unsigned W) {
           unsigned Amt = (W & (W - 1)) == 0 ? B & (W - 1) : B % W;
           return truncate(A << Amt, W);
         }},
        {"lshr", &KnownBits::lshr,
         [](uint64_t A, uint64_t B, unsigned W) {
           unsigned Amt = (W & (W - 1)) == 0 ? B & (W - 1) : B % W;
           return truncate(truncate(A, W) >> Amt, W);
         }},
        {"ashr", &KnownBits::ashr,
         [](uint64_t A, uint64_t B, unsigned W) {
           unsigned Amt = (W & (W - 1)) == 0 ? B & (W - 1) : B % W;
           return truncate(static_cast<uint64_t>(signExtend(A, W) >>
                                                 static_cast<int64_t>(Amt)),
                           W);
         }},
        {"divu", &KnownBits::divu,
         [](uint64_t A, uint64_t B, unsigned W) {
           return B == 0 ? allOnesValue(W) : truncate(A, W) / truncate(B, W);
         }},
        {"remu", &KnownBits::remu,
         [](uint64_t A, uint64_t B, unsigned W) {
           return B == 0 ? truncate(A, W) : truncate(A, W) % truncate(B, W);
         }},
    };
    return Cases;
  }
};

TEST_P(BinOpSoundness, AbstractContainsConcrete) {
  const BinOpCase &Case = cases()[GetParam()];
  Xoshiro256 Rng(0xbec5eed + GetParam());
  for (unsigned W : {4u, 8u, 32u}) {
    for (int Trial = 0; Trial < 4000; ++Trial) {
      auto [KA, A] = randomAbstract(Rng, W);
      auto [KB, B] = randomAbstract(Rng, W);
      KnownBits KR = Case.Abstract(KA, KB);
      uint64_t R = Case.Concrete(A, B, W);
      ASSERT_TRUE(KR.contains(R))
          << Case.Name << " width " << W << ": abstract "
          << KA.toString() << " op " << KB.toString() << " = "
          << KR.toString() << " does not contain concrete " << R;
    }
  }
}

static std::string binOpName(const ::testing::TestParamInfo<size_t> &Info) {
  return BinOpSoundness::cases()[Info.param].Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, BinOpSoundness,
    ::testing::Range<size_t>(0, BinOpSoundness::cases().size()), binOpName);

/// Bit-serial reference for KnownBits::add: ripples the set of possible
/// carries through the bits, enumerating every operand/carry combination.
static KnownBits rippleAdd(const KnownBits &A, const KnownBits &B) {
  unsigned W = A.width();
  KnownBits R = KnownBits::top(W);
  bool CarryCan0 = true, CarryCan1 = false;
  for (unsigned I = 0; I < W; ++I) {
    // Bottom operand bits behave like Top (the operators normalize).
    bool ACan0 = A.bit(I) != BitValue::One, ACan1 = A.bit(I) != BitValue::Zero;
    bool BCan0 = B.bit(I) != BitValue::One, BCan1 = B.bit(I) != BitValue::Zero;
    bool SumCan[2] = {false, false}, NextCan[2] = {false, false};
    for (int AV = 0; AV <= 1; ++AV)
      for (int BV = 0; BV <= 1; ++BV)
        for (int CV = 0; CV <= 1; ++CV) {
          if (!(AV ? ACan1 : ACan0) || !(BV ? BCan1 : BCan0) ||
              !(CV ? CarryCan1 : CarryCan0))
            continue;
          int Sum = AV + BV + CV;
          SumCan[Sum & 1] = true;
          NextCan[Sum >= 2] = true;
        }
    if (SumCan[0] != SumCan[1])
      R.setBit(I, SumCan[1] ? BitValue::One : BitValue::Zero);
    CarryCan0 = NextCan[0];
    CarryCan1 = NextCan[1];
  }
  return R;
}

/// Decodes \p Code as one base-4 digit (a BitValue) per bit.
static KnownBits fromBase4(unsigned Code, unsigned W) {
  KnownBits K = KnownBits::bottom(W);
  for (unsigned B = 0; B < W; ++B, Code /= 4)
    K.setBit(B, static_cast<BitValue>(Code % 4));
  return K;
}

TEST(KnownBitsAdd, MatchesRippleReference) {
  // Exhaustive over every pair of 4-bit lattice values, Bottom included.
  for (unsigned CA = 0; CA < 256; ++CA)
    for (unsigned CB = 0; CB < 256; ++CB) {
      KnownBits A = fromBase4(CA, 4), B = fromBase4(CB, 4);
      ASSERT_EQ(KnownBits::add(A, B), rippleAdd(A, B))
          << A.toString() << " + " << B.toString();
    }
  Xoshiro256 Rng(0xadd);
  for (unsigned W : {8u, 32u, 64u})
    for (int Trial = 0; Trial < 20000; ++Trial) {
      KnownBits A = randomAbstract(Rng, W).first;
      KnownBits B = randomAbstract(Rng, W).first;
      ASSERT_EQ(KnownBits::add(A, B), rippleAdd(A, B))
          << A.toString() << " + " << B.toString();
    }
}

TEST(KnownBitsComparisons, SoundOnRandomValues) {
  Xoshiro256 Rng(77);
  for (unsigned W : {4u, 32u}) {
    for (int Trial = 0; Trial < 5000; ++Trial) {
      auto [KA, A] = randomAbstract(Rng, W);
      auto [KB, B] = randomAbstract(Rng, W);
      BitValue Eq = KnownBits::cmpEq(KA, KB);
      if (Eq != BitValue::Top)
        EXPECT_EQ(Eq == BitValue::One, A == B);
      BitValue Ult = KnownBits::cmpUlt(KA, KB);
      if (Ult != BitValue::Top)
        EXPECT_EQ(Ult == BitValue::One, A < B);
      BitValue Slt = KnownBits::cmpSlt(KA, KB);
      if (Slt != BitValue::Top)
        EXPECT_EQ(Slt == BitValue::One, signExtend(A, W) < signExtend(B, W));
    }
  }
}

TEST(KnownBitsComparisons, ExactOnConstants) {
  for (unsigned A = 0; A < 16; ++A)
    for (unsigned B = 0; B < 16; ++B) {
      KnownBits KA = KnownBits::constant(A, 4);
      KnownBits KB = KnownBits::constant(B, 4);
      EXPECT_EQ(KnownBits::cmpEq(KA, KB),
                A == B ? BitValue::One : BitValue::Zero);
      EXPECT_EQ(KnownBits::cmpUlt(KA, KB),
                A < B ? BitValue::One : BitValue::Zero);
      EXPECT_EQ(KnownBits::cmpSlt(KA, KB),
                signExtend(A, 4) < signExtend(B, 4) ? BitValue::One
                                                    : BitValue::Zero);
    }
}

TEST(KnownBitsShifts, ConstantShiftsAreExact) {
  for (unsigned V = 0; V < 16; ++V)
    for (unsigned Amt = 0; Amt < 4; ++Amt) {
      KnownBits K = KnownBits::constant(V, 4);
      EXPECT_EQ(KnownBits::shlConst(K, Amt).constValue(),
                truncate(V << Amt, 4));
      EXPECT_EQ(KnownBits::lshrConst(K, Amt).constValue(), V >> Amt);
      EXPECT_EQ(
          KnownBits::ashrConst(K, Amt).constValue(),
          truncate(static_cast<uint64_t>(signExtend(V, 4) >>
                                         static_cast<int64_t>(Amt)),
                   4));
    }
}

TEST(KnownBitsDivision, RiscvDivideByZeroSemantics) {
  KnownBits A = KnownBits::constant(37, 8);
  KnownBits Zero = KnownBits::constant(0, 8);
  EXPECT_EQ(KnownBits::divu(A, Zero).constValue(), 255u); // all ones
  EXPECT_EQ(KnownBits::remu(A, Zero).constValue(), 37u);  // dividend
  EXPECT_EQ(KnownBits::div(A, Zero).constValue(), 255u);
  EXPECT_EQ(KnownBits::rem(A, Zero).constValue(), 37u);
  // Signed overflow: INT_MIN / -1.
  KnownBits Min = KnownBits::constant(0x80, 8);
  KnownBits MinusOne = KnownBits::constant(0xff, 8);
  EXPECT_EQ(KnownBits::div(Min, MinusOne).constValue(), 0x80u);
  EXPECT_EQ(KnownBits::rem(Min, MinusOne).constValue(), 0u);
}

} // namespace
