//===- analysis/KnownBits.cpp - Four-valued per-bit abstract domain -------===//

#include "analysis/KnownBits.h"

#include "support/Debug.h"

#include <algorithm>

using namespace bec;

BitValue bec::meetBits(BitValue A, BitValue B) {
  if (A == BitValue::Bottom)
    return B;
  if (B == BitValue::Bottom)
    return A;
  if (A == B)
    return A;
  return BitValue::Top;
}

BitValue bec::fig3And(BitValue A, BitValue B) {
  // Verbatim transcription of Fig. 3c.
  using BV = BitValue;
  static constexpr BV Table[4][4] = {
      /* A=Bottom */ {BV::Bottom, BV::Bottom, BV::Bottom, BV::Top},
      /* A=Zero   */ {BV::Bottom, BV::Zero, BV::Zero, BV::Zero},
      /* A=One    */ {BV::Bottom, BV::Zero, BV::One, BV::Top},
      /* A=Top    */ {BV::Top, BV::Zero, BV::Top, BV::Top},
  };
  return Table[static_cast<unsigned>(A)][static_cast<unsigned>(B)];
}

void KnownBits::setBit(unsigned I, BitValue V) {
  assert(I < Width && "bit index out of range");
  uint64_t M = uint64_t(1) << I;
  Zero &= ~M;
  One &= ~M;
  Init &= ~M;
  switch (V) {
  case BitValue::Bottom:
    break;
  case BitValue::Zero:
    Zero |= M;
    Init |= M;
    break;
  case BitValue::One:
    One |= M;
    Init |= M;
    break;
  case BitValue::Top:
    Init |= M;
    break;
  }
}

KnownBits KnownBits::meet(const KnownBits &A, const KnownBits &B) {
  assert(A.Width == B.Width && "width mismatch in meet");
  KnownBits R = bottom(A.Width);
  R.Init = A.Init | B.Init;
  // Where both sides are initialized, keep only agreeing known bits; where
  // only one side is initialized, Bottom is the identity (Fig. 3b).
  uint64_t Both = A.Init & B.Init;
  R.Zero = (A.Zero & B.Zero & Both) | (A.Zero & ~B.Init) | (B.Zero & ~A.Init);
  R.One = (A.One & B.One & Both) | (A.One & ~B.Init) | (B.One & ~A.Init);
  return R;
}

int64_t KnownBits::smin() const {
  // Pick the sign bit high if possible, all other unknown bits low.
  uint64_t V = One;
  uint64_t SignBit = uint64_t(1) << (Width - 1);
  if (!(Zero & SignBit))
    V |= SignBit;
  return signExtend(V, Width);
}

int64_t KnownBits::smax() const {
  // Pick the sign bit low if possible, all other unknown bits high.
  uint64_t V = truncate(~Zero, Width);
  uint64_t SignBit = uint64_t(1) << (Width - 1);
  if (!(One & SignBit))
    V &= ~SignBit;
  return signExtend(V, Width);
}

KnownBits KnownBits::and_(const KnownBits &A0, const KnownBits &B0) {
  KnownBits A = A0.normalized(), B = B0.normalized();
  KnownBits R = top(A.Width);
  R.One = A.One & B.One;
  R.Zero = truncate(A.Zero | B.Zero, A.Width);
  return R;
}

KnownBits KnownBits::or_(const KnownBits &A0, const KnownBits &B0) {
  KnownBits A = A0.normalized(), B = B0.normalized();
  KnownBits R = top(A.Width);
  R.One = A.One | B.One;
  R.Zero = A.Zero & B.Zero;
  return R;
}

KnownBits KnownBits::xor_(const KnownBits &A0, const KnownBits &B0) {
  KnownBits A = A0.normalized(), B = B0.normalized();
  KnownBits R = top(A.Width);
  R.One = (A.One & B.Zero) | (A.Zero & B.One);
  R.Zero = (A.Zero & B.Zero) | (A.One & B.One);
  return R;
}

KnownBits KnownBits::not_(const KnownBits &A) {
  return xor_(A, constant(allOnesValue(A.Width), A.Width));
}

KnownBits KnownBits::add(const KnownBits &A0, const KnownBits &B0) {
  KnownBits A = A0.normalized(), B = B0.normalized();
  uint64_t M = lowBitMask(A.Width);
  // The carry into each bit is a monotone function of the lower operand
  // bits, so it can be 1 exactly when it is 1 in the largest possible sum
  // (unknown bits set) and 0 exactly when it is 0 in the smallest (unknown
  // bits clear). A sum bit is known when both operand bits and its carry
  // are; carry correlations across bits are dropped, which is sound.
  uint64_t MinA = A.One, MinB = B.One;
  uint64_t MaxA = ~A.Zero & M, MaxB = ~B.Zero & M;
  uint64_t MinSum = MinA + MinB, MaxSum = MaxA + MaxB;
  uint64_t MinCarry = MinSum ^ MinA ^ MinB;
  uint64_t MaxCarry = MaxSum ^ MaxA ^ MaxB;
  uint64_t Known = (A.Zero | A.One) & (B.Zero | B.One) & ~(MinCarry ^ MaxCarry);
  KnownBits R = top(A.Width);
  R.One = MinSum & Known & M;
  R.Zero = ~MinSum & Known & M;
  return R;
}

KnownBits KnownBits::sub(const KnownBits &A, const KnownBits &B) {
  // a - b == a + ~b + 1; fold the +1 into the carry by adding the
  // constant 1 first (exact since adding a constant keeps precision).
  KnownBits NotB = not_(B);
  KnownBits OnePlus = add(NotB, constant(1, B.Width));
  return add(A, OnePlus);
}

KnownBits KnownBits::shlConst(const KnownBits &A0, unsigned Amount) {
  KnownBits A = A0.normalized();
  assert(Amount < A.Width && "shift amount out of range");
  KnownBits R = top(A.Width);
  uint64_t M = lowBitMask(A.Width);
  R.One = (A.One << Amount) & M;
  // Low `Amount` bits are zero-filled.
  R.Zero = ((A.Zero << Amount) & M) | (Amount ? lowBitMask(Amount) : 0);
  return R;
}

KnownBits KnownBits::lshrConst(const KnownBits &A0, unsigned Amount) {
  KnownBits A = A0.normalized();
  assert(Amount < A.Width && "shift amount out of range");
  KnownBits R = top(A.Width);
  uint64_t M = lowBitMask(A.Width);
  uint64_t TruncA1 = A.One & M, TruncA0 = A.Zero & M;
  R.One = TruncA1 >> Amount;
  // High `Amount` bits are zero-filled.
  uint64_t HighZeros =
      Amount == 0 ? 0 : (lowBitMask(Amount) << (A.Width - Amount)) & M;
  R.Zero = (TruncA0 >> Amount) | HighZeros;
  return R;
}

KnownBits KnownBits::ashrConst(const KnownBits &A0, unsigned Amount) {
  KnownBits A = A0.normalized();
  assert(Amount < A.Width && "shift amount out of range");
  if (Amount == 0)
    return A;
  KnownBits R = lshrConst(A, Amount);
  // Replicate the sign bit if it is known; otherwise the high bits are Top.
  uint64_t M = lowBitMask(A.Width);
  uint64_t HighMask = (lowBitMask(Amount) << (A.Width - Amount)) & M;
  uint64_t SignBit = uint64_t(1) << (A.Width - 1);
  if (A.One & SignBit) {
    R.Zero &= ~HighMask;
    R.One |= HighMask;
  } else if (A.Zero & SignBit) {
    R.Zero |= HighMask;
    R.One &= ~HighMask;
  } else {
    R.Zero &= ~HighMask;
    R.One &= ~HighMask;
  }
  return R;
}

std::pair<unsigned, unsigned> KnownBits::shiftAmountRange() const {
  unsigned W = Width;
  if ((W & (W - 1)) == 0) {
    // Power-of-two width: the amount is the low log2(W) bits (RISC-V).
    unsigned LogW = static_cast<unsigned>(std::countr_zero(uint64_t(W)));
    uint64_t AmtMask = lowBitMask(LogW == 0 ? 1 : LogW);
    if (LogW == 0)
      return {0, 0};
    uint64_t Min = One & AmtMask;
    uint64_t Max = truncate(~Zero, Width) & AmtMask;
    return {static_cast<unsigned>(Min), static_cast<unsigned>(Max)};
  }
  // Non-power-of-two widths take the amount modulo Width; only constants
  // give useful bounds.
  if (isConstant())
    return {static_cast<unsigned>(constValue() % W),
            static_cast<unsigned>(constValue() % W)};
  return {0, W - 1};
}

KnownBits KnownBits::shl(const KnownBits &A, const KnownBits &B) {
  auto [Min, Max] = B.shiftAmountRange();
  if (Min == Max)
    return shlConst(A, Min);
  // Meet over all feasible amounts (W is small, this stays cheap).
  KnownBits R = bottom(A.Width);
  for (unsigned Amt = Min; Amt <= Max; ++Amt)
    R = meet(R, shlConst(A, Amt));
  return R;
}

KnownBits KnownBits::lshr(const KnownBits &A, const KnownBits &B) {
  auto [Min, Max] = B.shiftAmountRange();
  if (Min == Max)
    return lshrConst(A, Min);
  KnownBits R = bottom(A.Width);
  for (unsigned Amt = Min; Amt <= Max; ++Amt)
    R = meet(R, lshrConst(A, Amt));
  return R;
}

KnownBits KnownBits::ashr(const KnownBits &A, const KnownBits &B) {
  auto [Min, Max] = B.shiftAmountRange();
  if (Min == Max)
    return ashrConst(A, Min);
  KnownBits R = bottom(A.Width);
  for (unsigned Amt = Min; Amt <= Max; ++Amt)
    R = meet(R, ashrConst(A, Amt));
  return R;
}

KnownBits KnownBits::mul(const KnownBits &A0, const KnownBits &B0) {
  KnownBits A = A0.normalized(), B = B0.normalized();
  if (A.isConstant() && B.isConstant())
    return constant(A.constValue() * B.constValue(), A.Width);
  if (A.isConstant() && A.constValue() == 0)
    return constant(0, A.Width);
  if (B.isConstant() && B.constValue() == 0)
    return constant(0, A.Width);
  // Trailing zeros of the product >= sum of the operands' trailing zeros.
  unsigned TzA = std::min<unsigned>(
      static_cast<unsigned>(std::countr_one(A.Zero)), A.Width);
  unsigned TzB = std::min<unsigned>(
      static_cast<unsigned>(std::countr_one(B.Zero)), B.Width);
  unsigned Tz = std::min(TzA + TzB, A.Width);
  KnownBits R = top(A.Width);
  R.Zero = Tz ? lowBitMask(Tz) : 0;
  return R;
}

KnownBits KnownBits::mulhu(const KnownBits &A0, const KnownBits &B0) {
  KnownBits A = A0.normalized(), B = B0.normalized();
  if (A.isConstant() && B.isConstant() && A.Width <= 32)
    return constant((A.constValue() * B.constValue()) >> A.Width, A.Width);
  return top(A.Width);
}

KnownBits KnownBits::divu(const KnownBits &A0, const KnownBits &B0) {
  KnownBits A = A0.normalized(), B = B0.normalized();
  if (A.isConstant() && B.isConstant()) {
    if (B.constValue() == 0)
      return constant(allOnesValue(A.Width), A.Width); // RISC-V: -1
    return constant(A.constValue() / B.constValue(), A.Width);
  }
  return top(A.Width);
}

KnownBits KnownBits::div(const KnownBits &A0, const KnownBits &B0) {
  KnownBits A = A0.normalized(), B = B0.normalized();
  if (A.isConstant() && B.isConstant()) {
    int64_t AV = signExtend(A.constValue(), A.Width);
    int64_t BV = signExtend(B.constValue(), B.Width);
    if (BV == 0)
      return constant(allOnesValue(A.Width), A.Width);
    if (AV == signExtend(signedMinValue(A.Width), A.Width) && BV == -1)
      return constant(signedMinValue(A.Width), A.Width); // Overflow case.
    return constant(truncate(static_cast<uint64_t>(AV / BV), A.Width),
                    A.Width);
  }
  return top(A.Width);
}

KnownBits KnownBits::remu(const KnownBits &A0, const KnownBits &B0) {
  KnownBits A = A0.normalized(), B = B0.normalized();
  if (A.isConstant() && B.isConstant()) {
    if (B.constValue() == 0)
      return A; // RISC-V: remainder is the dividend.
    return constant(A.constValue() % B.constValue(), A.Width);
  }
  return top(A.Width);
}

KnownBits KnownBits::rem(const KnownBits &A0, const KnownBits &B0) {
  KnownBits A = A0.normalized(), B = B0.normalized();
  if (A.isConstant() && B.isConstant()) {
    int64_t AV = signExtend(A.constValue(), A.Width);
    int64_t BV = signExtend(B.constValue(), B.Width);
    if (BV == 0)
      return A;
    if (AV == signExtend(signedMinValue(A.Width), A.Width) && BV == -1)
      return constant(0, A.Width);
    return constant(truncate(static_cast<uint64_t>(AV % BV), A.Width),
                    A.Width);
  }
  return top(A.Width);
}

BitValue KnownBits::cmpEq(const KnownBits &A0, const KnownBits &B0) {
  KnownBits A = A0.normalized(), B = B0.normalized();
  // A bit where one side is known zero and the other known one decides it.
  if ((A.Zero & B.One) || (A.One & B.Zero))
    return BitValue::Zero;
  if (A.isConstant() && B.isConstant())
    return BitValue::One;
  return BitValue::Top;
}

BitValue KnownBits::cmpUlt(const KnownBits &A0, const KnownBits &B0) {
  KnownBits A = A0.normalized(), B = B0.normalized();
  if (A.umax() < B.umin())
    return BitValue::One;
  if (A.umin() >= B.umax())
    return BitValue::Zero;
  return BitValue::Top;
}

BitValue KnownBits::cmpSlt(const KnownBits &A0, const KnownBits &B0) {
  KnownBits A = A0.normalized(), B = B0.normalized();
  if (A.smax() < B.smin())
    return BitValue::One;
  if (A.smin() >= B.smax())
    return BitValue::Zero;
  return BitValue::Top;
}

KnownBits KnownBits::fromBool(BitValue B, unsigned Width) {
  KnownBits R = constant(0, Width);
  R.setBit(0, B == BitValue::Bottom ? BitValue::Top : B);
  return R;
}

std::string KnownBits::toString() const {
  std::string Out;
  for (unsigned I = Width; I-- > 0;) {
    switch (bit(I)) {
    case BitValue::Bottom:
      Out += '.';
      break;
    case BitValue::Zero:
      Out += '0';
      break;
    case BitValue::One:
      Out += '1';
      break;
    case BitValue::Top:
      Out += 'x';
      break;
    }
    if (I)
      Out += ' ';
  }
  return Out;
}
