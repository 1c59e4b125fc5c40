//===- analysis/KnownBits.h - Four-valued per-bit abstract domain ---------===//
///
/// \file
/// The abstract bit-value domain of the paper's Section IV-A (Fig. 3):
/// every bit of a data point is Bottom (undefined), Zero, One, or Top
/// (unknown/overdefined). A KnownBits value packs one such lattice element
/// per bit of a register of configurable width, and provides the abstract
/// transfer functions for every opcode of the IR, plus the range queries
/// (min/max) used by the coalescing rules of Algorithm 3.
///
/// The concept corresponds to LLVM's KnownBits and BPF's tnum, extended
/// with an explicit Bottom for the global (inter-block) analysis.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_ANALYSIS_KNOWNBITS_H
#define BEC_ANALYSIS_KNOWNBITS_H

#include "support/BitUtils.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace bec {

/// One element of the per-bit lattice of Fig. 3a.
enum class BitValue : uint8_t { Bottom, Zero, One, Top };

/// The meet operator of Fig. 3b (information can only rise toward Top;
/// Bottom is the identity).
BitValue meetBits(BitValue A, BitValue B);

/// The paper's literal abstract `and` table (Fig. 3c), including its
/// treatment of Bottom. The analysis itself uses the sound normalized
/// operators below (Bottom operands are promoted to Top); this function
/// exists so the Fig. 3 reproduction can print the table verbatim.
BitValue fig3And(BitValue A, BitValue B);

/// Abstract value of one register: a vector of BitValue of a given width.
///
/// Representation: bit i is
///   Bottom if Init[i] == 0,
///   Zero   if Zero[i] == 1,
///   One    if One[i] == 1,
///   Top    otherwise.
/// Invariants: Zero & One == 0, (Zero | One) <= Init, all masked to Width.
class KnownBits {
public:
  KnownBits() = default;

  /// All bits Bottom (no assignment seen yet).
  static KnownBits bottom(unsigned Width) { return KnownBits(0, 0, 0, Width); }
  /// All bits Top (unknown at compile time).
  static KnownBits top(unsigned Width) {
    uint64_t M = lowBitMask(Width);
    return KnownBits(0, 0, M, Width);
  }
  /// Exact constant.
  static KnownBits constant(uint64_t Value, unsigned Width) {
    uint64_t M = lowBitMask(Width);
    Value &= M;
    return KnownBits(~Value & M, Value, M, Width);
  }

  /// Every bit initialized: Zero where \p Zero is set, One where \p One is
  /// set, Top elsewhere (the two masks must be disjoint within Width).
  static KnownBits fromMasks(uint64_t Zero, uint64_t One, unsigned Width) {
    uint64_t M = lowBitMask(Width);
    assert((Zero & One) == 0 && ((Zero | One) & ~M) == 0 &&
           "known-zero and known-one masks overlap or exceed the width");
    return KnownBits(Zero, One, M, Width);
  }

  unsigned width() const { return Width; }
  uint64_t zeroMask() const { return Zero; }
  uint64_t oneMask() const { return One; }
  uint64_t initMask() const { return Init; }
  uint64_t topMask() const { return Init & ~(Zero | One); }

  BitValue bit(unsigned I) const {
    assert(I < Width && "bit index out of range");
    if (!testBit(Init, I))
      return BitValue::Bottom;
    if (testBit(Zero, I))
      return BitValue::Zero;
    if (testBit(One, I))
      return BitValue::One;
    return BitValue::Top;
  }

  void setBit(unsigned I, BitValue V);

  bool isBottom() const { return Init == 0; }
  /// True if every bit is exactly known (no Bottom, no Top).
  bool isConstant() const {
    return Init == lowBitMask(Width) && (Zero | One) == Init;
  }
  uint64_t constValue() const {
    assert(isConstant() && "value is not a compile-time constant");
    return One;
  }

  bool operator==(const KnownBits &O) const {
    return Width == O.Width && Zero == O.Zero && One == O.One &&
           Init == O.Init;
  }
  bool operator!=(const KnownBits &O) const { return !(*this == O); }

  /// Per-bit meet (Fig. 3b) of two values of equal width.
  static KnownBits meet(const KnownBits &A, const KnownBits &B);

  /// True if \p Value is a possible concretization of this abstract value
  /// (Bottom bits admit no concretization, i.e. return false if any bit is
  /// Bottom). Used by the soundness property tests.
  bool contains(uint64_t Value) const {
    if (Init != lowBitMask(Width))
      return false;
    Value &= lowBitMask(Width);
    return (Value & Zero) == 0 && (~Value & One) == 0;
  }

  /// Minimum/maximum possible value, unsigned interpretation. Bottom bits
  /// are treated like Top (any value), which is the sound choice for the
  /// coalescing rules (min over a superset).
  uint64_t umin() const { return One; }
  uint64_t umax() const { return truncate(~Zero, Width); }
  /// Minimum/maximum possible value, signed (sign-extended to int64_t).
  int64_t smin() const;
  int64_t smax() const;

  /// Abstract bitwise operations (normalized: Bottom behaves like Top so
  /// the result is sound for any runtime value).
  static KnownBits and_(const KnownBits &A, const KnownBits &B);
  static KnownBits or_(const KnownBits &A, const KnownBits &B);
  static KnownBits xor_(const KnownBits &A, const KnownBits &B);
  static KnownBits not_(const KnownBits &A);

  /// Abstract add/sub with per-bit carry tracking.
  static KnownBits add(const KnownBits &A, const KnownBits &B);
  static KnownBits sub(const KnownBits &A, const KnownBits &B);

  /// Shifts by a compile-time amount in [0, Width).
  static KnownBits shlConst(const KnownBits &A, unsigned Amount);
  static KnownBits lshrConst(const KnownBits &A, unsigned Amount);
  static KnownBits ashrConst(const KnownBits &A, unsigned Amount);

  /// Shifts by an abstract amount (exact when the effective amount is
  /// known; conservative otherwise).
  static KnownBits shl(const KnownBits &A, const KnownBits &B);
  static KnownBits lshr(const KnownBits &A, const KnownBits &B);
  static KnownBits ashr(const KnownBits &A, const KnownBits &B);

  /// Multiplication: exact for constants; otherwise tracks trailing zeros.
  static KnownBits mul(const KnownBits &A, const KnownBits &B);
  static KnownBits mulhu(const KnownBits &A, const KnownBits &B);
  /// RISC-V division/remainder (div-by-zero yields -1 / dividend).
  static KnownBits div(const KnownBits &A, const KnownBits &B);
  static KnownBits divu(const KnownBits &A, const KnownBits &B);
  static KnownBits rem(const KnownBits &A, const KnownBits &B);
  static KnownBits remu(const KnownBits &A, const KnownBits &B);

  /// Abstract comparisons; result is the abstract boolean.
  static BitValue cmpEq(const KnownBits &A, const KnownBits &B);
  static BitValue cmpUlt(const KnownBits &A, const KnownBits &B);
  static BitValue cmpSlt(const KnownBits &A, const KnownBits &B);

  /// Wraps an abstract boolean into a Width-bit value (upper bits zero).
  static KnownBits fromBool(BitValue B, unsigned Width);

  /// The effective shift amount range of this value when used as a shift
  /// operand: RISC-V masks the amount to log2(Width) bits for power-of-two
  /// widths. \returns {min, max}.
  std::pair<unsigned, unsigned> shiftAmountRange() const;

  /// Renders e.g. "0 0 x 1" MSB-first ('x' = Top, '.' = Bottom), matching
  /// the paper's box notation.
  std::string toString() const;

private:
  KnownBits(uint64_t Zero, uint64_t One, uint64_t Init, unsigned Width)
      : Zero(Zero), One(One), Init(Init), Width(Width) {}

  /// Promotes Bottom bits to Top (used on operator inputs).
  KnownBits normalized() const {
    KnownBits R = *this;
    R.Init = lowBitMask(Width);
    return R;
  }

  uint64_t Zero = 0;
  uint64_t One = 0;
  uint64_t Init = 0;
  unsigned Width = 32;
};

} // namespace bec

#endif // BEC_ANALYSIS_KNOWNBITS_H
