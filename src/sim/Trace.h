//===- sim/Trace.h - Architectural execution traces ------------------------===//
///
/// \file
/// Execution traces in the sense of the paper's validation section: "a
/// sequence of executed instructions, side effects caused by the
/// instructions executed such as memory accesses, and observable outcomes
/// of the program". Two fault-injection runs are equivalent iff their
/// traces are identical; the campaign engine compares traces by a rolling
/// 64-bit hash so that millions of runs need not be archived.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SIM_TRACE_H
#define BEC_SIM_TRACE_H

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace bec {

/// How a run ended.
enum class Outcome : uint8_t {
  Finished, ///< Reached ret/halt.
  Trap,     ///< Memory fault (out of bounds or misaligned access).
  Hang,     ///< Exceeded the cycle budget.
};

const char *outcomeName(Outcome O);

/// One observable side effect.
struct TraceEvent {
  enum class Kind : uint8_t { Store, Out };
  Kind K;
  uint64_t Addr;  ///< Store address (0 for Out).
  uint64_t Value; ///< Stored/emitted value.
  uint8_t Size;   ///< Store size in bytes (0 for Out).
};

/// Incremental FNV-1a hasher used for both the full-trace hash and the
/// observable-output hash. Every value enters as its 8 little-endian
/// bytes. Absorbing a zero byte is a bare multiply by the FNV prime P, and
/// multiplication mod 2^64 is associative, so the k zero bytes above a
/// value's highest significant byte fold into that byte's own multiply:
/// one multiply by P^(k+1). A value below 2^8 (every PC of a program of
/// at most 256 instructions) costs one xor and one multiply instead of
/// eight dependent steps, and the result is bit-identical to the
/// byte-at-a-time definition.
class TraceHasher {
public:
  static constexpr uint64_t Prime = 0x100000001b3ull;

  /// PrimePow[K] = P^K mod 2^64.
  static constexpr std::array<uint64_t, 9> PrimePow = [] {
    std::array<uint64_t, 9> Pow{};
    Pow[0] = 1;
    for (unsigned K = 1; K < Pow.size(); ++K)
      Pow[K] = Pow[K - 1] * Prime;
    return Pow;
  }();

  /// The cursor \p H after absorbing \p Value, which must be below
  /// 2^(8 * Bytes): Bytes xor-multiply steps, the last of which also
  /// multiplies in the zero bytes above. With a constant \p Bytes the
  /// steps compile without a branch.
  static uint64_t absorbInto(uint64_t H, uint64_t Value, unsigned Bytes) {
    for (unsigned I = 0; I + 1 < Bytes; ++I)
      H = (H ^ ((Value >> (8 * I)) & 0xff)) * Prime;
    return (H ^ (Value >> (8 * (Bytes - 1)))) * PrimePow[9 - Bytes];
  }
  /// The cursor \p H after absorbing any \p Value: its significant bytes
  /// only (a zero value's low byte counts as one).
  static uint64_t absorbInto(uint64_t H, uint64_t Value) {
    return absorbInto(H, Value, (std::bit_width(Value | 1) + 7) / 8);
  }

  void absorb(uint64_t Value) { Hash = absorbInto(Hash, Value); }
  uint64_t value() const { return Hash; }

  /// Resets the hasher to a previously observed value() — the "trace
  /// cursor" piece of an interpreter checkpoint. Each absorbed byte maps
  /// the state injectively (xor, then multiply by an odd constant), so
  /// two runs that absorb the same suffix from restored-equal states end
  /// with equal hashes, and runs whose states ever differ never
  /// re-equalize under a common suffix.
  void restore(uint64_t State) { Hash = State; }

private:
  uint64_t Hash = 0xcbf29ce484222325ull;
};

/// A (possibly abbreviated) record of one program execution.
struct Trace {
  /// Executed instruction index per cycle (empty if recording was off).
  std::vector<uint32_t> Executed;
  /// Side effects in program order (empty if recording was off).
  std::vector<TraceEvent> Events;
  uint64_t Cycles = 0;
  uint64_t ReturnValue = 0;
  bool HasReturnValue = false;
  Outcome End = Outcome::Finished;

  /// Hash of the complete architectural trace (instructions + side effects
  /// + outcome). Equal hashes are treated as identical traces.
  uint64_t TraceHash = 0;
  /// Hash of the externally observable behaviour only (out-events,
  /// return value, outcome): used to classify SDC vs. benign.
  uint64_t ObservableHash = 0;

  /// Values emitted by `out` instructions (requires recording).
  std::vector<uint64_t> outputValues() const {
    std::vector<uint64_t> Result;
    for (const TraceEvent &E : Events)
      if (E.K == TraceEvent::Kind::Out)
        Result.push_back(E.Value);
    return Result;
  }

  /// Approximate archival size in bytes, as used by the Table I disk-space
  /// accounting (4 bytes per executed instruction, 18 per event).
  uint64_t approxByteSize() const {
    return Cycles * 4 + Events.size() * 18 + 16;
  }
};

} // namespace bec

#endif // BEC_SIM_TRACE_H
