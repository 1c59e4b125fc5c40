//===- fi/SuffixMemo.h - Convergence-splice keys and memo (internal) ------===//
///
/// \file
/// The two data structures behind the engine's convergence splicing
/// (docs/campaigns.md, "Prefix checkpointing"): the key that names an
/// in-flight run's continuation at a checkpoint boundary, and the table
/// that maps keys to how their continuation ends. Internal to src/fi;
/// the engine is the only user, SuffixMemoTest the only other reader.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_FI_SUFFIXMEMO_H
#define BEC_FI_SUFFIXMEMO_H

#include "sim/Machine.h"
#include "sim/Trace.h"

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace bec {

/// 128-bit continuation identity (two independently mixed lanes).
struct SuffixKey {
  uint64_t Lo = 0;
  uint64_t Hi = 0;
  bool operator==(const SuffixKey &O) const = default;
};

/// Everything a finished run contributes to the report: enough to
/// classify, dedup the trace archive, and size it.
struct SettledSuffix {
  uint64_t TraceHash = 0;
  uint64_t ObsHash = 0;
  Outcome End = Outcome::Finished;
  uint64_t Bytes = 0; ///< The full run's approxByteSize().

  static SettledSuffix of(const Trace &T) {
    return {T.TraceHash, T.ObservableHash, T.End, T.approxByteSize()};
  }
};

namespace detail {

/// MurmurHash3's 64-bit finalizer: full avalanche of a lane's state.
inline uint64_t fmix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdull;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ull;
  X ^= X >> 33;
  return X;
}

/// Word-wise two-lane hasher. Each lane spends one multiply per word and
/// folds its high bits back down (xorshift / rotate), so a difference in
/// any bit of any word reaches every bit of the lane by the finalizer.
/// The lanes use different constants and different folds and carry no
/// data between them, so a key collision needs both to collide at once.
class KeyHasher {
public:
  void absorb(uint64_t W) {
    A = (A ^ W) * 0x9e3779b97f4a7c15ull;
    A ^= A >> 29;
    B = std::rotl((B + W) * 0xd6e8feb86659fd93ull, 31);
  }
  SuffixKey value() const { return {fmix64(A), fmix64(B ^ 0x5faceca11ull)}; }

private:
  uint64_t A = 0x243f6a8885a308d3ull;
  uint64_t B = 0x13198a2e03707344ull;
};

} // namespace detail

/// The registers that pin down a continuation at \p PC: its live-in
/// mask, or every register when the plan carries none for this PC
/// (key strictly). x0 is hardwired to zero and never compared.
inline uint32_t liveKeyMask(uint32_t PC,
                            const std::vector<uint32_t> *LiveIn) {
  uint32_t Live = LiveIn && PC < LiveIn->size() ? (*LiveIn)[PC]
                                                : ~uint32_t(0);
  return Live & ~uint32_t(1);
}

/// Identity of an in-flight run's continuation, taken at a checkpoint
/// boundary. Two runs with equal keys finish identically, so the first
/// one to complete settles every later one — the paper's fault-site
/// equivalence classes, recovered dynamically:
///
///  * The full-trace hash cursor covers the PC of every executed step
///    and the address and value of every store, so equal cursors mean
///    identical paths and identical memory (the same hash-equality
///    trust the Masked classification rests on). Memory therefore
///    never needs hashing here.
///  * Live registers (liveKeyMask) pin down everything the continuation
///    can still read. A register outside liveInMask(PC) is read on no
///    path before being redefined, so a lingering flip there cannot
///    influence any future instruction, side effect or outcome. The
///    engine's golden-reconvergence check compares the same fields
///    directly instead of keying them.
///
/// The live mask is absorbed before the values it selects, so the word
/// sequence decodes uniquely back into the keyed fields.
inline SuffixKey suffixStateKey(uint64_t Cycle, uint32_t PC,
                                uint64_t FullHash, uint64_t ObsHash,
                                const Machine &M,
                                const std::vector<uint32_t> *LiveIn) {
  detail::KeyHasher H;
  H.absorb(Cycle);
  H.absorb(PC);
  H.absorb(FullHash);
  H.absorb(ObsHash);
  uint32_t Live = liveKeyMask(PC, LiveIn);
  H.absorb(Live);
  for (uint32_t Rest = Live; Rest; Rest &= Rest - 1)
    H.absorb(M.reg(static_cast<Reg>(std::countr_zero(Rest))));
  return H.value();
}

/// Suffix memo: continuation key -> how that continuation ends. A flat
/// open-addressing table (linear probing, power-of-two capacity, grown
/// at 3/4 load). Each slot holds the full 128-bit key and a 32-bit
/// reference into a vector of settled suffixes; reference 0 marks an
/// empty slot, so every key value — all-zero included — is storable.
/// A run settles all its new keys with one suffix, stored once. The
/// first insert of a key wins. Not thread-safe: each engine worker owns
/// one memo.
class SuffixMemo {
public:
  std::optional<SettledSuffix> find(const SuffixKey &K) const {
    if (Slots.empty())
      return std::nullopt;
    for (size_t I = K.Lo & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Ref == 0)
        return std::nullopt;
      if (S.Key == K)
        return Values[S.Ref - 1];
    }
  }

  /// Settles every key in \p Keys with \p S; keys already present keep
  /// their first value.
  void insert(std::span<const SuffixKey> Keys, const SettledSuffix &S) {
    uint32_t Ref = 0;
    for (const SuffixKey &K : Keys) {
      if ((Count + 1) * 4 > Slots.size() * 3)
        grow();
      Slot &Dst = probe(K);
      if (Dst.Ref != 0)
        continue;
      if (Ref == 0) {
        Values.push_back(S);
        Ref = static_cast<uint32_t>(Values.size());
      }
      Dst = {K, Ref};
      ++Count;
    }
  }

  /// Keys held.
  size_t size() const { return Count; }
  /// Heap bytes held by the slot table and the settled suffixes.
  uint64_t byteSize() const {
    return Slots.capacity() * sizeof(Slot) +
           Values.capacity() * sizeof(SettledSuffix);
  }

private:
  struct Slot {
    SuffixKey Key;
    uint32_t Ref = 0;
  };

  /// The slot holding \p K, or the empty slot where it belongs.
  Slot &probe(const SuffixKey &K) {
    size_t I = K.Lo & Mask;
    while (Slots[I].Ref != 0 && !(Slots[I].Key == K))
      I = (I + 1) & Mask;
    return Slots[I];
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 1024 : Old.size() * 2, Slot{});
    Mask = Slots.size() - 1;
    for (const Slot &S : Old)
      if (S.Ref != 0)
        probe(S.Key) = S;
  }

  std::vector<Slot> Slots;
  size_t Mask = 0;
  size_t Count = 0;
  std::vector<SettledSuffix> Values;
};

} // namespace bec

#endif // BEC_FI_SUFFIXMEMO_H
