//===- fi/SuffixMemo.h - Convergence-splice keys and memo (internal) ------===//
///
/// \file
/// The two data structures behind the engine's convergence splicing
/// (docs/campaigns.md, "Prefix checkpointing"): the key that names an
/// in-flight run's continuation at a checkpoint boundary, and the ring of
/// per-boundary tables that maps keys to how their continuation ends.
/// Internal to src/fi; the engine is the only user, SuffixMemoTest and
/// CheckpointEquivalenceTest the only other readers.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_FI_SUFFIXMEMO_H
#define BEC_FI_SUFFIXMEMO_H

#include "sim/Machine.h"
#include "sim/Trace.h"

#include <algorithm>
#include <array>
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

/// Suffix memo table: continuation key -> how that continuation ends. A
/// flat open-addressing table (linear probing, power-of-two capacity
/// starting small, grown at 3/4 load). Each slot holds the full 128-bit
/// key and a 32-bit reference into a vector of settled suffixes;
/// reference 0 marks an empty slot, so every key value — all-zero
/// included — is storable. One insert settles all its new keys with one
/// suffix, stored once. The first insert of a key wins. Not
/// thread-safe; the engine uses it as the bucket of a SuffixMemoRing.
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
  /// their first value. Returns how many keys were new.
  size_t insert(std::span<const SuffixKey> Keys, const SettledSuffix &S) {
    size_t Before = Count;
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
    return Count - Before;
  }

  /// Forgets every key and suffix but keeps both allocations.
  void clear() {
    if (Count == 0)
      return;
    std::fill(Slots.begin(), Slots.end(), Slot{});
    Values.clear();
    Count = 0;
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
    Slots.assign(Old.empty() ? 64 : Old.size() * 2, Slot{});
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

/// Convergence-memo window: a run is paused, golden-checked, keyed and
/// probed only at the first MemoWindow checkpoint boundaries at or after
/// its injection. Runs that reconverge, with the golden run or with each
/// other, almost always do so within a few boundaries; past the window
/// the run replays to its end in one go.
constexpr size_t MemoWindow = 16;

/// A continuation key and the index of the checkpoint boundary it was
/// taken at.
struct BoundaryKey {
  size_t Ck = 0;
  SuffixKey Key;
};

/// A worker's suffix memo: MemoWindow small tables, one per boundary of
/// the window. Bucket Ck % MemoWindow holds only the keys taken at
/// boundary Ck and is tagged with Ck. A key absorbs its cycle, so keys
/// of different boundaries never match, and a worker runs its
/// injections in nondecreasing cycle order: once a run asks for boundary
/// Ck, no later run's window reaches back to Ck - MemoWindow. So a bucket
/// whose tag is older than the boundary asked for is cleared (keeping
/// its allocation) and retagged, and the memo's size is bounded by the
/// window, not by the plan. A bucket whose tag is newer is a miss and
/// takes no insert: a probe behind the ring never evicts keys later runs
/// can still hit. (A worker whose walker moves backwards, to a stolen
/// shard behind it, resets the ring instead.) Not thread-safe: each
/// engine worker owns one ring.
class SuffixMemoRing {
public:
  SuffixMemoRing() { reset(); }

  /// Forgets every key, for a walker that moves backwards. An empty
  /// bucket tagged with its own index is never newer than a boundary
  /// that maps to it.
  void reset() {
    for (size_t I = 0; I < MemoWindow; ++I) {
      Buckets[I].Table.clear();
      Buckets[I].Tag = I;
    }
  }

  std::optional<SettledSuffix> find(const BoundaryKey &K) {
    const SuffixMemo *Table = table(K.Ck);
    return Table ? Table->find(K.Key) : std::nullopt;
  }

  /// Settles every key in \p Keys with \p S, each in its boundary's
  /// bucket.
  void insert(std::span<const BoundaryKey> Keys, const SettledSuffix &S) {
    for (const BoundaryKey &K : Keys)
      if (SuffixMemo *Table = table(K.Ck))
        Recorded += Table->insert(std::span(&K.Key, 1), S);
  }

  /// Keys recorded over the ring's life, retired ones included.
  uint64_t recorded() const { return Recorded; }
  /// Keys held now.
  size_t size() const {
    size_t N = 0;
    for (const Bucket &B : Buckets)
      N += B.Table.size();
    return N;
  }
  /// Heap bytes held by the buckets. Buckets keep their allocations when
  /// retagged, so this is also the ring's peak.
  uint64_t byteSize() const {
    uint64_t N = 0;
    for (const Bucket &B : Buckets)
      N += B.Table.byteSize();
    return N;
  }

private:
  struct Bucket {
    size_t Tag = 0;
    SuffixMemo Table;
  };

  /// Boundary \p Ck's table, retagged first if it held an older
  /// boundary; null when it holds a newer one.
  SuffixMemo *table(size_t Ck) {
    Bucket &B = Buckets[Ck % MemoWindow];
    if (B.Tag > Ck)
      return nullptr;
    if (B.Tag < Ck) {
      B.Table.clear();
      B.Tag = Ck;
    }
    return &B.Table;
  }

  std::array<Bucket, MemoWindow> Buckets;
  uint64_t Recorded = 0;
};

} // namespace bec

#endif // BEC_FI_SUFFIXMEMO_H
