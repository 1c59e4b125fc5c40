//===- fi/Checkpoint.h - Resumable checkpoints (JSONL) --------------------===//
///
/// \file
/// The one checkpoint layer: durable result records for the campaign
/// engine (one per completed shard) and the fuzzer (one per finished
/// program). A checkpoint file is JSON Lines: a header naming what the
/// file belongs to, then one record per finished unit, appended and
/// flushed as units finish, so a run killed at any point loses at most
/// its in-flight units. Formats (docs/campaigns.md, docs/fuzzing.md):
///
///   {"bec_campaign_checkpoint":1,"plan_fingerprint":"<hex64>",
///    "runs":N,"shards":S,"shard_size":Z}
///   {"shard":3,"effects":[0,2,...],"hashes":["<hex64>",...],
///    "bytes":[120,96,...]}
///
///   {"bec_fuzz_checkpoint":1,"fingerprint":"<hex64>","programs":N}
///   {"program":3,"seed":"<hex64>","ex_runs":E,"bit_runs":B,
///    "effects":[m,b,s,t,h],"mismatches":K}
///
/// Full-range uint64 values are hex *strings* because JSON number parsing
/// is only int64-precise. Loading is deliberately forgiving about damage a
/// crash can cause — a torn line or a malformed record is skipped — and
/// deliberately strict about identity: the header must be the first line,
/// and one that names another kind or another campaign is an error, never
/// a silent partial reuse.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_FI_CHECKPOINT_H
#define BEC_FI_CHECKPOINT_H

#include "fi/Campaign.h"

#include <array>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace bec {

/// What a checkpoint file belongs to: the header's kind tag and the
/// fields a resuming run must match.
struct CheckpointIdentity {
  struct Field {
    const char *Key;
    uint64_t Value;
    bool Hex;             ///< Spelled as a hex64 string.
    const char *Mismatch; ///< Completes "checkpoint '<path>' ...".
  };
  const char *Tag;  ///< "bec_campaign_checkpoint" / "bec_fuzz_checkpoint".
  const char *Kind; ///< "campaign" / "fuzz", for diagnostics.
  std::vector<Field> Fields;
};

/// Append-only checkpoint writer; append is thread-safe and flushes.
class CheckpointWriter {
public:
  /// Opens \p Path for \p Id's records. A fresh run truncates the file
  /// and writes the header. A resume (\p Resume, after the kind's loader
  /// accepted the file) appends to a non-empty file, first ending a torn
  /// last line so the next record starts a line of its own. False with a
  /// diagnostic on I/O failure.
  bool open(const std::string &Path, const CheckpointIdentity &Id,
            bool Resume, std::string &Err);
  bool isOpen() const { return Out.is_open(); }
  /// Appends one record (no trailing newline) as a line.
  bool append(const std::string &Record, std::string &Err);

private:
  std::mutex Mutex;
  std::ofstream Out;
  std::string Path;
};

/// Identity of the campaign a shard checkpoint belongs to.
struct ShardGeometry {
  uint64_t PlanFingerprint = 0; ///< CampaignPlan::fingerprint().
  uint64_t Runs = 0;            ///< Total planned runs.
  uint64_t Shards = 0;          ///< Total shards of the partition.
  uint64_t ShardSize = 0;       ///< Runs per shard (last may be short).
};
CheckpointIdentity shardIdentity(const ShardGeometry &G);

/// One completed shard's results, in execution order within the shard.
struct ShardRecord {
  uint64_t Shard = 0;
  std::vector<FaultEffect> Effects;
  std::vector<uint64_t> Hashes;
  std::vector<uint64_t> Bytes; ///< approxByteSize() per corrupted trace.
};
std::string encodeShard(const ShardRecord &R);

/// Loads the shard checkpoint at \p Path: every well-formed record whose
/// lengths fit \p G, in file order (a re-run shard may repeat; the last
/// wins). False with \p Err when the header does not match \p G. A
/// missing or empty file loads nothing, so `--resume` works from scratch.
bool loadShards(const std::string &Path, const ShardGeometry &G,
                std::vector<ShardRecord> &Records, std::string &Err);

/// Identity of a fuzz corpus: its options fingerprint and program count.
CheckpointIdentity programIdentity(uint64_t Fingerprint, uint64_t Programs);

/// One finished fuzz program's totals.
struct ProgramRecord {
  uint64_t Program = 0; ///< Index within the corpus.
  uint64_t Seed = 0;    ///< The program's generator seed.
  uint64_t ExRuns = 0;
  uint64_t BitRuns = 0;
  std::array<uint64_t, NumFaultEffects> Effects{};
  uint64_t Mismatches = 0;
};
std::string encodeProgram(const ProgramRecord &R);

/// Loads the fuzz checkpoint at \p Path as loadShards does, keeping the
/// well-formed records whose index is below \p Programs.
bool loadPrograms(const std::string &Path, uint64_t Fingerprint,
                  uint64_t Programs, std::vector<ProgramRecord> &Records,
                  std::string &Err);

} // namespace bec

#endif // BEC_FI_CHECKPOINT_H
