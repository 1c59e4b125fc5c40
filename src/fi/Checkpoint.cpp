//===- fi/Checkpoint.cpp - JSONL campaign checkpoints ---------------------===//

#include "fi/Checkpoint.h"

#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/StringUtils.h"

using namespace bec;

namespace {

constexpr int FormatVersion = 1;

std::string headerLine(const CheckpointHeader &H) {
  JsonWriter W;
  W.beginObject();
  W.key("bec_campaign_checkpoint").value(int64_t(FormatVersion));
  W.key("plan_fingerprint").value(hex64(H.PlanFingerprint));
  W.key("runs").value(H.Runs);
  W.key("shards").value(H.Shards);
  W.key("shard_size").value(H.ShardSize);
  W.endObject();
  return W.take() + "\n";
}

/// Decodes one shard record line against \p Expect's geometry; nullopt
/// for anything malformed (a torn write) or inconsistent (wrong lengths).
std::optional<ShardRecord> parseShardLine(const JsonValue &V,
                                          const CheckpointHeader &Expect) {
  std::optional<uint64_t> Shard = V.memberU64("shard");
  if (!Shard || *Shard >= Expect.Shards)
    return std::nullopt;
  uint64_t Lo = *Shard * Expect.ShardSize;
  uint64_t Hi = std::min(Expect.Runs, Lo + Expect.ShardSize);
  uint64_t Want = Hi - Lo;

  const JsonValue *EffectsV = V.member("effects");
  const JsonValue *HashesV = V.member("hashes");
  const JsonValue *BytesV = V.member("bytes");
  const std::vector<JsonValue> *Effects = EffectsV ? EffectsV->asArray() : nullptr;
  const std::vector<JsonValue> *Hashes = HashesV ? HashesV->asArray() : nullptr;
  const std::vector<JsonValue> *Bytes = BytesV ? BytesV->asArray() : nullptr;
  if (!Effects || !Hashes || !Bytes || Effects->size() != Want ||
      Hashes->size() != Want || Bytes->size() != Want)
    return std::nullopt;

  ShardRecord R;
  R.Shard = *Shard;
  R.Effects.reserve(Want);
  R.Hashes.reserve(Want);
  R.Bytes.reserve(Want);
  for (uint64_t I = 0; I < Want; ++I) {
    std::optional<uint64_t> E = (*Effects)[I].asU64();
    if (!E || *E >= NumFaultEffects)
      return std::nullopt;
    const std::string *HS = (*Hashes)[I].asString();
    std::optional<uint64_t> H = HS ? parseHex64(*HS) : std::nullopt;
    std::optional<uint64_t> B = (*Bytes)[I].asU64();
    if (!H || !B)
      return std::nullopt;
    R.Effects.push_back(static_cast<FaultEffect>(*E));
    R.Hashes.push_back(*H);
    R.Bytes.push_back(*B);
  }
  return R;
}

} // namespace

bool CheckpointWriter::open(const std::string &P, const CheckpointHeader &H,
                            bool Append, std::string &Err) {
  Path = P;
  Out.open(P, Append ? (std::ios::out | std::ios::app)
                     : (std::ios::out | std::ios::trunc));
  if (!Out) {
    Err = "cannot open checkpoint '" + P + "' for writing";
    return false;
  }
  if (!Append) {
    Out << headerLine(H);
    Out.flush();
    if (!Out) {
      Err = "cannot write checkpoint header to '" + P + "'";
      return false;
    }
  }
  return true;
}

bool CheckpointWriter::writeShard(const ShardRecord &R, std::string &Err) {
  JsonWriter W;
  W.beginObject();
  W.key("shard").value(R.Shard);
  W.key("effects").beginArray();
  for (FaultEffect E : R.Effects)
    W.value(uint64_t(E));
  W.endArray();
  W.key("hashes").beginArray();
  for (uint64_t H : R.Hashes)
    W.value(hex64(H));
  W.endArray();
  W.key("bytes").beginArray();
  for (uint64_t B : R.Bytes)
    W.value(B);
  W.endArray();
  W.endObject();
  std::string Line = W.take() + "\n";

  std::lock_guard<std::mutex> Lock(Mutex);
  Out << Line;
  Out.flush();
  if (!Out) {
    Err = "cannot append shard record to checkpoint '" + Path + "'";
    return false;
  }
  return true;
}

bool bec::loadCheckpoint(const std::string &Path,
                         const CheckpointHeader &Expect,
                         std::vector<ShardRecord> &Records, std::string &Err) {
  std::ifstream In(Path);
  if (!In)
    return true; // Nothing to resume from: a fresh start.

  std::string Line;
  if (!std::getline(In, Line))
    return true; // Empty file: fresh start.

  std::optional<JsonValue> Header = parseJson(Line);
  if (!Header || !Header->isObject() ||
      Header->memberU64("bec_campaign_checkpoint") !=
          std::optional<uint64_t>(FormatVersion)) {
    Err = "'" + Path + "' is not a bec campaign checkpoint";
    return false;
  }
  const std::string *FP = Header->memberString("plan_fingerprint");
  std::optional<uint64_t> GotFP = FP ? parseHex64(*FP) : std::nullopt;
  if (GotFP != std::optional<uint64_t>(Expect.PlanFingerprint)) {
    Err = "checkpoint '" + Path +
          "' was written for a different campaign plan (fingerprint "
          "mismatch); delete it or drop --resume";
    return false;
  }
  if (Header->memberU64("runs") != std::optional<uint64_t>(Expect.Runs) ||
      Header->memberU64("shards") != std::optional<uint64_t>(Expect.Shards) ||
      Header->memberU64("shard_size") !=
          std::optional<uint64_t>(Expect.ShardSize)) {
    Err = "checkpoint '" + Path +
          "' was written with a different shard geometry; rerun with the "
          "original --shard-size or delete it";
    return false;
  }

  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::optional<JsonValue> V = parseJson(Line);
    if (!V || !V->isObject())
      continue; // Torn trailing write.
    if (std::optional<ShardRecord> R = parseShardLine(*V, Expect))
      Records.push_back(std::move(*R));
  }
  return true;
}
