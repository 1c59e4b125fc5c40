//===- fi/Checkpoint.cpp - JSONL checkpoints ------------------------------===//

#include "fi/Checkpoint.h"

#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/StringUtils.h"

#include <filesystem>

using namespace bec;

namespace {

constexpr uint64_t FormatVersion = 1;

std::optional<uint64_t> hexOf(const JsonValue *V) {
  const std::string *S = V ? V->asString() : nullptr;
  return S ? parseHex64(*S) : std::nullopt;
}

std::optional<uint64_t> u64Of(const JsonValue *V) {
  return V ? V->asU64() : std::nullopt;
}

/// The array member \p Key when it has exactly \p Want elements and
/// \p Get reads every one of them.
template <typename T, typename GetFn>
std::optional<std::vector<T>> arrayOf(const JsonValue &V, const char *Key,
                                      size_t Want, GetFn Get) {
  const JsonValue *A = V.member(Key);
  const std::vector<JsonValue> *Items = A ? A->asArray() : nullptr;
  if (!Items || Items->size() != Want)
    return std::nullopt;
  std::vector<T> Out;
  Out.reserve(Want);
  for (const JsonValue &Item : *Items) {
    std::optional<T> X = Get(&Item);
    if (!X)
      return std::nullopt;
    Out.push_back(*X);
  }
  return Out;
}

/// Reads the checkpoint at \p Path: checks its first line against \p Id
/// and hands every later line that parses as a JSON object to
/// \p OnRecord. A missing or empty file is a fresh start.
template <typename Fn>
bool loadRecords(const std::string &Path, const CheckpointIdentity &Id,
                 Fn OnRecord, std::string &Err) {
  std::ifstream In(Path);
  std::string Line;
  if (!In || !std::getline(In, Line))
    return true;
  std::optional<JsonValue> Header = parseJson(Line);
  if (!Header || !Header->isObject() ||
      Header->memberU64(Id.Tag) != std::optional(FormatVersion)) {
    Err = "'" + Path + "' is not a bec " + Id.Kind + " checkpoint";
    return false;
  }
  for (const CheckpointIdentity::Field &F : Id.Fields) {
    const JsonValue *Got = Header->member(F.Key);
    if ((F.Hex ? hexOf(Got) : u64Of(Got)) != std::optional(F.Value)) {
      Err = "checkpoint '" + Path + "' " + F.Mismatch;
      return false;
    }
  }
  while (std::getline(In, Line))
    if (std::optional<JsonValue> V = parseJson(Line); V && V->isObject())
      OnRecord(*V);
  return true;
}

} // namespace

bool CheckpointWriter::open(const std::string &P, const CheckpointIdentity &Id,
                            bool Resume, std::string &Err) {
  Path = P;
  std::error_code EC;
  bool Append = Resume && std::filesystem::file_size(P, EC) != 0 && !EC;
  bool TornTail = false;
  if (Append) {
    std::ifstream In(P, std::ios::binary);
    TornTail = In.seekg(-1, std::ios::end).get() != '\n';
  }
  Out.open(P, std::ios::out | (Append ? std::ios::app : std::ios::trunc));
  if (!Out) {
    Err = "cannot open checkpoint '" + P + "' for writing";
    return false;
  }
  if (!Append) {
    JsonWriter W;
    W.beginObject();
    W.key(Id.Tag).value(FormatVersion);
    for (const CheckpointIdentity::Field &F : Id.Fields) {
      W.key(F.Key);
      F.Hex ? W.value(hex64(F.Value)) : W.value(F.Value);
    }
    W.endObject();
    Out << W.take() << '\n';
  } else if (TornTail) {
    Out << '\n';
  }
  Out.flush();
  if (!Out) {
    Err = "cannot write to checkpoint '" + P + "'";
    return false;
  }
  return true;
}

bool CheckpointWriter::append(const std::string &Record, std::string &Err) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Out << Record << '\n';
  Out.flush();
  if (!Out) {
    Err = "cannot append a record to checkpoint '" + Path + "'";
    return false;
  }
  return true;
}

CheckpointIdentity bec::shardIdentity(const ShardGeometry &G) {
  const char *Geometry = "was written with a different shard geometry; "
                         "rerun with the original --shard-size or delete it";
  return {"bec_campaign_checkpoint",
          "campaign",
          {{"plan_fingerprint", G.PlanFingerprint, true,
            "was written for a different campaign plan (fingerprint "
            "mismatch); delete it or drop --resume"},
           {"runs", G.Runs, false, Geometry},
           {"shards", G.Shards, false, Geometry},
           {"shard_size", G.ShardSize, false, Geometry}}};
}

std::string bec::encodeShard(const ShardRecord &R) {
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
  return W.take();
}

bool bec::loadShards(const std::string &Path, const ShardGeometry &G,
                     std::vector<ShardRecord> &Records, std::string &Err) {
  auto Effect = [](const JsonValue *V) -> std::optional<FaultEffect> {
    std::optional<uint64_t> E = V->asU64();
    if (!E || *E >= NumFaultEffects)
      return std::nullopt;
    return static_cast<FaultEffect>(*E);
  };
  auto Decode = [&](const JsonValue &V) {
    std::optional<uint64_t> Shard = V.memberU64("shard");
    if (!Shard || *Shard >= G.Shards)
      return;
    uint64_t Lo = *Shard * G.ShardSize;
    uint64_t Want = std::min(G.Runs, Lo + G.ShardSize) - Lo;
    auto Effects = arrayOf<FaultEffect>(V, "effects", Want, Effect);
    auto Hashes = arrayOf<uint64_t>(V, "hashes", Want, hexOf);
    auto Bytes = arrayOf<uint64_t>(V, "bytes", Want, u64Of);
    if (Effects && Hashes && Bytes)
      Records.push_back({*Shard, std::move(*Effects), std::move(*Hashes),
                         std::move(*Bytes)});
  };
  return loadRecords(Path, shardIdentity(G), Decode, Err);
}

CheckpointIdentity bec::programIdentity(uint64_t Fingerprint,
                                        uint64_t Programs) {
  const char *Other = "belongs to a different fuzz campaign (fingerprint "
                      "or corpus size mismatch)";
  return {"bec_fuzz_checkpoint",
          "fuzz",
          {{"fingerprint", Fingerprint, true, Other},
           {"programs", Programs, false, Other}}};
}

std::string bec::encodeProgram(const ProgramRecord &R) {
  JsonWriter W;
  W.beginObject();
  W.key("program").value(R.Program);
  W.key("seed").value(hex64(R.Seed));
  W.key("ex_runs").value(R.ExRuns);
  W.key("bit_runs").value(R.BitRuns);
  W.key("effects").beginArray();
  for (uint64_t E : R.Effects)
    W.value(E);
  W.endArray();
  W.key("mismatches").value(R.Mismatches);
  W.endObject();
  return W.take();
}

bool bec::loadPrograms(const std::string &Path, uint64_t Fingerprint,
                       uint64_t Programs, std::vector<ProgramRecord> &Records,
                       std::string &Err) {
  auto Decode = [&](const JsonValue &V) {
    ProgramRecord R;
    for (auto [Key, Field] : {std::pair{"program", &R.Program},
                              {"ex_runs", &R.ExRuns},
                              {"bit_runs", &R.BitRuns},
                              {"mismatches", &R.Mismatches}}) {
      std::optional<uint64_t> X = V.memberU64(Key);
      if (!X)
        return;
      *Field = *X;
    }
    std::optional<uint64_t> Seed = hexOf(V.member("seed"));
    auto Effects = arrayOf<uint64_t>(V, "effects", NumFaultEffects, u64Of);
    if (R.Program >= Programs || !Seed || !Effects)
      return;
    R.Seed = *Seed;
    std::copy(Effects->begin(), Effects->end(), R.Effects.begin());
    Records.push_back(R);
  };
  return loadRecords(Path, programIdentity(Fingerprint, Programs), Decode,
                     Err);
}
