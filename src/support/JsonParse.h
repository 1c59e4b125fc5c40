//===- support/JsonParse.h - Minimal JSON reader for the wire protocol ----===//
///
/// \file
/// The reading half of the project's JSON story (support/Json.h is the
/// writing half): a small recursive-descent parser producing a JsonValue
/// tree. Used by the becd wire protocol (serve/Protocol.h) to decode
/// request and response frames, and by anything else that needs to consume
/// the driver's `--format=json` output. Full RFC 8259 value coverage with
/// two deliberate server-hardening limits: nesting depth and input size
/// are bounded, so a hostile frame cannot blow the stack or the heap.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SUPPORT_JSONPARSE_H
#define BEC_SUPPORT_JSONPARSE_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bec {

/// One parsed JSON value. Object members preserve source order (and keep
/// duplicates; lookups return the first occurrence, as most servers do).
class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }

  /// Object member lookup; nullptr when not an object or the key is
  /// absent.
  const JsonValue *member(std::string_view Key) const;

  /// Typed accessors: engaged only when the value has the matching kind
  /// (and, for the integer forms, is exactly representable).
  std::optional<bool> asBool() const;
  std::optional<double> asDouble() const;
  std::optional<int64_t> asI64() const;
  std::optional<uint64_t> asU64() const;
  const std::string *asString() const;
  const std::vector<JsonValue> *asArray() const;
  /// Ordered object members (empty for non-objects).
  const std::vector<std::pair<std::string, JsonValue>> &objectMembers() const {
    return Obj;
  }

  /// Convenience: member(Key) as a string/u64, nullopt on any mismatch.
  const std::string *memberString(std::string_view Key) const;
  std::optional<uint64_t> memberU64(std::string_view Key) const;

  /// Re-serializes this value as compact JSON (numbers round-trip through
  /// their parsed representation; key order is preserved).
  std::string toJson() const;

  // Construction surface for the parser (and tests).
  static JsonValue makeNull() { return JsonValue(); }
  static JsonValue makeBool(bool B);
  static JsonValue makeInt(int64_t V);
  static JsonValue makeDouble(double V);
  static JsonValue makeString(std::string S);
  static JsonValue makeArray(std::vector<JsonValue> Elems);
  static JsonValue
  makeObject(std::vector<std::pair<std::string, JsonValue>> Members);

private:
  friend class JsonParser;

  Kind K = Kind::Null;
  bool B = false;
  /// Numbers carry both representations: IsInt marks source literals with
  /// no fraction/exponent that fit int64, or uint64 when non-negative (the
  /// common case for ids, counters and seeds, where double would lose
  /// precision past 2^53). Above INT64_MAX, Big is set and Int holds the
  /// value's bits.
  bool IsInt = false;
  bool Big = false;
  int64_t Int = 0;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj;
};

/// Parses one JSON document (the whole of \p Text modulo whitespace).
/// Returns nullopt on any syntax error and, when \p Error is non-null,
/// fills it with a byte-offset diagnostic.
std::optional<JsonValue> parseJson(std::string_view Text,
                                   std::string *Error = nullptr);

} // namespace bec

#endif // BEC_SUPPORT_JSONPARSE_H
