//===- support/Json.h - Minimal JSON writer for machine-readable output --===//
///
/// \file
/// A small streaming JSON writer used by the `bec` driver's
/// `--format=json` mode so CI jobs and scripts can consume analysis
/// results without scraping tables. Supports the JSON subset the driver
/// needs: objects, arrays, strings, integers, doubles and booleans, with
/// correct string escaping and comma placement. No dependencies, no
/// parsing.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SUPPORT_JSON_H
#define BEC_SUPPORT_JSON_H

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace bec {

/// Streaming writer producing compact, valid JSON into a std::string.
class JsonWriter {
public:
  std::string take() {
    assert(Nesting.empty() && "unbalanced begin/end");
    return std::move(Out);
  }

  JsonWriter &beginObject() {
    comma();
    Out += '{';
    Nesting.push_back(Scope::Object);
    return *this;
  }
  JsonWriter &endObject() {
    assert(!Nesting.empty() && Nesting.back() == Scope::Object);
    Nesting.pop_back();
    Out += '}';
    return *this;
  }
  JsonWriter &beginArray() {
    comma();
    Out += '[';
    Nesting.push_back(Scope::Array);
    return *this;
  }
  JsonWriter &endArray() {
    assert(!Nesting.empty() && Nesting.back() == Scope::Array);
    Nesting.pop_back();
    Out += ']';
    return *this;
  }

  /// Emits a member key; must be followed by exactly one value.
  JsonWriter &key(std::string_view Name) {
    assert(!Nesting.empty() && Nesting.back() == Scope::Object);
    comma();
    quoted(Name);
    Out += ':';
    PendingValue = true;
    return *this;
  }

  JsonWriter &value(std::string_view S) {
    comma();
    quoted(S);
    return *this;
  }
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(uint64_t V) {
    comma();
    Out += std::to_string(V);
    return *this;
  }
  JsonWriter &value(int64_t V) {
    comma();
    Out += std::to_string(V);
    return *this;
  }
  JsonWriter &value(unsigned V) { return value(static_cast<uint64_t>(V)); }
  JsonWriter &value(bool V) {
    comma();
    Out += V ? "true" : "false";
    return *this;
  }
  /// \p Digits significant digits; 17 round-trips every double exactly.
  JsonWriter &value(double V, int Digits = 6) {
    comma();
    if (!std::isfinite(V)) {
      Out += "null"; // JSON has no Inf/NaN.
      return *this;
    }
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.*g", Digits, V);
    Out += Buf;
    return *this;
  }

private:
  enum class Scope : uint8_t { Object, Array };

  /// Emits a separating comma when needed and tracks first-element state.
  void comma() {
    if (PendingValue) {
      PendingValue = false; // Key already placed its separator.
      return;
    }
    if (!Out.empty()) {
      char Last = Out.back();
      if (Last != '{' && Last != '[' && Last != ':')
        if (!Nesting.empty())
          Out += ',';
    }
  }

  void quoted(std::string_view S) {
    Out += '"';
    for (char C : S) {
      switch (C) {
      case '"':
        Out += "\\\"";
        break;
      case '\\':
        Out += "\\\\";
        break;
      case '\n':
        Out += "\\n";
        break;
      case '\r':
        Out += "\\r";
        break;
      case '\t':
        Out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(C) < 0x20) {
          char Buf[8];
          std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
          Out += Buf;
        } else {
          Out += C;
        }
      }
    }
    Out += '"';
  }

  std::string Out;
  std::vector<Scope> Nesting;
  bool PendingValue = false;
};

} // namespace bec

#endif // BEC_SUPPORT_JSON_H
