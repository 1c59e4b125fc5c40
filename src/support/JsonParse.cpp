//===- support/JsonParse.cpp - Minimal JSON reader -------------------------===//

#include "support/JsonParse.h"

#include "support/Json.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

using namespace bec;

//===----------------------------------------------------------------------===//
// JsonValue
//===----------------------------------------------------------------------===//

const JsonValue *JsonValue::member(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Value] : Obj)
    if (Name == Key)
      return &Value;
  return nullptr;
}

std::optional<bool> JsonValue::asBool() const {
  if (K != Kind::Bool)
    return std::nullopt;
  return B;
}

std::optional<double> JsonValue::asDouble() const {
  if (K != Kind::Number)
    return std::nullopt;
  if (!IsInt)
    return Num;
  return Big ? static_cast<double>(static_cast<uint64_t>(Int))
             : static_cast<double>(Int);
}

std::optional<int64_t> JsonValue::asI64() const {
  if (K != Kind::Number || !IsInt || Big)
    return std::nullopt;
  return Int;
}

std::optional<uint64_t> JsonValue::asU64() const {
  if (K != Kind::Number || !IsInt || (Int < 0 && !Big))
    return std::nullopt;
  return static_cast<uint64_t>(Int);
}

const std::string *JsonValue::asString() const {
  return K == Kind::String ? &Str : nullptr;
}

const std::vector<JsonValue> *JsonValue::asArray() const {
  return K == Kind::Array ? &Arr : nullptr;
}

const std::string *JsonValue::memberString(std::string_view Key) const {
  const JsonValue *V = member(Key);
  return V ? V->asString() : nullptr;
}

std::optional<uint64_t> JsonValue::memberU64(std::string_view Key) const {
  const JsonValue *V = member(Key);
  return V ? V->asU64() : std::nullopt;
}

JsonValue JsonValue::makeBool(bool B) {
  JsonValue V;
  V.K = Kind::Bool;
  V.B = B;
  return V;
}

JsonValue JsonValue::makeInt(int64_t I) {
  JsonValue V;
  V.K = Kind::Number;
  V.IsInt = true;
  V.Int = I;
  return V;
}

JsonValue JsonValue::makeDouble(double D) {
  JsonValue V;
  V.K = Kind::Number;
  V.Num = D;
  return V;
}

JsonValue JsonValue::makeString(std::string S) {
  JsonValue V;
  V.K = Kind::String;
  V.Str = std::move(S);
  return V;
}

JsonValue JsonValue::makeArray(std::vector<JsonValue> Elems) {
  JsonValue V;
  V.K = Kind::Array;
  V.Arr = std::move(Elems);
  return V;
}

JsonValue
JsonValue::makeObject(std::vector<std::pair<std::string, JsonValue>> Members) {
  JsonValue V;
  V.K = Kind::Object;
  V.Obj = std::move(Members);
  return V;
}

namespace {

void writeValue(JsonWriter &W, const JsonValue &V);

void writeContainer(JsonWriter &W, const JsonValue &V) {
  if (const auto *Arr = V.asArray()) {
    W.beginArray();
    for (const JsonValue &E : *Arr)
      writeValue(W, E);
    W.endArray();
  }
}

void writeValue(JsonWriter &W, const JsonValue &V) {
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    // JsonWriter has no null; emit through the double path's null spelling.
    W.value(std::nan(""));
    return;
  case JsonValue::Kind::Bool:
    W.value(*V.asBool());
    return;
  case JsonValue::Kind::Number:
    if (auto U = V.asU64())
      W.value(*U);
    else if (auto I = V.asI64())
      W.value(*I);
    else
      W.value(*V.asDouble());
    return;
  case JsonValue::Kind::String:
    W.value(*V.asString());
    return;
  case JsonValue::Kind::Array:
    writeContainer(W, V);
    return;
  case JsonValue::Kind::Object:
    W.beginObject();
    // Member iteration is not part of the public surface; serialize via a
    // lookup-free path by reconstructing from the ordered pairs.
    for (const auto &[Key, Member] : V.objectMembers()) {
      W.key(Key);
      writeValue(W, Member);
    }
    W.endObject();
    return;
  }
}

} // namespace

std::string JsonValue::toJson() const {
  JsonWriter W;
  writeValue(W, *this);
  return W.take();
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace bec {

class JsonParser {
public:
  JsonParser(std::string_view Text, std::string *Error)
      : Text(Text), Error(Error) {}

  std::optional<JsonValue> run() {
    JsonValue V;
    if (!parseValue(V, 0))
      return std::nullopt;
    skipSpace();
    if (Pos != Text.size()) {
      fail("trailing characters after value");
      return std::nullopt;
    }
    return V;
  }

private:
  /// Nesting bound: a hostile frame must not be able to exhaust the stack.
  static constexpr unsigned MaxDepth = 64;

  bool fail(const std::string &Message) {
    if (Error && Error->empty())
      *Error = "offset " + std::to_string(Pos) + ": " + Message;
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool parseValue(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipSpace();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      Out.K = JsonValue::Kind::String;
      return parseString(Out.Str);
    case 't':
      if (!literal("true"))
        return fail("invalid literal");
      Out = JsonValue::makeBool(true);
      return true;
    case 'f':
      if (!literal("false"))
        return fail("invalid literal");
      Out = JsonValue::makeBool(false);
      return true;
    case 'n':
      if (!literal("null"))
        return fail("invalid literal");
      Out = JsonValue::makeNull();
      return true;
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(JsonValue &Out, unsigned Depth) {
    ++Pos; // '{'
    Out.K = JsonValue::Kind::Object;
    skipSpace();
    if (consume('}'))
      return true;
    for (;;) {
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected member key");
      std::string Key;
      if (!parseString(Key))
        return false;
      if (!consume(':'))
        return fail("expected ':' after member key");
      JsonValue Member;
      if (!parseValue(Member, Depth + 1))
        return false;
      Out.Obj.emplace_back(std::move(Key), std::move(Member));
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(JsonValue &Out, unsigned Depth) {
    ++Pos; // '['
    Out.K = JsonValue::Kind::Array;
    skipSpace();
    if (consume(']'))
      return true;
    for (;;) {
      JsonValue Elem;
      if (!parseValue(Elem, Depth + 1))
        return false;
      Out.Arr.push_back(std::move(Elem));
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool parseHex4(uint32_t &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (unsigned I = 0; I < 4; ++I) {
      char C = Text[Pos++];
      uint32_t Digit;
      if (C >= '0' && C <= '9')
        Digit = static_cast<uint32_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Digit = static_cast<uint32_t>(C - 'a') + 10;
      else if (C >= 'A' && C <= 'F')
        Digit = static_cast<uint32_t>(C - 'A') + 10;
      else
        return fail("invalid \\u escape");
      Out = Out * 16 + Digit;
    }
    return true;
  }

  void appendUtf8(std::string &S, uint32_t CP) {
    if (CP < 0x80) {
      S += static_cast<char>(CP);
    } else if (CP < 0x800) {
      S += static_cast<char>(0xC0 | (CP >> 6));
      S += static_cast<char>(0x80 | (CP & 0x3F));
    } else if (CP < 0x10000) {
      S += static_cast<char>(0xE0 | (CP >> 12));
      S += static_cast<char>(0x80 | ((CP >> 6) & 0x3F));
      S += static_cast<char>(0x80 | (CP & 0x3F));
    } else {
      S += static_cast<char>(0xF0 | (CP >> 18));
      S += static_cast<char>(0x80 | ((CP >> 12) & 0x3F));
      S += static_cast<char>(0x80 | ((CP >> 6) & 0x3F));
      S += static_cast<char>(0x80 | (CP & 0x3F));
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out += C;
        ++Pos;
        continue;
      }
      if (++Pos >= Text.size())
        return fail("truncated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        uint32_t CP;
        if (!parseHex4(CP))
          return false;
        if (CP >= 0xD800 && CP <= 0xDBFF) {
          // High surrogate: must be followed by \uDC00..\uDFFF.
          if (Pos + 1 >= Text.size() || Text[Pos] != '\\' ||
              Text[Pos + 1] != 'u')
            return fail("unpaired surrogate");
          Pos += 2;
          uint32_t Low;
          if (!parseHex4(Low))
            return false;
          if (Low < 0xDC00 || Low > 0xDFFF)
            return fail("invalid low surrogate");
          CP = 0x10000 + ((CP - 0xD800) << 10) + (Low - 0xDC00);
        } else if (CP >= 0xDC00 && CP <= 0xDFFF) {
          return fail("unpaired surrogate");
        }
        appendUtf8(Out, CP);
        break;
      }
      default:
        return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    bool AnyDigits = false;
    while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9') {
      ++Pos;
      AnyDigits = true;
    }
    if (!AnyDigits)
      return fail("invalid value");
    bool Integral = true;
    if (Pos < Text.size() && Text[Pos] == '.') {
      Integral = false;
      ++Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      Integral = false;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    std::string Literal(Text.substr(Start, Pos - Start));
    Out.K = JsonValue::Kind::Number;
    if (Integral) {
      errno = 0;
      char *End = nullptr;
      bool Negative = Literal[0] == '-';
      int64_t V = Negative ? std::strtoll(Literal.c_str(), &End, 10)
                           : static_cast<int64_t>(
                                 std::strtoull(Literal.c_str(), &End, 10));
      if (errno == 0 && End == Literal.c_str() + Literal.size()) {
        Out.IsInt = true;
        Out.Big = !Negative && V < 0;
        Out.Int = V;
        return true;
      }
      // Out-of-range integer literal: fall back to double precision.
    }
    errno = 0;
    char *End = nullptr;
    double D = std::strtod(Literal.c_str(), &End);
    if (End != Literal.c_str() + Literal.size())
      return fail("invalid number");
    Out.IsInt = false;
    Out.Num = D;
    return true;
  }

  std::string_view Text;
  std::string *Error;
  size_t Pos = 0;
};

} // namespace bec

std::optional<JsonValue> bec::parseJson(std::string_view Text,
                                        std::string *Error) {
  if (Error)
    Error->clear();
  return JsonParser(Text, Error).run();
}
