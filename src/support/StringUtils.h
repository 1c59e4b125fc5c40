//===- support/StringUtils.h - Small shared string helpers ----------------===//
///
/// \file
/// String utilities shared by the CLI, the workload registry, the JSON
/// serializer and the files that spell 64-bit values in hex (campaign
/// checkpoints, span ids, fuzz seeds). ASCII-only by design: workload
/// names, option spellings and JSON keys never carry locale-dependent
/// characters.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SUPPORT_STRINGUTILS_H
#define BEC_SUPPORT_STRINGUTILS_H

#include <cctype>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bec {

/// Byte-wise ASCII lowering (no locale).
inline std::string toLowerAscii(std::string_view S) {
  std::string Out(S);
  for (char &C : Out)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return Out;
}

/// \p V as 16 lowercase hex digits. Table-based rather than snprintf:
/// every span id takes this path.
inline std::string hex64(uint64_t V) {
  static constexpr char Digits[] = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I, V >>= 4)
    Out[I] = Digits[V & 15];
  return Out;
}

/// The inverse of hex64: 1 to 16 hex digits and nothing else. A sign, a
/// space or a `0x` prefix is rejected, never read as a number.
inline std::optional<uint64_t> parseHex64(std::string_view S) {
  uint64_t V = 0;
  auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), V, 16);
  if (S.size() > 16 || Ec != std::errc() || End != S.data() + S.size())
    return std::nullopt;
  return V;
}

} // namespace bec

#endif // BEC_SUPPORT_STRINGUTILS_H
