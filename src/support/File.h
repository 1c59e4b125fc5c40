//===- support/File.h - Whole-file writes ---------------------------------===//
///
/// \file
/// The one way the driver and the fuzzer write a whole output file
/// (emitted programs, profiles, traces, port files, reproducers).
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SUPPORT_FILE_H
#define BEC_SUPPORT_FILE_H

#include <fstream>
#include <string>
#include <string_view>

namespace bec {

/// Replaces the contents of \p Path with \p Text. False when the file
/// cannot be opened or written.
inline bool writeFile(const std::string &Path, std::string_view Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  Out.flush();
  return bool(Out);
}

} // namespace bec

#endif // BEC_SUPPORT_FILE_H
