//===- tools/Driver.h - The `bec` pipeline driver --------------------------===//
///
/// \file
/// Library entry point of the `bec` command-line tool, factored out of the
/// binary so tests can invoke every subcommand in-process. The five
/// analysis subcommands parse into a serve::CommandRequest and run through
/// serve/Commands.h's runCommand, the one path they take in-process and,
/// with --remote, on a becd server; `bec --help` lists the rest.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_TOOLS_DRIVER_H
#define BEC_TOOLS_DRIVER_H

#include "serve/Commands.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace bec {
namespace tool {

/// Exit codes of the driver (stable interface; asserted by DriverTest):
/// a subcommand's own, plus the usage error.
enum ExitCode : int {
  ExitSuccess = serve::ExitSuccess,
  ExitUsage = 1, ///< Bad command line; usage was printed to Err.
  ExitBadInput = serve::ExitBadInput,
  ExitUnsound = serve::ExitUnsound,
};

/// Runs the `bec` CLI on \p Args (argv without the program name), writing
/// human output to \p Out and diagnostics to \p Err. Returns an ExitCode.
int runDriver(const std::vector<std::string> &Args, std::ostream &Out,
              std::ostream &Err);

} // namespace tool
} // namespace bec

#endif // BEC_TOOLS_DRIVER_H
