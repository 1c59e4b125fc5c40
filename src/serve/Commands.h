//===- serve/Commands.h - The five subcommands, one execution path --------===//
///
/// \file
/// `bec analyze|campaign|schedule|harden|report` take one path, in-process
/// or on becd: the driver fills a CommandRequest and calls runCommand;
/// `--remote` and `bec client` send encode(request) and becd runs
/// decode(params) through the same runCommand. Evaluation, rendering,
/// per-target errors, exit codes and emitted programs exist once, so the
/// two differ only in transport. The wire params are one table
/// (Commands.cpp) that generates both encode and decode.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SERVE_COMMANDS_H
#define BEC_SERVE_COMMANDS_H

#include "api/Queries.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bec {

class JsonValue;

namespace serve {

/// Exit codes of a subcommand, in-process or on becd (the result's
/// "exit"). tools/Driver.h adds ExitUsage = 1.
enum CommandExit : int {
  ExitSuccess = 0,  ///< Everything ran and validated.
  ExitBadInput = 2, ///< A target failed to assemble / load / run.
  ExitUnsound = 3,  ///< Validation found the analysis or hardening unsound.
};

/// The five subcommands, in `bec --help` order.
enum class CommandKind { Analyze, Campaign, Schedule, Harden, Report };

/// The subcommand a becd method runs: its name, or "campaign/run" for
/// campaign's streaming form.
std::optional<CommandKind> commandOfMethod(std::string_view Method);

/// The spellings of "format", "plan" and schedule's "emit", shared with
/// the `--format`, `--plan` and `--policy` flags.
inline constexpr std::pair<const char *, bool> FormatNames[] = {
    {"text", false}, {"json", true}};
inline constexpr std::pair<const char *, PlanKind> PlanNames[] = {
    {"exhaustive", PlanKind::Exhaustive},
    {"value", PlanKind::ValueLevel},
    {"bit", PlanKind::BitLevel}};
inline constexpr std::pair<const char *, SchedulePolicy> PolicyNames[] = {
    {"best", SchedulePolicy::BestReliability},
    {"worst", SchedulePolicy::WorstReliability},
    {"source", SchedulePolicy::SourceOrder}};

/// What to run: every field a wire param reads. The campaign, harden and
/// report defaults are those of the query options.
struct CommandRequest {
  CommandKind Cmd = CommandKind::Analyze;
  /// "targets": names as given; none selects every bundled workload.
  std::vector<std::string> Targets;
  bool Json = false; ///< "format"
  unsigned Jobs = 1; ///< "jobs": targets at once (0 = one per core).
  /// campaign: "plan", "max_cycles", "sample", "seed", "threads" (0 = one
  /// per core) and "shard_size"; its other fields come from LocalInputs.
  CampaignCmdQuery::Options Campaign;
  bool Progress = false; ///< campaign: "progress", through the hook.
  /// schedule: "emit", the policy whose program to return.
  std::optional<SchedulePolicy> EmitSchedule;
  HardenCmdQuery::Options Harden; ///< "budgets"
  bool EmitHardened = false;      ///< harden: "emit" the hardened program.
  ReportCmdQuery::Options Report; ///< "max_cycles"
};

/// What only an in-process campaign has: files on the caller's disk and
/// prefix checkpointing. encode() never sees them.
struct LocalInputs {
  bool PrefixCheckpoint = true;
  uint64_t CheckpointEveryK = 0;
  std::string CheckpointPath;
  bool Resume = false;
  /// Collect the engine's phase profile (the caller writes it here).
  std::string ProfilePath;
};

/// \p R's params: every param R's method reads.
std::string encode(const CommandRequest &R);

/// Method \p K's request from \p Params (unknown params are ignored).
/// nullopt with \p Err set on a mistyped or out-of-bounds param.
std::optional<CommandRequest> decode(CommandKind K, const JsonValue &Params,
                                     std::string &Err);

/// A finished subcommand.
struct CommandOutcome {
  std::string Output; ///< The rendered document (stdout).
  std::string Diag;   ///< Per-target errors (stderr).
  int Exit = ExitSuccess;
  std::string Emit; ///< The requested program's assembly, on success.
  /// campaign: the first target's result (resume count, profile).
  std::shared_ptr<const CampaignCmdResult> Campaign;
};

/// The wire form of \p C (a subcommand method's result), and back;
/// nullopt for a malformed result.
std::string resultJson(const CommandOutcome &C, bool Json);
std::optional<CommandOutcome> outcomeOf(const JsonValue &Result);

/// A campaign/run progress frame's body for \p Target, and back.
std::string progressJson(const std::string &Target, const CampaignProgress &P);
CampaignProgress progressOf(const JsonValue &Frame);

/// Gets a target's name and its engine progress, never concurrently.
using ProgressHook =
    std::function<void(const std::string &Target, const CampaignProgress &)>;

/// Runs \p R over the targets (\p Names and \p Progs, in report order) on
/// a pool of R.Jobs threads.
CommandOutcome runCommand(AnalysisSession &S,
                          const std::vector<std::string> &Names,
                          const std::vector<CachedProgramPtr> &Progs,
                          const CommandRequest &R,
                          const LocalInputs &Local = {},
                          const ProgressHook &OnProgress = nullptr);

} // namespace serve
} // namespace bec

#endif // BEC_SERVE_COMMANDS_H
