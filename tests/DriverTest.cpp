//===- tests/DriverTest.cpp - In-process tests of the `bec` CLI -----------===//

#include "Driver.h"

#include "core/BECAnalysis.h"
#include "core/Metrics.h"
#include "sim/Interpreter.h"
#include "support/JsonParse.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace bec;
using bec::tool::runDriver;

namespace {

/// Runs the driver in-process and captures stdout/stderr text.
struct DriverRun {
  int Status;
  std::string Out;
  std::string Err;
};

DriverRun run(std::vector<std::string> Args) {
  std::ostringstream Out, Err;
  int Status = runDriver(Args, Out, Err);
  return {Status, Out.str(), Err.str()};
}

/// Reads a file into a string (empty when missing).
std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TEST(Driver, AnalyzeBitcountMatchesDirectPipeline) {
  DriverRun R = run({"analyze", "--workload", "bitcount"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("bitcount"), std::string::npos);
  EXPECT_NE(R.Out.find("Fault space"), std::string::npos);
  EXPECT_NE(R.Out.find("Masked"), std::string::npos);

  // The table must carry the same numbers the library computes directly.
  Program Prog = loadWorkload(*findWorkload("bitcount"));
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  FaultInjectionCounts C = countFaultInjectionRuns(A, Golden.Executed);
  EXPECT_NE(R.Out.find(Table::withSeparators(C.TotalFaultSpace)),
            std::string::npos);
  EXPECT_NE(R.Out.find(Table::withSeparators(C.BitLevelRuns)),
            std::string::npos);
  EXPECT_NE(R.Out.find(Table::withSeparators(
                computeVulnerability(A, Golden.Executed))),
            std::string::npos);
}

TEST(Driver, AnalyzeIsCaseInsensitiveOnWorkloadNames) {
  DriverRun R = run({"analyze", "--workload", "crc32"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("CRC32"), std::string::npos);
}

TEST(Driver, AnalyzeAllWorkloadsWithJobs) {
  DriverRun R = run({"analyze", "--all", "--jobs", "4"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  // One row per bundled workload, in registry order.
  size_t Pos = 0;
  for (const Workload &W : allWorkloads()) {
    size_t Found = R.Out.find(W.Name, Pos);
    EXPECT_NE(Found, std::string::npos) << "missing row for " << W.Name;
    Pos = Found;
  }
}

TEST(Driver, CampaignBitcountBitLevelPlan) {
  DriverRun R = run({"campaign", "--workload", "bitcount", "--plan", "bit"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("bit-level"), std::string::npos);
  EXPECT_NE(R.Out.find("Runs"), std::string::npos);
  EXPECT_NE(R.Out.find("SDC"), std::string::npos);
  // The per-class breakdown: rate columns next to the raw counts.
  EXPECT_NE(R.Out.find("SDC rate"), std::string::npos);
  EXPECT_NE(R.Out.find("Trap rate"), std::string::npos);
}

/// The campaign's wall-clock column is the one measured (not computed)
/// value; mask it before comparing two runs' reports.
std::string maskCampaignSeconds(std::string S) {
  size_t Pos = 0;
  while ((Pos = S.find_first_of("0123456789", Pos)) != std::string::npos) {
    size_t End = S.find_first_not_of("0123456789.", Pos);
    size_t LineEnd = S.find('\n', Pos);
    std::string Tok = S.substr(Pos, (End == std::string::npos ? S.size()
                                                              : End) - Pos);
    // A x.yz token at end of line is the Seconds cell.
    if (End == LineEnd && Tok.find('.') != std::string::npos) {
      S.replace(Pos, Tok.size(), "#");
      Pos += 1;
    } else {
      Pos = End == std::string::npos ? S.size() : End;
    }
  }
  return S;
}

TEST(Driver, CampaignCheckpointResumeReportIsByteIdentical) {
  std::string Path = testing::TempDir() + "/driver_campaign_ck.jsonl";
  std::remove(Path.c_str());
  std::vector<std::string> Base = {"campaign",     "--workload",
                                   "bitcount",     "--max-cycles",
                                   "120",          "--checkpoint",
                                   Path};
  DriverRun Full = run(Base);
  EXPECT_EQ(Full.Status, tool::ExitSuccess) << Full.Err;

  std::vector<std::string> ResumeCmd = Base;
  ResumeCmd.push_back("--resume");
  DriverRun Resumed = run(ResumeCmd);
  EXPECT_EQ(Resumed.Status, tool::ExitSuccess) << Resumed.Err;
  EXPECT_EQ(maskCampaignSeconds(Full.Out), maskCampaignSeconds(Resumed.Out));
  EXPECT_NE(Resumed.Err.find("resumed"), std::string::npos);

  // A campaign checkpoint is not a fuzz checkpoint: resuming a fuzz run
  // from it is an error that leaves the file as it was.
  std::string Before = slurp(Path);
  DriverRun Fuzz = run({"fuzz", "--count", "4", "--seed", "3", "--max-cycles",
                        "24", "--checkpoint", Path, "--resume"});
  EXPECT_EQ(Fuzz.Status, tool::ExitBadInput);
  EXPECT_NE(Fuzz.Err.find("is not a bec fuzz checkpoint"), std::string::npos)
      << Fuzz.Err;
  EXPECT_EQ(slurp(Path), Before);
  std::remove(Path.c_str());
}

TEST(Driver, CampaignProfileRecordsTheEngine) {
  // --profile is a local-only input: the engine must collect its phases
  // for the document to say anything.
  std::string Path = testing::TempDir() + "/driver_campaign_profile.json";
  std::remove(Path.c_str());
  DriverRun R = run({"campaign", "--workload", "bitcount", "--max-cycles",
                     "120", "--threads", "2", "--profile", Path});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  std::ifstream In(Path);
  std::stringstream Doc;
  Doc << In.rdbuf();
  std::optional<JsonValue> V = parseJson(Doc.str());
  ASSERT_TRUE(V.has_value()) << Doc.str();
  EXPECT_EQ(V->member("collected")->asBool(), true);
  ASSERT_NE(V->member("workers")->asArray(), nullptr);
  EXPECT_FALSE(V->member("workers")->asArray()->empty());
  std::remove(Path.c_str());
}

TEST(Driver, CampaignSampledReportsConfidenceIntervals) {
  DriverRun R = run({"campaign", "--workload", "bitcount", "--max-cycles",
                     "120", "--sample", "300", "--seed", "9"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("sampled 300 of"), std::string::npos);
  EXPECT_NE(R.Out.find("95% CI"), std::string::npos);

  DriverRun J = run({"campaign", "--workload", "bitcount", "--max-cycles",
                     "120", "--sample", "300", "--seed", "9", "--format",
                     "json"});
  EXPECT_EQ(J.Status, tool::ExitSuccess) << J.Err;
  EXPECT_NE(J.Out.find("\"sample\":"), std::string::npos);
  EXPECT_NE(J.Out.find("\"ci95\":"), std::string::npos);
  EXPECT_NE(J.Out.find("\"rates\":"), std::string::npos);
}

TEST(Driver, CampaignProgressNarratesShards) {
  DriverRun R = run({"campaign", "--workload", "bitcount", "--max-cycles",
                     "120", "--threads", "2", "--progress"});
  EXPECT_EQ(R.Status, tool::ExitSuccess);
  EXPECT_NE(R.Err.find("bec: campaign: bitcount:"), std::string::npos);
  EXPECT_NE(R.Err.find("shards"), std::string::npos);
}

TEST(Driver, CampaignEngineUsageErrors) {
  // Campaign-engine flags belong to campaign (or client campaign calls).
  EXPECT_EQ(run({"analyze", "--sample", "10"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"report", "--progress"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"harden", "--checkpoint", "x.jsonl"}).Status,
            tool::ExitUsage);
  EXPECT_EQ(run({"campaign", "--sample", "many"}).Status, tool::ExitUsage);
  // Engine flags on a non-campaign client method would silently run a
  // different request than asked.
  EXPECT_EQ(run({"client", "analyze", "bitcount", "--threads", "2"}).Status,
            tool::ExitUsage);
  EXPECT_EQ(run({"campaign", "--shard-size", "0"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"campaign", "--resume"}).Status, tool::ExitUsage);
  // One checkpoint file describes one campaign.
  EXPECT_EQ(run({"campaign", "--all", "--checkpoint", "x.jsonl"}).Status,
            tool::ExitUsage);
  // Checkpoints are local state; the server cannot write them.
  EXPECT_EQ(run({"campaign", "--workload", "bitcount", "--checkpoint",
                 "x.jsonl", "--remote", "127.0.0.1:1"})
                .Status,
            tool::ExitUsage);
}

TEST(Driver, ScheduleBitcountReportsAllPolicies) {
  DriverRun R = run({"schedule", "--workload", "bitcount"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("Source vuln"), std::string::npos);
  EXPECT_NE(R.Out.find("Best vuln"), std::string::npos);
  EXPECT_NE(R.Out.find("Worst vuln"), std::string::npos);
}

TEST(Driver, ReportBitcountIsSound) {
  DriverRun R = run({"report", "--workload", "bitcount"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("sound"), std::string::npos);
  EXPECT_EQ(R.Out.find("UNSOUND"), std::string::npos);
}

TEST(Driver, AnalyzeExternalAsmFile) {
  // Round-trip: dump a bundled workload to disk, analyze it as a file.
  std::string Path = testing::TempDir() + "/driver_bitcount.s";
  {
    std::ofstream OutFile(Path);
    OutFile << loadWorkload(*findWorkload("bitcount")).toString();
  }
  DriverRun R = run({"analyze", "--asm", Path});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find(Path), std::string::npos);
}

/// One command line and the exit code the driver must return for it.
struct UsageRow {
  std::vector<std::string> Args;
  int Exit;
};

constexpr int Ok = tool::ExitSuccess;
constexpr int Usage = tool::ExitUsage;
constexpr int Bad = tool::ExitBadInput;

/// A port nothing listens on, and a path no file can be created at:
/// command lines that parse stop at "cannot connect" or "cannot write"
/// (exit 2) before doing any work, so a row shows parse acceptance
/// cheaply.
const std::string NoServer = "127.0.0.1:1";
const std::string Unwritable = "/dev/null/x";

void expectExits(const std::vector<UsageRow> &Rows) {
  for (const UsageRow &Row : Rows) {
    DriverRun R = run(Row.Args);
    std::string Line = "bec";
    for (const std::string &A : Row.Args)
      Line += " " + A;
    EXPECT_EQ(R.Status, Row.Exit) << Line << "\n" << R.Err;
  }
}

/// Every rejection of the command-line layer, each next to an accepted
/// twin that must still parse. Rows ending in `--workload nonesuch`,
/// `--remote NoServer` or an Unwritable file get past parsing and fail
/// with exit 2 at their first real step.
TEST(Driver, UsageErrors) {
  expectExits({
      // General grammar.
      {{}, Usage},
      {{"frobnicate"}, Usage},
      {{"--bogus"}, Usage},
      {{"--list-workloads"}, Usage},
      {{"analyze", "--workload"}, Usage},
      {{"analyze", "--bogus-flag"}, Usage},
      {{"analyze", "bitcount"}, Usage},
      {{"analyze", "--"}, Usage},
      {{"analyze", "-x"}, Usage},
      {{"analyze", "--all=1"}, Usage},
      {{"stats", "--metrics=yes"}, Usage},
      {{"campaign", "--resume=1", "--checkpoint", "x.jsonl"}, Usage},
      {{"analyze", "--workload=nonesuch"}, Bad},
      {{"-h"}, Ok},
      {{"--help"}, Ok},
      {{"analyze", "--help"}, Ok},
      {{"analyze", "-h", "--bogus"}, Ok},
      {{"analyze", "--list-workloads", "--bogus"}, Ok},
      {{"version", "--bogus"}, Ok},
      {{"--version"}, Ok},
      // --jobs.
      {{"analyze", "--jobs", "many"}, Usage},
      {{"analyze", "--jobs"}, Usage},
      {{"analyze", "--jobs", "4", "--workload", "nonesuch"}, Bad},
      {{"analyze", "--jobs=0", "--workload", "nonesuch"}, Bad},
      {{"analyze", "--jobs", "65536", "--workload", "nonesuch"}, Bad},
      {{"serve", "--jobs", "4", "--log-file", Unwritable}, Bad},
      {{"gateway", "--backends", NoServer, "--jobs", "2", "--log-file",
        Unwritable}, Bad},
      {{"client", "analyze", "bitcount", "--jobs", "2", "--remote", NoServer},
       Bad},
      // --max-cycles.
      {{"campaign", "--max-cycles", "10O"}, Usage},
      {{"campaign", "--max-cycles", "10", "--workload", "nonesuch"}, Bad},
      {{"report", "--max-cycles", "10", "--workload", "nonesuch"}, Bad},
      {{"fuzz", "--max-cycles", "24", "--count", "1", "--emit-corpus",
        Unwritable}, Bad},
      {{"client", "report", "bitcount", "--max-cycles", "10", "--remote",
        NoServer}, Bad},
      {{"client", "campaign", "bitcount", "--max-cycles", "10", "--remote",
        NoServer}, Bad},
      // --plan.
      {{"campaign", "--plan", "random"}, Usage},
      {{"campaign", "--plan"}, Usage},
      {{"campaign", "--plan", "EXHAUSTIVE", "--workload", "nonesuch"}, Bad},
      {{"campaign", "--plan=value", "--workload", "nonesuch"}, Bad},
      {{"client", "campaign", "bitcount", "--plan", "value", "--remote",
        NoServer}, Bad},
      // --sample / --shard-size.
      {{"campaign", "--sample", "many"}, Usage},
      {{"analyze", "--sample", "10"}, Usage},
      {{"fuzz", "--sample", "5"}, Usage},
      {{"client", "analyze", "bitcount", "--sample", "4", "--remote", NoServer},
       Usage},
      {{"campaign", "--sample", "4", "--workload", "nonesuch"}, Bad},
      {{"client", "campaign", "bitcount", "--sample", "4", "--remote",
        NoServer}, Bad},
      {{"client", "campaign/run", "bitcount", "--sample", "4", "--remote",
        NoServer}, Bad},
      {{"campaign", "--shard-size", "0"}, Usage},
      {{"campaign", "--shard-size", "x"}, Usage},
      {{"report", "--shard-size", "8"}, Usage},
      {{"campaign", "--shard-size", "8", "--workload", "nonesuch"}, Bad},
      // --seed / --threads / --progress.
      {{"campaign", "--seed", "x"}, Usage},
      {{"analyze", "--seed", "3"}, Usage},
      {{"schedule", "--seed", "3"}, Usage},
      {{"campaign", "--seed", "3", "--workload", "nonesuch"}, Bad},
      {{"client", "campaign", "bitcount", "--seed", "3", "--remote", NoServer},
       Bad},
      {{"fuzz", "--seed", "3", "--count", "1", "--emit-corpus", Unwritable},
       Bad},
      {{"campaign", "--threads", "65537"}, Usage},
      {{"campaign", "--threads", "x"}, Usage},
      {{"harden", "--threads", "2"}, Usage},
      {{"client", "analyze", "bitcount", "--threads", "2"}, Usage},
      {{"campaign", "--threads", "65536", "--workload", "nonesuch"}, Bad},
      {{"campaign", "--threads", "0", "--workload", "nonesuch"}, Bad},
      {{"fuzz", "--threads", "2", "--count", "1", "--emit-corpus", Unwritable},
       Bad},
      {{"report", "--progress"}, Usage},
      {{"campaign", "--progress", "--workload", "nonesuch"}, Bad},
      {{"fuzz", "--progress", "--count", "1", "--emit-corpus", Unwritable},
       Bad},
      {{"client", "campaign/run", "bitcount", "--progress", "--threads", "2",
        "--shard-size", "8", "--remote", NoServer}, Bad},
      // --prefix-checkpoint.
      {{"campaign", "--prefix-checkpoint=0"}, Usage},
      {{"campaign", "--prefix-checkpoint=x"}, Usage},
      {{"campaign", "--prefix-checkpoint="}, Usage},
      {{"campaign", "--prefix-checkpoint", "off"}, Usage},
      {{"analyze", "--prefix-checkpoint"}, Usage},
      {{"fuzz", "--prefix-checkpoint"}, Usage},
      {{"campaign", "--prefix-checkpoint", "--workload", "nonesuch"}, Bad},
      {{"campaign", "--prefix-checkpoint=OFF", "--workload", "nonesuch"}, Bad},
      {{"campaign", "--prefix-checkpoint=64", "--workload", "nonesuch"}, Bad},
      // --checkpoint / --resume.
      {{"harden", "--checkpoint", "x.jsonl"}, Usage},
      {{"analyze", "--resume"}, Usage},
      {{"campaign", "--resume"}, Usage},
      {{"fuzz", "--resume"}, Usage},
      {{"campaign", "--checkpoint"}, Usage},
      {{"campaign", "--all", "--checkpoint", "x.jsonl"}, Usage},
      {{"campaign", "--workload", "bitcount", "--checkpoint", "x.jsonl",
        "--remote", NoServer}, Usage},
      {{"client", "campaign", "bitcount", "--checkpoint", "x.jsonl", "--remote",
        NoServer}, Usage},
      {{"campaign", "--checkpoint", "x.jsonl", "--resume", "--workload",
        "nonesuch"}, Bad},
      {{"fuzz", "--checkpoint", "x.jsonl", "--resume", "--count", "1",
        "--emit-corpus", Unwritable}, Bad},
      // --profile.
      {{"analyze", "--profile", "p.json"}, Usage},
      {{"fuzz", "--profile", "p.json"}, Usage},
      {{"campaign", "--workload", "bitcount", "--profile", "p.json", "--remote",
        NoServer}, Usage},
      {{"campaign", "--all", "--profile", "p.json"}, Usage},
      {{"campaign", "--profile", "p.json", "--workload", "nonesuch"}, Bad},
      // --emit / --policy.
      {{"analyze", "--emit", "x.s"}, Usage},
      {{"schedule", "--emit", "x.s"}, Usage},
      {{"harden", "--sweep", "5,10", "--emit", "x.s"}, Usage},
      {{"client", "schedule", "bitcount", "--emit", "x.s", "--remote",
        NoServer}, Usage},
      {{"schedule", "--emit", "x.s", "--remote", NoServer}, Usage},
      {{"schedule", "--emit", "x.s", "--workload", "nonesuch"}, Bad},
      {{"harden", "--emit", "x.s", "--budget", "5", "--workload", "nonesuch"},
       Bad},
      {{"schedule", "--workload", "bitcount", "--emit", "x.s", "--remote",
        NoServer}, Bad},
      {{"schedule", "--policy", "random"}, Usage},
      {{"schedule", "--policy", "WORST", "--workload", "nonesuch"}, Bad},
      {{"schedule", "--policy=source", "--emit", "x.s", "--workload",
        "nonesuch"}, Bad},
      // --budget / --sweep.
      {{"harden", "--budget", "nope"}, Usage},
      {{"harden", "--budget", "-3"}, Usage},
      {{"harden", "--budget", "nan"}, Usage},
      {{"harden", "--budget", "inf"}, Usage},
      {{"harden", "--budget="}, Usage},
      {{"fuzz", "--budget", "5.5"}, Usage},
      {{"harden", "--budget", "12.5", "--workload", "nonesuch"}, Bad},
      {{"fuzz", "--budget", "100", "--count", "1", "--emit-corpus", Unwritable},
       Bad},
      {{"client", "harden", "bitcount", "--budget", "5", "--remote", NoServer},
       Bad},
      {{"harden", "--sweep", "5,x"}, Usage},
      {{"harden", "--sweep="}, Usage},
      {{"harden", "--sweep", ","}, Usage},
      {{"harden", "--sweep", "0,10", "--workload", "nonesuch"}, Bad},
      {{"client", "harden", "bitcount", "--sweep", "5,10", "--remote",
        NoServer}, Bad},
      // Fuzz-only.
      {{"fuzz", "--count", "0"}, Usage},
      {{"fuzz", "--count", "x"}, Usage},
      {{"analyze", "--count", "3"}, Usage},
      {{"campaign", "--bank", "d"}, Usage},
      {{"harden", "--emit-corpus", "d"}, Usage},
      {{"client", "campaign", "bitcount", "--count", "3", "--remote", NoServer},
       Usage},
      {{"fuzz", "--bank", "d", "--format", "json", "--count", "1",
        "--emit-corpus", Unwritable}, Bad},
      // --format.
      {{"analyze", "--format", "yaml"}, Usage},
      {{"analyze", "--format", "JSON", "--workload", "nonesuch"}, Bad},
      {{"fuzz", "--format", "json", "--count", "1", "--emit-corpus",
        Unwritable}, Bad},
      // --remote.
      {{"analyze", "--remote", "nohost"}, Usage},
      {{"analyze", "--remote", "h:0"}, Usage},
      {{"analyze", "--remote", "h:65536"}, Usage},
      {{"analyze", "--remote", ":1"}, Usage},
      {{"analyze", "--remote", "h:1x"}, Usage},
      {{"fuzz", "--remote", "h:1"}, Usage},
      {{"serve", "--remote", NoServer}, Usage},
      {{"gateway", "--backends", NoServer, "--remote", NoServer}, Usage},
      {{"analyze", "--workload", "bitcount", "--remote", NoServer}, Bad},
      {{"stats", "--remote", NoServer}, Bad},
      {{"client", "version", "--remote", NoServer}, Bad},
      // Serve / gateway.
      {{"serve", "--port", "70000"}, Usage},
      {{"serve", "--port", "x"}, Usage},
      {{"client", "shutdown", "--port", "4690"}, Usage},
      {{"analyze", "--host", "0.0.0.0"}, Usage},
      {{"stats", "--port-file", "p"}, Usage},
      {{"serve", "--port", "0", "--host", "127.0.0.1", "--port-file", "p",
        "--log-file", Unwritable}, Bad},
      {{"gateway", "--backends", NoServer, "--port", "0", "--host", "127.0.0.1",
        "--log-file", Unwritable}, Bad},
      {{"serve", "--queue-depth", "1048577"}, Usage},
      {{"serve", "--queue-depth", "x"}, Usage},
      {{"gateway", "--backends", NoServer, "--queue-depth", "4"}, Usage},
      {{"serve", "--queue-depth", "1048576", "--log-file", Unwritable}, Bad},
      {{"gateway"}, Usage},
      {{"gateway", "--backends", "nohost"}, Usage},
      {{"gateway", "--backends="}, Usage},
      {{"gateway", "--backends", NoServer + ",bad"}, Usage},
      {{"serve", "--backends", NoServer}, Usage},
      {{"gateway", "--backends", NoServer, "--workload", "bitcount"}, Usage},
      {{"gateway", "--backends", NoServer + ",127.0.0.1:1", "--log-file",
        Unwritable}, Bad},
      {{"gateway", "--backends", NoServer, "--health-interval", "0"}, Usage},
      {{"gateway", "--backends", NoServer, "--health-interval", "3601"}, Usage},
      {{"serve", "--health-interval", "5"}, Usage},
      {{"gateway", "--backends", NoServer, "--health-interval", "3600",
        "--log-file", Unwritable}, Bad},
      {{"serve", "--log-level", "loud"}, Usage},
      {{"serve", "--log-level", "DEBUG"}, Usage},
      {{"serve", "--log-format", "xml"}, Usage},
      {{"analyze", "--log-level", "debug"}, Usage},
      {{"stats", "--log-file", "l"}, Usage},
      {{"client", "version", "--log-format", "logfmt", "--remote", NoServer},
       Usage},
      {{"serve", "--log-level", "debug", "--log-format", "logfmt", "--log-file",
        Unwritable}, Bad},
      // Stats.
      {{"analyze", "--watch", "5"}, Usage},
      {{"analyze", "--metrics"}, Usage},
      {{"stats", "--watch"}, Usage},
      {{"stats", "--watch", "0"}, Usage},
      {{"stats", "--watch", "86401"}, Usage},
      {{"stats", "--watch", "86400", "--remote", NoServer}, Bad},
      {{"stats", "--metrics", "--remote", NoServer}, Bad},
      // Target selection where no targets are taken.
      {{"fuzz", "--workload", "bitcount"}, Usage},
      {{"fuzz", "--all"}, Usage},
      {{"fuzz", "--asm", "x.s"}, Usage},
      {{"stats", "--workload", "bitcount"}, Usage},
      {{"stats", "--all"}, Usage},
      {{"client", "analyze", "--all", "--remote", NoServer}, Usage},
      {{"client", "analyze", "--workload", "bitcount", "--remote", NoServer},
       Usage},
      {{"client", "analyze", "--asm", "x.s", "--remote", NoServer}, Usage},
      // Client grammar.
      {{"client"}, Usage},
      {{"client", "--remote", NoServer}, Usage},
      {{"client", "bogus", "--remote", NoServer}, Usage},
      {{"client", "analyze/run", "--remote", NoServer}, Usage},
      {{"client", "version", "extra", "--remote", NoServer}, Usage},
      {{"client", "counts", "--remote", NoServer}, Usage},
      {{"client", "gateway/drain", "--remote", NoServer}, Usage},
      {{"client", "trace/dump", "a", "b", "--remote", NoServer}, Usage},
      {{"client", "log/level", "a", "b", "--remote", NoServer}, Usage},
      {{"client", "intern", "--remote", NoServer}, Usage},
      {{"client", "counts", "bitcount", "--remote", NoServer}, Bad},
      {{"client", "--remote", NoServer, "analyze", "bitcount"}, Bad},
      {{"client", "analyze", "bitcount", "--format", "json", "--remote",
        NoServer}, Bad},
      {{"client", "intern", "/nonexistent/x.s", "--remote", NoServer}, Bad},
      {{"client", "gateway/undrain", NoServer, "--remote", NoServer}, Bad},
      {{"client", "trace/dump", "--remote", NoServer}, Bad},
      {{"client", "log/level", "info", "--remote", NoServer}, Bad},
      // --trace-out.
      {{"analyze", "--trace-out"}, Usage},
      {{"analyze", "--trace-out=" + Unwritable, "--workload", "nonesuch"},
       Bad},
      {{"client", "version", "--trace-out", Unwritable, "--remote", NoServer},
       Bad},
      {{"stats", "--trace-out", Unwritable, "--remote", NoServer}, Bad},
  });

  DriverRun Unknown = run({"analyze", "--workload", "nonesuch"});
  EXPECT_EQ(Unknown.Status, tool::ExitBadInput);
  EXPECT_NE(Unknown.Err.find("nonesuch"), std::string::npos);

  EXPECT_EQ(run({"analyze", "--asm", "/nonexistent/x.s"}).Status,
            tool::ExitBadInput);
}

/// A flag is valid only with the subcommands (and client methods) that
/// read it; elsewhere it is a usage error rather than silently ignored.
/// --prefix-checkpoint tunes the local engine only (becd takes no such
/// param). Unsigned flags and the port of a host:port address take
/// decimal digits only, and are bounded before they narrow: a sign or an
/// overflow never wraps.
TEST(Driver, FlagsAreRejectedWhereNoSubcommandReadsThem) {
  expectExits({
      {{"analyze", "--jobs", "4294967296", "--workload", "nonesuch"}, Usage},
      {{"analyze", "--jobs", "65537", "--workload", "nonesuch"}, Usage},
      {{"analyze", "--jobs", "-1", "--workload", "nonesuch"}, Usage},
      {{"serve", "--jobs", "4294967296", "--log-file", Unwritable}, Usage},
      {{"analyze", "--sweep", "5", "--workload", "nonesuch"}, Usage},
      {{"schedule", "--sweep", "5,10", "--workload", "nonesuch"}, Usage},
      {{"fuzz", "--sweep", "5", "--count", "1", "--emit-corpus", Unwritable},
       Usage},
      {{"client", "analyze", "bitcount", "--sweep", "5", "--remote", NoServer},
       Usage},
      {{"campaign", "--budget", "5", "--workload", "nonesuch"}, Usage},
      {{"analyze", "--budget", "5", "--workload", "nonesuch"}, Usage},
      {{"client", "campaign", "bitcount", "--budget", "5", "--remote",
        NoServer}, Usage},
      {{"analyze", "--plan", "exhaustive", "--workload", "nonesuch"}, Usage},
      {{"report", "--plan", "bit", "--workload", "nonesuch"}, Usage},
      {{"fuzz", "--plan", "value", "--count", "1", "--emit-corpus", Unwritable},
       Usage},
      {{"client", "report", "bitcount", "--plan", "value", "--remote",
        NoServer}, Usage},
      {{"analyze", "--max-cycles", "3", "--workload", "nonesuch"}, Usage},
      {{"harden", "--max-cycles", "3", "--workload", "nonesuch"}, Usage},
      {{"client", "analyze", "bitcount", "--max-cycles", "3", "--remote",
        NoServer}, Usage},
      {{"analyze", "--policy", "worst", "--workload", "nonesuch"}, Usage},
      {{"harden", "--policy", "worst", "--workload", "nonesuch"}, Usage},
      {{"client", "schedule", "bitcount", "--policy", "worst", "--remote",
        NoServer}, Usage},
      {{"analyze", "--plan", "exhaustive", "--policy", "worst", "--max-cycles",
        "3", "--workload", "nonesuch"}, Usage},
      {{"serve", "--workload", "bitcount", "--log-file", Unwritable}, Usage},
      {{"serve", "--all", "--log-file", Unwritable}, Usage},
      {{"fuzz", "--jobs", "2", "--count", "1", "--emit-corpus", Unwritable},
       Usage},
      {{"stats", "--jobs", "2", "--remote", NoServer}, Usage},
      {{"client", "version", "--jobs", "2", "--remote", NoServer}, Usage},
      {{"stats", "--format", "json", "--remote", NoServer}, Usage},
      {{"serve", "--format", "json", "--log-file", Unwritable}, Usage},
      {{"client", "version", "--format", "json", "--remote", NoServer}, Usage},
      {{"campaign", "--workload", "bitcount", "--prefix-checkpoint=off",
        "--remote", NoServer}, Usage},
      {{"campaign", "--workload", "bitcount", "--prefix-checkpoint=64",
        "--remote", NoServer}, Usage},
      {{"client", "campaign", "bitcount", "--prefix-checkpoint", "--remote",
        NoServer}, Usage},
      {{"client", "campaign/run", "bitcount", "--prefix-checkpoint=off",
        "--remote", NoServer}, Usage},
      {{"campaign", "--max-cycles", "-5", "--workload", "nonesuch"}, Usage},
      {{"campaign", "--shard-size", "-1", "--workload", "nonesuch"}, Usage},
      {{"campaign", "--sample", "-1", "--workload", "nonesuch"}, Usage},
      {{"campaign", "--seed", "-1", "--workload", "nonesuch"}, Usage},
      {{"campaign", "--seed", "+3", "--workload", "nonesuch"}, Usage},
      {{"campaign", "--seed", "99999999999999999999", "--workload",
        "nonesuch"}, Usage},
      {{"campaign", "--prefix-checkpoint=-8", "--workload", "nonesuch"},
       Usage},
      {{"fuzz", "--budget", "-1", "--count", "1", "--emit-corpus",
        Unwritable}, Usage},
      {{"fuzz", "--count", "-1", "--emit-corpus", Unwritable}, Usage},
      {{"analyze", "--workload", "bitcount", "--remote",
        "127.0.0.1:-18446744073709551615"}, Usage},
      {{"analyze", "--workload", "bitcount", "--remote", "127.0.0.1:+9"},
       Usage},
      {{"gateway", "--backends", "127.0.0.1:-18446744073709551615",
        "--log-file", Unwritable}, Usage},
      {{"gateway", "--backends", NoServer + ",127.0.0.1:+9", "--log-file",
        Unwritable}, Usage},
      {{"campaign", "--seed", "18446744073709551615", "--workload",
        "nonesuch"}, Bad},
  });
}

TEST(Driver, TraceOutWritesABalancedChromeTraceAndSameReport) {
  std::string Path = testing::TempDir() + "/driver_trace.json";
  std::remove(Path.c_str());

  DriverRun Plain = run({"analyze", "--workload", "bitcount"});
  ASSERT_EQ(Plain.Status, tool::ExitSuccess) << Plain.Err;
  DriverRun Traced =
      run({"analyze", "--workload", "bitcount", "--trace-out=" + Path});
  ASSERT_EQ(Traced.Status, tool::ExitSuccess) << Traced.Err;
  // Tracing never changes the printed report.
  EXPECT_EQ(Plain.Out, Traced.Out);

  std::string Doc = slurp(Path);
  ASSERT_FALSE(Doc.empty());
  std::string JsonErr;
  std::optional<JsonValue> V = parseJson(Doc, &JsonErr);
  ASSERT_TRUE(V.has_value()) << JsonErr;
  const std::vector<JsonValue> *Events = V->member("traceEvents")->asArray();
  ASSERT_NE(Events, nullptr);
  ASSERT_FALSE(Events->empty());

  // Balanced, properly nested B/E per thread; the root span wraps the
  // subcommand; session queries appear under deterministic names.
  std::map<uint64_t, std::vector<std::string>> Stacks;
  std::set<std::string> Names;
  for (const JsonValue &E : *Events) {
    const std::string &Ph = *E.memberString("ph");
    uint64_t Tid = *E.memberU64("tid");
    const std::string &Name = *E.memberString("name");
    if (Ph == "B") {
      Stacks[Tid].push_back(Name);
      Names.insert(Name);
    } else if (Ph == "E") {
      ASSERT_FALSE(Stacks[Tid].empty()) << Name;
      EXPECT_EQ(Stacks[Tid].back(), Name);
      Stacks[Tid].pop_back();
    }
  }
  for (const auto &[Tid, Stack] : Stacks)
    EXPECT_TRUE(Stack.empty()) << "unbalanced spans on tid " << Tid;
  EXPECT_TRUE(Names.count("bec:analyze"));
  EXPECT_TRUE(Names.count("query:cmd.analyze"));

  // Span names are deterministic run to run (timestamps are not).
  std::string Path2 = testing::TempDir() + "/driver_trace2.json";
  std::remove(Path2.c_str());
  DriverRun Again =
      run({"analyze", "--workload", "bitcount", "--trace-out", Path2});
  ASSERT_EQ(Again.Status, tool::ExitSuccess) << Again.Err;
  std::optional<JsonValue> V2 = parseJson(slurp(Path2));
  ASSERT_TRUE(V2.has_value());
  std::set<std::string> Names2;
  for (const JsonValue &E : *V2->member("traceEvents")->asArray())
    if (*E.memberString("ph") == "B")
      Names2.insert(*E.memberString("name"));
  EXPECT_EQ(Names, Names2);

  std::remove(Path.c_str());
  std::remove(Path2.c_str());
}

TEST(Driver, TraceOutCoversTheEngineWorkers) {
  std::string Path = testing::TempDir() + "/driver_trace_engine.json";
  std::remove(Path.c_str());
  DriverRun R = run({"campaign", "--workload", "bitcount", "--max-cycles",
                     "120", "--trace-out", Path});
  ASSERT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  std::optional<JsonValue> V = parseJson(slurp(Path));
  ASSERT_TRUE(V.has_value());
  // Per-worker spans carry the scaling story: runs, steals, snapshot
  // rebuilds and idle time as closing args.
  bool SawWorker = false, SawShard = false;
  for (const JsonValue &E : *V->member("traceEvents")->asArray()) {
    const std::string &Name = *E.memberString("name");
    SawShard |= Name == "fi.shard";
    if (Name.rfind("fi.worker-", 0) != 0 || *E.memberString("ph") != "E")
      continue;
    SawWorker = true;
    const JsonValue *Args = E.member("args");
    ASSERT_NE(Args, nullptr);
    EXPECT_NE(Args->member("runs"), nullptr);
    EXPECT_NE(Args->member("steals"), nullptr);
    EXPECT_NE(Args->member("snapshot_rebuilds"), nullptr);
    EXPECT_NE(Args->member("idle_us"), nullptr);
  }
  EXPECT_TRUE(SawWorker);
  EXPECT_TRUE(SawShard);
  std::remove(Path.c_str());
}

TEST(Driver, StatsSubcommandAndObservabilityUsageGates) {
  // Local stats: always exits 0; after the driver runs above, this
  // process's registry has session metrics to print.
  ASSERT_EQ(run({"analyze", "--workload", "bitcount"}).Status,
            tool::ExitSuccess);
  DriverRun Local = run({"stats"});
  EXPECT_EQ(Local.Status, tool::ExitSuccess) << Local.Err;
  EXPECT_NE(Local.Out.find("session.query.miss"), std::string::npos);

  // --metrics switches to the Prometheus exposition.
  DriverRun Prom = run({"stats", "--metrics"});
  EXPECT_EQ(Prom.Status, tool::ExitSuccess) << Prom.Err;
  EXPECT_NE(Prom.Out.find("# TYPE bec_session_query_miss_total counter"),
            std::string::npos);

  // The observability flags are gated to the subcommands they modify.
  EXPECT_EQ(run({"analyze", "--watch", "5"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"analyze", "--metrics"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"stats", "--watch"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"stats", "--watch", "0"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"stats", "--workload", "bitcount"}).Status,
            tool::ExitUsage);
  EXPECT_EQ(run({"analyze", "--trace-out"}).Status, tool::ExitUsage);
  // Boolean flags refuse --flag=value.
  EXPECT_EQ(run({"stats", "--metrics=yes"}).Status, tool::ExitUsage);
  // Unwritable trace path: the subcommand runs, the trace write fails.
  EXPECT_EQ(run({"analyze", "--workload", "bitcount",
                 "--trace-out=/nonexistent/dir/t.json"})
                .Status,
            tool::ExitBadInput);
}

TEST(Driver, DuplicateTargetSelectionsCollapse) {
  DriverRun R = run({"analyze", "--workload", "bitcount", "--workload",
                     "BITCOUNT", "--workload", "bitcount"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  size_t First = R.Out.find("bitcount");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(R.Out.find("bitcount", First + 1), std::string::npos)
      << "duplicate selections must produce one row:\n"
      << R.Out;
}

TEST(Driver, ScheduleEmitWritesParseableAssembly) {
  std::string Path = testing::TempDir() + "/driver_sched.s";
  DriverRun R =
      run({"schedule", "--workload", "bitcount", "--emit", Path});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  DriverRun Re = run({"analyze", "--asm", Path});
  EXPECT_EQ(Re.Status, tool::ExitSuccess) << Re.Err;
}

TEST(Driver, HardenReportsValidatedParetoPoints) {
  DriverRun R = run({"harden", "--workload", "bitcount"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("Residual vuln"), std::string::npos);
  EXPECT_NE(R.Out.find("ok"), std::string::npos);
  EXPECT_EQ(R.Out.find("FAIL"), std::string::npos) << R.Out;
}

TEST(Driver, HardenSweepEmitsOneRowPerBudget) {
  DriverRun R =
      run({"harden", "--workload", "crc32", "--sweep", "0,10"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("0.00%"), std::string::npos);
  EXPECT_NE(R.Out.find("10.00%"), std::string::npos);
  // Two data rows: header + separator + 2 rows.
  EXPECT_EQ(std::count(R.Out.begin(), R.Out.end(), '\n'), 4);
}

TEST(Driver, HardenEmitWritesParseableAssembly) {
  std::string Path = testing::TempDir() + "/driver_hardened.s";
  DriverRun R = run({"harden", "--workload", "bitcount", "--emit", Path});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  DriverRun Re = run({"analyze", "--asm", Path});
  EXPECT_EQ(Re.Status, tool::ExitSuccess) << Re.Err;
}

TEST(Driver, JsonOutputIsWellFormedAndComplete) {
  // Every subcommand emits through the shared api/Serialize.h serializer.
  for (const char *Cmd :
       {"analyze", "campaign", "schedule", "harden", "report"}) {
    DriverRun R =
        run({Cmd, "--workload", "bitcount", "--format", "json"});
    EXPECT_EQ(R.Status, tool::ExitSuccess) << Cmd << ": " << R.Err;
    ASSERT_FALSE(R.Out.empty());
    EXPECT_EQ(R.Out.front(), '{') << Cmd;
    EXPECT_EQ(R.Out[R.Out.size() - 2], '}') << Cmd; // Trailing newline.
    EXPECT_NE(R.Out.find("\"command\":\"" + std::string(Cmd) + "\""),
              std::string::npos);
    EXPECT_NE(R.Out.find("\"name\":\"bitcount\""), std::string::npos);
  }
  DriverRun A = run({"analyze", "--workload", "bitcount", "--format",
                     "json"});
  EXPECT_NE(A.Out.find("\"vulnerability\":"), std::string::npos);
  DriverRun C = run({"campaign", "--workload", "bitcount", "--format",
                     "json"});
  EXPECT_NE(C.Out.find("\"plan\":\"bit-level\""), std::string::npos);
  EXPECT_NE(C.Out.find("\"effects\":"), std::string::npos);
  DriverRun Sch = run({"schedule", "--workload", "bitcount", "--format",
                       "json"});
  EXPECT_NE(Sch.Out.find("\"source_vulnerability\":"), std::string::npos);
  EXPECT_NE(Sch.Out.find("\"best_vs_source\":"), std::string::npos);
  DriverRun H = run({"harden", "--workload", "bitcount", "--format",
                     "json"});
  EXPECT_NE(H.Out.find("\"residual_vulnerability\":"), std::string::npos);
  EXPECT_NE(H.Out.find("\"ok\":true"), std::string::npos);
  DriverRun Rep = run({"report", "--workload", "bitcount", "--format",
                       "json"});
  EXPECT_EQ(Rep.Status, tool::ExitSuccess) << Rep.Err;
  EXPECT_NE(Rep.Out.find("\"sound\":true"), std::string::npos);
}

TEST(Driver, HardenAndFormatUsageErrors) {
  EXPECT_EQ(run({"harden", "--budget", "nope"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"harden", "--budget", "-3"}).Status, tool::ExitUsage);
  // strtod accepts these spellings; the budget gate must not.
  EXPECT_EQ(run({"harden", "--budget", "nan"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"harden", "--budget", "inf"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"harden", "--sweep", "5,x"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"analyze", "--format", "yaml"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"harden", "--sweep", "5,10", "--emit", "x.s"}).Status,
            tool::ExitUsage);
}

TEST(Driver, FuzzReportIsDeterministicAndClean) {
  std::vector<std::string> Args = {"fuzz", "--count", "4", "--seed", "3",
                                   "--max-cycles", "24"};
  DriverRun A = run(Args);
  EXPECT_EQ(A.Status, tool::ExitSuccess) << A.Err;
  EXPECT_NE(A.Out.find("Fuzz corpus: seed 3, 4 programs"),
            std::string::npos);
  EXPECT_NE(A.Out.find("Mismatches"), std::string::npos);
  EXPECT_NE(A.Out.find("Idiom coverage"), std::string::npos);

  // Same seed, more threads: byte-identical modulo the Seconds cell.
  std::vector<std::string> Threaded = Args;
  Threaded.insert(Threaded.end(), {"--threads", "4"});
  DriverRun B = run(Threaded);
  EXPECT_EQ(B.Status, tool::ExitSuccess) << B.Err;
  EXPECT_EQ(maskCampaignSeconds(A.Out), maskCampaignSeconds(B.Out));
}

TEST(Driver, FuzzJsonReportsTheCampaign) {
  DriverRun R = run({"fuzz", "--count", "3", "--seed", "3", "--max-cycles",
                     "24", "--format", "json"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("\"fuzz\":{"), std::string::npos);
  EXPECT_NE(R.Out.find("\"programs\":3"), std::string::npos);
  EXPECT_NE(R.Out.find("\"mismatches\":[]"), std::string::npos);
}

TEST(Driver, FuzzCheckpointResumeReportIsByteIdentical) {
  std::string Path = testing::TempDir() + "/driver_fuzz_ck.jsonl";
  std::remove(Path.c_str());
  std::vector<std::string> Base = {"fuzz", "--count", "4", "--seed", "3",
                                   "--max-cycles", "24", "--checkpoint",
                                   Path};
  DriverRun Full = run(Base);
  EXPECT_EQ(Full.Status, tool::ExitSuccess) << Full.Err;

  std::vector<std::string> ResumeCmd = Base;
  ResumeCmd.push_back("--resume");
  DriverRun Resumed = run(ResumeCmd);
  EXPECT_EQ(Resumed.Status, tool::ExitSuccess) << Resumed.Err;
  EXPECT_EQ(maskCampaignSeconds(Full.Out), maskCampaignSeconds(Resumed.Out));
  EXPECT_NE(Resumed.Err.find("resumed 4 of 4"), std::string::npos)
      << Resumed.Err;

  // A kill mid-write leaves the last record cut mid-line: it is skipped,
  // its program re-runs, and the report is the same.
  std::string Whole = slurp(Path);
  std::ofstream(Path) << Whole.substr(0, Whole.size() - 7);
  DriverRun Torn = run(ResumeCmd);
  EXPECT_EQ(Torn.Status, tool::ExitSuccess) << Torn.Err;
  EXPECT_EQ(maskCampaignSeconds(Full.Out), maskCampaignSeconds(Torn.Out));
  EXPECT_NE(Torn.Err.find("resumed 3 of 4"), std::string::npos) << Torn.Err;
  // The re-run record starts on a line of its own, so a second resume
  // trusts all four programs.
  DriverRun Again = run(ResumeCmd);
  EXPECT_EQ(maskCampaignSeconds(Full.Out), maskCampaignSeconds(Again.Out));
  EXPECT_NE(Again.Err.find("resumed 4 of 4"), std::string::npos) << Again.Err;

  // A fuzz checkpoint is not a campaign checkpoint.
  std::string Before = slurp(Path);
  DriverRun Campaign =
      run({"campaign", "--workload", "bitcount", "--max-cycles", "120",
           "--checkpoint", Path, "--resume"});
  EXPECT_EQ(Campaign.Status, tool::ExitBadInput);
  EXPECT_NE(Campaign.Err.find("is not a bec campaign checkpoint"),
            std::string::npos)
      << Campaign.Err;
  EXPECT_EQ(slurp(Path), Before);
  std::remove(Path.c_str());
}

TEST(Driver, FuzzBudgetBoundsTheCorpus) {
  DriverRun R = run({"fuzz", "--count", "8", "--seed", "3", "--max-cycles",
                     "24", "--budget", "30000"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("beyond --budget"), std::string::npos);
}

TEST(Driver, FuzzUsageErrors) {
  // The fuzzer takes no targets and runs locally.
  EXPECT_EQ(run({"fuzz", "--workload", "bitcount"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"fuzz", "--all"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"fuzz", "--remote", "h:1"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"fuzz", "--count", "0"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"fuzz", "--budget", "5.5"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"fuzz", "--sample", "5"}).Status, tool::ExitUsage);
  // Fuzz-only flags stay fuzz-only.
  EXPECT_EQ(run({"analyze", "--count", "3"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"campaign", "--bank", "d"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"harden", "--emit-corpus", "d"}).Status, tool::ExitUsage);
}

/// `bec --help` is pinned byte for byte; a bare `bec` and an unknown
/// subcommand print the same text to stderr.
TEST(Driver, HelpMatchesGolden) {
  std::string Golden = slurp(BEC_TESTS_DIR "/golden/help.txt");
  ASSERT_FALSE(Golden.empty());
  for (const char *Spelling : {"--help", "-h"}) {
    DriverRun Help = run({Spelling});
    EXPECT_EQ(Help.Status, tool::ExitSuccess);
    EXPECT_EQ(Help.Out, Golden) << Spelling;
  }
  EXPECT_EQ(run({"campaign", "--help"}).Out, Golden);

  DriverRun Bare = run({});
  EXPECT_EQ(Bare.Status, tool::ExitUsage);
  EXPECT_EQ(Bare.Err, Golden);
  DriverRun Unknown = run({"frobnicate"});
  EXPECT_EQ(Unknown.Err, "bec: unknown subcommand 'frobnicate'\n" + Golden);
  DriverRun BadFlag = run({"analyze", "--bogus"});
  EXPECT_EQ(BadFlag.Err, "bec: unknown option '--bogus'\n" + Golden);
}

/// `bec analyze --all --format json` is pinned byte for byte: every
/// number in it comes out of the static analyses and the trace metrics.
TEST(Driver, AnalyzeAllMatchesGolden) {
  std::string Golden = slurp(BEC_TESTS_DIR "/golden/analyze_all.json");
  ASSERT_FALSE(Golden.empty());
  DriverRun R = run({"analyze", "--all", "--format", "json"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_EQ(R.Out, Golden);
}

TEST(Driver, HelpAndListWorkloads) {
  DriverRun Help = run({"--help"});
  EXPECT_EQ(Help.Status, tool::ExitSuccess);
  EXPECT_NE(Help.Out.find("usage: bec"), std::string::npos);

  DriverRun List = run({"analyze", "--list-workloads"});
  EXPECT_EQ(List.Status, tool::ExitSuccess);
  for (const Workload &W : allWorkloads())
    EXPECT_NE(List.Out.find(W.Name), std::string::npos);
}

} // namespace
