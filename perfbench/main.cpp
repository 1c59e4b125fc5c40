//===- perfbench/main.cpp - The repository benchmark program --------------===//
///
/// \file
/// Usage:
///
///   perfbench --workload analyze|campaign|serve --seed N --seconds S
///             [--trace-out FILE] [--git-sha SHA] [--tiny]
///             [--corrupt-expected]
///
/// Without --trace-out, interleaves passes of the three phases for S
/// seconds, the workload's own phase taking half of the time, sets the
/// phases up 18 times spread over those S seconds (setup_s is the mean),
/// and prints the end-to-end metrics.
/// With --trace-out, sets up once, runs every phase once to warm up, once
/// under the obs tracer and once more untraced, writes the Chrome trace of
/// the traced pass to FILE and prints the per-layer counts and ratios the
/// trace cannot carry; summarize.py adds the span self times. The last
/// stdout line is one JSON object: correct, attempted, failed, metrics.
/// The exit code is 3 when any output check failed, 1 on an error, 2 on a
/// usage error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Trace.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

using namespace bec;
using namespace perfbench;

bool Checker::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok && ++Failed <= 20)
    std::fprintf(stderr, "perfbench: MISMATCH: %s\n", What.c_str());
  return Ok;
}

uint64_t perfbench::expected(const RunConfig &Cfg, uint64_t Recorded) {
  return Cfg.CorruptExpected ? Recorded + 1 : Recorded;
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

namespace {

unsigned nproc() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "analyze|campaign|serve --seed N --seconds S [--trace-out "
               "FILE] [--git-sha SHA] [--tiny] [--corrupt-expected]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, TraceOut, GitSha = "unknown";
  double Seconds = -1;
  RunConfig Cfg;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--tiny")
      Cfg.Tiny = true;
    else if (A == "--corrupt-expected")
      Cfg.CorruptExpected = true;
    else if (!(V = Next()))
      return usage(("missing value for " + A).c_str());
    else if (A == "--workload")
      Workload = V;
    else if (A == "--seed")
      Cfg.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      Seconds = std::strtod(V, nullptr);
    else if (A == "--trace-out")
      TraceOut = V;
    else if (A == "--git-sha")
      GitSha = V;
    else
      return usage(("unknown argument " + A).c_str());
  }
  const std::string Phases[] = {"analyze", "campaign", "serve"};
  if (std::find(std::begin(Phases), std::end(Phases), Workload) ==
      std::end(Phases))
    return usage("--workload must be analyze, campaign or serve");
  if (Seconds < 0)
    return usage("--seconds is required");
  Cfg.Threads = nproc();
  Cfg.Traced = !TraceOut.empty();
  // A fixed mmap threshold: glibc otherwise raises it after the first large
  // free, and whether a run's later large blocks come from the heap (and
  // stay resident) then depends on thread timing, which made peak_rss_mb
  // bimodal from run to run.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);

  std::string BuildType = PERFBENCH_BUILD_TYPE;
  std::printf("host {\"nproc\":%u,\"hardware_concurrency\":%u,"
              "\"build_type\":\"%s\",\"release\":%s,\"compiler\":\"%s\","
              "\"git_sha\":\"%s\"}\n",
              Cfg.Threads, std::thread::hardware_concurrency(),
              BuildType.c_str(), BuildType == "Release" ? "true" : "false",
              PERFBENCH_COMPILER, GitSha.c_str());
  if (BuildType != "Release")
    std::printf("WARNING: %s build; timings are not comparable\n",
                BuildType.c_str());

  AnalyzePhase Analyze(Cfg);
  CampaignPhase Campaign(Cfg);
  ServePhase Serve(Cfg);
  // One ledger per phase: ok_share is the lowest of their shares, so the
  // few campaign checks are not outweighed by thousands of analyze and
  // serve checks.
  Checker Chk[3];
  MetricMap Metrics;
  try {
    // Set-ups are spread over the run, like the passes, so that setup_s
    // samples the same host states as the other metrics, and it is their
    // mean for the reason PassTotals gives: one set-up takes about 30 ms
    // and lands in either host state, so a median jumps between the two.
    // Each one replaces the previous inputs with identical ones. Starting
    // the serve stack is left out: it is a dozen threads handing requests
    // to each other, and its time swung with host load far more than any
    // bound allows.
    const size_t SetupReps = TraceOut.empty() ? 18 : 1;
    std::vector<double> SetupS;
    auto Setup = [&] {
      Clock::time_point T0 = Clock::now();
      Analyze.setup();
      Campaign.setup();
      Serve.setup();
      SetupS.push_back(secondsSince(T0));
      std::printf("setup %zu: %.4f s\n", SetupS.size(), SetupS.back());
    };
    Setup();
    auto Pass = [&](const std::string &Phase) {
      if (Phase == "analyze")
        Analyze.runPass(Chk[0]);
      else if (Phase == "campaign")
        Campaign.runPass(Chk[1]);
      else
        Serve.runPass(Chk[2]);
    };

    if (TraceOut.empty()) {
      // Interleave the phases until the budget is spent, always running the
      // one furthest behind its share of the time: half for the workload's
      // own phase, a quarter for each other. Every metric then samples the
      // whole run, so a slow spell of the host hits all of them alike.
      double Spent[3] = {0, 0, 0}, Last[3] = {0, 0, 0};
      Clock::time_point T0 = Clock::now();
      for (;;) {
        int Next = 0;
        double Behind = 1e300;
        for (int P = 0; P < 3; ++P) {
          double Share = Phases[P] == Workload ? 0.5 : 0.25;
          if (Spent[P] / Share < Behind) {
            Behind = Spent[P] / Share;
            Next = P;
          }
        }
        if (Last[Next] > 0 && secondsSince(T0) + Last[Next] > Seconds)
          break;
        if (secondsSince(T0) >= Seconds * double(SetupS.size()) / SetupReps &&
            SetupS.size() < SetupReps)
          Setup();
        Clock::time_point P0 = Clock::now();
        Pass(Phases[Next]);
        Last[Next] = secondsSince(P0);
        Spent[Next] += Last[Next];
      }
      while (SetupS.size() < SetupReps)
        Setup();
    } else {
      // An untraced warm-up pass of every phase, the traced pass, then an
      // untraced pass right after it; the overhead compares the last two.
      for (const std::string &P : Phases)
        Pass(P);
      // Before the tracer holds a pass's worth of span events.
      Metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
      obs::traceBegin();
      Clock::time_point T1 = Clock::now();
      for (const std::string &P : Phases)
        Pass(P);
      double Traced = secondsSince(T1);
      // No server thread may still be recording when the trace is rendered.
      Serve.teardown();
      std::string Err;
      if (!obs::writeTrace(TraceOut, Err))
        throw std::runtime_error(Err);
      Clock::time_point T2 = Clock::now();
      for (const std::string &P : Phases)
        Pass(P);
      double Untraced = secondsSince(T2);
      Metrics["obs.trace_overhead_share"] = {Traced / Untraced - 1, "share"};
    }
    Analyze.crossCheck(Chk[0]);
    Serve.teardown();

    if (TraceOut.empty()) {
      Metrics["setup_s"] = {mean(SetupS), "s"};
      Analyze.endToEnd(Metrics);
      Campaign.endToEnd(Metrics);
    } else {
      Analyze.perLayer(Metrics);
      Campaign.perLayer(Metrics);
      Serve.perLayer(Metrics);
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }

  uint64_t Attempted = 0, Failed = 0;
  double OkShare = 1;
  for (int P = 0; P < 3; ++P) {
    const Checker &C = Chk[P];
    double Share =
        C.attempted() ? 1 - double(C.failed()) / double(C.attempted()) : 0;
    std::printf("checks %-8s %llu attempted, %llu failed\n", Phases[P].c_str(),
                (unsigned long long)C.attempted(),
                (unsigned long long)C.failed());
    Attempted += C.attempted();
    Failed += C.failed();
    OkShare = std::min(OkShare, Share);
  }
  bool Correct = Failed == 0 && OkShare == 1;
  if (TraceOut.empty())
    Metrics["ok_share"] = {OkShare, "share"};
  for (const auto &[Name, M] : Metrics)
    std::printf("  %-28s %16.6g %s\n", Name.c_str(), M.Value, M.Unit.c_str());

  std::string Line = "{\"correct\": ";
  Line += Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Attempted);
  Line += ", \"failed\": " + std::to_string(Failed);
  Line += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    Line += First ? "" : ", ";
    First = false;
    Line += "\"" + Name + "\": {\"value\": " + jsonNumber(M.Value) +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return Correct ? 0 : 3;
}
