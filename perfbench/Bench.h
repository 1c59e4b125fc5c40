//===- perfbench/Bench.h - Shared pieces of the repository benchmark ------===//
///
/// \file
/// The benchmark drives three phases through the library's public API:
///
///   * AnalyzePhase  — the cold static pipeline, one fresh AnalysisSession
///                     per program (ir, analysis, core, sim, sched);
///   * CampaignPhase — bit-level and exhaustive fault-injection campaigns
///                     at 1 thread and at nproc threads (fi, sim replay);
///   * ServePhase    — an in-process gateway in front of two becd
///                     event-loop backends under a closed-loop client load
///                     (serve, net, api, short fi campaigns).
///
/// Every run executes all three phases, so every end-to-end metric is
/// measured on every workload; the workload's own phase gets half of the
/// run's time, the other two a quarter each.
/// Each call into a layer is wrapped in an obs::Span named after the layer
/// ("ir.parse", "fi.engine.1t", ...); summarize.py turns a traced run's
/// Chrome trace into per-layer self time.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// What one run was asked to do.
struct RunConfig {
  uint64_t Seed = 1;
  /// nproc: the campaign's nT leg, the client count of the serve load and
  /// the total worker count of the two backends.
  unsigned Threads = 1;
  /// Smoke-check sizes: every pass shrinks to a fraction of a second.
  bool Tiny = false;
  /// The traced run: the campaign phase adds its nproc-thread leg (the
  /// scaling readout), which is too noisy to gate as an end-to-end metric.
  bool Traced = false;
  /// Perturbs every recorded expected value, so the correctness gate must
  /// report failures (the smoke check's negative control).
  bool CorruptExpected = false;
};

/// The correctness ledger of a run. Every checked output is one attempt;
/// a mismatch is one failure, and the first few are described on stderr.
class Checker {
public:
  /// Records one attempt; a failure when \p Ok is false. Returns \p Ok.
  bool check(bool Ok, const std::string &What);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Recorded values are compared through this, so --corrupt-expected can
/// shift every one of them.
uint64_t expected(const RunConfig &Cfg, uint64_t Recorded);

/// A named number with its unit, as it appears in the result line.
struct Metric {
  double Value = 0;
  std::string Unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Linear-interpolated quantile \p Q in [0, 1] of \p V (0 when empty).
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}
inline double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / double(V.size());
}

/// What the passes of one phase measured, summarized two ways. Single
/// -threaded passes (analyze, campaign) switch between a fast and a slow
/// state of the host every few seconds; a median over such passes jumps
/// between the two states from run to run, so they report total work over
/// total time and per-pass percentiles averaged over passes, which move
/// only with the share of time in each state. Serve passes run sixteen
/// threads on the cores and see short contention spikes instead; a spike
/// drags a mean but not a median, so serve reports medians over passes.
struct PassTotals {
  double Work = 0, Seconds = 0;
  std::vector<double> Rate, P50, P99; ///< Per pass.

  void add(double PassWork, double PassSeconds, std::vector<double> Latency) {
    Work += PassWork;
    Seconds += PassSeconds;
    Rate.push_back(PassWork / PassSeconds);
    P50.push_back(quantile(Latency, 0.50));
    P99.push_back(quantile(std::move(Latency), 0.99));
  }
  double rate() const { return Seconds > 0 ? Work / Seconds : 0; }
};

/// Order-sensitive 64-bit digest step (splitmix64 finalizer over H ^ V).
inline uint64_t mixDigest(uint64_t H, uint64_t V) {
  uint64_t Z = H ^ (V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2));
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Order-free digests of the generated programs' results, one per corpus.
struct CorpusDigest {
  uint64_t Fixed = 0, Seeded = 0;
};

//===----------------------------------------------------------------------===//
// Phases
//===----------------------------------------------------------------------===//

/// Each phase: setup() builds the inputs (timed into setup_s), runPass()
/// executes one measured pass and checks its outputs, and
/// endToEnd()/perLayer() report what the passes measured.
class AnalyzePhase {
public:
  explicit AnalyzePhase(const RunConfig &Cfg) : Cfg(Cfg) {}
  void setup();
  void runPass(Checker &Chk);
  /// Recomputes the generated programs outside the session (direct library
  /// calls) and compares with the digest the passes produced.
  void crossCheck(Checker &Chk);
  void endToEnd(MetricMap &M) const;
  void perLayer(MetricMap &M) const;

  struct Item {
    std::string Name;
    std::string Asm;
    int Kernel = -1;    ///< Index into allWorkloads(), or -1 when generated.
    int Generated = -1; ///< Index among the generated programs.
    bool Fixed = false; ///< From the fixed corpus, not the run seed.
  };

private:
  const RunConfig &Cfg;
  std::vector<Item> Items;
  PassTotals Totals;
  uint64_t PassInstrs = 0, PassCycles = 0, PassBitClasses = 0;
  CorpusDigest LastDigest;
  bool HaveDigest = false;
};

class CampaignPhase {
public:
  explicit CampaignPhase(const RunConfig &Cfg);
  ~CampaignPhase();
  CampaignPhase(const CampaignPhase &) = delete;
  CampaignPhase &operator=(const CampaignPhase &) = delete;
  void setup();
  void runPass(Checker &Chk);
  void endToEnd(MetricMap &M) const;
  void perLayer(MetricMap &M) const;

  struct Target;

private:
  const RunConfig &Cfg;
  std::vector<Target> Targets;
  PassTotals Total1T, TotalNT; ///< runs and seconds of each leg
  uint64_t Runs = 0, SimulatedCycles = 0, Spliced = 0, Restores = 0,
           CheckpointBytes = 0;
  double RunFraction = 0, RebuildFraction = 0, StealFraction = 0,
         IdleFraction = 0;
};

class ServePhase {
public:
  explicit ServePhase(const RunConfig &Cfg);
  ~ServePhase();
  ServePhase(const ServePhase &) = delete;
  ServePhase &operator=(const ServePhase &) = delete;
  /// Draws the seeded traffic mix.
  void setup();
  /// Starts two backends and the gateway on ephemeral loopback ports,
  /// connects the clients and warms the bundled kernels (unmeasured), so
  /// every pass sends the same mix to the same cold state; then sends the
  /// mix and checks every reply.
  void runPass(Checker &Chk);
  /// Serve's end-to-end numbers are reported here too: on a shared host
  /// they swing with other tenants' load by more than any bound allows.
  void perLayer(MetricMap &M) const;
  /// Disconnects the clients and stops every server thread.
  void teardown();

  struct Stack;
  struct Renderer;
  struct Mix;

private:
  const RunConfig &Cfg;
  std::unique_ptr<Stack> S;
  std::unique_ptr<Renderer> Render;
  std::unique_ptr<Mix> Traffic;
  PassTotals Totals;
  uint64_t Requests = 0, Rejected = 0;
  double HitRate = 0, DirectP50Us = 0, GatewayP50Us = 0;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
