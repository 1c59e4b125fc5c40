//===- core/Metrics.h - Trace-based reliability metrics --------------------===//
///
/// \file
/// The quantities reported in the paper's evaluation, computed by walking
/// an execution trace with the static BEC classes:
///
///  * Table III: fault-injection runs at value level ("Live in values",
///    the inject-on-read baseline), at bit level ("Live in bits"), and the
///    masked/inferrable breakdown of the pruned runs;
///  * Table IV / Section III-B: the total fault space and the vulnerability
///    (number of live fault sites over the whole run).
///
/// The counting rules reproduce the paper's motivating-example figures
/// exactly (288/225 runs and 681/576 live sites; see tests).
///
//===----------------------------------------------------------------------===//

#ifndef BEC_CORE_METRICS_H
#define BEC_CORE_METRICS_H

#include "core/BECAnalysis.h"

#include <span>

namespace bec {

/// Fault-injection campaign sizes for one execution trace.
struct FaultInjectionCounts {
  /// |cycles| x |registers| x width: every spatial/temporal fault site.
  uint64_t TotalFaultSpace = 0;
  /// Runs required by value-level inject-on-read analysis.
  uint64_t ValueLevelRuns = 0;
  /// Runs required after BEC pruning.
  uint64_t BitLevelRuns = 0;
  /// Runs pruned because the fault site is provably masked.
  uint64_t MaskedBits = 0;
  /// Runs pruned because the effect equals another run's effect.
  uint64_t InferrableBits = 0;

  double prunedFraction() const {
    if (ValueLevelRuns == 0)
      return 0.0;
    return 1.0 - static_cast<double>(BitLevelRuns) /
                     static_cast<double>(ValueLevelRuns);
  }
};

/// Counts fault-injection runs over the dynamic trace \p Executed
/// (instruction index per cycle, as produced by the simulator).
///
/// A segment's bit-level runs are its distinct non-masked classes
/// (PointSummary::NumProbes) minus the classes a run of a read register's
/// segment already covers. That covered count depends only on the key
/// (destination access point, governing access points of the reads), so
/// it is computed once per distinct key and reused on every later cycle.
FaultInjectionCounts countFaultInjectionRuns(const BECAnalysis &A,
                                             std::span<const uint32_t> Executed);

/// The program's fault surface over the trace: the number of live fault
/// sites (non-masked bits of every register's governing segment) summed
/// over all executed instructions; the final halt contributes the live
/// bits of its observable read registers (Section III-B).
uint64_t computeVulnerability(const BECAnalysis &A,
                              std::span<const uint32_t> Executed);

} // namespace bec

#endif // BEC_CORE_METRICS_H
