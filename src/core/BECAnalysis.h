//===- core/BECAnalysis.h - Bit-level error coalescing (the paper's core) -===//
///
/// \file
/// The full BEC analysis of Section IV: (1) the global abstract bit-value
/// analysis, then (2) the iterative fault-index coalescing (Algorithm 2)
/// that partitions all fault indices into equivalence classes of identical
/// soft-error effect. Class 0 (s0) is the intact semantics: fault sites in
/// [s0] are masked.
///
/// Two refinements over the paper's pseudocode keep the relation sound
/// under reconvergent dataflow and loop-carried re-reads (see DESIGN.md):
/// non-s0 merges require a unique use site that consumes (kills) the
/// register, and masked merges additionally require the surviving segment
/// to be masked as well. Both are no-ops on all examples in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_CORE_BECANALYSIS_H
#define BEC_CORE_BECANALYSIS_H

#include "analysis/BitValueAnalysis.h"
#include "analysis/Liveness.h"
#include "analysis/UseDef.h"
#include "core/FaultSpace.h"
#include "core/Fates.h"
#include "support/UnionFind.h"

#include <memory>
#include <optional>

namespace bec {

/// Options for ablation studies; defaults reproduce the full analysis.
struct BECOptions {
  /// Intra-instruction rule families (Algorithm 3).
  FateOptions Fates;
  /// Inter-instruction coalescing (Algorithm 2 line 12). When off, only
  /// liveness-based masking (inject-on-read at bit width) remains.
  bool InterInstruction = true;
  /// Use the global bit-value analysis. When off, all register bits are
  /// treated as unknown (the "local KnownBits only" baseline).
  bool GlobalBitValues = true;
};

/// Result of the BEC analysis over one program.
class BECAnalysis {
public:
  /// Runs the analysis. The program must be verified with a built CFG, and
  /// must outlive this object.
  static BECAnalysis run(const Program &Prog, const BECOptions &Opts = {});

  /// Runs the coalescing on precomputed sub-analyses (which must have been
  /// produced from \p Prog). The api/AnalysisSession registry uses this to
  /// share cached Liveness/UseDef/BitValueAnalysis results instead of
  /// recomputing them per BECAnalysis.
  static BECAnalysis run(const Program &Prog, const BECOptions &Opts,
                         std::shared_ptr<const Liveness> Live,
                         std::shared_ptr<const UseDef> Uses,
                         std::shared_ptr<const BitValueAnalysis> BitValues);

  /// The result keeps a pointer to its program, so a temporary would
  /// dangle as soon as run() returned.
  static BECAnalysis run(Program &&, const BECOptions & = {}) = delete;
  static BECAnalysis run(Program &&, const BECOptions &,
                         std::shared_ptr<const Liveness>,
                         std::shared_ptr<const UseDef>,
                         std::shared_ptr<const BitValueAnalysis>) = delete;

  const Program &program() const { return *Prog; }
  const FaultSpace &space() const { return *Space; }
  const Liveness &liveness() const { return *Live; }
  const UseDef &useDef() const { return *Uses; }
  const BitValueAnalysis &bitValues() const { return *BitValues; }

  /// Representative of the equivalence class of fault index \p Idx.
  uint32_t classOf(uint32_t Idx) const { return Classes.find(Idx); }
  /// Representative of the class of s((P, V^Bit)), or nullopt if \p P is
  /// out of range, \p V is not a register, \p Bit is not a bit of the
  /// register file, or V is not accessed at P. Safe on untrusted query
  /// input: this is the library API's lookup and never aborts.
  std::optional<uint32_t> classOf(uint32_t P, Reg V, unsigned Bit) const {
    if (P >= Prog->size() || V >= NumRegs || Bit >= Space->width())
      return std::nullopt;
    int32_t Ap = Space->pointId(P, V);
    if (Ap < 0)
      return std::nullopt;
    return Classes.find(Space->faultIndex(static_cast<uint32_t>(Ap), Bit));
  }
  /// True if the fault site is masked (class of s0).
  bool isMasked(uint32_t Idx) const { return Classes.find(Idx) == 0; }

  /// Per-access-point summary used by the campaign planner and metrics.
  struct PointSummary {
    bool LiveAfter = false;  ///< Register live after the access point.
    uint64_t MaskedMask = 0; ///< Bits whose class is [s0].
    uint16_t NumProbes = 0;  ///< Distinct non-masked classes.
  };
  const PointSummary &summary(uint32_t Ap) const { return Summaries[Ap]; }

  /// Fates of instruction \p P (empty for instructions the bit-value
  /// analysis proved unreachable).
  const InstrFates &fates(uint32_t P) const { return Fates[P]; }

  /// Number of coalescing rounds until the fixed point.
  uint32_t iterations() const { return Iterations; }
  /// Total merges applied.
  uint32_t mergeCount() const { return Merges; }

private:
  /// Algorithm 2's rounds of inter-instruction merges, from the
  /// liveness-initialized relation to the fixed point.
  void coalesce();

  const Program *Prog = nullptr;
  std::unique_ptr<FaultSpace> Space;
  /// Shared so a cached sub-analysis (api/AnalysisSession) can back any
  /// number of BECAnalysis results without being recomputed or copied.
  std::shared_ptr<const Liveness> Live;
  std::shared_ptr<const UseDef> Uses;
  std::shared_ptr<const BitValueAnalysis> BitValues;
  std::vector<InstrFates> Fates;
  UnionFind Classes;
  std::vector<PointSummary> Summaries;
  uint32_t Iterations = 0;
  uint32_t Merges = 0;
};

} // namespace bec

#endif // BEC_CORE_BECANALYSIS_H
