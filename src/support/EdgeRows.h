//===- support/EdgeRows.h - Adjacency lists in compressed rows -----------===//
///
/// \file
/// Graph edges stored as compressed sparse rows: one flat edge array plus
/// the offset where each node's row starts. The program CFG and the
/// scheduler's block DAGs both use it, so copying either costs two
/// allocations however many nodes it has, and a builder that keeps one
/// alive reuses its storage from graph to graph.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SUPPORT_EDGEROWS_H
#define BEC_SUPPORT_EDGEROWS_H

#include <cstdint>
#include <span>
#include <vector>

namespace bec {

/// Rows are appended in node order: push a row's edges onto \c Edges,
/// then close it with endRow(). Row R is Edges[Start[R], Start[R + 1]).
struct EdgeRows {
  std::vector<uint32_t> Start = {0};
  std::vector<uint32_t> Edges;

  uint32_t rows() const { return static_cast<uint32_t>(Start.size()) - 1; }

  std::span<const uint32_t> row(uint32_t R) const {
    return {Edges.data() + Start[R], Edges.data() + Start[R + 1]};
  }

  /// Drops every row, keeping the allocations.
  void clear() {
    Start.assign(1, 0);
    Edges.clear();
  }

  void endRow() { Start.push_back(static_cast<uint32_t>(Edges.size())); }

  /// Replaces this with the reverse of \p In: row T lists every R whose row
  /// in \p In holds T, in increasing R (a counting sort, so the rows of the
  /// result come out sorted whatever order \p In's rows are in).
  void transposeOf(const EdgeRows &In) {
    uint32_t N = In.rows();
    // Count row T's size into Start[T + 2]; after the prefix sum
    // Start[T + 1] is where row T begins and serves as its fill cursor,
    // which leaves it at the row's end.
    Start.assign(N + 2, 0);
    for (uint32_t T : In.Edges)
      ++Start[T + 2];
    for (uint32_t I = 2; I < N + 2; ++I)
      Start[I] += Start[I - 1];
    Edges.resize(In.Edges.size());
    for (uint32_t R = 0; R < N; ++R)
      for (uint32_t T : In.row(R))
        Edges[Start[T + 1]++] = R;
    Start.pop_back();
  }
};

} // namespace bec

#endif // BEC_SUPPORT_EDGEROWS_H
