#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/policy.hpp"
#include "graph/csr.hpp"

namespace csaw {

/// Per-vertex CTPS rows for one (CsrGraph, static EDGEBIAS) pair, filled
/// lazily on each vertex's first visit and reused by every later one.
///
/// A static bias (Policy::static_edge_bias) depends on the edge alone, so
/// the normalized prefix array F that SELECT builds over a vertex's
/// NeighborPool (paper §IV-A, Fig. 5) is the same on every visit. The
/// per-step path recomputes it anyway; with a table, a walk step is one
/// binary search over a stored row. Rows are produced by Ctps::fill from
/// the same biases in the same order, so they are bitwise equal to what
/// the per-step path builds and samples stay byte-identical. The table
/// saves host work only: callers still charge the simulated warp for the
/// per-step gather, bias, scan and normalization.
///
/// Storage: row v holds degree(v)+1 floats. Rows are laid out in the
/// order vertices are first visited, each vertex claiming its row once,
/// so the table reserves at most 4·(E+V) bytes of floats plus an 8-byte
/// slot per vertex. The float array is allocated uninitialized, so the
/// resident cost is the visited rows' own bytes — a short run over a big
/// graph touches a few pages, not one page per visited vertex.
///
/// Concurrency: each vertex has an atomic slot holding its state and,
/// once ready, its row's offset. The first visitor claims the row
/// (kEmpty -> kBuilding), fills it and publishes kReady, or
/// kUnselectable when every bias is zero. A visitor that finds kBuilding
/// (another thread mid-fill, or a fill that threw) gets no row and takes
/// the per-step path, which produces the same bytes — and, after a
/// throwing fill, raises the same CheckError the first visit did.
class StaticCtpsTable {
 public:
  using Bias = std::function<float(const GraphView&, const EdgeRef&)>;

  enum class State : std::uint8_t { kEmpty, kBuilding, kReady, kUnselectable };

  /// Result of one visit: kReady carries the row F; kUnselectable means
  /// the vertex has no positive bias; kBuilding means "no row, take the
  /// per-step path". Never kEmpty.
  struct Row {
    State state = State::kBuilding;
    std::span<const float> f;
  };

  /// `bias` must be non-null; `graph` must outlive the table.
  StaticCtpsTable(const CsrGraph& graph, Bias bias);

  const CsrGraph& graph() const noexcept { return *graph_; }

  /// Row of frontier vertex v (degree(v) > 0), filling it on first visit
  /// with biases evaluated against `view`, a view over graph(). `scratch`
  /// stages the biases. Rethrows the fill's CheckError, leaving the row
  /// kBuilding for good.
  Row visit(const GraphView& view, VertexId v, std::vector<float>& scratch);

  /// Current state of v's row (kEmpty until its first visit).
  State state(VertexId v) const {
    return state_of(slot_[v].load(std::memory_order_acquire));
  }

 private:
  /// Slot encoding: the three row-less states, then a ready row's offset
  /// in f_ shifted by kFirstRowSlot.
  static constexpr std::uint64_t kEmptySlot = 0;
  static constexpr std::uint64_t kBuildingSlot = 1;
  static constexpr std::uint64_t kUnselectableSlot = 2;
  static constexpr std::uint64_t kFirstRowSlot = 3;
  static State state_of(std::uint64_t slot);

  const CsrGraph* graph_;
  Bias bias_;
  std::unique_ptr<float[]> f_;
  /// Floats of f_ handed out so far (at most E+V: each vertex claims once).
  std::atomic<EdgeIndex> used_{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> slot_;
};

}  // namespace csaw
