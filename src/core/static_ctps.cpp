#include "core/static_ctps.hpp"

#include "select/ctps.hpp"
#include "util/check.hpp"

namespace csaw {

StaticCtpsTable::StaticCtpsTable(const CsrGraph& graph, Bias bias)
    : graph_(&graph),
      bias_(std::move(bias)),
      f_(std::make_unique_for_overwrite<float[]>(graph.num_edges() +
                                                 graph.num_vertices())),
      slot_(std::make_unique<std::atomic<std::uint64_t>[]>(
          graph.num_vertices())) {
  CSAW_CHECK_MSG(bias_ != nullptr, "StaticCtpsTable needs a static EDGEBIAS");
}

StaticCtpsTable::State StaticCtpsTable::state_of(std::uint64_t slot) {
  switch (slot) {
    case kEmptySlot:
      return State::kEmpty;
    case kBuildingSlot:
      return State::kBuilding;
    case kUnselectableSlot:
      return State::kUnselectable;
    default:
      return State::kReady;
  }
}

StaticCtpsTable::Row StaticCtpsTable::visit(const GraphView& view, VertexId v,
                                            std::vector<float>& scratch) {
  CSAW_CHECK(v < graph_->num_vertices());
  const std::size_t row_size = graph_->degree(v) + 1;
  std::atomic<std::uint64_t>& slot = slot_[v];
  std::uint64_t seen = slot.load(std::memory_order_acquire);
  if (seen == kEmptySlot &&
      slot.compare_exchange_strong(seen, kBuildingSlot,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    // This visitor owns the fill. Same EdgeRefs, same float biases and
    // the same double total as the per-step EDGEBIAS loop.
    const auto adj = view.neighbors(v);
    const auto weights = view.edge_weights(v);
    CSAW_CHECK(adj.size() + 1 == row_size);
    CSAW_CHECK(weights.empty() || weights.size() == adj.size());
    scratch.resize(adj.size());
    double total = 0.0;
    for (std::size_t e = 0; e < adj.size(); ++e) {
      const EdgeRef edge{v, adj[e], weights.empty() ? 1.0f : weights[e],
                         static_cast<EdgeIndex>(e)};
      scratch[e] = bias_(view, edge);
      total += scratch[e];
    }
    if (total <= 0.0) {
      seen = kUnselectableSlot;
    } else {
      // Publication is the release store below; the claim itself needs
      // no ordering.
      const EdgeIndex at =
          used_.fetch_add(row_size, std::memory_order_relaxed);
      Ctps::fill(scratch, {f_.get() + at, row_size});
      seen = kFirstRowSlot + at;
    }
    slot.store(seen, std::memory_order_release);
  }
  const State state = state_of(seen);
  if (state != State::kReady) return Row{state, {}};
  return Row{state, {f_.get() + (seen - kFirstRowSlot), row_size}};
}

}  // namespace csaw
