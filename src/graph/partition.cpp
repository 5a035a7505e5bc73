#include "graph/partition.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace csaw {

GraphPartition::GraphPartition(const CsrGraph& graph, VertexId first,
                               VertexId last, std::uint32_t id)
    : graph_(&graph), id_(id), first_(first), last_(last), num_edges_(0) {
  CSAW_CHECK(first <= last);
  CSAW_CHECK(last <= graph.num_vertices());
  if (first < last) {
    num_edges_ = graph.row_ptr()[last] - graph.row_ptr()[first];
  }
}

EdgeIndex GraphPartition::degree(VertexId v) const {
  CSAW_CHECK_MSG(owns(v), "vertex " << v << " not in partition " << id_);
  return graph_->degree(v);
}

std::span<const VertexId> GraphPartition::neighbors(VertexId v) const {
  CSAW_CHECK_MSG(owns(v), "vertex " << v << " not in partition " << id_);
  return graph_->neighbors(v);
}

std::span<const float> GraphPartition::edge_weights(VertexId v) const {
  CSAW_CHECK_MSG(owns(v), "vertex " << v << " not in partition " << id_);
  return graph_->edge_weights(v);
}

float GraphPartition::edge_weight(VertexId v, EdgeIndex k) const {
  CSAW_CHECK_MSG(owns(v), "vertex " << v << " not in partition " << id_);
  return graph_->edge_weight(v, k);
}

bool GraphPartition::has_edge(VertexId v, VertexId u) const {
  const auto adj = neighbors(v);
  return std::binary_search(adj.begin(), adj.end(), u);
}

std::uint64_t GraphPartition::bytes() const noexcept {
  const std::uint64_t weights = graph_->has_weights() ? num_edges_ : 0;
  return (std::uint64_t{num_vertices()} + 1) * sizeof(EdgeIndex) +
         num_edges_ * sizeof(VertexId) + weights * sizeof(float);
}

RangePartitioner::RangePartitioner(const CsrGraph& graph,
                                   std::uint32_t num_parts) {
  CSAW_CHECK(num_parts >= 1);
  const VertexId n = graph.num_vertices();
  CSAW_CHECK(n >= num_parts);
  range_size_ = (n + num_parts - 1) / num_parts;  // ceil
  parts_.reserve(num_parts);
  for (std::uint32_t p = 0; p < num_parts; ++p) {
    const VertexId first = std::min<VertexId>(p * range_size_, n);
    const VertexId last = std::min<VertexId>(first + range_size_, n);
    parts_.emplace_back(graph, first, last, p);
  }
}

const GraphPartition& RangePartitioner::part(std::uint32_t p) const {
  CSAW_CHECK(p < parts_.size());
  return parts_[p];
}

}  // namespace csaw
