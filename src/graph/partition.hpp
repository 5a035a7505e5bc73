#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace csaw {

/// One contiguous vertex-range partition with its complete neighbor
/// lists. This is the paper's partitioning rule (§V-A): never split a
/// neighbor list (transition probabilities need every edge of a vertex),
/// keep ranges contiguous and equal so partition lookup is constant time,
/// and skip topology-aware preprocessing entirely.
///
/// The partition is a view over the host CSR (which must outlive it): a
/// simulated device copy needs only its size, bytes(), so the host never
/// duplicates the adjacency.
class GraphPartition {
 public:
  GraphPartition(const CsrGraph& graph, VertexId first, VertexId last,
                 std::uint32_t id);

  std::uint32_t id() const noexcept { return id_; }
  VertexId first_vertex() const noexcept { return first_; }
  /// One past the last owned vertex.
  VertexId end_vertex() const noexcept { return last_; }
  VertexId num_vertices() const noexcept { return last_ - first_; }
  EdgeIndex num_edges() const noexcept { return num_edges_; }

  bool owns(VertexId v) const noexcept { return v >= first_ && v < last_; }

  EdgeIndex degree(VertexId v) const;
  /// Neighbors of owned vertex v (global vertex ids, sorted).
  std::span<const VertexId> neighbors(VertexId v) const;
  std::span<const float> edge_weights(VertexId v) const;
  float edge_weight(VertexId v, EdgeIndex k) const;
  bool has_edge(VertexId v, VertexId u) const;

  /// Size of this partition's CSR slice (its own rebased row_ptr, its
  /// adjacency and weights) — the payload of one host-to-device
  /// transfer.
  std::uint64_t bytes() const noexcept;

 private:
  const CsrGraph* graph_;
  std::uint32_t id_;
  VertexId first_;
  VertexId last_;
  EdgeIndex num_edges_;
};

/// Partitions a graph into `num_parts` contiguous equal vertex ranges.
/// Owner lookup is a single divide (constant time, as the paper requires
/// for bulk asynchronous sampling).
class RangePartitioner {
 public:
  RangePartitioner(const CsrGraph& graph, std::uint32_t num_parts);

  std::uint32_t num_parts() const noexcept {
    return static_cast<std::uint32_t>(parts_.size());
  }
  std::uint32_t part_of(VertexId v) const noexcept {
    const auto p = static_cast<std::uint32_t>(v / range_size_);
    return p < num_parts() ? p : num_parts() - 1;
  }
  const GraphPartition& part(std::uint32_t p) const;

 private:
  VertexId range_size_;
  std::vector<GraphPartition> parts_;
};

}  // namespace csaw
