#pragma once

#include <memory>

#include "core/policy.hpp"
#include "graph/partition.hpp"

namespace csaw {

/// GraphView over one resident partition (paper §V-A). Neighbor lists are
/// served only for the partition's own vertices — touching a non-owned
/// vertex's adjacency is a programming error (it is not on the device).
///
/// Degrees of *any* vertex remain available: C-SAW's biases routinely need
/// degree(u) for neighbors owned by other partitions, so the (compact)
/// per-vertex degree array stays device-resident alongside the frontier
/// queues; only the adjacency payload is paged. `has_edge` against a
/// non-owned source is likewise answered from the host-resident index
/// (needed only by node2vec's dynamic bias).
class PartitionView final : public GraphView {
 public:
  PartitionView(const CsrGraph& whole, const GraphPartition& part)
      : whole_(&whole), part_(&part) {}

  VertexId num_vertices() const override { return whole_->num_vertices(); }
  EdgeIndex degree(VertexId v) const override { return whole_->degree(v); }

  std::span<const VertexId> neighbors(VertexId v) const override {
    return part_->neighbors(v);  // CSAW_CHECKs ownership
  }
  float edge_weight(VertexId v, EdgeIndex k) const override {
    return part_->edge_weight(v, k);
  }
  std::span<const float> edge_weights(VertexId v) const override {
    return part_->edge_weights(v);  // CSAW_CHECKs ownership
  }
  bool has_edge(VertexId v, VertexId u) const override {
    if (part_->owns(v)) return part_->has_edge(v, u);
    return whole_->has_edge(v, u);
  }

  const GraphPartition& partition() const noexcept { return *part_; }

 private:
  const CsrGraph* whole_;
  const GraphPartition* part_;
};

/// The partitioned graph plus its views, built once per OOM run.
class PartitionedGraph {
 public:
  PartitionedGraph(const CsrGraph& graph, std::uint32_t num_parts);

  std::uint32_t num_parts() const noexcept {
    return partitioner_.num_parts();
  }
  std::uint32_t part_of(VertexId v) const noexcept {
    return partitioner_.part_of(v);
  }
  const GraphPartition& part(std::uint32_t p) const {
    return partitioner_.part(p);
  }
  const PartitionView& view(std::uint32_t p) const { return *views_[p]; }
  const CsrGraph& whole() const noexcept { return *graph_; }

  // --- Capacity accounting for the demand-driven partition cache: how
  // many partitions a device budget holds is a property of the
  // partitioning, not of any one run.

  /// Device footprint of partition p's paged payload.
  std::uint64_t bytes(std::uint32_t p) const { return part(p).bytes(); }
  /// Sum of all partition footprints.
  std::uint64_t total_bytes() const noexcept;
  /// Footprint of the largest partition — the minimum budget that can
  /// hold even one cache slot.
  std::uint64_t max_partition_bytes() const noexcept;
  /// How many cache slots fit in `budget_bytes`, sized by the *largest*
  /// partition (slots are interchangeable, so the conservative uniform
  /// size keeps any partition loadable into any free slot). At least 1
  /// partition must always be loadable, so the result is never 0.
  std::uint32_t partitions_fitting(std::uint64_t budget_bytes) const noexcept;

 private:
  const CsrGraph* graph_;
  RangePartitioner partitioner_;
  std::vector<std::unique_ptr<PartitionView>> views_;
};

}  // namespace csaw
