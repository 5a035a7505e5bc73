#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "util/bitmap.hpp"

namespace csaw {

/// Mutable state of one sampling instance. An instance is one independent
/// sample being drawn from the graph (paper §IV-A): a single-source walk,
/// one neighbor-sampling tree, or one multi-dimensional random walk pool.
struct InstanceState {
  std::uint32_t id = 0;
  /// FrontierPool: candidate vertices for the next step.
  std::vector<VertexId> pool;
  /// RNG slot of each pool entry (see engine.hpp rng_slots). Slots are
  /// assigned when an entry is created, so random draws are independent of
  /// the order in which engines process entries.
  std::vector<std::uint32_t> pool_slots;
  /// Spare storage the engine builds the next pool and slots in before
  /// swapping them with `pool` / `pool_slots`, so advancing a step
  /// reuses two buffers instead of allocating new ones.
  std::vector<VertexId> spare_pool;
  std::vector<std::uint32_t> spare_slots;
  /// First seed of the instance — the restart target of random walk with
  /// restart.
  VertexId seed_vertex = kInvalidVertex;
  /// Vertex explored at the preceding step (node2vec context).
  VertexId prev_vertex = kInvalidVertex;
  /// Sampled-vertex membership, used when the spec filters visited
  /// vertices (traversal-based sampling never revisits).
  Bitset visited;
  /// False once the pool drains (dead end) or depth is exhausted.
  bool active = true;

  /// Initializes from seed vertices; seed i gets slot i. `track_visited`
  /// sizes the bitset and marks the seeds.
  void init(std::uint32_t instance_id, std::span<const VertexId> seeds,
            VertexId num_vertices, bool track_visited);

  /// Marks v visited; returns false if it already was. Always true when
  /// visitation is not tracked.
  bool mark_visited(VertexId v);
};

}  // namespace csaw
