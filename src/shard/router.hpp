#pragma once

// Sharded walk execution over a simulated transport
// (ExecutionMode::kSharded).
//
// A ShardRouter partitions a graph's vertices across N shard workers
// (ShardPartitionMap, edge-balanced contiguous ranges) and runs
// walk-shaped sampling instances KnightKing-style (see
// src/baselines/knightking.cpp run_walkers): supersteps of shard-local
// compute followed by an all-to-all walker exchange. Within a
// superstep each shard steps its resident walkers until they finish,
// die, or step onto a vertex another shard owns; boundary-crossing
// walkers are packed into WalkerEnvelopes and delivered over bounded
// queues in *simulated* time, so forwarding cost lands in the same
// CostModel (and therefore SEPS accounting) as kernels and partition
// copies.
//
// Determinism contract — the headline claim of the sharded tier: a
// run's samples are byte-identical at any shard count and any host
// thread count, because every random draw is addressed by the global
// instance tag (EngineConfig::instance_tags semantics), never by which
// shard or thread executed the step. Walk-shaped specs keep the RNG
// slot at 0 along the whole chain (single seed -> slot 0; one
// neighbor per step -> child_slot = 0*cap+0), so a walker's draw
// coordinates are (tag, depth, slot_base, ...) wherever it is
// resident — shard placement is invisible in the bytes. Shards only
// change the simulated timeline (envelope transfers, per-shard kernel
// overlap) and the failure domains.
//
// Fault semantics: a FaultInjector drops/delays envelope
// deliveries (bounded retry with doubling backoff in simulated time),
// and a terminally failed shard fails exactly the instances whose
// walkers are resident on or bound for it — every other instance's
// bytes are untouched. The service maps those to
// RequestOutcome::kShardFailed.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/run_result.hpp"
#include "core/sampler.hpp"
#include "gpusim/thread_pool.hpp"
#include "shard/partition_map.hpp"

namespace csaw {

/// Routes walk-shaped sampling runs across shard workers over the
/// simulated transport: the backend of ExecutionMode::kSharded. A
/// Sampler builds one per run from its own state — the router owns
/// nothing but references, so it lives exactly as long as that run.
class ShardRouter {
 public:
  /// Reads the transport knobs (options.shard) and the engine knobs
  /// every backend shares (seed, select, device_params) from `options`.
  /// `pool` executes the compute phase (null = serial) and
  /// `static_ctps` serves static-bias steps (null = per-step bias); both
  /// are the Sampler's. All references must outlive the router.
  ShardRouter(const CsrGraph& graph, const Policy& policy,
              const SamplingSpec& spec, const SamplerOptions& options,
              const ShardPartitionMap& map, sim::ThreadPool* pool,
              StaticCtpsTable* static_ctps);

  /// True when `spec` is walk-shaped: one neighbor per step, sampling
  /// with replacement, no visited filtering and no pool-level kernels
  /// (frontier selection / layer / snowball / variable NeighborSize).
  /// Exactly these specs keep the RNG slot at 0 along the chain, which
  /// is what makes a forwarded walker's draws shard-invariant.
  static bool shardable_spec(const SamplingSpec& spec);

  /// Runs one walker per seeds entry (each entry must hold exactly one
  /// seed vertex) under global instance tags `tags` (strictly
  /// increasing, one per entry — the service's coalesced-batch ids).
  /// Samples are byte-identical to an unsharded run of the same (graph,
  /// policy, spec, seed, tags) at any shard/thread count. Instances
  /// failed by terminal shard faults are listed in
  /// RunResult::shard->failed with their rows cleared; cancelled
  /// instances keep the steps they completed (RunControl semantics).
  RunResult run_tagged(std::span<const std::vector<VertexId>> seeds,
                       std::span<const std::uint32_t> tags,
                       const RunControl& control) const;

 private:
  const CsrGraph& graph_;
  const Policy& policy_;
  const SamplingSpec& spec_;
  const SamplerOptions& options_;
  const ShardPartitionMap& map_;
  sim::ThreadPool* pool_;
  StaticCtpsTable* static_ctps_;
  /// options.select with replacement forced on, as the engines derive it
  /// for walk-shaped specs, so SELECT draws the identical coordinates.
  SelectConfig select_;
};

}  // namespace csaw
