// Cross-commit golden pin: an FNV-1a hash of the samples and the integer
// KernelStats of every registry algorithm, on two fixed generated graphs
// (one weighted), through the in-memory pipelined engine, the paged
// demand-cache engine and (walks only) ExecutionMode::kSharded.
//
// Every other byte-identity suite compares two paths of the same build.
// All of those paths share process_frontier_vertex, so a change to the
// step itself moves both sides together and still passes. These hashes
// were recorded before the step went allocation-free and pin the bytes
// across commits instead: a mismatch means the sampled edges or the
// simulated cost accounting changed.
//
// A second table pins the out-of-memory timeline: every walk algorithm
// through both pipelined out-of-memory plans (the legacy up-front
// transfer plan and the demand cache). Besides the samples and stats it
// hashes the bit patterns of sim_seconds and the kernel imbalance and the
// OomMetrics counters, so a change to how a residency round is scheduled,
// transferred or recorded shows up even when both plans move together.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "shard/router.hpp"

namespace csaw {
namespace {

constexpr std::uint32_t kInstances = 64;
constexpr std::uint32_t kWalkLength = 24;
constexpr std::uint32_t kSamplingDepth = 2;
constexpr std::uint32_t kTagBase = 1000;

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void hash_samples_and_stats(const RunResult& run, Fnv1a& h) {
  h.add(run.samples.num_instances());
  for (std::uint32_t i = 0; i < run.samples.num_instances(); ++i) {
    const auto edges = run.samples.edges(i);
    h.add(edges.size());
    for (const Edge& e : edges) {
      h.add(e.src);
      h.add(e.dst);
      h.add(std::bit_cast<std::uint32_t>(e.weight));
    }
  }
  sim::visit_kernel_stats(run.stats,
                          [&](const char*, std::uint64_t v) { h.add(v); });
}

std::uint64_t hash_run(const RunResult& run) {
  Fnv1a h;
  hash_samples_and_stats(run, h);
  return h.value();
}

/// hash_run plus the simulated timeline and the out-of-memory counters.
std::uint64_t hash_timeline(const RunResult& run) {
  Fnv1a h;
  hash_samples_and_stats(run, h);
  h.add(std::bit_cast<std::uint64_t>(run.sim_seconds));
  const OomMetrics& m = run.oom.value();
  h.add(std::bit_cast<std::uint64_t>(m.kernel_imbalance));
  h.add(m.partition_transfers);
  h.add(m.bytes_transferred);
  h.add(m.scheduling_rounds);
  h.add(m.kernel_launches);
  h.add(m.cache_hits);
  h.add(m.cache_evictions);
  h.add(m.prefetch_transfers);
  return h.value();
}

const CsrGraph& graph(int which) {
  static const CsrGraph rmat = generate_rmat(512, 4096, 2024, {}, false);
  static const CsrGraph er =
      generate_erdos_renyi(384, 2304, 77, /*weighted=*/true);
  return which == 0 ? rmat : er;
}

std::vector<VertexId> seeds_for(const CsrGraph& g) {
  std::vector<VertexId> seeds(kInstances);
  for (std::uint32_t i = 0; i < kInstances; ++i) {
    seeds[i] = static_cast<VertexId>((i * 97 + 5) % g.num_vertices());
  }
  return seeds;
}

std::vector<std::uint32_t> tags() {
  std::vector<std::uint32_t> t(kInstances);
  for (std::uint32_t i = 0; i < kInstances; ++i) t[i] = kTagBase + 3 * i;
  return t;
}

enum class Path { kInMemoryPipelined, kOomDemandCache, kSharded };

const char* path_name(Path path) {
  switch (path) {
    case Path::kInMemoryPipelined:
      return "in-memory pipelined";
    case Path::kOomDemandCache:
      return "oom demand cache";
    case Path::kSharded:
      return "sharded";
  }
  return "?";
}

/// One pinned (graph, algorithm, path) hash.
struct Golden {
  int graph;
  AlgorithmId algorithm;
  Path path;
  std::uint64_t hash;
};

// Graph 0 is the unweighted R-MAT graph, graph 1 the weighted
// Erdos-Renyi one.
constexpr Golden kGolden[] = {
    {0, AlgorithmId::kUnbiasedNeighborSampling, Path::kInMemoryPipelined,
     0xf3a8847be421347aull},
    {0, AlgorithmId::kUnbiasedNeighborSampling, Path::kOomDemandCache,
     0x1003955bbbd98d12ull},
    {0, AlgorithmId::kBiasedNeighborSampling, Path::kInMemoryPipelined,
     0x5cac3bf90313fd23ull},
    {0, AlgorithmId::kBiasedNeighborSampling, Path::kOomDemandCache,
     0x6761568b24932223ull},
    {0, AlgorithmId::kForestFire, Path::kInMemoryPipelined,
     0x111cdfa324e2b006ull},
    {0, AlgorithmId::kForestFire, Path::kOomDemandCache,
     0x23a6c08a173e58a7ull},
    {0, AlgorithmId::kSnowball, Path::kInMemoryPipelined,
     0xbddc39fc22e6e3c1ull},
    {0, AlgorithmId::kLayerSampling, Path::kInMemoryPipelined,
     0x7a3debb0d2a5cb04ull},
    {0, AlgorithmId::kSimpleRandomWalk, Path::kInMemoryPipelined,
     0x852efdabd90188e3ull},
    {0, AlgorithmId::kSimpleRandomWalk, Path::kOomDemandCache,
     0x5df6e71f6754339eull},
    {0, AlgorithmId::kSimpleRandomWalk, Path::kSharded,
     0x25611a1acc205a38ull},
    {0, AlgorithmId::kDeepwalk, Path::kInMemoryPipelined,
     0x852efdabd90188e3ull},
    {0, AlgorithmId::kDeepwalk, Path::kOomDemandCache,
     0x5df6e71f6754339eull},
    {0, AlgorithmId::kDeepwalk, Path::kSharded,
     0x25611a1acc205a38ull},
    {0, AlgorithmId::kBiasedRandomWalk, Path::kInMemoryPipelined,
     0x216aaec5cdb191b7ull},
    {0, AlgorithmId::kBiasedRandomWalk, Path::kOomDemandCache,
     0xc01e9b3ac9cba958ull},
    {0, AlgorithmId::kBiasedRandomWalk, Path::kSharded,
     0x95b818432ee24353ull},
    {0, AlgorithmId::kMetropolisHastingsWalk, Path::kInMemoryPipelined,
     0x1066f6f67506d2d8ull},
    {0, AlgorithmId::kMetropolisHastingsWalk, Path::kOomDemandCache,
     0x899eb6f2b8a622f7ull},
    {0, AlgorithmId::kMetropolisHastingsWalk, Path::kSharded,
     0xd08623543b3b63edull},
    {0, AlgorithmId::kRandomWalkWithJump, Path::kInMemoryPipelined,
     0x7d396eb0e619c6bbull},
    {0, AlgorithmId::kRandomWalkWithJump, Path::kOomDemandCache,
     0x554e3e37ec201285ull},
    {0, AlgorithmId::kRandomWalkWithJump, Path::kSharded,
     0x0b381c90c889cc81ull},
    {0, AlgorithmId::kRandomWalkWithRestart, Path::kInMemoryPipelined,
     0x4734b7a5efa6dba8ull},
    {0, AlgorithmId::kRandomWalkWithRestart, Path::kOomDemandCache,
     0xcb2fd0a35e53e6cfull},
    {0, AlgorithmId::kRandomWalkWithRestart, Path::kSharded,
     0xfdb8ed44f236f95full},
    {0, AlgorithmId::kMultiDimRandomWalk, Path::kInMemoryPipelined,
     0x7c824ea683d41d54ull},
    {0, AlgorithmId::kNode2vec, Path::kInMemoryPipelined,
     0xcd96c6314e0437b8ull},
    {0, AlgorithmId::kNode2vec, Path::kOomDemandCache,
     0xf14a055da4c9dbddull},
    {0, AlgorithmId::kNode2vec, Path::kSharded,
     0x14919a2b4101828cull},
    {1, AlgorithmId::kUnbiasedNeighborSampling, Path::kInMemoryPipelined,
     0xba8d08b3d98bd78full},
    {1, AlgorithmId::kUnbiasedNeighborSampling, Path::kOomDemandCache,
     0x1955b8fcc082dd71ull},
    {1, AlgorithmId::kBiasedNeighborSampling, Path::kInMemoryPipelined,
     0xcdbcaba05f7119c6ull},
    {1, AlgorithmId::kBiasedNeighborSampling, Path::kOomDemandCache,
     0x80f79f624cc6c1d2ull},
    {1, AlgorithmId::kForestFire, Path::kInMemoryPipelined,
     0x4f82902558711843ull},
    {1, AlgorithmId::kForestFire, Path::kOomDemandCache,
     0xc7a83cfeb7295136ull},
    {1, AlgorithmId::kSnowball, Path::kInMemoryPipelined,
     0x1ae183136af08522ull},
    {1, AlgorithmId::kLayerSampling, Path::kInMemoryPipelined,
     0x0c10b47b2100ee82ull},
    {1, AlgorithmId::kSimpleRandomWalk, Path::kInMemoryPipelined,
     0xa884e5534d2ba984ull},
    {1, AlgorithmId::kSimpleRandomWalk, Path::kOomDemandCache,
     0xa6457d4cfa77b962ull},
    {1, AlgorithmId::kSimpleRandomWalk, Path::kSharded,
     0x01a90423b033ce1aull},
    {1, AlgorithmId::kDeepwalk, Path::kInMemoryPipelined,
     0xa884e5534d2ba984ull},
    {1, AlgorithmId::kDeepwalk, Path::kOomDemandCache,
     0xa6457d4cfa77b962ull},
    {1, AlgorithmId::kDeepwalk, Path::kSharded,
     0x01a90423b033ce1aull},
    {1, AlgorithmId::kBiasedRandomWalk, Path::kInMemoryPipelined,
     0xc986ea09df12b5abull},
    {1, AlgorithmId::kBiasedRandomWalk, Path::kOomDemandCache,
     0xd41e2bacd3db7dcbull},
    {1, AlgorithmId::kBiasedRandomWalk, Path::kSharded,
     0x450a33f9765f6ea4ull},
    {1, AlgorithmId::kMetropolisHastingsWalk, Path::kInMemoryPipelined,
     0x3b0aa6ce1bfd5a8bull},
    {1, AlgorithmId::kMetropolisHastingsWalk, Path::kOomDemandCache,
     0xc49ab91163e20be5ull},
    {1, AlgorithmId::kMetropolisHastingsWalk, Path::kSharded,
     0xef8ec0dd725b8e64ull},
    {1, AlgorithmId::kRandomWalkWithJump, Path::kInMemoryPipelined,
     0x582bd6fbc1c1ed70ull},
    {1, AlgorithmId::kRandomWalkWithJump, Path::kOomDemandCache,
     0xea7d77057e275e44ull},
    {1, AlgorithmId::kRandomWalkWithJump, Path::kSharded,
     0x9ab657a8673f08d8ull},
    {1, AlgorithmId::kRandomWalkWithRestart, Path::kInMemoryPipelined,
     0x9f51e6508638d845ull},
    {1, AlgorithmId::kRandomWalkWithRestart, Path::kOomDemandCache,
     0x609bd8253ad344fcull},
    {1, AlgorithmId::kRandomWalkWithRestart, Path::kSharded,
     0x758cb2cebcbca313ull},
    {1, AlgorithmId::kMultiDimRandomWalk, Path::kInMemoryPipelined,
     0x89158062783960d2ull},
    {1, AlgorithmId::kNode2vec, Path::kInMemoryPipelined,
     0xf92adf578056e1a0ull},
    {1, AlgorithmId::kNode2vec, Path::kOomDemandCache,
     0xd2b8b04eff436521ull},
    {1, AlgorithmId::kNode2vec, Path::kSharded,
     0x5e123b52f618aaf6ull},
};

std::uint64_t run_path(const CsrGraph& g, AlgorithmId id, Path path) {
  const AlgorithmInfo info = algorithm_info(id);
  const bool walk = info.neighbors_per_step == "1";
  const AlgorithmSetup setup =
      make_algorithm(id, walk ? kWalkLength : kSamplingDepth);
  const auto seeds = expand_single_seeds(seeds_for(g));
  SamplerOptions options;
  options.num_threads = 2;
  options.schedule = Schedule::kPipelined;
  if (path == Path::kInMemoryPipelined) {
    options.mode = ExecutionMode::kInMemory;
  } else if (path == Path::kSharded) {
    options.mode = ExecutionMode::kSharded;
    options.shard.shards = 2;
  } else {
    options.mode = ExecutionMode::kOutOfMemory;
    options.memory_assumption = MemoryAssumption::kExceeds;
    options.oom_demand_cache = true;
    options.num_partitions = 4;
    options.resident_partitions = 2;
  }
  Sampler sampler(g, setup, options);
  return hash_run(sampler.run_tagged(seeds, tags()));
}

TEST(GoldenSamples, EveryAlgorithmMatchesItsPinnedHash) {
  std::size_t checked = 0;
  for (int which = 0; which < 2; ++which) {
    for (const AlgorithmId id : all_algorithms()) {
      const AlgorithmSetup setup = make_algorithm(id, kSamplingDepth);
      std::vector<Path> paths = {Path::kInMemoryPipelined};
      if (in_memory_only_reason(setup.spec).empty()) {
        paths.push_back(Path::kOomDemandCache);
      }
      if (ShardRouter::shardable_spec(setup.spec)) {
        paths.push_back(Path::kSharded);
      }
      for (const Path path : paths) {
        const std::uint64_t got = run_path(graph(which), id, path);
        const Golden* want = nullptr;
        for (const Golden& g : kGolden) {
          if (g.graph == which && g.algorithm == id && g.path == path) {
            want = &g;
          }
        }
        char line[160];
        std::snprintf(line, sizeof(line),
                      "{%d, AlgorithmId(%d), Path(%d), 0x%016llxull},", which,
                      static_cast<int>(id), static_cast<int>(path),
                      static_cast<unsigned long long>(got));
        const std::string label = "graph " + std::to_string(which) + ", " +
                                  algorithm_info(id).name + ", " +
                                  path_name(path) + "; got " + line;
        if (want == nullptr) {
          ADD_FAILURE() << "no pinned hash: " << label;
          continue;
        }
        EXPECT_EQ(got, want->hash) << label;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

/// One pinned (graph, walk algorithm, out-of-memory plan) timeline hash.
struct GoldenTimeline {
  int graph;
  AlgorithmId algorithm;
  bool demand_cache;
  std::uint64_t hash;
};

// Graph numbering as in kGolden; demand_cache false is the legacy
// up-front transfer plan.
constexpr GoldenTimeline kGoldenTimeline[] = {
    {0, AlgorithmId::kSimpleRandomWalk, false,
     0x5fd06b05a97ee5beull},
    {0, AlgorithmId::kSimpleRandomWalk, true,
     0x021d25d7dde69525ull},
    {0, AlgorithmId::kDeepwalk, false,
     0x5fd06b05a97ee5beull},
    {0, AlgorithmId::kDeepwalk, true,
     0x021d25d7dde69525ull},
    {0, AlgorithmId::kBiasedRandomWalk, false,
     0xd31a36b6dd3e9721ull},
    {0, AlgorithmId::kBiasedRandomWalk, true,
     0xbd6b3a12ee77c839ull},
    {0, AlgorithmId::kMetropolisHastingsWalk, false,
     0x4f4a980e15b6626dull},
    {0, AlgorithmId::kMetropolisHastingsWalk, true,
     0x49e3eb53997f596full},
    {0, AlgorithmId::kRandomWalkWithJump, false,
     0xc6484ceb7a0b1ec5ull},
    {0, AlgorithmId::kRandomWalkWithJump, true,
     0x541ff2134776c488ull},
    {0, AlgorithmId::kRandomWalkWithRestart, false,
     0x1f78c6d0686cebe1ull},
    {0, AlgorithmId::kRandomWalkWithRestart, true,
     0x7bd7568b98845dfeull},
    {0, AlgorithmId::kNode2vec, false,
     0x060734dd4616a2baull},
    {0, AlgorithmId::kNode2vec, true,
     0x754291a2f688b2dbull},
    {1, AlgorithmId::kSimpleRandomWalk, false,
     0x4c788af87e74b40eull},
    {1, AlgorithmId::kSimpleRandomWalk, true,
     0x3f0b1d4c443ff4d2ull},
    {1, AlgorithmId::kDeepwalk, false,
     0x4c788af87e74b40eull},
    {1, AlgorithmId::kDeepwalk, true,
     0x3f0b1d4c443ff4d2ull},
    {1, AlgorithmId::kBiasedRandomWalk, false,
     0xfea60519d7e9a58bull},
    {1, AlgorithmId::kBiasedRandomWalk, true,
     0x1948c78c8ae13c87ull},
    {1, AlgorithmId::kMetropolisHastingsWalk, false,
     0x1c43f12b7edc45d0ull},
    {1, AlgorithmId::kMetropolisHastingsWalk, true,
     0x382ec7f71baea718ull},
    {1, AlgorithmId::kRandomWalkWithJump, false,
     0xa805e2c61b7b783cull},
    {1, AlgorithmId::kRandomWalkWithJump, true,
     0xb810cbe30c3a74aaull},
    {1, AlgorithmId::kRandomWalkWithRestart, false,
     0xd1c85adcb3b60374ull},
    {1, AlgorithmId::kRandomWalkWithRestart, true,
     0x3e426be3377a1cc9ull},
    {1, AlgorithmId::kNode2vec, false,
     0xc3c4bd7135804f7aull},
    {1, AlgorithmId::kNode2vec, true,
     0xda595ced40778fc5ull},
};

std::uint64_t run_oom_plan(const CsrGraph& g, AlgorithmId id,
                           bool demand_cache) {
  const AlgorithmSetup setup = make_algorithm(id, kWalkLength);
  SamplerOptions options;
  options.num_threads = 2;
  options.schedule = Schedule::kPipelined;
  options.mode = ExecutionMode::kOutOfMemory;
  options.memory_assumption = MemoryAssumption::kExceeds;
  options.oom_demand_cache = demand_cache;
  options.num_partitions = 4;
  options.resident_partitions = 2;
  Sampler sampler(g, setup, options);
  return hash_timeline(
      sampler.run_tagged(expand_single_seeds(seeds_for(g)), tags()));
}

TEST(GoldenSamples, OomWalkTimelinesMatchTheirPinnedHashes) {
  std::size_t checked = 0;
  for (int which = 0; which < 2; ++which) {
    for (const AlgorithmId id : all_algorithms()) {
      if (algorithm_info(id).neighbors_per_step != "1") continue;
      if (!in_memory_only_reason(make_algorithm(id, kWalkLength).spec)
               .empty()) {
        continue;
      }
      for (const bool demand_cache : {false, true}) {
        const std::uint64_t got =
            run_oom_plan(graph(which), id, demand_cache);
        const GoldenTimeline* want = nullptr;
        for (const GoldenTimeline& g : kGoldenTimeline) {
          if (g.graph == which && g.algorithm == id &&
              g.demand_cache == demand_cache) {
            want = &g;
          }
        }
        char line[160];
        std::snprintf(line, sizeof(line),
                      "{%d, AlgorithmId(%d), %s, 0x%016llxull},", which,
                      static_cast<int>(id), demand_cache ? "true" : "false",
                      static_cast<unsigned long long>(got));
        const std::string label =
            "graph " + std::to_string(which) + ", " +
            algorithm_info(id).name + ", " +
            (demand_cache ? "demand cache" : "legacy plan") + "; got " + line;
        if (want == nullptr) {
          ADD_FAILURE() << "no pinned hash: " << label;
          continue;
        }
        EXPECT_EQ(got, want->hash) << label;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGoldenTimeline));
}

}  // namespace
}  // namespace csaw
