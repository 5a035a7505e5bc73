// Multi-GPU C-SAW (paper §V-D) through the Sampler facade: instances are
// split into disjoint groups, one per simulated device, with no
// inter-device communication; the run completes when the slowest device
// drains its group.
#include <gtest/gtest.h>

#include <algorithm>

#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/random_walks.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"

namespace csaw {
namespace {

std::vector<VertexId> spread_seeds(const CsrGraph& g, std::uint32_t n) {
  std::vector<VertexId> seeds(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    seeds[i] = static_cast<VertexId>((i * 131) % g.num_vertices());
  }
  return seeds;
}

/// Options for `devices` simulated devices; the graph is pinned in memory
/// unless `out_of_memory` pages it on every device.
SamplerOptions multi_device(std::uint32_t devices,
                            bool out_of_memory = false) {
  SamplerOptions options;
  options.mode = ExecutionMode::kMultiDevice;
  options.num_devices = devices;
  options.memory_assumption = out_of_memory ? MemoryAssumption::kExceeds
                                            : MemoryAssumption::kFits;
  return options;
}

class DeviceCounts : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DeviceCounts, SamplesAreIndependentOfDeviceCount) {
  // §V-D: instance groups are disjoint and devices don't communicate, so
  // the union of samples must be identical for any device count — the
  // counter-based RNG makes this exact, not just distributional.
  const CsrGraph g = generate_rmat(1024, 8192, 61);
  const auto setup = biased_random_walk(10);
  const auto seeds = spread_seeds(g, 60);

  const RunResult reference =
      Sampler(g, setup, multi_device(1)).run_single_seed(seeds);
  const RunResult run =
      Sampler(g, setup, multi_device(GetParam())).run_single_seed(seeds);

  EXPECT_EQ(run.mode, ExecutionMode::kMultiDevice);
  ASSERT_EQ(run.samples.num_instances(), reference.samples.num_instances());
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(run.samples.edges(i), reference.samples.edges(i))
        << "instance " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, DeviceCounts, ::testing::Values(2, 3, 6));

TEST(MultiDevice, MakespanIsMaxOfDevices) {
  const CsrGraph g = generate_rmat(512, 4096, 62);
  const auto setup = unbiased_neighbor_sampling(2, 2);
  const RunResult run =
      Sampler(g, setup, multi_device(3)).run_single_seed(spread_seeds(g, 30));
  ASSERT_EQ(run.device_seconds.size(), 3u);
  const double max_device =
      *std::max_element(run.device_seconds.begin(), run.device_seconds.end());
  EXPECT_DOUBLE_EQ(run.sim_seconds, max_device);
}

TEST(MultiDevice, ScalingImprovesWithEnoughInstances) {
  // Fig. 17's shape at unit scale: with enough instances to saturate the
  // devices (>= latency_hiding_warps_per_sm * sm_count warps each), more
  // devices are faster; with too few, scaling stalls (Fig. 17(a)).
  const CsrGraph g = generate_rmat(1024, 8192, 63);
  const auto setup = biased_neighbor_sampling(2, 2);

  auto makespan = [&](std::uint32_t instances, std::uint32_t devices) {
    return Sampler(g, setup, multi_device(devices))
        .run_single_seed(spread_seeds(g, instances))
        .sim_seconds;
  };
  // Saturated: 6400 instances, 3200 warps per device at 2 devices.
  EXPECT_LT(makespan(6400, 2), makespan(6400, 1) * 0.7);
  // Starved: 480 instances over 6 devices scale worse than saturated.
  const double starved = makespan(480, 1) / makespan(480, 6);
  const double saturated = makespan(6400, 1) / makespan(6400, 6);
  EXPECT_LT(starved, saturated);
}

TEST(MultiDevice, OutOfMemoryModeMatchesInMemorySamples) {
  const CsrGraph g = generate_rmat(1024, 8192, 64);
  const auto setup = biased_random_walk(8);
  const auto seeds = spread_seeds(g, 24);

  const RunResult reference =
      Sampler(g, setup, multi_device(2)).run_single_seed(seeds);

  SamplerOptions paged = multi_device(2, /*out_of_memory=*/true);
  paged.num_partitions = 4;
  paged.resident_partitions = 2;
  Sampler sampler(g, setup, paged);
  ASSERT_TRUE(sampler.decision().out_of_memory);
  const RunResult run = sampler.run_single_seed(seeds);

  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(run.samples.edges(i), reference.samples.edges(i));
  }
}

TEST(MultiDevice, MoreDevicesThanInstances) {
  const CsrGraph g = generate_rmat(256, 2048, 65);
  const auto setup = simple_random_walk(5);
  const RunResult run =
      Sampler(g, setup, multi_device(6)).run_single_seed(spread_seeds(g, 3));
  EXPECT_EQ(run.samples.num_instances(), 3u);
  EXPECT_GT(run.samples.total_edges(), 0u);
}

}  // namespace
}  // namespace csaw
