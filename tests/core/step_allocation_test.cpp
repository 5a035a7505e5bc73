// A walk step makes no heap allocation once the engine has warmed up: the
// step writes into per-worker and per-instance buffers that are cleared
// and reused (docs/ARCHITECTURE.md, "Per-worker scratch and the
// allocation-free step"). Measured with a counting global operator new:
// after a warm-up call, a run_tagged of N biased walks allocates about as
// often at length 400 as at length 50. Sample rows are reserved to the
// walk length up front (SamplingSpec::fixed_row_length), so they do not
// grow either.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "algorithms/random_walks.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Replaceable allocation functions; operator new[] and the nothrow forms
// forward here in libstdc++. Allocation still goes through malloc, so the
// ASan and TSan runtimes, which intercept malloc, keep checking it.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace csaw {
namespace {

constexpr std::uint32_t kWalks = 256;
/// Growth a longer in-memory call may show: a few allocations whose count
/// depends on the host schedule, never one per walk or per step.
constexpr std::uint64_t kAllowedGrowth = 32;

const CsrGraph& graph() {
  static const CsrGraph g =
      generate_rmat(4096, 32768, 31, {}, /*weighted=*/true);
  return g;
}

std::vector<std::vector<VertexId>> seeds(std::uint32_t offset) {
  std::vector<VertexId> s(kWalks);
  for (std::uint32_t i = 0; i < kWalks; ++i) {
    s[i] = (offset + i * 53) % graph().num_vertices();
  }
  return expand_single_seeds(s);
}

std::vector<std::uint32_t> tags(std::uint32_t base) {
  std::vector<std::uint32_t> t(kWalks);
  for (std::uint32_t i = 0; i < kWalks; ++i) t[i] = base + i;
  return t;
}

/// Allocations and sampled edges of one warmed-up run_tagged call.
struct CallCost {
  std::uint64_t allocations = 0;
  std::uint64_t edges = 0;
};

/// One warmed-up run_tagged call of kWalks biased walks.
CallCost measure_call(std::uint32_t length, const SamplerOptions& options) {
  Sampler sampler(graph(), biased_random_walk(length), options);
  // Warm-up: creates the pool and the CTPS table and grows every buffer.
  const RunResult warm = sampler.run_tagged(seeds(0), tags(0));
  EXPECT_GT(warm.sampled_edges(), 0u);

  const auto measured_seeds = seeds(7);
  const auto measured_tags = tags(kWalks);
  const std::uint64_t before = g_allocations.load();
  const RunResult run = sampler.run_tagged(measured_seeds, measured_tags);
  const std::uint64_t after = g_allocations.load();
  EXPECT_GT(run.sampled_edges(), kWalks * length / 2);
  return CallCost{after - before, run.sampled_edges()};
}

SamplerOptions in_memory(Schedule schedule) {
  SamplerOptions options;
  options.mode = ExecutionMode::kInMemory;
  options.schedule = schedule;
  options.num_threads = 2;
  return options;
}

class StepAllocation : public ::testing::TestWithParam<Schedule> {};

TEST_P(StepAllocation, AllocationsDoNotGrowWithWalkLength) {
  const std::uint64_t short_walks =
      measure_call(50, in_memory(GetParam())).allocations;
  const std::uint64_t long_walks =
      measure_call(400, in_memory(GetParam())).allocations;
  RecordProperty("allocations_length_50", std::to_string(short_walks));
  RecordProperty("allocations_length_400", std::to_string(long_walks));
  EXPECT_LE(long_walks, short_walks + kAllowedGrowth)
      << "length 50: " << short_walks << ", length 400: " << long_walks;
}

// Out-of-memory walks through the demand cache: every residency round
// drains the resident queues into per-instance chains and merges the
// leftovers back, so a longer walk runs more rounds. The round's buffers
// are reused, so the extra rounds add almost no allocations.
TEST(StepAllocation, PagedRoundsDoNotAllocatePerSampledEdge) {
  SamplerOptions options;
  options.mode = ExecutionMode::kOutOfMemory;
  options.memory_assumption = MemoryAssumption::kExceeds;
  options.oom_demand_cache = true;
  options.schedule = Schedule::kPipelined;
  options.num_partitions = 4;
  options.resident_partitions = 2;
  options.num_threads = 2;
  const CallCost short_walks = measure_call(50, options);
  const CallCost long_walks = measure_call(400, options);
  RecordProperty("allocations_length_50",
                 std::to_string(short_walks.allocations));
  RecordProperty("allocations_length_400",
                 std::to_string(long_walks.allocations));
  ASSERT_GT(long_walks.edges, short_walks.edges);
  const std::uint64_t added_edges = long_walks.edges - short_walks.edges;
  EXPECT_LT(long_walks.allocations,
            short_walks.allocations + added_edges / 10)
      << "length 50: " << short_walks.allocations << " for "
      << short_walks.edges << " edges, length 400: "
      << long_walks.allocations << " for " << long_walks.edges << " edges";
}

INSTANTIATE_TEST_SUITE_P(Schedules, StepAllocation,
                         ::testing::Values(Schedule::kPipelined,
                                           Schedule::kStepBarrier),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

}  // namespace
}  // namespace csaw
