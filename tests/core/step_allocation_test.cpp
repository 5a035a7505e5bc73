// A walk step makes no heap allocation once the engine has warmed up: the
// step writes into per-worker and per-instance buffers that are cleared
// and reused (docs/ARCHITECTURE.md, "Per-worker scratch and the
// allocation-free step"). Measured with a counting global operator new:
// after a warm-up call, a run_tagged of N biased walks allocates about as
// often at length 400 as at length 50. The only growth allowed is the
// sample rows' own doubling, a few reallocations per walk.
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
/// Sample rows grow by doubling: a row of 400 edges reallocates about
/// three more times than a row of 50.
constexpr std::uint64_t kRowGrowthPerWalk = 4;

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

/// Allocations of one warmed-up run_tagged call of kWalks biased walks.
std::uint64_t allocations_per_call(std::uint32_t length, Schedule schedule) {
  SamplerOptions options;
  options.mode = ExecutionMode::kInMemory;
  options.schedule = schedule;
  options.num_threads = 2;
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
  return after - before;
}

class StepAllocation : public ::testing::TestWithParam<Schedule> {};

TEST_P(StepAllocation, AllocationsDoNotGrowWithWalkLength) {
  const std::uint64_t short_walks = allocations_per_call(50, GetParam());
  const std::uint64_t long_walks = allocations_per_call(400, GetParam());
  RecordProperty("allocations_length_50", std::to_string(short_walks));
  RecordProperty("allocations_length_400", std::to_string(long_walks));
  EXPECT_LE(long_walks, short_walks + kRowGrowthPerWalk * kWalks)
      << "length 50: " << short_walks << ", length 400: " << long_walks;
}

INSTANTIATE_TEST_SUITE_P(Schedules, StepAllocation,
                         ::testing::Values(Schedule::kPipelined,
                                           Schedule::kStepBarrier),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

}  // namespace
}  // namespace csaw
