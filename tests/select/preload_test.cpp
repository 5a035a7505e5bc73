// Tests of the persistent per-warp bitmap semantics: candidates sampled
// at earlier depths are preloaded into the detector, so SELECT collides
// with the instance's entire sample so far (paper §II-A, Fig. 7).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "select/its.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace csaw {
namespace {

/// ItsSelector::select into a fresh vector.
std::vector<std::uint32_t> select_into(
    ItsSelector& selector, std::span<const float> biases, std::uint32_t k,
    const CounterStream& rng, SelectCoords coords, sim::WarpContext& warp,
    std::span<const std::uint32_t> pre_selected = {}) {
  std::vector<std::uint32_t> out;
  selector.select(biases, k, rng, coords, warp, out, pre_selected);
  return out;
}

struct PreloadCase {
  CollisionPolicy policy;
  DetectorKind detector;
  const char* name;
};

class PreloadPolicies : public ::testing::TestWithParam<PreloadCase> {
 protected:
  SelectConfig config() const {
    SelectConfig c;
    c.policy = GetParam().policy;
    c.detector = GetParam().detector;
    return c;
  }
};

TEST_P(PreloadPolicies, PreloadedCandidatesAreNeverSelected) {
  ItsSelector selector(config());
  CounterStream rng(404);
  sim::KernelStats stats;
  const std::vector<float> biases = {8, 4, 2, 1, 1, 1, 1, 1};
  const std::vector<std::uint32_t> pre = {0, 2};  // the heavy hitters

  for (std::uint32_t trial = 0; trial < 500; ++trial) {
    sim::WarpContext warp(stats);
    const auto picked = select_into(selector, biases, 3, rng,
                                        SelectCoords{trial, 0, 0}, warp, pre);
    ASSERT_EQ(picked.size(), 3u);
    for (auto idx : picked) {
      EXPECT_NE(idx, 0u) << "trial " << trial;
      EXPECT_NE(idx, 2u) << "trial " << trial;
    }
  }
}

TEST_P(PreloadPolicies, KClampsToUnblockedCandidates) {
  ItsSelector selector(config());
  CounterStream rng(405);
  sim::KernelStats stats;
  sim::WarpContext warp(stats);
  const std::vector<float> biases = {1, 1, 1, 1};
  const std::vector<std::uint32_t> pre = {1, 3};
  const auto picked =
      select_into(selector, biases, 4, rng, SelectCoords{0, 0, 0}, warp, pre);
  const std::set<std::uint32_t> got(picked.begin(), picked.end());
  EXPECT_EQ(got, (std::set<std::uint32_t>{0, 2}));
}

TEST_P(PreloadPolicies, EverythingPreloadedSelectsNothing) {
  ItsSelector selector(config());
  CounterStream rng(406);
  sim::KernelStats stats;
  sim::WarpContext warp(stats);
  const std::vector<float> biases = {2, 3};
  const std::vector<std::uint32_t> pre = {0, 1};
  EXPECT_TRUE(
      select_into(selector, biases, 1, rng, SelectCoords{0, 0, 0}, warp, pre)
          .empty());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PreloadPolicies,
    ::testing::Values(
        PreloadCase{CollisionPolicy::kRepeatedSampling,
                    DetectorKind::kLinearSearch, "RepeatedLinear"},
        PreloadCase{CollisionPolicy::kUpdatedSampling,
                    DetectorKind::kLinearSearch, "Updated"},
        PreloadCase{CollisionPolicy::kBipartiteRegionSearch,
                    DetectorKind::kBitmapStrided, "BipartiteStrided"},
        PreloadCase{CollisionPolicy::kBipartiteRegionSearch,
                    DetectorKind::kLinearSearch, "BipartiteLinear"}),
    [](const auto& info) { return info.param.name; });

TEST(Preload, DistributionIsConditionalOnUnblocked) {
  // With candidate 1 (mass 6/15) preloaded, selection must follow the
  // renormalized distribution over the rest: {3,2,2,2}/9.
  SelectConfig config;
  config.policy = CollisionPolicy::kBipartiteRegionSearch;
  ItsSelector selector(config);
  CounterStream rng(407);
  sim::KernelStats stats;
  const std::vector<float> biases = {3, 6, 2, 2, 2};
  const std::vector<std::uint32_t> pre = {1};

  std::vector<std::uint64_t> counts(4, 0);
  const std::map<std::uint32_t, std::size_t> index = {
      {0, 0}, {2, 1}, {3, 2}, {4, 3}};
  for (std::uint32_t trial = 0; trial < 30000; ++trial) {
    sim::WarpContext warp(stats);
    const auto picked = select_into(selector, biases, 1, rng,
                                        SelectCoords{trial, 0, 0}, warp, pre);
    ASSERT_EQ(picked.size(), 1u);
    ++counts[index.at(picked[0])];
  }
  const std::vector<double> expected = {3 / 9.0, 2 / 9.0, 2 / 9.0, 2 / 9.0};
  EXPECT_LT(chi_square(counts, expected), 20.0);  // df=3, 99.9% ~ 16.3
}

TEST(Preload, RaisesRepeatedSamplingIterations) {
  // The Fig. 11 mechanism: mass already claimed by earlier depths makes
  // repeated sampling retry.
  const std::vector<float> biases = {90, 2, 2, 2, 2, 2};
  const std::vector<std::uint32_t> pre = {0};  // 90% of the CTPS blocked
  SelectConfig config;
  config.policy = CollisionPolicy::kRepeatedSampling;
  ItsSelector selector(config);
  CounterStream rng(408);
  sim::KernelStats stats;
  for (std::uint32_t trial = 0; trial < 2000; ++trial) {
    sim::WarpContext warp(stats);
    select_into(selector, biases, 1, rng, SelectCoords{trial, 0, 0}, warp, pre);
  }
  const double avg = static_cast<double>(stats.select_iterations) /
                     static_cast<double>(stats.sampled_vertices);
  // Geometric with success probability 0.1: mean 10 trips.
  EXPECT_GT(avg, 6.0);
  EXPECT_LT(avg, 14.0);
}

TEST(Preload, BipartiteResolvesBlockedMassInOneExtraProbe) {
  const std::vector<float> biases = {90, 2, 2, 2, 2, 2};
  const std::vector<std::uint32_t> pre = {0};
  SelectConfig config;
  config.policy = CollisionPolicy::kBipartiteRegionSearch;
  ItsSelector selector(config);
  CounterStream rng(409);
  sim::KernelStats stats;
  for (std::uint32_t trial = 0; trial < 2000; ++trial) {
    sim::WarpContext warp(stats);
    select_into(selector, biases, 1, rng, SelectCoords{trial, 0, 0}, warp, pre);
  }
  const double avg = static_cast<double>(stats.select_iterations) /
                     static_cast<double>(stats.sampled_vertices);
  // One do-while trip resolves the collision via the region transform.
  EXPECT_LT(avg, 1.1);
}

TEST(Preload, OutOfRangeIndexRejected) {
  ItsSelector selector(SelectConfig{});
  CounterStream rng(410);
  sim::KernelStats stats;
  sim::WarpContext warp(stats);
  const std::vector<float> biases = {1, 1};
  const std::vector<std::uint32_t> pre = {5};
  EXPECT_THROW(
      select_into(selector, biases, 1, rng, SelectCoords{0, 0, 0}, warp, pre),
      CheckError);
}

}  // namespace
}  // namespace csaw
