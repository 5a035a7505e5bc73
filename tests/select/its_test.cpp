#include "select/its.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

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

struct ItsCase {
  CollisionPolicy policy;
  DetectorKind detector;
  const char* name;
};

class ItsPolicies : public ::testing::TestWithParam<ItsCase> {
 protected:
  SelectConfig config() const {
    SelectConfig c;
    c.policy = GetParam().policy;
    c.detector = GetParam().detector;
    return c;
  }
};

TEST_P(ItsPolicies, SelectsDistinctIndices) {
  ItsSelector selector(config());
  CounterStream rng(321);
  sim::KernelStats stats;
  const std::vector<float> biases = {5, 1, 3, 2, 8, 1, 1, 4};
  for (std::uint32_t trial = 0; trial < 200; ++trial) {
    sim::WarpContext warp(stats);
    const auto picked =
        select_into(selector, biases, 4, rng, SelectCoords{trial, 0, 0}, warp);
    ASSERT_EQ(picked.size(), 4u);
    const std::set<std::uint32_t> unique(picked.begin(), picked.end());
    EXPECT_EQ(unique.size(), 4u) << "duplicate selection in trial " << trial;
    for (auto idx : picked) EXPECT_LT(idx, biases.size());
  }
}

TEST_P(ItsPolicies, ClampsToPositiveCandidates) {
  ItsSelector selector(config());
  CounterStream rng(5);
  sim::KernelStats stats;
  sim::WarpContext warp(stats);
  const std::vector<float> biases = {0, 2, 0, 3, 0};
  const auto picked =
      select_into(selector, biases, 4, rng, SelectCoords{0, 0, 0}, warp);
  ASSERT_EQ(picked.size(), 2u);  // only two positive candidates
  const std::set<std::uint32_t> got(picked.begin(), picked.end());
  EXPECT_EQ(got, (std::set<std::uint32_t>{1, 3}));
}

TEST_P(ItsPolicies, SelectAllIsAPermutation) {
  ItsSelector selector(config());
  CounterStream rng(6);
  sim::KernelStats stats;
  sim::WarpContext warp(stats);
  const std::vector<float> biases = {1, 2, 3, 4, 5, 6};
  auto picked =
      select_into(selector, biases, 6, rng, SelectCoords{0, 0, 0}, warp);
  std::sort(picked.begin(), picked.end());
  EXPECT_EQ(picked, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
}

TEST_P(ItsPolicies, DeterministicForCoordinates) {
  const std::vector<float> biases = {1, 9, 2, 5};
  ItsSelector a(config()), b(config());
  CounterStream rng(777);
  sim::KernelStats stats;
  sim::WarpContext w1(stats), w2(stats);
  const auto r1 = select_into(a, biases, 2, rng, SelectCoords{3, 1, 64}, w1);
  const auto r2 = select_into(b, biases, 2, rng, SelectCoords{3, 1, 64}, w2);
  EXPECT_EQ(r1, r2);
}

TEST_P(ItsPolicies, CoordinatesChangeOutcomeSomewhere) {
  const std::vector<float> biases = {1, 1, 1, 1, 1, 1, 1, 1};
  ItsSelector selector(config());
  CounterStream rng(88);
  sim::KernelStats stats;
  bool any_difference = false;
  for (std::uint32_t i = 0; i < 16 && !any_difference; ++i) {
    sim::WarpContext w1(stats), w2(stats);
    const auto a =
        select_into(selector, biases, 2, rng, SelectCoords{i, 0, 0}, w1);
    const auto b =
        select_into(selector, biases, 2, rng, SelectCoords{i, 1, 0}, w2);
    any_difference = a != b;
  }
  EXPECT_TRUE(any_difference);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ItsPolicies,
    ::testing::Values(
        ItsCase{CollisionPolicy::kRepeatedSampling,
                DetectorKind::kLinearSearch, "RepeatedLinear"},
        ItsCase{CollisionPolicy::kRepeatedSampling,
                DetectorKind::kBitmapStrided, "RepeatedStrided"},
        ItsCase{CollisionPolicy::kUpdatedSampling,
                DetectorKind::kLinearSearch, "Updated"},
        ItsCase{CollisionPolicy::kBipartiteRegionSearch,
                DetectorKind::kLinearSearch, "BipartiteLinear"},
        ItsCase{CollisionPolicy::kBipartiteRegionSearch,
                DetectorKind::kBitmapContiguous, "BipartiteContiguous"},
        ItsCase{CollisionPolicy::kBipartiteRegionSearch,
                DetectorKind::kBitmapStrided, "BipartiteStrided"}),
    [](const auto& info) { return info.param.name; });

TEST(ItsWithReplacement, FollowsTheoremOneDistribution) {
  SelectConfig config;
  config.with_replacement = true;
  ItsSelector selector(config);
  CounterStream rng(2024);
  sim::KernelStats stats;

  const std::vector<float> biases = {3, 6, 2, 2, 2};
  std::vector<std::uint64_t> counts(biases.size(), 0);
  for (std::uint32_t i = 0; i < 30000; ++i) {
    sim::WarpContext warp(stats);
    const auto picked =
        select_into(selector, biases, 1, rng, SelectCoords{i, 0, 0}, warp);
    ++counts[picked.at(0)];
  }
  const std::vector<double> expected = {3 / 15.0, 6 / 15.0, 2 / 15.0,
                                        2 / 15.0, 2 / 15.0};
  // df=4, 99.9% critical value ~18.5.
  EXPECT_LT(chi_square(counts, expected), 22.0);
}

TEST(ItsWithReplacement, AllowsRepeats) {
  SelectConfig config;
  config.with_replacement = true;
  ItsSelector selector(config);
  CounterStream rng(9);
  sim::KernelStats stats;
  sim::WarpContext warp(stats);
  // One dominant candidate: repeats are near-certain.
  const std::vector<float> biases = {1000, 1};
  const auto picked =
      select_into(selector, biases, 8, rng, SelectCoords{0, 0, 0}, warp);
  ASSERT_EQ(picked.size(), 8u);
  EXPECT_GT(std::count(picked.begin(), picked.end(), 0u), 1);
}

TEST(ItsCounters, IterationsAndSampledArePopulated) {
  SelectConfig config;
  config.policy = CollisionPolicy::kRepeatedSampling;
  ItsSelector selector(config);
  CounterStream rng(10);
  sim::KernelStats stats;
  {
    sim::WarpContext warp(stats);
    const std::vector<float> biases = {100, 1, 1};  // collision-prone
    select_into(selector, biases, 3, rng, SelectCoords{0, 0, 0}, warp);
  }
  EXPECT_EQ(stats.sampled_vertices, 3u);
  EXPECT_GE(stats.select_iterations, 3u);
  EXPECT_GT(stats.collision_searches, 0u);
  EXPECT_GT(stats.lockstep_rounds, 0u);
}

TEST(ItsCounters, BipartiteNeedsFewerIterationsThanRepeated) {
  // Fig. 11's claim at unit scale: on a skewed CTPS, bipartite region
  // search resolves collisions without re-drawing, repeated sampling
  // burns iterations.
  const std::vector<float> biases = {50, 40, 1, 1, 1, 1, 1, 1, 1, 1};
  auto run = [&](CollisionPolicy policy) {
    SelectConfig config;
    config.policy = policy;
    ItsSelector selector(config);
    CounterStream rng(4242);
    sim::KernelStats stats;
    for (std::uint32_t i = 0; i < 3000; ++i) {
      sim::WarpContext warp(stats);
      select_into(selector, biases, 4, rng, SelectCoords{i, 0, 0}, warp);
    }
    return static_cast<double>(stats.select_iterations) /
           static_cast<double>(stats.sampled_vertices);
  };
  const double repeated = run(CollisionPolicy::kRepeatedSampling);
  const double bipartite = run(CollisionPolicy::kBipartiteRegionSearch);
  EXPECT_GT(repeated, bipartite * 1.2);
  EXPECT_GE(bipartite, 1.0);
}

TEST(ItsPrebuilt, MatchesWithReplacementSelectAndCharges) {
  // select_prebuilt over Ctps::fill's array is select() with replacement
  // minus the host-side CTPS build: same draws, same warp charges.
  SelectConfig config;
  config.with_replacement = true;
  const std::vector<float> biases = {5, 0, 3, 2, 8, 1, 1, 4, 0.5f, 9};
  std::vector<float> f(biases.size() + 1);
  Ctps::fill(biases, f);
  ItsSelector selector(config);
  CounterStream rng(77);
  for (const std::uint32_t k : {1u, 3u, 32u, 70u}) {
    sim::KernelStats built_stats, prebuilt_stats;
    std::vector<std::uint32_t> built, prebuilt;
    {
      sim::WarpContext warp(built_stats);
      built =
          select_into(selector, biases, k, rng, SelectCoords{k, 2, 9}, warp);
    }
    {
      sim::WarpContext warp(prebuilt_stats);
      selector.select_prebuilt(f, k, rng, SelectCoords{k, 2, 9}, warp,
                               prebuilt);
    }
    EXPECT_EQ(prebuilt, built) << "k = " << k;
    EXPECT_EQ(prebuilt_stats.lockstep_rounds, built_stats.lockstep_rounds);
    EXPECT_EQ(prebuilt_stats.global_bytes, built_stats.global_bytes);
    EXPECT_EQ(prebuilt_stats.max_warp_rounds, built_stats.max_warp_rounds);
    EXPECT_EQ(prebuilt_stats.select_iterations,
              built_stats.select_iterations);
    EXPECT_EQ(prebuilt_stats.sampled_vertices, built_stats.sampled_vertices);
  }
}

TEST(ItsEdgeCases, KZeroOrEmptyBiases) {
  ItsSelector selector(SelectConfig{});
  CounterStream rng(1);
  sim::KernelStats stats;
  sim::WarpContext warp(stats);
  EXPECT_TRUE(select_into(selector, std::vector<float>{1, 2}, 0, rng, {}, warp)
                  .empty());
  EXPECT_TRUE(
      select_into(selector, std::vector<float>{}, 3, rng, {}, warp).empty());
}

TEST(ItsEdgeCases, OutVectorIsReplacedInItsOwnBuffer) {
  // select() and select_prebuilt() replace the out-vector's contents and
  // keep its buffer, so the engines' per-worker selection vector stops
  // allocating once it has grown to k.
  for (const bool with_replacement : {false, true}) {
    SelectConfig config;
    config.with_replacement = with_replacement;
    ItsSelector selector(config);
    CounterStream rng(5);
    sim::KernelStats stats;
    sim::WarpContext warp(stats);
    const std::vector<float> biases = {1, 2, 3, 4};
    std::vector<std::uint32_t> out = {9, 9, 9, 9, 9, 9, 9, 9};
    const std::uint32_t* buffer = out.data();
    selector.select(biases, 2, rng, SelectCoords{1, 0, 0}, warp, out);
    EXPECT_EQ(out,
              select_into(selector, biases, 2, rng, SelectCoords{1, 0, 0},
                          warp));
    EXPECT_EQ(out.data(), buffer);
    selector.select(biases, 0, rng, SelectCoords{}, warp, out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(out.data(), buffer);
  }
  SelectConfig config;
  config.with_replacement = true;
  ItsSelector selector(config);
  CounterStream rng(5);
  sim::KernelStats stats;
  sim::WarpContext warp(stats);
  const std::vector<float> biases = {1, 2, 3, 4};
  std::vector<float> f(biases.size() + 1);
  Ctps::fill(biases, f);
  std::vector<std::uint32_t> out = {9, 9, 9, 9, 9, 9, 9, 9};
  const std::uint32_t* buffer = out.data();
  selector.select_prebuilt(f, 3, rng, SelectCoords{2, 0, 0}, warp, out);
  EXPECT_EQ(out,
            select_into(selector, biases, 3, rng, SelectCoords{2, 0, 0}, warp));
  EXPECT_EQ(out.data(), buffer);
}

}  // namespace
}  // namespace csaw
