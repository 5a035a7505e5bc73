// Theorem 2 (bipartite region search) verification.
//
// The paper proves that adjusting the random number around a pre-selected
// region (l, h) reproduces the selection updated sampling would make on
// the recomputed CTPS. Two layers of tests:
//  - deterministic: the transform maps every updated-space draw to the
//    same candidate that the updated CTPS selects (grid over draws x
//    bias vectors x pre-selected vertex);
//  - statistical: ItsSelector's bipartite policy produces the same
//    selection distribution as the updated policy, while the *literal*
//    pseudocode transform (reusing the colliding draw without rescaling)
//    provably does not — which is why the corrected transform is the
//    default (see SelectConfig::literal_bipartite_transform).
#include <gtest/gtest.h>

#include <cmath>

#include "select/ctps.hpp"
#include "select/its.hpp"
#include "util/rng.hpp"
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

/// The Theorem 2 inverse transform: maps an updated-space draw u to the
/// original CTPS coordinate.
double brs_transform(double u, double l, double h) {
  const double delta = h - l;
  double r = u * (1.0 - delta);
  if (r >= l) r += delta;
  return r;
}

using BiasVector = std::vector<float>;

class BrsTheorem : public ::testing::TestWithParam<BiasVector> {};

TEST_P(BrsTheorem, TransformMatchesUpdatedSamplingForEveryDraw) {
  const BiasVector& biases = GetParam();
  Ctps original;
  original.build(biases);

  for (std::size_t s = 0; s < biases.size(); ++s) {
    if (biases[s] <= 0.0f) continue;
    // Updated CTPS: bias of s zeroed out.
    BiasVector updated_biases = biases;
    updated_biases[s] = 0.0f;
    Ctps updated;
    updated.build(updated_biases);

    const double l = original.lo(s);
    const double h = original.hi(s);
    for (int i = 1; i < 500; ++i) {
      const double u = i / 500.0;
      // Skip draws within float noise of an updated-region boundary.
      bool near_boundary = false;
      for (std::size_t k = 0; k <= updated.size(); ++k) {
        if (std::abs(u - updated.f()[k]) < 1e-5) near_boundary = true;
      }
      if (near_boundary) continue;

      const std::size_t expected = updated.locate(u);
      const std::size_t got = original.locate(brs_transform(u, l, h));
      EXPECT_EQ(got, expected)
          << "bias vector size " << biases.size() << ", preselected " << s
          << ", draw " << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BiasShapes, BrsTheorem,
    ::testing::Values(BiasVector{3, 6, 2, 2, 2},          // the paper example
                      BiasVector{1, 1, 1, 1},             // uniform
                      BiasVector{100, 1, 1, 1, 1, 1},     // hub-dominated
                      BiasVector{1, 2, 4, 8, 16, 32},     // geometric
                      BiasVector{5, 0, 3, 0, 2},          // zero-bias holes
                      BiasVector{0.25f, 0.125f, 0.5f}));  // fractional

TEST(BrsPaperExample, LiteralAndCorrectedTransforms) {
  // Paper Fig. 6(c): r' = 0.58 hits pre-selected v7 with (l,h) =
  // (0.2, 0.6). The printed transform r = r'/lambda = 0.348 -> +delta ->
  // 0.748 selects v10, matching the figure.
  Ctps original;
  original.build(BiasVector{3, 6, 2, 2, 2});
  const double l = 0.2, h = 0.6, delta = h - l;

  double literal = 0.58 * (1.0 - delta);
  EXPECT_NEAR(literal, 0.348, 1e-9);
  if (literal >= l) literal += delta;
  EXPECT_NEAR(literal, 0.748, 1e-9);
  EXPECT_EQ(original.locate(literal), 3u);  // v10, as in the paper

  // The corrected transform first rescales the conditional draw.
  const double u = (0.58 - l) / delta;  // 0.95
  EXPECT_EQ(original.locate(brs_transform(u, l, h)), 4u);  // v11
}

/// Exact marginal selection probabilities for sampling k=2 without
/// replacement under sequential updated sampling.
std::vector<double> exact_two_pick_marginals(const BiasVector& biases) {
  double total = 0.0;
  for (float b : biases) total += b;
  std::vector<double> p(biases.size(), 0.0);
  for (std::size_t first = 0; first < biases.size(); ++first) {
    const double pf = biases[first] / total;
    for (std::size_t second = 0; second < biases.size(); ++second) {
      if (second == first) continue;
      const double ps = biases[second] / (total - biases[first]);
      p[first] += pf * ps / 2.0;   // counted as one of two picks
      p[second] += pf * ps / 2.0;
    }
  }
  // Each trial picks 2 of n; normalize so probabilities sum to 1 over
  // picked slots.
  // (Already normalized: sum over pairs of pf*ps = 1, each pair
  // contributes 1/2 + 1/2.)
  return p;
}

std::vector<std::uint64_t> sample_two_pick_counts(const SelectConfig& config,
                                                  const BiasVector& biases,
                                                  std::uint32_t trials,
                                                  std::uint64_t seed) {
  ItsSelector selector(config);
  CounterStream rng(seed);
  sim::KernelStats stats;
  std::vector<std::uint64_t> counts(biases.size(), 0);
  for (std::uint32_t i = 0; i < trials; ++i) {
    sim::WarpContext warp(stats);
    const auto picked =
        select_into(selector, biases, 2, rng, SelectCoords{i, 0, 0}, warp);
    for (auto idx : picked) ++counts[idx];
  }
  return counts;
}

TEST(BrsDistribution, BipartiteMatchesUpdatedSampling) {
  const BiasVector biases = {3, 6, 2, 2, 2};
  const auto expected = exact_two_pick_marginals(biases);
  const std::uint32_t kTrials = 40000;

  SelectConfig bipartite;
  bipartite.policy = CollisionPolicy::kBipartiteRegionSearch;
  bipartite.detector = DetectorKind::kBitmapStrided;
  const auto counts = sample_two_pick_counts(bipartite, biases, kTrials, 11);

  // df = 4; 99.9% critical value ~ 18.5.
  EXPECT_LT(chi_square(counts, expected), 22.0);
}

TEST(BrsDistribution, UpdatedPolicyMatchesExactMarginals) {
  const BiasVector biases = {3, 6, 2, 2, 2};
  const auto expected = exact_two_pick_marginals(biases);
  SelectConfig updated;
  updated.policy = CollisionPolicy::kUpdatedSampling;
  const auto counts = sample_two_pick_counts(updated, biases, 40000, 12);
  EXPECT_LT(chi_square(counts, expected), 22.0);
}

TEST(BrsDistribution, RepeatedSamplingAlsoMatches) {
  // Repeated sampling is slow but unbiased; it is the reference the paper
  // compares against in Fig. 10.
  const BiasVector biases = {3, 6, 2, 2, 2};
  const auto expected = exact_two_pick_marginals(biases);
  SelectConfig repeated;
  repeated.policy = CollisionPolicy::kRepeatedSampling;
  const auto counts = sample_two_pick_counts(repeated, biases, 40000, 13);
  EXPECT_LT(chi_square(counts, expected), 22.0);
}

TEST(BrsDistribution, LiteralPseudocodeTransformIsMeasurablyBiased) {
  // Reusing the colliding draw without rescaling covers only a
  // delta*(1-delta)-wide slice of the remaining space, over-weighting
  // regions adjacent to the collision. With 40k trials the chi-square
  // statistic explodes — this documents why the corrected transform is
  // the default.
  const BiasVector biases = {3, 6, 2, 2, 2};
  const auto expected = exact_two_pick_marginals(biases);
  SelectConfig literal;
  literal.policy = CollisionPolicy::kBipartiteRegionSearch;
  literal.literal_bipartite_transform = true;
  const auto counts = sample_two_pick_counts(literal, biases, 40000, 14);
  EXPECT_GT(chi_square(counts, expected), 100.0);
}

}  // namespace
}  // namespace csaw
