#include "select/ctps.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace csaw {
namespace {

TEST(Ctps, PaperFig1Example) {
  // Fig. 1(b): biases {3,6,2,2,2} -> prefix {0,3,9,11,13,15} -> CTPS
  // {0, 0.2, 0.6, 0.733, 0.867, 1}.
  Ctps ctps;
  const std::vector<float> biases = {3, 6, 2, 2, 2};
  ctps.build(biases);
  ASSERT_EQ(ctps.size(), 5u);
  EXPECT_FLOAT_EQ(static_cast<float>(ctps.lo(0)), 0.0f);
  EXPECT_NEAR(ctps.hi(0), 0.2, 1e-6);
  EXPECT_NEAR(ctps.hi(1), 0.6, 1e-6);
  EXPECT_NEAR(ctps.hi(2), 11.0 / 15.0, 1e-6);
  EXPECT_NEAR(ctps.hi(3), 13.0 / 15.0, 1e-6);
  EXPECT_FLOAT_EQ(static_cast<float>(ctps.hi(4)), 1.0f);

  // The paper's r = 0.5 falls in v7's region (candidate index 1).
  EXPECT_EQ(ctps.locate(0.5), 1u);
}

TEST(Ctps, TheoremOneRegionWidths) {
  // Theorem 1: region width of candidate k equals b_k / sum(b).
  Ctps ctps;
  const std::vector<float> biases = {1.5f, 0.25f, 4.0f, 2.25f};
  const double total = 8.0;
  ctps.build(biases);
  for (std::size_t k = 0; k < biases.size(); ++k) {
    EXPECT_NEAR(ctps.hi(k) - ctps.lo(k), biases[k] / total, 1e-6) << k;
  }
}

TEST(Ctps, LocateFindsEveryRegionOnGrid) {
  Ctps ctps;
  const std::vector<float> biases = {2, 1, 3, 4};
  ctps.build(biases);
  for (int i = 0; i < 1000; ++i) {
    const double r = i / 1000.0;
    const std::size_t k = ctps.locate(r);
    // Float storage vs double draws: boundaries may be off by one ULP.
    EXPECT_GE(r, ctps.lo(k) - 1e-6);
    EXPECT_LT(r, ctps.hi(k) + 1e-6);
  }
}

TEST(Ctps, ZeroBiasRegionsAreNeverSelected) {
  Ctps ctps;
  const std::vector<float> biases = {0, 2, 0, 0, 3, 0};
  ctps.build(biases);
  EXPECT_EQ(ctps.positive_candidates(), 2u);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t k = ctps.locate(i / 2000.0);
    EXPECT_TRUE(k == 1 || k == 4) << "selected zero-bias candidate " << k;
  }
}

TEST(Ctps, BoundariesAreExact) {
  Ctps ctps;
  ctps.build(std::vector<float>{1, 1});
  EXPECT_EQ(ctps.locate(0.0), 0u);
  EXPECT_EQ(ctps.locate(0.4999), 0u);
  EXPECT_EQ(ctps.locate(0.5), 1u);
  EXPECT_EQ(ctps.locate(0.9999), 1u);
}

TEST(Ctps, SingleCandidate) {
  Ctps ctps;
  ctps.build(std::vector<float>{7.0f});
  EXPECT_EQ(ctps.size(), 1u);
  EXPECT_EQ(ctps.locate(0.0), 0u);
  EXPECT_EQ(ctps.locate(0.999), 0u);
}

TEST(Ctps, RejectsDegenerateInput) {
  Ctps ctps;
  EXPECT_THROW(ctps.build(std::vector<float>{}), CheckError);
  EXPECT_THROW(ctps.build(std::vector<float>{0, 0, 0}), CheckError);
  EXPECT_THROW(ctps.build(std::vector<float>{1, -1}), CheckError);
  ctps.build(std::vector<float>{1});
  EXPECT_THROW(ctps.locate(1.0), CheckError);
  EXPECT_THROW(ctps.locate(-0.1), CheckError);
}

TEST(Ctps, ChargesWarpForScanAndSearch) {
  sim::KernelStats stats;
  sim::WarpContext warp(stats);
  Ctps ctps;
  const std::vector<float> biases(100, 1.0f);
  ctps.build(biases, &warp);
  EXPECT_GT(stats.lockstep_rounds, 0u);
  EXPECT_GT(stats.global_bytes, 0u);
  const auto rounds_before = stats.lockstep_rounds;
  ctps.locate(0.5, &warp);
  EXPECT_GT(stats.lockstep_rounds, rounds_before);
}

TEST(Ctps, FillWritesTheBuildArrayBitForBit) {
  const std::vector<float> biases = {0.3f, 0.0f, 7.25f, 1e-6f, 2.0f, 0.1f};
  Ctps ctps;
  ctps.build(biases);
  std::vector<float> f(biases.size() + 1);
  EXPECT_EQ(Ctps::fill(biases, f), ctps.positive_candidates());
  ASSERT_EQ(f.size(), ctps.f().size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(f[i], ctps.f()[i]) << i;  // bitwise, not approximately
  }
  for (double r = 0.0; r < 1.0; r += 0.01) {
    EXPECT_EQ(Ctps::locate(f, r), ctps.locate(r)) << r;
  }
  std::vector<float> short_f(biases.size());
  EXPECT_THROW(Ctps::fill(biases, short_f), CheckError);
  std::vector<float> g(3);
  EXPECT_THROW(Ctps::fill(std::vector<float>{1, -1}, g), CheckError);
}

}  // namespace
}  // namespace csaw
