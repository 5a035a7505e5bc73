#include "gpusim/warp.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/prefix_sum.hpp"

namespace csaw::sim {
namespace {

TEST(Warp, ConstructionCountsWarp) {
  KernelStats stats;
  {
    WarpContext w1(stats);
    WarpContext w2(stats);
  }
  EXPECT_EQ(stats.warps, 2u);
}

TEST(Warp, ChargeRoundsAccumulates) {
  KernelStats stats;
  WarpContext warp(stats);
  warp.charge_rounds(3);
  warp.charge_rounds(4);
  EXPECT_EQ(stats.lockstep_rounds, 7u);
}

TEST(Warp, DivergedRoundsChargeMax) {
  KernelStats stats;
  WarpContext warp(stats);
  const std::vector<std::uint32_t> trips = {1, 9, 3, 0};
  warp.charge_diverged_rounds(trips);
  EXPECT_EQ(stats.lockstep_rounds, 9u);
}

TEST(Warp, GlobalChargesBytesAndOneRound) {
  KernelStats stats;
  WarpContext warp(stats);
  warp.charge_global(128);
  EXPECT_EQ(stats.global_bytes, 128u);
  EXPECT_EQ(stats.lockstep_rounds, 1u);
}

TEST(Warp, AtomicConflictDetectionWithinRound) {
  KernelStats stats;
  WarpContext warp(stats);
  csaw::AtomicBitmap bitmap(64, csaw::BitmapLayout::kContiguous);

  // Lanes hitting bits 0 and 1 share word 0 -> one conflict.
  EXPECT_FALSE(warp.atomic_test_and_set(bitmap, 0));
  EXPECT_FALSE(warp.atomic_test_and_set(bitmap, 1));
  EXPECT_EQ(stats.atomic_ops, 2u);
  EXPECT_EQ(stats.atomic_conflicts, 1u);

  // New round: bit 8 lives in word 1, no conflict.
  warp.end_atomic_round();
  EXPECT_FALSE(warp.atomic_test_and_set(bitmap, 8));
  EXPECT_EQ(stats.atomic_conflicts, 1u);
}

TEST(Warp, StridedBitmapAvoidsConflictContiguousHits) {
  csaw::AtomicBitmap contiguous(64, csaw::BitmapLayout::kContiguous);
  csaw::AtomicBitmap strided(64, csaw::BitmapLayout::kStrided);

  KernelStats cs, ss;
  {
    WarpContext warp(cs);
    for (std::size_t i = 0; i < 8; ++i) warp.atomic_test_and_set(contiguous, i);
  }
  {
    WarpContext warp(ss);
    for (std::size_t i = 0; i < 8; ++i) warp.atomic_test_and_set(strided, i);
  }
  EXPECT_EQ(cs.atomic_conflicts, 7u);  // all in word 0
  EXPECT_EQ(ss.atomic_conflicts, 0u);  // spread across words
}

TEST(Warp, ChargeScanMatchesKoggeStoneAccounting) {
  // charge_scan(n) is the closed form of running csaw::kogge_stone_scan
  // over n values and charging its rounds plus the array's read and
  // write traffic — the accounting CTPS construction used to pay for
  // with a real (discarded) scan.
  for (std::size_t n = 0; n <= 4096; ++n) {
    std::vector<float> data(n, 1.0f);
    const auto rounds = static_cast<std::uint64_t>(
        csaw::kogge_stone_scan(data, WarpContext::kLanes));
    KernelStats stats;
    {
      WarpContext warp(stats);
      warp.charge_scan(n);
    }
    ASSERT_EQ(stats.lockstep_rounds, rounds) << "n = " << n;
    ASSERT_EQ(stats.global_bytes, 2 * n * sizeof(float)) << "n = " << n;
    ASSERT_EQ(stats.max_warp_rounds, rounds) << "n = " << n;
  }
}

TEST(Warp, BinarySearchChargesLockStepRounds) {
  KernelStats stats;
  WarpContext warp(stats);
  warp.charge_binary_search(/*n=*/1024, /*active_lanes=*/4);
  EXPECT_EQ(stats.lockstep_rounds, 11u);  // bit_width(1024) = 11
  EXPECT_EQ(stats.global_bytes, 11u * 4 * sizeof(float));

  // Zero-size or zero lanes: no charge.
  warp.charge_binary_search(0, 10);
  warp.charge_binary_search(10, 0);
  EXPECT_EQ(stats.lockstep_rounds, 11u);
}

}  // namespace
}  // namespace csaw::sim
