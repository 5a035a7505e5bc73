#include "gpusim/warp.hpp"

#include <algorithm>
#include <bit>

namespace csaw::sim {

void WarpContext::charge_diverged_rounds(
    std::span<const std::uint32_t> lane_trip_counts) {
  std::uint32_t worst = 0;
  for (auto trips : lane_trip_counts) worst = std::max(worst, trips);
  stats_->lockstep_rounds += worst;
}

bool WarpContext::atomic_test_and_set(AtomicBitmap& bitmap, std::size_t i) {
  const std::size_t word = bitmap.word_index(i);
  ++stats_->atomic_ops;
  if (std::find(round_words_.begin(), round_words_.end(), word) !=
      round_words_.end()) {
    ++stats_->atomic_conflicts;
  }
  round_words_.push_back(word);
  // 1 byte read-modify-write.
  stats_->global_bytes += 2;
  return bitmap.test_and_set(i);
}

void WarpContext::charge_binary_search(std::size_t n,
                                       std::uint32_t active_lanes) {
  if (n == 0 || active_lanes == 0) return;
  const auto steps = static_cast<std::uint64_t>(std::bit_width(n));
  // Lock-step: the warp executes `steps` rounds regardless of how many
  // lanes are active; each active lane touches one CTPS entry per step.
  stats_->lockstep_rounds += steps;
  stats_->global_bytes += steps * active_lanes * sizeof(float);
}

}  // namespace csaw::sim
