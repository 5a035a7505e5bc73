#include "select/ctps.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace csaw {

std::size_t Ctps::fill(std::span<const float> biases, std::span<float> f) {
  CSAW_CHECK_MSG(!biases.empty(), "CTPS over empty candidate pool");
  CSAW_CHECK(f.size() == biases.size() + 1);
  f[0] = 0.0f;

  std::size_t positive = 0;
  double acc = 0.0;
  for (std::size_t i = 0; i < biases.size(); ++i) {
    CSAW_CHECK_MSG(biases[i] >= 0.0f, "negative bias at candidate " << i);
    if (biases[i] > 0.0f) ++positive;
    acc += biases[i];
    f[i + 1] = static_cast<float>(acc);
  }
  CSAW_CHECK_MSG(acc > 0.0, "all candidate biases are zero");

  const auto inv = static_cast<float>(1.0 / acc);
  for (std::size_t i = 1; i < f.size(); ++i) f[i] *= inv;
  f.back() = 1.0f;  // guard against rounding drift at the top end
  return positive;
}

void Ctps::charge_build(std::size_t n, sim::WarpContext& warp) {
  // The GPU kernel computes the same array with a warp Kogge-Stone scan
  // followed by a normalizing division pass (Fig. 5 lines 6-7).
  warp.charge_scan(n);
  warp.charge_rounds((n + sim::WarpContext::kLanes - 1) /
                     sim::WarpContext::kLanes);
}

void Ctps::build(std::span<const float> biases, sim::WarpContext* warp) {
  f_.resize(biases.size() + 1);
  positive_ = fill(biases, f_);
  if (warp != nullptr) charge_build(biases.size(), *warp);
}

std::size_t Ctps::locate(double r, sim::WarpContext* warp) const {
  CSAW_CHECK(!empty());
  if (warp != nullptr) warp->charge_binary_search(f_.size(), 1);
  return locate(f_, r);
}

std::size_t Ctps::locate(std::span<const float> f, double r) {
  CSAW_CHECK(f.size() >= 2);
  CSAW_CHECK_MSG(r >= 0.0 && r < 1.0, "random number out of [0,1): " << r);
  const std::size_t n = f.size() - 1;
  const auto lo = [f](std::size_t k) { return f[k]; };
  const auto hi = [f](std::size_t k) { return f[k + 1]; };

  // First region whose upper boundary exceeds r: F[k] <= r < F[k+1].
  const auto it = std::upper_bound(f.begin() + 1, f.end(),
                                   static_cast<float>(r));
  auto k = static_cast<std::size_t>(std::distance(f.begin() + 1, it));
  k = std::min(k, n - 1);

  // A zero-width region carries zero probability; r can only land on its
  // boundary through floating-point ties. Walk to the nearest real region.
  while (k + 1 < n && hi(k) <= lo(k)) ++k;
  while (k > 0 && hi(k) <= lo(k)) --k;
  CSAW_CHECK_MSG(hi(k) > lo(k), "no positive-width region found");
  return k;
}

}  // namespace csaw
