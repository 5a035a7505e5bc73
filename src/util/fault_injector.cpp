#include "util/fault_injector.hpp"

#include <cmath>

#include "util/philox.hpp"

namespace csaw {

double RetryPolicy::delay_before(std::uint32_t k) const {
  return std::ldexp(backoff, static_cast<int>(k) - 1);
}

FaultInjector::FaultInjector() : config_(Config{}) {}

FaultInjector::FaultInjector(Config config) : config_(config) {}

void FaultInjector::fail_next(std::uint32_t site, std::uint32_t times) {
  std::lock_guard<std::mutex> lock(mu_);
  scripted_[site].push_back(times);
}

void FaultInjector::kill(std::uint32_t site) {
  std::lock_guard<std::mutex> lock(mu_);
  dead_.insert(site);
}

bool FaultInjector::is_dead(std::uint32_t site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_.count(site) > 0;
}

FaultInjector::Outcome FaultInjector::next_attempt(FaultDomain domain,
                                                   std::uint32_t site,
                                                   std::uint32_t attempt) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempts_;

  if (dead_.count(site) > 0) return Outcome::kFail;

  if (attempt == 0) {
    // New visit: the previous visit's leftovers (a terminal failure the
    // caller gave up on) are discarded.
    visit_remaining_.erase(site);

    if (auto it = scripted_.find(site); it != scripted_.end()) {
      const std::uint32_t times = it->second.front();
      it->second.pop_front();
      if (it->second.empty()) scripted_.erase(it);
      if (times > 0) visit_remaining_[site] = times;
    } else if (config_.fail_rate > 0.0 || config_.slow_rate > 0.0) {
      const double r = Philox4x32::uniform(
          config_.seed, site, static_cast<std::uint32_t>(visit_seq_),
          static_cast<std::uint32_t>(visit_seq_ >> 32),
          static_cast<std::uint32_t>(domain));
      ++visit_seq_;
      if (r < config_.fail_rate) {
        visit_remaining_[site] = config_.fail_times;
      } else if (r < config_.fail_rate + config_.slow_rate) {
        return Outcome::kSlow;
      }
    }
  }

  if (auto it = visit_remaining_.find(site); it != visit_remaining_.end()) {
    if (it->second > 0) {
      --it->second;
      return Outcome::kFail;
    }
    visit_remaining_.erase(it);
  }
  return Outcome::kOk;
}

std::uint64_t FaultInjector::attempts_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempts_;
}

}  // namespace csaw
