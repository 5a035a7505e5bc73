#pragma once

// Deterministic fault injection for the simulated transports, plus the
// bounded retry policy that absorbs the faults.
//
// One FaultInjector sits in front of either transport: PartitionCache's
// partition copies (sites are partition ids) or ShardRouter's envelope
// deliveries (sites are destination shard ids). It decides, per
// *attempt*, whether the transfer succeeds, fails, or runs slow. Faults
// come from three sources:
//
//   - Scripted sites (`fail_next(site, times)`): the next transfer to
//     `site` fails its first `times` attempts, then succeeds. Fully
//     deterministic — this is what the acceptance tests use ("fail-twice
//     with retry limit 3 must be byte-identical to the no-fault run").
//   - Seed-driven random sites (`Config::fail_rate` / `slow_rate`): each
//     new transfer draws one stateless Philox value keyed by (seed,
//     site, site sequence, domain). A faulty site fails
//     `Config::fail_times` consecutive attempts.
//   - Terminal sites (`kill(site)`): every attempt to the site fails
//     forever — the "machine died" scenario behind
//     RequestOutcome::kShardFailed.
//
// A *site visit* is one transfer: the first attempt plus its retries.
// When a visit concludes — success, or the caller giving up after its
// retry limit — the visit's remaining failures are discarded and the
// next transfer to the same site starts fresh. That is what makes
// "retry_limit=1 fails the batch, the next batch on the same graph
// succeeds" hold for a fail-once script.
//
// The caller names its FaultDomain on every attempt. The domain only
// salts the random draw, so the two transports place random faults
// independently for one seed. Give each transport its own injector:
// sites are plain ids, and a partition id would alias a shard id.
//
// Faults perturb only simulated time and the failed set: surviving
// samples stay byte-identical because every sampling draw is keyed by
// the global instance tag, never by how often a transfer was retried.
//
// Thread safety: all methods are internally locked. Concurrent callers
// interleave their random-site draws nondeterministically; tests that
// need exact placement use scripted sites or a single caller.

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>

namespace csaw {

/// The transport an attempt belongs to; the value is its Philox salt.
enum class FaultDomain : std::uint32_t {
  kPartitionCopy = 0xFA017u,  ///< PartitionCache host-to-device copies
  kEnvelope = 0x5AA2Du,       ///< ShardRouter walker-envelope deliveries
};

/// Bounded retry with exponential backoff in simulated time. A transfer
/// makes at most `attempts` tries (1 = no retry); retry k (k >= 1) waits
/// delay_before(k) = backoff * 2^(k-1) simulated seconds after the failed
/// attempt.
struct RetryPolicy {
  std::uint32_t attempts = 3;
  double backoff = 1e-4;

  double delay_before(std::uint32_t k) const;
};

class FaultInjector {
 public:
  enum class Outcome : std::uint8_t {
    kOk,    ///< The transfer completes normally.
    kFail,  ///< The transfer fails; the caller may retry.
    kSlow,  ///< The transfer completes at Config::slow_factor x its time.
  };

  struct Config {
    std::uint64_t seed = 0;
    /// Probability that a new site visit is faulty.
    double fail_rate = 0.0;
    /// Consecutive failed attempts of a random faulty visit.
    std::uint32_t fail_times = 1;
    /// Probability that a new (non-faulty) site visit runs slow.
    double slow_rate = 0.0;
    /// Time multiplier of a slow transfer.
    double slow_factor = 4.0;
  };

  FaultInjector();
  explicit FaultInjector(Config config);

  /// Scripts a faulty visit: the next transfer to `site` fails its first
  /// `times` attempts. Repeated calls queue further visits.
  void fail_next(std::uint32_t site, std::uint32_t times);

  /// Marks `site` terminally failed: every later attempt to it fails.
  void kill(std::uint32_t site);
  bool is_dead(std::uint32_t site) const;

  /// The caller consults this once per transfer attempt to `site`;
  /// `attempt` is 0 for the first try, then 1, 2, ... for retries.
  /// attempt == 0 opens a new visit (consuming a scripted entry or
  /// drawing a random one salted by `domain`) and discards leftovers of
  /// the site's previous visit.
  Outcome next_attempt(FaultDomain domain, std::uint32_t site,
                       std::uint32_t attempt);

  double slow_factor() const noexcept { return config_.slow_factor; }

  /// Total attempts consulted (tests assert the injector was exercised).
  std::uint64_t attempts_seen() const;

 private:
  Config config_;
  mutable std::mutex mu_;
  /// Scripted visits not yet started, FIFO per site.
  std::map<std::uint32_t, std::deque<std::uint32_t>> scripted_;
  /// Remaining failures of each site's *current* visit.
  std::map<std::uint32_t, std::uint32_t> visit_remaining_;
  std::set<std::uint32_t> dead_;
  std::uint64_t visit_seq_ = 0;
  std::uint64_t attempts_ = 0;
};

}  // namespace csaw
