// Contract of the one fault injector both simulated transports share:
// every site-model case runs against both domains, and the random-site
// placement of each domain is pinned so a given seed keeps faulting the
// same transfers.
#include "util/fault_injector.hpp"

#include <gtest/gtest.h>

#include <string>

namespace csaw {
namespace {

using Outcome = FaultInjector::Outcome;

char code(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      return 'O';
    case Outcome::kFail:
      return 'F';
    case Outcome::kSlow:
      return 'S';
  }
  return '?';
}

/// One first attempt per site visit, cycling over five sites: only the
/// random draw decides each outcome.
std::string first_attempts(FaultInjector& injector, FaultDomain domain,
                           std::uint32_t visits) {
  std::string out;
  for (std::uint32_t i = 0; i < visits; ++i) {
    out += code(injector.next_attempt(domain, i % 5, 0));
  }
  return out;
}

FaultInjector::Config random_config() {
  FaultInjector::Config config;
  config.seed = 0xC5A3u;
  config.fail_rate = 0.25;
  config.slow_rate = 0.25;
  config.fail_times = 2;
  return config;
}

class FaultSiteModel : public ::testing::TestWithParam<FaultDomain> {};

TEST_P(FaultSiteModel, ScriptedVisitFailsThenSucceeds) {
  FaultInjector injector;
  injector.fail_next(0, 2);  // attempts 0 and 1 fail, attempt 2 lands
  EXPECT_EQ(injector.next_attempt(GetParam(), 0, 0), Outcome::kFail);
  EXPECT_EQ(injector.next_attempt(GetParam(), 0, 1), Outcome::kFail);
  EXPECT_EQ(injector.next_attempt(GetParam(), 0, 2), Outcome::kOk);
  EXPECT_EQ(injector.attempts_seen(), 3u);
}

TEST_P(FaultSiteModel, ScriptedVisitsQueuePerSite) {
  FaultInjector injector;
  injector.fail_next(1, 1);
  injector.fail_next(1, 1);
  injector.fail_next(2, 1);
  // Each queued visit costs exactly one failed attempt; site 3 has no
  // script and never fails.
  for (int visit = 0; visit < 2; ++visit) {
    EXPECT_EQ(injector.next_attempt(GetParam(), 1, 0), Outcome::kFail);
    EXPECT_EQ(injector.next_attempt(GetParam(), 1, 1), Outcome::kOk);
  }
  EXPECT_EQ(injector.next_attempt(GetParam(), 1, 0), Outcome::kOk);
  EXPECT_EQ(injector.next_attempt(GetParam(), 2, 0), Outcome::kFail);
  EXPECT_EQ(injector.next_attempt(GetParam(), 2, 1), Outcome::kOk);
  EXPECT_EQ(injector.next_attempt(GetParam(), 3, 0), Outcome::kOk);
}

TEST_P(FaultSiteModel, NewVisitDiscardsLeftoverFailures) {
  // A visit deeper than the caller's retry budget: after the caller gives
  // up, the next transfer to the site starts fresh and succeeds.
  FaultInjector injector;
  injector.fail_next(0, 5);
  EXPECT_EQ(injector.next_attempt(GetParam(), 0, 0), Outcome::kFail);
  EXPECT_EQ(injector.next_attempt(GetParam(), 0, 1), Outcome::kFail);
  EXPECT_EQ(injector.next_attempt(GetParam(), 0, 0), Outcome::kOk);
}

TEST_P(FaultSiteModel, ZeroTimesScriptIsACleanVisit) {
  FaultInjector injector;
  injector.fail_next(4, 0);
  injector.fail_next(4, 1);
  EXPECT_EQ(injector.next_attempt(GetParam(), 4, 0), Outcome::kOk);
  EXPECT_EQ(injector.next_attempt(GetParam(), 4, 0), Outcome::kFail);
}

TEST_P(FaultSiteModel, RandomFaultySiteFailsFailTimesAttempts) {
  FaultInjector::Config config;
  config.fail_rate = 1.0;
  config.fail_times = 3;
  FaultInjector injector(config);
  for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(injector.next_attempt(GetParam(), 7, attempt), Outcome::kFail);
  }
  EXPECT_EQ(injector.next_attempt(GetParam(), 7, 3), Outcome::kOk);
}

TEST_P(FaultSiteModel, RandomSlowSitesCarryTheSlowFactor) {
  FaultInjector::Config config;
  config.slow_rate = 1.0;
  config.slow_factor = 5.0;
  FaultInjector injector(config);
  EXPECT_EQ(injector.next_attempt(GetParam(), 0, 0), Outcome::kSlow);
  EXPECT_EQ(injector.next_attempt(GetParam(), 1, 0), Outcome::kSlow);
  EXPECT_DOUBLE_EQ(injector.slow_factor(), 5.0);
}

TEST_P(FaultSiteModel, ScriptedVisitsDoNotConsumeRandomDraws) {
  // A scripted visit skips the random draw, so the random placement of
  // the other visits is the same with or without the script.
  FaultInjector plain(random_config());
  FaultInjector scripted(random_config());
  scripted.fail_next(9, 1);
  EXPECT_EQ(scripted.next_attempt(GetParam(), 9, 0), Outcome::kFail);
  EXPECT_EQ(first_attempts(scripted, GetParam(), 32),
            first_attempts(plain, GetParam(), 32));
}

TEST_P(FaultSiteModel, DeadSiteFailsEveryAttemptForever) {
  FaultInjector injector;
  injector.kill(2);
  ASSERT_TRUE(injector.is_dead(2));
  EXPECT_FALSE(injector.is_dead(1));
  for (std::uint32_t visit = 0; visit < 3; ++visit) {
    for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
      EXPECT_EQ(injector.next_attempt(GetParam(), 2, attempt), Outcome::kFail);
    }
  }
  EXPECT_EQ(injector.next_attempt(GetParam(), 1, 0), Outcome::kOk);
  EXPECT_EQ(injector.attempts_seen(), 13u);
}

TEST_P(FaultSiteModel, RandomPlacementIsAFunctionOfTheSeed) {
  FaultInjector a(random_config());
  FaultInjector b(random_config());
  const std::string first = first_attempts(a, GetParam(), 64);
  EXPECT_EQ(first, first_attempts(b, GetParam(), 64));
  FaultInjector::Config other = random_config();
  other.seed += 1;
  FaultInjector c(other);
  EXPECT_NE(first, first_attempts(c, GetParam(), 64));
}

INSTANTIATE_TEST_SUITE_P(Domains, FaultSiteModel,
                         ::testing::Values(FaultDomain::kPartitionCopy,
                                           FaultDomain::kEnvelope),
                         [](const auto& info) {
                           return info.param == FaultDomain::kPartitionCopy
                                      ? std::string("PartitionCopy")
                                      : std::string("Envelope");
                         });

// The first 64 random-site outcomes of seed 0xC5A3 (fail 0.25, slow 0.25)
// per domain, recorded from the two per-transport injectors this one
// replaced. A change here moves every seeded fault soak.
TEST(FaultPlacement, PartitionCopyDomainIsPinned) {
  FaultInjector injector(random_config());
  EXPECT_EQ(first_attempts(injector, FaultDomain::kPartitionCopy, 64),
            "FOOOOFOFFSSFOOSFOFOOSOSFFOOOOFOSFFFOFOSOSSOFOSFSFOOSOOOFSSSSSFFO");
}

TEST(FaultPlacement, EnvelopeDomainIsPinned) {
  FaultInjector injector(random_config());
  EXPECT_EQ(first_attempts(injector, FaultDomain::kEnvelope, 64),
            "OOFSFSSSOOSSOFOFOFFSSSOFOOFOFOSOFSFOOOOSOOFFSFFSFOFOSOSOFOSSOSSS");
}

TEST(RetryPolicy, DelayDoublesPerRetry) {
  for (const double backoff : {1e-4, 3e-7, 0.125}) {
    const RetryPolicy policy{8, backoff};
    for (std::uint32_t k = 1; k <= 31; ++k) {
      // Bit-identical to the backoff * 2^(k-1) both transports used to
      // compute by hand, so simulated timelines do not move.
      EXPECT_EQ(policy.delay_before(k),
                backoff * static_cast<double>(1u << (k - 1)))
          << "retry " << k;
    }
  }
}

}  // namespace
}  // namespace csaw
