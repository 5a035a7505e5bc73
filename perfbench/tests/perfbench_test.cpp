// Self-test of the benchmark's reducers (on synthetic data) and of its
// seeded inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "loadgen.hpp"
#include "reduce.hpp"

namespace perfbench {
namespace {

using csaw::telemetry::TraceEvent;
using csaw::telemetry::TracePhase;

std::vector<double> one_to(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());  // the reducer sorts
  return v;
}

TEST(Percentile, TargetWhenTenSamplesLieBeyond) {
  const Percentile p = tail_percentile(one_to(1000), 99.0);
  EXPECT_EQ(p.samples, 1000u);
  EXPECT_DOUBLE_EQ(p.percentile, 99.0);
  EXPECT_DOUBLE_EQ(p.value, 990.0);  // 991..1000 lie beyond
}

TEST(Percentile, FallsBackToHighestSupportedPercentile) {
  const Percentile p = tail_percentile(one_to(100), 99.0);
  EXPECT_EQ(p.samples, 100u);
  EXPECT_DOUBLE_EQ(p.percentile, 90.0);
  EXPECT_DOUBLE_EQ(p.value, 90.0);  // exactly ten beyond: 91..100

  const Percentile q = tail_percentile(one_to(250), 99.0);
  EXPECT_DOUBLE_EQ(q.percentile, 96.0);
  EXPECT_DOUBLE_EQ(q.value, 240.0);
}

TEST(Percentile, TooFewSamplesReportTheMedian) {
  const Percentile p = tail_percentile(one_to(15), 99.0);
  EXPECT_DOUBLE_EQ(p.percentile, 50.0);
  EXPECT_DOUBLE_EQ(p.value, 8.0);
  EXPECT_EQ(tail_percentile({}, 99.0).samples, 0u);
}

TEST(Percentile, BlockedTailIsTheMedianBlockPercentile) {
  // Three blocks of 1000; the middle one holds a stall (every sample
  // 100x larger). The reported p99 is the median of the block p99s.
  std::vector<double> samples;
  for (int b = 0; b < 3; ++b) {
    for (int i = 1; i <= 1000; ++i) samples.push_back(b == 1 ? 100.0 * i : i + b);
  }
  const Percentile p = blocked_tail_percentile(samples, 99.0, 1000);
  EXPECT_EQ(p.samples, 3000u);
  EXPECT_DOUBLE_EQ(p.percentile, 99.0);
  EXPECT_DOUBLE_EQ(p.value, 992.0);  // blocks give 990, 99000, 992
  // Under two blocks the plain rule applies.
  EXPECT_DOUBLE_EQ(blocked_tail_percentile(one_to(1500), 99.0, 1000).value, 1485.0);
}

TEST(Percentile, HistogramInterpolatesInsideTheBucket) {
  csaw::telemetry::HistogramSnapshot h;
  h.bounds = {1.0, 2.0, 4.0};
  h.buckets = {0, 10, 0, 0};
  h.count = 10;
  const Percentile p = histogram_percentile(h, 50.0);
  EXPECT_EQ(p.samples, 10u);
  EXPECT_DOUBLE_EQ(p.value, 1.5);

  csaw::telemetry::HistogramSnapshot before = h;
  before.buckets = {0, 4, 0, 0};
  before.count = 4;
  EXPECT_EQ(histogram_delta(h, before).buckets[1], 6u);
}

TEST(Slo, FailuresAndRejectionsAreMisses) {
  // Four successes (one over the limit) out of six sent: the other two
  // were rejected or failed and have no latency.
  EXPECT_DOUBLE_EQ(slo_attainment({0.001, 0.002, 0.003, 0.030}, 0.010, 6), 0.5);
  EXPECT_DOUBLE_EQ(slo_attainment({}, 0.010, 0), 0.0);
}

TraceEvent event(const char* name, TracePhase phase, std::uint64_t id,
                 std::int64_t ts,
                 std::vector<std::pair<std::string, std::string>> args = {}) {
  TraceEvent e;
  e.name = name;
  e.phase = phase;
  e.id = id;
  e.ts_us = ts;
  e.args = std::move(args);
  return e;
}

TEST(SelfTime, SpanMinusCoveredChildTime) {
  constexpr auto B = TracePhase::kBegin;
  constexpr auto E = TracePhase::kEnd;
  const std::vector<TraceEvent> events = {
      event("bench.request", B, 1, 0),
      event("request", B, 2, 10, {{"ticket", "1"}}),
      event("queue", B, 3, 10, {{"ticket", "1"}}),
      event("queue", E, 3, 30),
      event("batch", B, 4, 40, {{"batch", "7"}}),
      event("chain", B, 5, 45, {{"batch", "7"}}),
      event("chain", B, 6, 50, {{"batch", "7"}}),
      event("chain", E, 5, 60),
      event("chain", E, 6, 70),
      event("transfer", B, 7, 80, {{"batch", "7"}}),
      event("transfer", E, 7, 85),
      event("request", E, 2, 90, {{"batch", "7"}}),
      event("batch", E, 4, 95),
      event("bench.request", E, 1, 100, {{"ticket", "1"}}),
      event("chain", B, 8, 200, {{"batch", "9"}}),  // never closed: dropped
  };
  std::vector<Span> spans = pair_spans(events);
  ASSERT_EQ(spans.size(), 7u);
  link_spans(spans);
  const auto self = self_seconds_by_name(spans);
  EXPECT_NEAR(self.at("bench.request"), 20e-6, 1e-12);  // 100 - request's 80
  EXPECT_NEAR(self.at("request"), 10e-6, 1e-12);  // 80 - queue 20 - batch 50
  EXPECT_NEAR(self.at("queue"), 20e-6, 1e-12);
  EXPECT_NEAR(self.at("batch"), 25e-6, 1e-12);  // 55 - chains 25 - transfer 5
  EXPECT_NEAR(self.at("chain"), 35e-6, 1e-12);
  EXPECT_NEAR(self.at("transfer"), 5e-6, 1e-12);
}

TEST(SeededInputs, SameSeedSameBytes) {
  const std::vector<csaw::VertexId> sizes = {1000, 5000};
  const auto a = mixed_schedule(7, 4.0, sizes);
  const auto b = mixed_schedule(7, 4.0, sizes);
  EXPECT_EQ(serialize(a), serialize(b));
  EXPECT_EQ(corpus_seeds(7, 3, 250, 1000), corpus_seeds(7, 3, 250, 1000));
  EXPECT_EQ(client_seeds(7, 1, 5, 64, 1000), client_seeds(7, 1, 5, 64, 1000));
}

TEST(SeededInputs, DifferentSeedDifferentBytes) {
  const std::vector<csaw::VertexId> sizes = {1000, 5000};
  EXPECT_NE(serialize(mixed_schedule(7, 4.0, sizes)),
            serialize(mixed_schedule(8, 4.0, sizes)));
  EXPECT_NE(corpus_seeds(7, 3, 250, 1000), corpus_seeds(8, 3, 250, 1000));
  EXPECT_NE(corpus_seeds(7, 3, 250, 1000), corpus_seeds(7, 4, 250, 1000));
  EXPECT_NE(client_seeds(7, 0, 5, 64, 1000), client_seeds(7, 1, 5, 64, 1000));
}

TEST(SeededInputs, ScheduleHasTheDefinedShape) {
  const MixedLoad load;
  const std::vector<csaw::VertexId> sizes = {1000, 5000};
  const auto s = mixed_schedule(11, 20.0, sizes);
  // Poisson count within a generous band around rate x duration, plus
  // the burst.
  const double expected = load.rate_per_s * 20.0 + load.burst_requests;
  EXPECT_NEAR(static_cast<double>(s.size()), expected, 0.1 * expected);
  std::size_t per_class[3] = {};
  for (std::size_t k = 0; k < s.size(); ++k) {
    if (k > 0) EXPECT_LE(s[k - 1].due_s, s[k].due_s);
    EXPECT_LT(s[k].due_s, 20.0);
    EXPECT_EQ(s[k].seeds.size(), class_shape(s[k].cls).instances);
    for (const auto v : s[k].seeds) EXPECT_LT(v, sizes[s[k].graph]);
    EXPECT_EQ(s[k].rng_base, k * load.rng_stride);
    ++per_class[static_cast<int>(s[k].cls)];
  }
  for (const RequestClass c : kClasses) {
    const double share = static_cast<double>(per_class[static_cast<int>(c)]) /
                         static_cast<double>(s.size());
    EXPECT_NEAR(share, class_shape(c).share, 0.03);
  }
}

}  // namespace
}  // namespace perfbench
