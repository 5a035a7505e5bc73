#include "reduce.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {
namespace {

/// Samples needed beyond a reported percentile.
constexpr std::size_t kBeyond = 10;

/// 0-based nearest-rank index of percentile `q` among `n` sorted samples.
std::size_t rank_index(double q, std::size_t n) {
  const double rank = std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9);
  return static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) - 1;
}

/// The percentile rule on a sample count: the percentile to report and
/// its 0-based rank.
std::pair<double, std::size_t> rule_rank(double target, std::size_t n) {
  const std::size_t k = rank_index(target, n);
  if (n - 1 - k >= kBeyond) return {target, k};
  if (n > kBeyond) {
    const double q = 100.0 * static_cast<double>(n - kBeyond) /
                     static_cast<double>(n);
    if (q >= 50.0) return {q, n - kBeyond - 1};
  }
  return {50.0, rank_index(50.0, n)};
}

}  // namespace

Percentile tail_percentile(std::vector<double> samples, double target) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const auto [q, k] = rule_rank(target, samples.size());
  p.percentile = q;
  p.value = samples[k];
  return p;
}

Percentile blocked_tail_percentile(const std::vector<double>& samples,
                                   double target, std::size_t block) {
  const std::size_t blocks = block == 0 ? 0 : samples.size() / block;
  if (blocks < 2) return tail_percentile(samples, target);
  std::vector<double> per_block;
  Percentile p;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto last = b + 1 == blocks
                          ? samples.end()
                          : first + static_cast<std::ptrdiff_t>(block);
    const Percentile q = tail_percentile(std::vector<double>(first, last), target);
    per_block.push_back(q.value);
    p.percentile = q.percentile;
  }
  p.value = plain_percentile(std::move(per_block), 50.0);
  p.samples = samples.size();
  return p;
}

double plain_percentile(std::vector<double> samples, double percentile) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[rank_index(percentile, samples.size())];
}

double slo_attainment(const std::vector<double>& ok_latencies, double limit,
                      std::uint64_t sent) {
  if (sent == 0) return 0.0;
  const auto met = std::count_if(ok_latencies.begin(), ok_latencies.end(),
                                 [limit](double l) { return l <= limit; });
  return static_cast<double>(met) / static_cast<double>(sent);
}

csaw::telemetry::HistogramSnapshot histogram_delta(
    const csaw::telemetry::HistogramSnapshot& after,
    const csaw::telemetry::HistogramSnapshot& before) {
  csaw::telemetry::HistogramSnapshot d = after;
  if (before.buckets.size() != after.buckets.size()) return d;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  d.count -= before.count;
  d.sum -= before.sum;
  return d;
}

Percentile histogram_percentile(const csaw::telemetry::HistogramSnapshot& h,
                                double target) {
  Percentile p;
  std::uint64_t n = 0;
  for (const std::uint64_t b : h.buckets) n += b;
  p.samples = n;
  if (n == 0) return p;
  const auto [q, k] = rule_rank(target, n);
  p.percentile = q;
  const std::uint64_t rank = k + 1;  // 1-based
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const std::uint64_t in_bucket = h.buckets[i];
    if (below + in_bucket < rank) {
      below += in_bucket;
      continue;
    }
    const double lower = i == 0 ? 0.0 : h.bounds[i - 1];
    if (i >= h.bounds.size()) {
      p.value = lower;  // +Inf bucket: its lower bound is all we know
    } else {
      const double upper = h.bounds[i];
      p.value = lower + (upper - lower) *
                            static_cast<double>(rank - below) /
                            static_cast<double>(in_bucket);
    }
    return p;
  }
  return p;
}

namespace {

void take_attribution(Span& s, const csaw::telemetry::TraceEvent& e) {
  for (const auto& [key, value] : e.args) {
    if (key == "ticket") s.ticket = value;
    if (key == "batch") s.batch = value;
  }
}

}  // namespace

std::vector<Span> pair_spans(
    const std::vector<csaw::telemetry::TraceEvent>& events) {
  std::vector<Span> spans;
  std::map<std::uint64_t, std::size_t> open;
  for (const auto& e : events) {
    if (e.phase == csaw::telemetry::TracePhase::kBegin) {
      Span s;
      s.name = e.name;
      s.id = e.id;
      s.begin_us = e.ts_us;
      take_attribution(s, e);
      open[e.id] = spans.size();
      spans.push_back(std::move(s));
    } else if (e.phase == csaw::telemetry::TracePhase::kEnd) {
      const auto it = open.find(e.id);
      if (it == open.end()) continue;
      Span& s = spans[it->second];
      s.end_us = e.ts_us;
      take_attribution(s, e);
      open.erase(it);
    }
  }
  // Drop spans that never closed (none should, once the run drained).
  std::vector<Span> closed;
  closed.reserve(spans.size());
  for (auto& s : spans) {
    if (open.count(s.id) == 0) closed.push_back(std::move(s));
  }
  return closed;
}

void link_spans(std::vector<Span>& spans) {
  const auto is_work = [](const std::string& name) {
    return name == "chain" || name == "transfer" || name == "shard" ||
           name == "forward";
  };
  std::map<std::string, std::vector<std::size_t>> work_by_batch;
  std::map<std::string, std::size_t> batch_by_id;
  std::map<std::string, std::size_t> request_by_ticket;
  std::map<std::string, std::size_t> queue_by_ticket;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (is_work(s.name)) work_by_batch[s.batch].push_back(i);
    if (s.name == "batch") batch_by_id[s.batch] = i;
    if (s.name == "request") request_by_ticket[s.ticket] = i;
    if (s.name == "queue") queue_by_ticket[s.ticket] = i;
  }
  const auto link_one = [](Span& s,
                           const std::map<std::string, std::size_t>& by_key,
                           const std::string& key) {
    const auto it = by_key.find(key);
    if (it != by_key.end()) s.children.push_back(it->second);
  };
  for (Span& s : spans) {
    s.children.clear();
    if (s.name == "bench.request") {
      link_one(s, request_by_ticket, s.ticket);
    } else if (s.name == "bench.call" || s.name == "batch") {
      const auto it = work_by_batch.find(s.batch);
      if (it != work_by_batch.end()) s.children = it->second;
    } else if (s.name == "request") {
      link_one(s, queue_by_ticket, s.ticket);
      link_one(s, batch_by_id, s.batch);
    }
  }
}

double self_seconds(const std::vector<Span>& spans, std::size_t i) {
  const Span& s = spans[i];
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const std::size_t c : s.children) {
    const std::int64_t b = std::max(spans[c].begin_us, s.begin_us);
    const std::int64_t e = std::min(spans[c].end_us, s.end_us);
    if (b < e) cover.emplace_back(b, e);
  }
  std::sort(cover.begin(), cover.end());
  std::int64_t covered = 0;
  std::int64_t reach = s.begin_us;
  for (const auto& [b, e] : cover) {
    const std::int64_t from = std::max(b, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return static_cast<double>(s.end_us - s.begin_us - covered) * 1e-6;
}

std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += self_seconds(spans, i);
  }
  return out;
}

}  // namespace perfbench
