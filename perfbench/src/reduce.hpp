#pragma once

// Reducers: pure functions that turn raw samples, histogram snapshots and
// trace events into reported numbers. Kept free of any workload state so
// the self-test can drive them with synthetic data.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

/// A percentile as reported: the value, the percentile actually used and
/// the sample count it was taken from.
struct Percentile {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

/// The percentile rule: `target` (e.g. 99) when at least ten samples lie
/// beyond it, otherwise the highest percentile that still has ten samples
/// beyond it (never below the median). Nearest-rank on the sorted
/// samples. An empty input gives value 0 with samples 0.
Percentile tail_percentile(std::vector<double> samples, double target);

/// The tail percentile of a long run, made robust to a transient stall:
/// `samples` (in send order) are cut into consecutive blocks of `block`
/// samples (the last block takes the remainder), the percentile rule is
/// applied per block, and the median block value is reported. Fewer than
/// two blocks' worth of samples fall back to tail_percentile.
Percentile blocked_tail_percentile(const std::vector<double>& samples,
                                   double target, std::size_t block);

/// Nearest-rank percentile without the ten-beyond rule (the median).
double plain_percentile(std::vector<double> samples, double percentile);

/// Share of requests *sent* that succeeded within `limit`. `ok_latencies`
/// holds one entry per successful request; rejected and failed requests
/// are not in it but count in `sent`, so they are misses.
double slo_attainment(const std::vector<double>& ok_latencies, double limit,
                      std::uint64_t sent);

/// Difference of two snapshots of one histogram (after - before).
csaw::telemetry::HistogramSnapshot histogram_delta(
    const csaw::telemetry::HistogramSnapshot& after,
    const csaw::telemetry::HistogramSnapshot& before);

/// Percentile of a bucketed histogram under the percentile rule, linearly
/// interpolated inside the bucket that holds the rank (the +Inf bucket
/// reports its lower bound). Bucket-resolution only.
Percentile histogram_percentile(const csaw::telemetry::HistogramSnapshot& h,
                                double target);

/// One span reassembled from a begin/end event pair, keeping only the
/// attribution arguments (from either event) that link spans.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::int64_t begin_us = 0;
  std::int64_t end_us = 0;
  std::string ticket;
  std::string batch;
  /// Indices (into the span vector) of the spans whose time this span's
  /// self time excludes.
  std::vector<std::size_t> children;

  double seconds() const { return static_cast<double>(end_us - begin_us) * 1e-6; }
};

/// Pairs begin/end events by span id. Unclosed spans are dropped.
std::vector<Span> pair_spans(const std::vector<csaw::telemetry::TraceEvent>& events);

/// Links each span to the spans it waits on, by the attribution arguments
/// the library stamps (see docs/OBSERVABILITY.md) plus the benchmark's own
/// spans:
///   bench.request  (ticket)  -> request of the same ticket
///   bench.call     (batch)   -> chain / transfer / shard / forward of that batch
///   request        (ticket, batch) -> queue of the ticket, batch it rode on
///   batch          (batch)   -> chain / transfer / shard / forward of the batch
void link_spans(std::vector<Span>& spans);

/// Self time of span i: its duration minus the part of its interval its
/// children cover (overlapping children count once).
double self_seconds(const std::vector<Span>& spans, std::size_t i);

/// Summed self seconds per span name.
std::map<std::string, double> self_seconds_by_name(const std::vector<Span>& spans);

}  // namespace perfbench
