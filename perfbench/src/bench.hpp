#pragma once

// Shared pieces of the three workloads: the run options, the result
// record, the graph stand-ins, the output checks and the reporting of
// end-to-end and per-layer metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/run_result.hpp"
#include "graph/csr.hpp"
#include "loadgen.hpp"
#include "reduce.hpp"
#include "service/service.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// The run's record: metrics by name and unit, the environment, and the
/// correctness tally that decides the exit code.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void env(const std::string& key, const std::string& value);
  /// An output check. A failed check makes the run incorrect.
  void check(bool ok, const std::string& what);

  bool correct() const { return check_failures_ == 0; }

  /// Operations attempted and failed (rejected, failed or failing a check)
  /// in the measured phase.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// {"env": {...}} — the environment record line.
  std::string env_json() const;
  /// The result line: correct, attempted, failed, metrics.
  std::string result_json() const;
  /// Human-readable metric table (stderr).
  std::string table() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> env_;
  std::uint64_t check_failures_ = 0;
};

/// Graph stand-ins. Fixed shapes: every seed runs on the same graphs, only
/// the requests change.
struct NamedGraph {
  std::string name;
  std::shared_ptr<const csaw::CsrGraph> graph;
  double build_s = 0.0;
};
NamedGraph build_lj();
NamedGraph build_or();
/// The weighted R-MAT graph serve_scaleout routes across shards.
NamedGraph build_shard_rmat();
/// "name: V vertices, E edges, B bytes" for the environment record.
std::string describe(const NamedGraph& g);

/// Output checks. Each returns an empty string when the sample is well
/// formed, otherwise what is wrong.
/// A walk: `length` edges of `g`, the first leaving `seed`, each next one
/// leaving where the previous arrived (or, with `restarts`, the seed).
std::string check_walk(const csaw::CsrGraph& g, const std::vector<csaw::Edge>& walk,
                       csaw::VertexId seed, std::uint32_t length, bool restarts);
/// A neighbor-sampling tree: distinct edges of `g` whose sources are the
/// seed or a sampled vertex, at most `fanout` children per source and at
/// most fanout + fanout^2 + ... edges over `depth` layers.
std::string check_tree(const csaw::CsrGraph& g, const std::vector<csaw::Edge>& edges,
                       csaw::VertexId seed, std::uint32_t fanout,
                       std::uint32_t depth);

/// A request of `shape`: one single-seed instance per seed, pinned to the
/// Philox range starting at `rng_base`.
csaw::SampleRequest make_request(const std::string& graph, const std::string& tenant,
                                 const ClassShape& shape,
                                 const std::vector<csaw::VertexId>& seeds,
                                 std::uint32_t rng_base);
/// Empty when every instance of a `shape` request is a well-formed sample
/// (check_tree for neighbor sampling, check_walk otherwise).
std::string check_request(const csaw::CsrGraph& g, const ClassShape& shape,
                          const std::vector<csaw::VertexId>& seeds,
                          const csaw::SampleStore& s);

/// Whether two runs' samples are byte-identical.
bool same_samples(const csaw::SampleStore& a, const csaw::SampleStore& b);

/// Process peak resident set, MiB.
double peak_rss_mb();

/// Kernel-stat counters accumulated by a service (its metrics_text()
/// csaw_kernel_*_total families), keyed by field name.
std::map<std::string, double> service_kernel_counters(const csaw::Service& service);

/// Everything one measured phase produced. Workloads fill what applies;
/// the rest stays zero.
struct Phase {
  double wall_s = 0.0;
  // --- Per request (or per call, for walk_corpus).
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t check_failures = 0;
  std::vector<double> ok_latency_s;  // in send order
  std::map<std::string, std::vector<double>> class_latency_s;
  std::vector<double> submit_s;
  std::vector<double> lag_s;
  /// Sampled edges per host second of each unit, for a single closed-loop
  /// client (walk_corpus); empty when the phase rate is edges / wall_s.
  std::vector<double> unit_rates;
  // --- Work, exact for a fixed list of units.
  std::uint64_t edges = 0;
  double sim_seconds = 0.0;
  double sim_seps = 0.0;
  std::map<std::string, double> kernels;
  csaw::OomMetrics oom;
  double oom_sim_seconds = 0.0;
  csaw::ShardMetrics shard;
  double shard_sim_seconds = 0.0;
  std::uint64_t shard_edges = 0;
  /// Units completed, per client (closed loops) or in total: what a
  /// traced replay repeats.
  std::vector<std::uint64_t> units;
  // --- Service layer (zero for walk_corpus).
  csaw::ServiceStats stats;
  csaw::telemetry::HistogramSnapshot queue_wait, formation, inflight;
  // --- Traced phase only.
  std::shared_ptr<csaw::telemetry::TraceRecorder> trace;
  /// Threads that can execute engine work at once: the pool width plus
  /// any extra batch-runner threads the pool admits.
  std::uint32_t pool_width = 0;
};

/// Snapshot of the service counters a phase reports as deltas.
struct ServiceMark {
  csaw::ServiceStats stats;
  csaw::telemetry::HistogramSnapshot queue_wait, formation, inflight;
  std::map<std::string, double> kernels;
};
ServiceMark mark(const csaw::Service& service);
/// Fills phase.stats / histograms / kernels with (now - before).
void close_service_phase(const csaw::Service& service, const ServiceMark& before,
                         Phase& phase);

/// Median of several set-up times.
double median_setup(std::vector<double> times);

/// Prints every end-to-end metric from an untraced phase.
void report_end_to_end(Report& report, const Phase& phase, double setup_s,
                       double slo_limit_s);

/// Prints every per-layer metric: counts from the untraced phase `a`,
/// span-derived times from the traced replay `b`, and the overhead of
/// tracing (b against a). `graphs` are the workload's graphs.
void report_layers(Report& report, const Phase& a, const Phase& b,
                   const std::vector<NamedGraph>& graphs);

/// Fails the run unless the traced replay did exactly the untraced work.
void check_replay(Report& report, const Phase& a, const Phase& b,
                  bool exact_sim);

}  // namespace perfbench
