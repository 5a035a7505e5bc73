#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "graph/datasets.hpp"
#include "graph/generators.hpp"

namespace perfbench {
namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

NamedGraph timed_build(std::string name, csaw::CsrGraph (*make)()) {
  const auto t0 = Clock::now();
  auto graph = std::make_shared<const csaw::CsrGraph>(make());
  return {std::move(name), std::move(graph), seconds_between(t0, Clock::now())};
}

/// Per-unit rates give the median unit's rate (a closed loop of one
/// client); otherwise edges over the phase's wall time.
double edges_per_s(const Phase& p) {
  if (!p.unit_rates.empty()) return plain_percentile(p.unit_rates, 50.0);
  return ratio(static_cast<double>(p.edges), p.wall_s);
}

/// Block length of blocked_tail_percentile: enough for a p99 with ten
/// samples beyond it.
constexpr std::size_t kTailBlock = 1000;

}  // namespace

// --- Report -----------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::env(const std::string& key, const std::string& value) {
  env_.emplace_back(key, value);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  if (check_failures_ < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++check_failures_;
}

std::string Report::env_json() const {
  std::string out = "{\"env\": {";
  for (std::size_t i = 0; i < env_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(env_[i].first) + ": " + json_string(env_[i].second);
  }
  return out + "}}";
}

std::string Report::result_json() const {
  std::string out = std::string("{\"correct\": ") + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics_[i].name) + ": {\"value\": " +
           json_number(metrics_[i].value) +
           ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  return out + "}}";
}

std::string Report::table() const {
  std::ostringstream out;
  for (const auto& [k, v] : env_) out << "  " << k << ": " << v << "\n";
  for (const Metric& m : metrics_) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-44s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out << buf;
  }
  return out.str();
}

// --- Graphs -----------------------------------------------------------

NamedGraph build_lj() {
  return timed_build("LJ", [] {
    return csaw::make_dataset(csaw::dataset_by_abbr("LJ"), csaw::DatasetScale{});
  });
}

NamedGraph build_or() {
  return timed_build("OR", [] {
    return csaw::make_dataset(csaw::dataset_by_abbr("OR"), csaw::DatasetScale{});
  });
}

NamedGraph build_shard_rmat() {
  return timed_build("RMAT-W", [] {
    return csaw::generate_rmat(16384, 120000, 88, {}, /*weighted=*/true);
  });
}

std::string describe(const NamedGraph& g) {
  std::ostringstream out;
  out << g.graph->num_vertices() << " vertices, " << g.graph->num_edges()
      << " edges, " << g.graph->bytes() << " bytes"
      << (g.graph->has_weights() ? ", weighted" : "");
  return out.str();
}

// --- Output checks -------------------------------------------------------

std::string check_walk(const csaw::CsrGraph& g, const std::vector<csaw::Edge>& walk,
                       csaw::VertexId seed, std::uint32_t length, bool restarts) {
  if (walk.size() != length) {
    return "walk has " + std::to_string(walk.size()) + " edges, expected " +
           std::to_string(length);
  }
  csaw::VertexId at = seed;
  for (std::size_t k = 0; k < walk.size(); ++k) {
    const csaw::Edge& e = walk[k];
    if (e.src != at && !(restarts && e.src == seed)) {
      return "walk breaks at step " + std::to_string(k);
    }
    if (!g.has_edge(e.src, e.dst)) {
      return "walk step " + std::to_string(k) + " is not an edge";
    }
    at = e.dst;
  }
  return {};
}

std::string check_tree(const csaw::CsrGraph& g, const std::vector<csaw::Edge>& edges,
                       csaw::VertexId seed, std::uint32_t fanout,
                       std::uint32_t depth) {
  std::uint64_t cap = 0;
  std::uint64_t layer = 1;
  for (std::uint32_t d = 0; d < depth; ++d) cap += (layer *= fanout);
  if (edges.empty() || edges.size() > cap) {
    return "tree has " + std::to_string(edges.size()) + " edges";
  }
  // Sorted vectors instead of node-based sets: the check runs on every
  // request, concurrently with the service it measures.
  std::vector<csaw::VertexId> reached = {seed};
  std::vector<std::pair<csaw::VertexId, csaw::VertexId>> pairs;
  pairs.reserve(edges.size());
  for (const csaw::Edge& e : edges) {
    if (!g.has_edge(e.src, e.dst)) return "tree edge is not an edge";
    reached.push_back(e.dst);
    pairs.emplace_back(e.src, e.dst);
  }
  std::sort(reached.begin(), reached.end());
  std::sort(pairs.begin(), pairs.end());
  std::uint32_t children = 0;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const bool same_src = k > 0 && pairs[k].first == pairs[k - 1].first;
    if (same_src && pairs[k].second == pairs[k - 1].second) {
      return "tree repeats an edge";
    }
    children = same_src ? children + 1 : 1;
    if (children > fanout) return "tree exceeds the fanout";
    if (!std::binary_search(reached.begin(), reached.end(), pairs[k].first)) {
      return "tree edge leaves an unreached vertex";
    }
  }
  return {};
}

csaw::SampleRequest make_request(const std::string& graph, const std::string& tenant,
                                 const ClassShape& shape,
                                 const std::vector<csaw::VertexId>& seeds,
                                 std::uint32_t rng_base) {
  csaw::SampleRequest r = csaw::SampleRequest::single_seeds(
      graph, shape.algorithm, shape.depth_or_length, seeds, shape.neighbor_size);
  r.tenant = tenant;
  r.rng_base = rng_base;
  return r;
}

std::string check_request(const csaw::CsrGraph& g, const ClassShape& shape,
                          const std::vector<csaw::VertexId>& seeds,
                          const csaw::SampleStore& s) {
  if (s.num_instances() != seeds.size()) return "wrong instance count";
  for (std::uint32_t i = 0; i < s.num_instances(); ++i) {
    const std::string bad =
        shape.algorithm == csaw::AlgorithmId::kBiasedNeighborSampling
            ? check_tree(g, s.edges(i), seeds[i], shape.neighbor_size,
                         shape.depth_or_length)
            : check_walk(g, s.edges(i), seeds[i], shape.depth_or_length,
                         shape.algorithm == csaw::AlgorithmId::kRandomWalkWithRestart);
    if (!bad.empty()) return bad;
  }
  return {};
}

bool same_samples(const csaw::SampleStore& a, const csaw::SampleStore& b) {
  if (a.num_instances() != b.num_instances()) return false;
  for (std::uint32_t i = 0; i < a.num_instances(); ++i) {
    if (a.edges(i) != b.edges(i)) return false;
  }
  return true;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::map<std::string, double> service_kernel_counters(const csaw::Service& service) {
  static const std::string prefix = "csaw_kernel_";
  static const std::string suffix = "_total";
  std::map<std::string, double> out;
  std::istringstream text(service.metrics_text());
  std::string line;
  while (std::getline(text, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    std::string name = line.substr(prefix.size(), space - prefix.size());
    if (name.size() <= suffix.size()) continue;
    name.resize(name.size() - suffix.size());
    out[name] = std::stod(line.substr(space + 1));
  }
  return out;
}

// --- Phases -----------------------------------------------------------

ServiceMark mark(const csaw::Service& service) {
  return {service.stats(), service.histogram("csaw_request_queue_wait_seconds"),
          service.histogram("csaw_batch_formation_seconds"),
          service.histogram("csaw_request_inflight_seconds"),
          service_kernel_counters(service)};
}

void close_service_phase(const csaw::Service& service, const ServiceMark& before,
                         Phase& phase) {
  const ServiceMark now = mark(service);
  const auto& b = before.stats;
  csaw::ServiceStats& d = phase.stats;
  d = now.stats;
  d.submitted -= b.submitted;
  d.accepted -= b.accepted;
  d.completed -= b.completed;
  d.failed -= b.failed;
  d.batches -= b.batches;
  d.coalesced_requests -= b.coalesced_requests;
  d.sampled_edges -= b.sampled_edges;
  d.sim_seconds -= b.sim_seconds;
  phase.queue_wait = histogram_delta(now.queue_wait, before.queue_wait);
  phase.formation = histogram_delta(now.formation, before.formation);
  phase.inflight = histogram_delta(now.inflight, before.inflight);
  phase.kernels = now.kernels;
  for (auto& [k, v] : phase.kernels) {
    const auto it = before.kernels.find(k);
    if (it != before.kernels.end()) v -= it->second;
  }
}

double median_setup(std::vector<double> times) {
  return plain_percentile(std::move(times), 50.0);
}

// --- Reporting ----------------------------------------------------------

void report_end_to_end(Report& report, const Phase& p, double setup_s,
                       double slo_limit_s) {
  const Percentile p50 = tail_percentile(p.ok_latency_s, 50.0);
  const Percentile tail = blocked_tail_percentile(p.ok_latency_s, 99.0, kTailBlock);
  const std::uint64_t errors = p.rejected + p.failed + p.check_failures;
  const double met = slo_attainment(p.ok_latency_s, slo_limit_s, p.sent);

  report.attempted = p.sent;
  report.failed = errors;
  report.env("latency_samples", std::to_string(p50.samples));
  report.env("latency_tail_percentile", json_number(tail.percentile));
  report.env("slo_limit_ms", json_number(slo_limit_s * 1e3));
  report.env("error_rate", json_number(ratio(static_cast<double>(errors),
                                             static_cast<double>(p.sent))));

  report.metric("setup_s", setup_s, "s");
  report.metric("edges_per_s", edges_per_s(p), "1/s");
  report.metric("sim_seps", p.sim_seps, "1/s");
  report.metric("latency_p50_ms", p50.value * 1e3, "ms");
  report.metric("latency_p99_ms", tail.value * 1e3, "ms");
  report.metric("slo_attainment", met, "share");
  report.metric("goodput_rps", met * static_cast<double>(p.sent) / p.wall_s, "1/s");
  report.metric("success_rate",
                1.0 - ratio(static_cast<double>(errors), static_cast<double>(p.sent)),
                "share");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

void report_layers(Report& report, const Phase& a, const Phase& b,
                   const std::vector<NamedGraph>& graphs) {
  report.attempted = a.sent + b.sent;
  report.failed = a.rejected + a.failed + a.check_failures + b.rejected +
                  b.failed + b.check_failures;

  double build_s = 0.0;
  double bytes = 0.0;
  for (const NamedGraph& g : graphs) {
    build_s += g.build_s;
    bytes += static_cast<double>(g.graph->bytes());
  }
  report.metric("graph.build_s", build_s, "s");
  report.metric("graph.bytes", bytes, "B");

  // Span-derived times come from the traced replay.
  // Set-up traffic of the traced service precedes the replay's first
  // benchmark span; only the replay is attributed.
  const std::vector<csaw::telemetry::TraceEvent> events = b.trace->snapshot();
  std::vector<Span> spans = pair_spans(events);
  std::int64_t start = std::numeric_limits<std::int64_t>::max();
  for (const Span& s : spans) {
    if (s.name.rfind("bench.", 0) == 0) start = std::min(start, s.begin_us);
  }
  std::erase_if(spans, [start](const Span& s) { return s.begin_us < start; });
  link_spans(spans);
  const std::map<std::string, double> self = self_seconds_by_name(spans);
  const auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double run_s = 0.0;
  double transfer_s = 0.0;
  std::vector<double> chain_s;
  for (const Span& s : spans) {
    if (s.name == "bench.call" || s.name == "batch") run_s += s.seconds();
    if (s.name == "transfer") transfer_s += s.seconds();
    if (s.name == "chain") chain_s.push_back(s.seconds());
  }
  const double edges = static_cast<double>(a.edges);
  const auto kernel = [&a](const char* field) {
    const auto it = a.kernels.find(field);
    return it == a.kernels.end() ? 0.0 : it->second;
  };

  report.metric("core.run_s", run_s, "s");
  report.metric("core.host_ns_per_edge", ratio(run_s * 1e9, static_cast<double>(b.edges)),
                "ns");
  report.metric("core.sampled_edges", edges, "count");
  report.metric("core.chain_ms_p50", plain_percentile(chain_s, 50.0) * 1e3, "ms");
  report.metric("core.self_s", self_of("chain") + self_of("bench.call"), "s");

  report.metric("gpusim.pool_busy_share",
                ratio(self_of("chain") + self_of("shard"),
                      b.wall_s * static_cast<double>(b.pool_width)),
                "share");
  report.metric("gpusim.rounds_per_edge", ratio(kernel("lockstep_rounds"), edges),
                "count");
  report.metric("gpusim.global_bytes_per_edge", ratio(kernel("global_bytes"), edges),
                "B");
  report.metric("gpusim.sim_seconds", a.sim_seconds, "s");

  report.metric("select.iterations_per_edge",
                ratio(kernel("select_iterations"), edges), "count");
  report.metric("select.collision_rate",
                ratio(kernel("collisions"), kernel("collision_searches")), "share");

  const csaw::OomMetrics& oom = a.oom;
  const double demand =
      static_cast<double>(oom.partition_transfers - oom.prefetch_transfers);
  report.metric("oom.partition_transfers",
                static_cast<double>(oom.partition_transfers), "count");
  report.metric("oom.cache_hit_rate",
                ratio(static_cast<double>(oom.cache_hits),
                      static_cast<double>(oom.cache_hits) + demand),
                "share");
  report.metric("oom.cache_evictions", static_cast<double>(oom.cache_evictions),
                "count");
  report.metric("oom.transfer_overlap_share",
                ratio(oom.transfer_overlap_seconds, a.oom_sim_seconds), "share");
  report.metric("oom.transfer_ms", transfer_s * 1e3, "ms");
  report.metric("oom.self_s", self_of("transfer"), "s");

  const csaw::ShardMetrics& shard = a.shard;
  double max_steps = 0.0;
  double sum_steps = 0.0;
  for (const std::uint64_t s : shard.steps_per_shard) {
    max_steps = std::max(max_steps, static_cast<double>(s));
    sum_steps += static_cast<double>(s);
  }
  const double mean_steps =
      shard.steps_per_shard.empty()
          ? 0.0
          : sum_steps / static_cast<double>(shard.steps_per_shard.size());
  report.metric("shard.forwarded_per_edge",
                ratio(static_cast<double>(shard.forwarded_walkers),
                      static_cast<double>(a.shard_edges)),
                "count");
  report.metric("shard.walkers_per_envelope",
                ratio(static_cast<double>(shard.forwarded_walkers),
                      static_cast<double>(shard.envelopes)),
                "count");
  report.metric("shard.bytes_forwarded", static_cast<double>(shard.bytes_forwarded),
                "B");
  report.metric("shard.rounds", static_cast<double>(shard.rounds), "count");
  report.metric("shard.transfer_share",
                ratio(shard.transfer_seconds, a.shard_sim_seconds), "share");
  report.metric("shard.step_imbalance", ratio(max_steps, mean_steps), "ratio");
  report.metric("shard.self_s", self_of("shard") + self_of("forward"), "s");

  const csaw::ServiceStats& st = a.stats;
  report.metric("service.submit_us_p50", plain_percentile(a.submit_s, 50.0) * 1e6,
                "us");
  report.metric("service.queue_wait_ms_p50",
                histogram_percentile(a.queue_wait, 50.0).value * 1e3, "ms");
  report.metric("service.queue_wait_ms_p99",
                histogram_percentile(a.queue_wait, 99.0).value * 1e3, "ms");
  report.metric("service.inflight_ms_p50",
                histogram_percentile(a.inflight, 50.0).value * 1e3, "ms");
  report.metric("service.batch_formation_ms_p50",
                histogram_percentile(a.formation, 50.0).value * 1e3, "ms");
  report.metric("service.requests_per_batch",
                ratio(static_cast<double>(st.completed + st.failed),
                      static_cast<double>(st.batches)),
                "count");
  report.metric("service.coalesced_share",
                ratio(static_cast<double>(st.coalesced_requests),
                      static_cast<double>(st.accepted)),
                "share");
  report.metric("service.peak_queue_depth", static_cast<double>(st.peak_queue_depth),
                "count");
  report.metric("service.peak_concurrent_batches",
                static_cast<double>(st.peak_concurrent_batches), "count");
  for (const char* cls : {"gnn", "ppr", "n2v"}) {
    const auto it = a.class_latency_s.find(cls);
    const double p50 =
        it == a.class_latency_s.end() ? 0.0 : plain_percentile(it->second, 50.0);
    report.metric(std::string("service.class.") + cls + ".latency_p50_ms",
                  p50 * 1e3, "ms");
  }
  report.metric("service.self_s",
                self_of("request") + self_of("queue") + self_of("batch"), "s");

  report.metric("telemetry.trace_overhead.edges_per_s",
                ratio(edges_per_s(b), edges_per_s(a)), "ratio");
  report.metric("telemetry.trace_overhead.latency_p50_ms",
                ratio(plain_percentile(b.ok_latency_s, 50.0),
                      plain_percentile(a.ok_latency_s, 50.0)),
                "ratio");
  report.metric("telemetry.trace_events",
                static_cast<double>(std::count_if(
                    events.begin(), events.end(),
                    [start](const auto& e) { return e.ts_us >= start; })),
                "count");

  report.metric("loadgen.lag_ms_p99", tail_percentile(a.lag_s, 99.0).value * 1e3,
                "ms");
  report.metric("loadgen.sent", static_cast<double>(a.sent), "count");
  report.metric("loadgen.completed", static_cast<double>(a.ok), "count");
  report.metric("loadgen.self_s", self_of("bench.request"), "s");
}

void check_replay(Report& report, const Phase& a, const Phase& b,
                  bool exact_sim) {
  report.check(a.edges == b.edges,
               "traced replay sampled " + std::to_string(b.edges) +
                   " edges, untraced " + std::to_string(a.edges));
  if (exact_sim) {
    report.check(a.sim_seps == b.sim_seps && a.kernels == b.kernels,
                 "traced replay moved the simulated clock: sim_seps " +
                     json_number(b.sim_seps) + " vs " + json_number(a.sim_seps));
  }
}

}  // namespace perfbench
