// serve_scaleout: a Service whose simulated device is too small for the
// LJ stand-in, which pages through the demand partition cache, while a
// weighted R-MAT graph stays in memory and routes across four shards.
// Closed loop, one client per graph: each batch holds exactly one
// request, so the simulated numbers of a request list are exact.

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/registry.hpp"
#include "bench.hpp"
#include "core/sampler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kPartitions = 8;
constexpr std::uint32_t kPoolWidth = 2;
/// Simulated device memory: the LJ stand-in pages, the R-MAT graph fits.
constexpr std::uint64_t kDeviceBytes = 2'500'000;
constexpr std::uint32_t kWarmupRequests = 4;
constexpr int kSetupRepeats = 3;
/// Untraced phase of a traced invocation, replayed traced; capped to
/// bound the trace's memory.
constexpr double kTracedSeconds = 1.0;
constexpr double kSloLimitS = 0.1;
constexpr std::uint32_t kWarmupRngBase = 0x70000000u;

/// One closed-loop client: it sends `shape` requests to one graph, the
/// next the moment the previous one completed. Its request k is a pure
/// function of (seed, client, k): seeds from client_seeds and the pinned
/// Philox range client * kClientStride + k * instances, so a replay of the
/// same per-client counts repeats the same bytes.
struct ClientSpec {
  std::uint32_t graph = 0;  ///< index into the workload's graphs
  ClassShape shape;
  std::string tenant;
};

/// Philox range stride between clients (requests of one client stay
/// below it for any phase this benchmark runs).
constexpr std::uint32_t kClientStride = 1u << 26;

std::uint32_t rng_base(std::uint32_t client, std::uint64_t k,
                       const ClassShape& shape) {
  return static_cast<std::uint32_t>(client * kClientStride + k * shape.instances);
}

/// One client's share of a phase.
struct ClientTally {
  Phase phase;
  /// (send time since the phase start, latency) of each successful request.
  std::vector<std::pair<double, double>> sent_latency;
  std::vector<std::string> errors;
  csaw::SampleStore probe;
};

void run_client(csaw::Service& service, const csaw::ServiceConfig& config,
                const NamedGraph& g, const ClientSpec& spec, std::uint32_t c,
                std::uint64_t seed, double seconds, std::uint64_t requests,
                Clock::time_point t0, ClientTally& out) {
  csaw::telemetry::TraceRecorder* trace = config.trace.get();
  Phase& p = out.phase;
  std::uint64_t k = 0;
  for (;; ++k) {
    const bool done = requests > 0
                          ? k == requests
                          : k > 0 && seconds_between(t0, Clock::now()) >= seconds;
    if (done) break;
    const std::vector<csaw::VertexId> seeds =
        client_seeds(seed, c, k, spec.shape.instances, g.graph->num_vertices());
    csaw::SampleRequest request = make_request(g.name, spec.tenant, spec.shape, seeds,
                                               rng_base(c, k, spec.shape));
    const auto sent = Clock::now();
    const std::uint64_t span = trace ? trace->begin_span("bench.request") : 0;
    csaw::RunResult r;
    std::uint64_t ticket = 0;
    bool accepted = false;
    try {
      csaw::Submission sub = service.submit(std::move(request));
      ticket = sub.ticket;
      accepted = sub.accepted();
      p.submit_s.push_back(seconds_between(sent, Clock::now()));
      if (accepted) r = sub.result.get();
    } catch (const std::exception& e) {
      ++p.sent;
      ++p.failed;
      out.errors.push_back(std::string("request failed: ") + e.what());
      if (trace) trace->end_span(span, "bench.request");
      continue;
    }
    const double latency = seconds_between(sent, Clock::now());
    if (trace) {
      trace->end_span(span, "bench.request", {{"ticket", std::to_string(ticket)}});
    }
    ++p.sent;
    if (!accepted) {
      ++p.rejected;
      continue;
    }
    const std::string bad = check_request(*g.graph, spec.shape, seeds, r.samples);
    if (!bad.empty()) {
      ++p.check_failures;
      out.errors.push_back(spec.tenant + " request " + std::to_string(k) + " on " +
                           g.name + ": " + bad);
      continue;
    }
    ++p.ok;
    out.sent_latency.emplace_back(seconds_between(t0, sent), latency);
    p.edges += r.sampled_edges();
    p.sim_seconds += r.sim_seconds;
    if (r.oom) {
      p.oom.accumulate(*r.oom);
      p.oom_sim_seconds += r.sim_seconds;
    }
    if (r.shard) {
      p.shard.accumulate(*r.shard);
      p.shard_sim_seconds += r.sim_seconds;
      p.shard_edges += r.sampled_edges();
    }
    if (k == 0) out.probe = std::move(r.samples);
  }
  p.units = {k};
}

/// Runs every client concurrently until `seconds` elapse (each client
/// sends at least one request), or exactly replay[c] requests per client.
/// `probes` receives request 0 of each client. sim_seps weighs the clients
/// equally — summed mean edges per request over summed mean simulated
/// seconds per request — so it does not depend on how many requests each
/// client fitted into the phase.
Phase run_closed_loop(csaw::Service& service, const csaw::ServiceConfig& config,
                      const std::vector<NamedGraph>& graphs,
                      const std::vector<ClientSpec>& clients, std::uint64_t seed,
                      double seconds, const std::vector<std::uint64_t>& replay,
                      std::vector<csaw::SampleStore>& probes, Report& report) {
  std::vector<ClientTally> tallies(clients.size());
  const ServiceMark before = mark(service);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < clients.size(); ++c) {
    const std::uint64_t requests = replay.empty() ? 0 : replay[c];
    threads.emplace_back(run_client, std::ref(service), std::cref(config),
                         std::cref(graphs[clients[c].graph]), std::cref(clients[c]),
                         c, seed, seconds, requests, t0, std::ref(tallies[c]));
  }
  for (auto& t : threads) t.join();

  Phase phase;
  phase.wall_s = seconds_between(t0, Clock::now());
  close_service_phase(service, before, phase);
  // Batch runners join the pool as extra executing threads.
  phase.pool_width = config.options.num_threads + config.max_concurrent_batches - 1;
  phase.trace = config.trace;
  double mean_edges = 0.0;
  double mean_sim = 0.0;
  std::vector<std::pair<double, double>> sent_latency;
  probes.clear();
  for (ClientTally& tally : tallies) {
    const Phase& p = tally.phase;
    for (const std::string& e : tally.errors) report.check(false, e);
    sent_latency.insert(sent_latency.end(), tally.sent_latency.begin(),
                        tally.sent_latency.end());
    phase.sent += p.sent;
    phase.ok += p.ok;
    phase.rejected += p.rejected;
    phase.failed += p.failed;
    phase.check_failures += p.check_failures;
    phase.submit_s.insert(phase.submit_s.end(), p.submit_s.begin(), p.submit_s.end());
    phase.edges += p.edges;
    phase.sim_seconds += p.sim_seconds;
    phase.oom.accumulate(p.oom);
    phase.oom_sim_seconds += p.oom_sim_seconds;
    phase.shard.accumulate(p.shard);
    phase.shard_sim_seconds += p.shard_sim_seconds;
    phase.shard_edges += p.shard_edges;
    phase.units.push_back(p.units[0]);
    if (p.ok > 0) {
      mean_edges += static_cast<double>(p.edges) / static_cast<double>(p.ok);
      mean_sim += p.sim_seconds / static_cast<double>(p.ok);
    }
    probes.push_back(std::move(tally.probe));
  }
  std::sort(sent_latency.begin(), sent_latency.end());
  for (const auto& [sent, latency] : sent_latency) phase.ok_latency_s.push_back(latency);
  phase.sim_seps = mean_sim > 0.0 ? mean_edges / mean_sim : 0.0;
  return phase;
}

/// Request 0 of each client must equal, byte for byte, a solo Sampler run
/// with the same Philox tags and the service's execution options.
void check_closed_loop_probes(const csaw::ServiceConfig& config,
                              const std::vector<NamedGraph>& graphs,
                              const std::vector<ClientSpec>& clients,
                              std::uint64_t seed,
                              const std::vector<csaw::SampleStore>& probes,
                              Report& report) {
  for (std::uint32_t c = 0; c < clients.size(); ++c) {
    const ClassShape& shape = clients[c].shape;
    const NamedGraph& g = graphs[clients[c].graph];
    const std::vector<csaw::VertexId> seeds =
        client_seeds(seed, c, 0, shape.instances, g.graph->num_vertices());
    std::vector<std::uint32_t> tags(shape.instances);
    for (std::uint32_t i = 0; i < shape.instances; ++i) tags[i] = rng_base(c, 0, shape) + i;
    csaw::Sampler solo(*g.graph,
                       csaw::make_algorithm(shape.algorithm, shape.depth_or_length,
                                            shape.neighbor_size),
                       config.options);
    const csaw::RunResult r = solo.run_tagged(csaw::expand_single_seeds(seeds), tags);
    report.check(c < probes.size() && same_samples(r.samples, probes[c]),
                 "probe of " + clients[c].tenant + " on " + g.name +
                     " differs from a solo Sampler run");
  }
}

/// Every client sends 64-seed biased walks of length 24.
const ClassShape kWalk = {"walk", csaw::AlgorithmId::kBiasedRandomWalk, 24, 1, 64,
                          1.0, false};

struct Scaleout {
  std::vector<NamedGraph> graphs;  // one client per graph
  csaw::ServiceConfig config;
  std::unique_ptr<csaw::Service> service;
  std::vector<ClientSpec> clients;
};

Scaleout set_up(std::vector<NamedGraph> graphs,
                std::shared_ptr<csaw::telemetry::TraceRecorder> trace) {
  Scaleout s;
  s.graphs = graphs.empty() ? std::vector<NamedGraph>{build_lj(), build_shard_rmat()}
                            : std::move(graphs);
  s.config.options.num_threads = kPoolWidth;
  s.config.options.num_partitions = kPartitions;
  s.config.options.device_params.memory_bytes = kDeviceBytes;
  s.config.shards = kShards;
  s.config.max_concurrent_batches = static_cast<std::uint32_t>(s.graphs.size());
  s.config.trace = std::move(trace);
  s.service = std::make_unique<csaw::Service>(s.config);
  for (std::uint32_t g = 0; g < s.graphs.size(); ++g) {
    s.service->add_graph(s.graphs[g].name, s.graphs[g].graph);
    s.clients.push_back({g, kWalk, s.graphs[g].name});
  }
  // Warm-up builds the partitioning, the demand cache and the shard map.
  std::uint32_t base = kWarmupRngBase;
  for (std::uint32_t k = 0; k < kWarmupRequests; ++k) {
    for (const NamedGraph& g : s.graphs) {
      const std::vector<csaw::VertexId> seeds(kWalk.instances, k);
      s.service->sample(make_request(g.name, g.name, kWalk, seeds, base));
      base += kWalk.instances;
    }
  }
  return s;
}

}  // namespace

void run_serve_scaleout(const Options& opt, Report& report) {
  Scaleout s;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    s = Scaleout{};
    const auto t0 = Clock::now();
    s = set_up({}, nullptr);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  report.env("pool_width", std::to_string(kPoolWidth));
  report.env("shards", std::to_string(kShards));
  report.env("device_bytes", std::to_string(kDeviceBytes));
  for (const NamedGraph& g : s.graphs) report.env("graph." + g.name, describe(g));
  for (const csaw::GraphResidency& r : s.service->graphs()) {
    report.env("residency." + r.name,
               r.paged ? "paged, " + std::to_string(r.cache_capacity) + " of " +
                             std::to_string(kPartitions) + " partitions resident"
                       : "in memory");
  }

  const double seconds = opt.trace ? std::min(opt.seconds / 2, kTracedSeconds)
                                   : opt.seconds;
  std::vector<csaw::SampleStore> probes;
  const Phase a = run_closed_loop(*s.service, s.config, s.graphs, s.clients, opt.seed,
                                  seconds, {}, probes, report);
  check_closed_loop_probes(s.config, s.graphs, s.clients, opt.seed, probes, report);
  if (!opt.trace) {
    report_end_to_end(report, a, median_setup(setups), kSloLimitS);
    return;
  }
  s.service.reset();
  Scaleout traced =
      set_up(s.graphs, std::make_shared<csaw::telemetry::TraceRecorder>());
  const Phase b = run_closed_loop(*traced.service, traced.config, traced.graphs,
                                  traced.clients, opt.seed, 0.0, a.units, probes, report);
  traced.service.reset();
  check_replay(report, a, b, /*exact_sim=*/true);
  report_layers(report, a, b, s.graphs);
}

}  // namespace perfbench
