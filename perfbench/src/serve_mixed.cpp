// serve_mixed: open-loop multi-tenant serving. A seeded Poisson schedule
// plus one burst sends small requests of three classes (GNN neighbor
// sampling, PPR restart walks, streamed node2vec walks) to two in-memory
// graphs. Admission, DRR scheduling, coalescing, cross-graph overlap and
// streaming dominate; each request is timed from when it was due.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/registry.hpp"
#include "bench.hpp"
#include "core/sampler.hpp"
#include "loadgen.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kPoolWidth = 2;
constexpr std::uint32_t kConcurrentBatches = 2;
constexpr int kSetupRepeats = 3;
/// Untraced phase of a traced invocation, replayed traced; capped to
/// bound the trace's memory.
constexpr double kTracedSeconds = 5.0;
constexpr std::uint32_t kWarmupRounds = 4;
constexpr double kSloLimitS = 0.025;
/// Warm-up requests pin Philox ranges above any measured request's.
constexpr std::uint32_t kWarmupRngBase = 0x40000000u;
/// Generator head start, so the first arrival is not already late.
constexpr auto kLead = std::chrono::milliseconds(10);

struct Mixed {
  std::vector<NamedGraph> graphs;
  csaw::ServiceConfig config;
  std::unique_ptr<csaw::Service> service;
};

/// Drains a stream into a store indexed by request-local instance.
csaw::SampleStore drain_stream(csaw::SampleStream& stream, std::uint32_t instances) {
  csaw::SampleStore store(instances);
  while (auto chunk = stream.next()) {
    store.put(chunk->instance, std::move(chunk->edges));
  }
  return store;
}

Mixed set_up(std::vector<NamedGraph> graphs,
             std::shared_ptr<csaw::telemetry::TraceRecorder> trace) {
  Mixed m;
  m.graphs = graphs.empty() ? std::vector<NamedGraph>{build_lj(), build_or()}
                            : std::move(graphs);
  m.config.options.num_threads = kPoolWidth;
  m.config.max_concurrent_batches = kConcurrentBatches;
  m.config.trace = std::move(trace);
  m.service = std::make_unique<csaw::Service>(m.config);
  for (const NamedGraph& g : m.graphs) m.service->add_graph(g.name, g.graph);

  std::uint32_t base = kWarmupRngBase;
  for (std::uint32_t round = 0; round < kWarmupRounds; ++round) {
    std::vector<std::future<csaw::RunResult>> pending;
    std::vector<std::pair<std::shared_ptr<csaw::SampleStream>, std::uint32_t>>
        streams;
    for (std::uint32_t g = 0; g < m.graphs.size(); ++g) {
      for (const RequestClass cls : kClasses) {
        const ClassShape& shape = class_shape(cls);
        const std::vector<csaw::VertexId> seeds(shape.instances, round);
        csaw::SampleRequest r =
            make_request(m.graphs[g].name, shape.name, shape, seeds, base);
        base += MixedLoad{}.rng_stride;
        if (shape.streaming) {
          streams.emplace_back(m.service->submit_streaming(std::move(r)).stream,
                               shape.instances);
        } else {
          pending.push_back(m.service->submit(std::move(r)).result);
        }
      }
    }
    for (auto& f : pending) f.get();
    for (auto& [stream, instances] : streams) drain_stream(*stream, instances);
  }
  return m;
}

/// A queue of submitted requests handed from the generator to a collector.
template <typename T>
struct Handoff {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<T> items;
  bool closed = false;

  void push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu);
      items.push_back(std::move(item));
    }
    cv.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_all();
  }
};

struct InFlight {
  std::size_t index = 0;
  Clock::time_point due;
  std::uint64_t ticket = 0;
  std::uint64_t span = 0;
  std::future<csaw::RunResult> result;
  std::shared_ptr<csaw::SampleStream> stream;
};

/// Sends one phase of the schedule and tallies it, keeping the samples of
/// the first request of each class for the probe check.
class Runner {
 public:
  Runner(Mixed& m, const std::vector<Arrival>& schedule, Report& report)
      : m_(m), schedule_(schedule), report_(report),
        latency_by_index_(schedule.size(), -1.0) {
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      probe_index_.try_emplace(schedule[k].cls, k);
    }
  }

  Phase run() {
    // Batch runners join the pool as extra executing threads.
    phase_.pool_width = kPoolWidth + kConcurrentBatches - 1;
    phase_.trace = m_.config.trace;
    phase_.units = {schedule_.size()};
    const ServiceMark before = mark(*m_.service);
    // One collector per (graph, class) lane: a lane's requests share a
    // tenant and a graph, so they complete in admission order and each
    // collector can block on them one by one.
    lanes_ = std::vector<Handoff<InFlight>>(m_.graphs.size() * std::size(kClasses));
    std::vector<std::thread> collectors;
    for (auto& lane : lanes_) {
      collectors.emplace_back([this, &lane] { collect(lane); });
    }
    const auto t0 = Clock::now() + kLead;
    generate(t0);
    for (auto& lane : lanes_) lane.close();
    for (auto& t : collectors) t.join();
    phase_.wall_s = seconds_between(t0, Clock::now());
    for (const double l : latency_by_index_) {
      if (l >= 0.0) phase_.ok_latency_s.push_back(l);  // send order
    }
    close_service_phase(*m_.service, before, phase_);
    phase_.sim_seconds = phase_.stats.sim_seconds;
    phase_.sim_seps =
        csaw::sampled_edges_per_second(phase_.stats.sampled_edges, phase_.sim_seconds);
    return std::move(phase_);
  }

  const std::map<RequestClass, std::size_t>& probe_index() const {
    return probe_index_;
  }
  std::map<RequestClass, csaw::SampleStore>& probes() { return probes_; }

 private:
  void generate(Clock::time_point t0) {
    csaw::telemetry::TraceRecorder* trace = m_.config.trace.get();
    for (std::size_t k = 0; k < schedule_.size(); ++k) {
      const Arrival& a = schedule_[k];
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(a.due_s));
      std::this_thread::sleep_until(due);
      InFlight f;
      f.index = k;
      f.due = due;
      const auto sent = Clock::now();
      if (trace != nullptr) f.span = trace->begin_span("bench.request");
      const ClassShape& shape = class_shape(a.cls);
      csaw::SampleRequest request =
          make_request(m_.graphs[a.graph].name, shape.name, shape, a.seeds, a.rng_base);
      csaw::RejectReason rejected;
      if (shape.streaming) {
        csaw::StreamSubmission s = m_.service->submit_streaming(std::move(request));
        rejected = s.rejected;
        f.ticket = s.ticket;
        f.stream = std::move(s.stream);
      } else {
        csaw::Submission s = m_.service->submit(std::move(request));
        rejected = s.rejected;
        f.ticket = s.ticket;
        f.result = std::move(s.result);
      }
      const auto submitted = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++phase_.sent;
        phase_.lag_s.push_back(seconds_between(due, sent));
        phase_.submit_s.push_back(seconds_between(sent, submitted));
        if (rejected != csaw::RejectReason::kNone) ++phase_.rejected;
      }
      if (rejected != csaw::RejectReason::kNone) {
        if (trace != nullptr) trace->end_span(f.span, "bench.request");
        continue;
      }
      lanes_[a.graph * std::size(kClasses) + static_cast<std::size_t>(a.cls)]
          .push(std::move(f));
    }
  }

  void collect(Handoff<InFlight>& lane) {
    while (true) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(lane.mu);
        lane.cv.wait(lock, [&lane] { return !lane.items.empty() || lane.closed; });
        if (lane.items.empty()) return;
        f = std::move(lane.items.front());
        lane.items.pop_front();
      }
      const auto instances = class_shape(schedule_[f.index].cls).instances;
      try {
        csaw::SampleStore store = f.stream ? drain_stream(*f.stream, instances)
                                           : f.result.get().samples;
        finish(f, Clock::now(), std::move(store), true);
      } catch (const std::exception&) {
        finish(f, Clock::now(), csaw::SampleStore(), false);
      }
    }
  }

  void finish(const InFlight& f, Clock::time_point done,
              csaw::SampleStore samples, bool succeeded) {
    const Arrival& a = schedule_[f.index];
    if (m_.config.trace) {
      m_.config.trace->end_span(f.span, "bench.request",
                                {{"ticket", std::to_string(f.ticket)}});
    }
    const std::string bad =
        succeeded ? check_request(*m_.graphs[a.graph].graph, class_shape(a.cls),
                                  a.seeds, samples)
                  : std::string();
    std::lock_guard<std::mutex> lock(mu_);
    if (!succeeded) {
      ++phase_.failed;
      return;
    }
    report_.check(bad.empty(), std::string("serve_mixed ") +
                                   class_shape(a.cls).name + " request " +
                                   std::to_string(f.index) + ": " + bad);
    if (!bad.empty()) {
      ++phase_.check_failures;
      return;
    }
    const double latency = seconds_between(f.due, done);
    ++phase_.ok;
    latency_by_index_[f.index] = latency;
    phase_.class_latency_s[class_shape(a.cls).name].push_back(latency);
    phase_.edges += samples.total_edges();
    if (probe_index_.at(a.cls) == f.index) probes_[a.cls] = std::move(samples);
  }

  Mixed& m_;
  const std::vector<Arrival>& schedule_;
  Report& report_;
  std::map<RequestClass, std::size_t> probe_index_;
  std::vector<Handoff<InFlight>> lanes_;
  std::mutex mu_;  // guards phase_, latency_by_index_, probes_ and report_
  Phase phase_;
  /// Latency of each successful request by schedule index; -1 otherwise.
  std::vector<double> latency_by_index_;
  std::map<RequestClass, csaw::SampleStore> probes_;
};

/// The first request of each class must equal a solo Sampler run with the
/// same Philox tags, byte for byte.
void check_probes(const Mixed& m, const std::vector<Arrival>& schedule,
                  Runner& runner, Report& report) {
  for (const auto& [cls, index] : runner.probe_index()) {
    const Arrival& a = schedule[index];
    const ClassShape& shape = class_shape(cls);
    csaw::Sampler solo(*m.graphs[a.graph].graph,
                       csaw::make_algorithm(shape.algorithm, shape.depth_or_length,
                                            shape.neighbor_size),
                       m.config.options);
    std::vector<std::uint32_t> tags(a.seeds.size());
    for (std::uint32_t i = 0; i < tags.size(); ++i) tags[i] = a.rng_base + i;
    const csaw::RunResult r =
        solo.run_tagged(csaw::expand_single_seeds(a.seeds), tags);
    const auto it = runner.probes().find(cls);
    report.check(it != runner.probes().end() && same_samples(r.samples, it->second),
                 std::string("serve_mixed probe ") + shape.name +
                     " differs from a solo Sampler run");
  }
}

}  // namespace

void run_serve_mixed(const Options& opt, Report& report) {
  Mixed m;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    m = Mixed{};
    const auto t0 = Clock::now();
    m = set_up({}, nullptr);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  report.env("pool_width", std::to_string(kPoolWidth));
  report.env("max_concurrent_batches", std::to_string(kConcurrentBatches));
  for (const NamedGraph& g : m.graphs) report.env("graph." + g.name, describe(g));
  const MixedLoad load;
  report.env("offered_rps", std::to_string(load.rate_per_s));
  report.env("burst", std::to_string(load.burst_requests) + " requests at " +
                          std::to_string(load.burst_at) + " of the phase");

  const double seconds = opt.trace ? std::min(opt.seconds / 2, kTracedSeconds)
                                   : opt.seconds;
  std::vector<csaw::VertexId> sizes;
  for (const NamedGraph& g : m.graphs) sizes.push_back(g.graph->num_vertices());
  const std::vector<Arrival> schedule = mixed_schedule(opt.seed, seconds, sizes);

  Runner runner(m, schedule, report);
  const Phase a = runner.run();
  check_probes(m, schedule, runner, report);
  if (!opt.trace) {
    report_end_to_end(report, a, median_setup(setups), kSloLimitS);
    return;
  }
  m.service.reset();
  Mixed traced = set_up(m.graphs, std::make_shared<csaw::telemetry::TraceRecorder>());
  Runner replay(traced, schedule, report);
  const Phase b = replay.run();
  traced.service.reset();
  check_replay(report, a, b, /*exact_sim=*/false);
  report_layers(report, a, b, m.graphs);
}

}  // namespace perfbench
