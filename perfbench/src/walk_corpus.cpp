// walk_corpus: an offline client building a biased random-walk corpus.
// Closed loop: one thread calls Sampler::run_tagged on fresh seed sets,
// back to back, at a fixed pool width. The engine's per-step EDGEBIAS /
// CTPS re-scan does nearly all the work; service, oom and shard do none.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/random_walks.hpp"
#include "bench.hpp"
#include "core/sampler.hpp"
#include "loadgen.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kWalkLength = 200;
constexpr std::uint32_t kWalksPerCall = 1000;
constexpr std::uint32_t kPoolWidth = 4;
constexpr std::uint32_t kWarmupCalls = 2;
constexpr int kSetupRepeats = 3;
/// Untraced phase of a traced invocation, replayed traced; capped to
/// bound the trace's memory.
constexpr double kTracedSeconds = 10.0;
/// Latency limit of one call (about 2.5 times its typical time).
constexpr double kSloLimitS = 2.0;
/// Warm-up calls draw seeds from call ids the measured calls never reach
/// (and Philox tags below 2^32: call * kWalksPerCall + i).
constexpr std::uint64_t kWarmupCallBase = 1ull << 20;

struct Corpus {
  NamedGraph graph;
  std::unique_ptr<csaw::Sampler> sampler;
};

/// One call: kWalksPerCall walks from fresh seeds, checked and tallied.
void run_call(Corpus& corpus, std::uint64_t seed, std::uint64_t call,
              csaw::telemetry::TraceRecorder* trace, Report& report,
              Phase& phase) {
  const csaw::CsrGraph& g = *corpus.graph.graph;
  const std::vector<csaw::VertexId> seeds =
      corpus_seeds(seed, call, kWalksPerCall, g.num_vertices());
  const auto expanded = csaw::expand_single_seeds(seeds);
  std::vector<std::uint32_t> tags(kWalksPerCall);
  for (std::uint32_t i = 0; i < kWalksPerCall; ++i) {
    tags[i] = static_cast<std::uint32_t>(call * kWalksPerCall + i);
  }
  csaw::RunControl control;
  control.trace = trace;
  control.trace_batch = call + 1;

  std::uint64_t span = 0;
  if (trace != nullptr) {
    span = trace->begin_span("bench.call", {{"batch", std::to_string(call + 1)}});
  }
  const auto t0 = Clock::now();
  const csaw::RunResult result = corpus.sampler->run_tagged(expanded, tags, control);
  const double took = seconds_between(t0, Clock::now());
  if (trace != nullptr) trace->end_span(span, "bench.call");

  bool ok = true;
  for (std::uint32_t i = 0; i < kWalksPerCall; ++i) {
    const std::string bad =
        check_walk(g, result.samples.edges(i), seeds[i], kWalkLength, false);
    report.check(bad.empty(), "walk_corpus call " + std::to_string(call) + ": " + bad);
    ok = ok && bad.empty();
  }
  ++phase.sent;
  if (!ok) {
    ++phase.check_failures;
    return;
  }
  ++phase.ok;
  phase.ok_latency_s.push_back(took);
  phase.unit_rates.push_back(static_cast<double>(result.sampled_edges()) / took);
  phase.edges += result.sampled_edges();
  phase.sim_seconds += result.sim_seconds;
  csaw::sim::visit_kernel_stats(result.stats, [&phase](const char* field,
                                                       std::uint64_t v) {
    phase.kernels[field] += static_cast<double>(v);
  });
}

Corpus set_up(std::uint64_t seed, Report& report) {
  Corpus corpus;
  corpus.graph = build_lj();
  csaw::SamplerOptions options;
  options.num_threads = kPoolWidth;
  corpus.sampler = std::make_unique<csaw::Sampler>(
      *corpus.graph.graph, csaw::biased_random_walk(kWalkLength), options);
  Phase discard;
  for (std::uint32_t k = 0; k < kWarmupCalls; ++k) {
    run_call(corpus, seed, kWarmupCallBase + k, nullptr, report, discard);
  }
  return corpus;
}

/// Runs calls until `seconds` elapse (at least one), or exactly `calls`
/// calls when replaying.
Phase run_phase(Corpus& corpus, std::uint64_t seed, double seconds,
                std::uint64_t calls,
                std::shared_ptr<csaw::telemetry::TraceRecorder> trace,
                Report& report) {
  Phase phase;
  phase.pool_width = kPoolWidth;
  phase.trace = std::move(trace);
  const auto t0 = Clock::now();
  for (std::uint64_t k = 0;; ++k) {
    const bool done = calls > 0 ? k == calls
                                : k > 0 && seconds_between(t0, Clock::now()) >= seconds;
    if (done) {
      phase.units = {k};
      break;
    }
    run_call(corpus, seed, k, phase.trace.get(), report, phase);
  }
  phase.wall_s = seconds_between(t0, Clock::now());
  phase.sim_seps = csaw::sampled_edges_per_second(phase.edges, phase.sim_seconds);
  return phase;
}

}  // namespace

void run_walk_corpus(const Options& opt, Report& report) {
  Corpus corpus;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    corpus = Corpus{};
    const auto t0 = Clock::now();
    corpus = set_up(opt.seed, report);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  report.env("pool_width", std::to_string(kPoolWidth));
  report.env("graph.LJ", describe(corpus.graph));
  report.env("calls", std::to_string(kWalksPerCall) + " biased walks of length " +
                          std::to_string(kWalkLength));

  const double seconds = opt.trace ? std::min(opt.seconds / 2, kTracedSeconds)
                                   : opt.seconds;
  const Phase a = run_phase(corpus, opt.seed, seconds, 0, nullptr, report);
  if (!opt.trace) {
    report_end_to_end(report, a, median_setup(setups), kSloLimitS);
    return;
  }
  const Phase b = run_phase(corpus, opt.seed, 0.0, a.units[0],
                            std::make_shared<csaw::telemetry::TraceRecorder>(),
                            report);
  check_replay(report, a, b, /*exact_sim=*/true);
  report_layers(report, a, b, {corpus.graph});
}

}  // namespace perfbench
