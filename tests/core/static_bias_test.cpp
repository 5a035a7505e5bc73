// The static-bias CTPS table (core/static_ctps.hpp) is a host-only
// shortcut: a policy declaring its EDGEBIAS through
// Policy::static_edge_bias must produce exactly what the same function
// produces through Policy::edge_bias — identical samples, sim_seconds and
// every KernelStats field — in every execution mode, at any host width,
// on a cold table and on a warm one. A walk with no EDGEBIAS hook at all
// runs on a table of the uniform bias 1 and must match an explicit
// per-step bias of 1 the same way. Also pinned here: concurrent first
// visits of one row, the error contract of a throwing fill, and the
// rejection of a policy that sets both hooks.
#include "core/static_ctps.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/random_walks.hpp"
#include "algorithms/registry.hpp"
#include "core/sampler.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"
#include "util/check.hpp"

namespace csaw {
namespace {

constexpr std::uint32_t kLength = 12;
constexpr std::uint32_t kInstances = 48;
constexpr std::uint32_t kBase = 64;
constexpr std::uint32_t kWidths[] = {1, 4};

const std::shared_ptr<const CsrGraph>& shared_graph() {
  static const auto g = std::make_shared<const CsrGraph>(
      generate_rmat(1024, 8192, 97, {}, /*weighted=*/true));
  return g;
}

std::vector<VertexId> spread_seeds(const CsrGraph& g, std::uint32_t n,
                                   std::uint32_t offset = 0) {
  std::vector<VertexId> seeds(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    seeds[i] = static_cast<VertexId>((offset + i * 131) % g.num_vertices());
  }
  return seeds;
}

std::vector<std::uint32_t> tags_from(std::uint32_t base, std::uint32_t n) {
  std::vector<std::uint32_t> tags(n);
  for (std::uint32_t i = 0; i < n; ++i) tags[i] = base + i;
  return tags;
}

/// The same walk with its EDGEBIAS on the per-step edge_bias hook: the
/// static hook's function, or the uniform 1 a policy without an EDGEBIAS
/// hook evaluates to. Same biases, so the same samples.
AlgorithmSetup as_dynamic(AlgorithmSetup setup) {
  StaticCtpsTable::Bias bias = setup.policy.static_edge_bias;
  if (!bias) bias = [](const GraphView&, const EdgeRef&) { return 1.0f; };
  setup.policy.edge_bias = [bias](const GraphView& view, const EdgeRef& e,
                                  const InstanceContext&) {
    return bias(view, e);
  };
  setup.policy.static_edge_bias = nullptr;
  return setup;
}

/// Every registry walk the table serves: the static-bias walk and the
/// uniform-EDGEBIAS ones (plain, DeepWalk, accept/stay, jump, restart and
/// the frontier-pool walk).
constexpr AlgorithmId kTableWalks[] = {
    AlgorithmId::kBiasedRandomWalk,       AlgorithmId::kSimpleRandomWalk,
    AlgorithmId::kDeepwalk,               AlgorithmId::kMetropolisHastingsWalk,
    AlgorithmId::kRandomWalkWithJump,     AlgorithmId::kRandomWalkWithRestart,
    AlgorithmId::kMultiDimRandomWalk,
};

void expect_same_stats(const sim::KernelStats& a, const sim::KernelStats& b,
                       const std::string& label) {
  std::map<std::string, std::uint64_t> fields;
  sim::visit_kernel_stats(a, [&](const char* field, std::uint64_t v) {
    fields[field] = v;
  });
  sim::visit_kernel_stats(b, [&](const char* field, std::uint64_t v) {
    EXPECT_EQ(fields.at(field), v) << label << ", KernelStats::" << field;
  });
}

void expect_same_run(const RunResult& got, const RunResult& want,
                     const std::string& label) {
  ASSERT_GT(want.sampled_edges(), 0u) << label;
  ASSERT_EQ(got.samples.num_instances(), want.samples.num_instances())
      << label;
  for (std::uint32_t i = 0; i < want.samples.num_instances(); ++i) {
    EXPECT_EQ(got.samples.edges(i), want.samples.edges(i))
        << label << ", instance " << i;
  }
  EXPECT_EQ(got.sim_seconds, want.sim_seconds) << label;
  EXPECT_EQ(got.device_seconds, want.device_seconds) << label;
  expect_same_stats(got.stats, want.stats, label);
}

struct ModeCase {
  std::string name;
  SamplerOptions options;
};

std::vector<ModeCase> mode_cases() {
  std::vector<ModeCase> cases;
  {
    SamplerOptions o;
    o.mode = ExecutionMode::kInMemory;
    cases.push_back({"in-memory pipelined", o});
    o.schedule = Schedule::kStepBarrier;
    cases.push_back({"in-memory barrier", o});
  }
  {
    SamplerOptions o;
    o.mode = ExecutionMode::kOutOfMemory;
    o.schedule = Schedule::kStepBarrier;
    cases.push_back({"oom legacy barrier", o});
    o.schedule = Schedule::kPipelined;
    cases.push_back({"oom legacy pipelined", o});
    o.oom_demand_cache = true;
    o.resident_partitions = 3;
    cases.push_back({"oom demand cache", o});
  }
  {
    SamplerOptions o;
    o.mode = ExecutionMode::kMultiDevice;
    o.num_devices = 2;
    cases.push_back({"multi-device in-memory", o});
    o.memory_assumption = MemoryAssumption::kExceeds;
    cases.push_back({"multi-device oom", o});
  }
  return cases;
}

TEST(StaticBias, AlgorithmsDeclareTheStaticHook) {
  const auto walk = biased_random_walk(kLength);
  EXPECT_TRUE(walk.policy.static_edge_bias);
  EXPECT_FALSE(walk.policy.edge_bias);
  EXPECT_TRUE(uses_static_ctps(walk.policy, walk.spec));
  // Without replacement the rows would ignore the instance's visited
  // set, so neighbor sampling keeps the per-step path.
  const auto sampling = biased_neighbor_sampling(2, 2);
  EXPECT_TRUE(sampling.policy.static_edge_bias);
  EXPECT_FALSE(uses_static_ctps(sampling.policy, sampling.spec));
  EXPECT_FALSE(
      uses_static_ctps(as_dynamic(walk).policy, as_dynamic(walk).spec));

  // No EDGEBIAS hook is the static bias 1; a dynamic hook never is.
  const CsrGraph& g = *shared_graph();
  for (const AlgorithmId id : kTableWalks) {
    const auto setup = make_algorithm(id, kLength);
    EXPECT_TRUE(uses_static_ctps(setup.policy, setup.spec))
        << algorithm_info(id).name;
    EXPECT_NE(make_static_ctps(g, setup.policy, setup.spec), nullptr)
        << algorithm_info(id).name;
  }
  for (const AlgorithmId id :
       {AlgorithmId::kNode2vec, AlgorithmId::kUnbiasedNeighborSampling,
        AlgorithmId::kLayerSampling, AlgorithmId::kSnowball}) {
    const auto setup = make_algorithm(id, kLength);
    EXPECT_FALSE(uses_static_ctps(setup.policy, setup.spec))
        << algorithm_info(id).name;
    EXPECT_EQ(make_static_ctps(g, setup.policy, setup.spec), nullptr)
        << algorithm_info(id).name;
  }
}

TEST(StaticBias, HooksAgreeInEveryModeColdAndWarm) {
  const CsrGraph& g = *shared_graph();
  const auto first = expand_single_seeds(spread_seeds(g, kInstances));
  const auto second = expand_single_seeds(spread_seeds(g, kInstances, 7));

  for (const AlgorithmId id : kTableWalks) {
    const auto fast = make_algorithm(id, kLength);
    const auto slow = as_dynamic(fast);
    // The paged engine rejects frontier-pool specs.
    const bool pageable = in_memory_only_reason(fast.spec).empty();
    for (const ModeCase& mode : mode_cases()) {
      if (!pageable && (mode.options.mode == ExecutionMode::kOutOfMemory ||
                        mode.options.memory_assumption ==
                            MemoryAssumption::kExceeds)) {
        continue;
      }
      for (const std::uint32_t width : kWidths) {
        SamplerOptions options = mode.options;
        options.num_threads = width;
        const std::string label = algorithm_info(id).name + ", " +
                                  mode.name +
                                  " threads=" + std::to_string(width);
        Sampler fast_sampler(g, fast, options);
        Sampler slow_sampler(g, slow, options);
        // Cold table, then warm: the second run reuses every row the
        // first one filled. Different tags keep the second run's draws
        // fresh.
        expect_same_run(
            fast_sampler.run_tagged(first, tags_from(0, kInstances)),
            slow_sampler.run_tagged(first, tags_from(0, kInstances)),
            label + " cold");
        expect_same_run(
            fast_sampler.run_tagged(second, tags_from(kBase, kInstances)),
            slow_sampler.run_tagged(second, tags_from(kBase, kInstances)),
            label + " warm");
      }
    }
  }
}

TEST(StaticBias, RunBatchesSharesOneTable) {
  const CsrGraph& g = *shared_graph();
  const auto fast = biased_random_walk(kLength);
  const auto seeds = spread_seeds(g, kInstances);
  SamplerOptions options;
  options.num_threads = 4;
  auto table =
      std::make_shared<StaticCtpsTable>(g, fast.policy.static_edge_bias);
  Sampler fast_sampler(g, fast, options);
  fast_sampler.attach({.static_ctps = table});
  Sampler slow_sampler(g, as_dynamic(fast), options);
  expect_same_run(fast_sampler.run_batches_single_seed(seeds, 10),
                  slow_sampler.run_batches_single_seed(seeds, 10),
                  "run_batches");
  // The shared table served the run: every seed's row is filled.
  for (const VertexId seed : seeds) {
    if (g.degree(seed) == 0) continue;
    EXPECT_NE(table->state(seed), StaticCtpsTable::State::kEmpty) << seed;
  }
}

TEST(StaticBias, DynamicHookNeverConsultsTheTable) {
  const CsrGraph& g = *shared_graph();
  const auto fast = biased_random_walk(kLength);
  const auto seeds = spread_seeds(g, kInstances);
  // A table handed to an edge_bias sampler is ignored: the dynamic hook
  // may depend on the instance, so it always takes the per-step path.
  auto table =
      std::make_shared<StaticCtpsTable>(g, fast.policy.static_edge_bias);
  Sampler slow_sampler(g, as_dynamic(fast));
  slow_sampler.attach({.static_ctps = table});
  ASSERT_GT(slow_sampler.run_single_seed(seeds).sampled_edges(), 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(table->state(v), StaticCtpsTable::State::kEmpty) << v;
  }
}

TEST(StaticBias, UnselectableRowsEndTheWalkLikeThePerStepPath) {
  // 0 -> 1 -> 2 with 2 a sink: biased_random_walk's bias degree(u) is 0
  // for every edge out of 1, so vertex 1 has nothing selectable.
  const CsrGraph g = build_csr({{0, 1}, {1, 2}}, 3,
                               BuildOptions{.symmetrize = false});
  const auto fast = biased_random_walk(4);
  auto table =
      std::make_shared<StaticCtpsTable>(g, fast.policy.static_edge_bias);
  for (int visit = 0; visit < 2; ++visit) {
    Sampler fast_sampler(g, fast);
    fast_sampler.attach({.static_ctps = table});
    Sampler slow_sampler(g, as_dynamic(fast));
    const std::vector<VertexId> seeds = {0, 0, 1};
    expect_same_run(fast_sampler.run_single_seed(seeds),
                    slow_sampler.run_single_seed(seeds),
                    "visit " + std::to_string(visit));
  }
  EXPECT_EQ(table->state(0), StaticCtpsTable::State::kReady);
  EXPECT_EQ(table->state(1), StaticCtpsTable::State::kUnselectable);
  EXPECT_EQ(table->state(2), StaticCtpsTable::State::kEmpty);  // degree 0
}

/// Four hubs of 2048 weighted leaves each; every leaf also touches the
/// next hub. Walks cross a hub every other step, so a cold table sees
/// many walkers race for the same few large rows.
CsrGraph hub_graph() {
  constexpr VertexId kHubs = 4;
  constexpr VertexId kLeaves = 4 * 2048;
  std::vector<Edge> edges;
  for (VertexId i = 0; i < kLeaves; ++i) {
    const VertexId leaf = kHubs + i;
    edges.push_back(Edge{i % kHubs, leaf, 1.0f + static_cast<float>(i % 7)});
    edges.push_back(Edge{(i + 1) % kHubs, leaf, 0.5f});
  }
  return build_csr(std::move(edges), kHubs + kLeaves,
                   BuildOptions{.keep_weights = true});
}

TEST(StaticBias, ColdTableRaceMatchesSerialRun) {
  const CsrGraph g = hub_graph();
  const auto fast = biased_random_walk(16);
  std::vector<VertexId> seeds(256);
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    seeds[i] = i % 8 == 0 ? i % 4 : 4 + (i * 37) % (g.num_vertices() - 4);
  }
  for (const Schedule schedule :
       {Schedule::kPipelined, Schedule::kStepBarrier}) {
    SamplerOptions serial;
    serial.num_threads = 1;
    serial.schedule = schedule;
    Sampler reference(g, as_dynamic(fast), serial);
    const RunResult want = reference.run_single_seed(seeds);
    for (int rep = 0; rep < 5; ++rep) {
      SamplerOptions options = serial;
      options.num_threads = 4;
      Sampler sampler(g, fast, options);  // fresh, cold table
      expect_same_run(sampler.run_single_seed(seeds), want,
                      to_string(schedule) + " rep " + std::to_string(rep));
    }
  }
}

AlgorithmSetup negative_bias_walk() {
  auto setup = biased_random_walk(kLength);
  // Vertex 1's edge to 2 is negative while its row total stays positive:
  // CTPS construction must reject it.
  setup.policy.static_edge_bias = [](const GraphView&, const EdgeRef& e) {
    return e.v == 1 && e.u == 2 ? -1.0f : 3.0f;
  };
  return setup;
}

TEST(StaticBias, NegativeBiasFailsOnFirstAndLaterVisits) {
  const CsrGraph g = make_path(4);
  const auto setup = negative_bias_walk();
  Sampler sampler(g, setup);
  const std::vector<VertexId> seeds = {1};
  // First visit: the table fill throws and leaves the row "building".
  EXPECT_THROW(sampler.run_single_seed(seeds), CheckError);
  // Later visits fall back to the per-step path, which raises the same.
  EXPECT_THROW(sampler.run_single_seed(seeds), CheckError);
  // And the per-step path on its own agrees.
  Sampler slow(g, as_dynamic(setup));
  EXPECT_THROW(slow.run_single_seed(seeds), CheckError);

  // The table contract directly.
  StaticCtpsTable table(g, setup.policy.static_edge_bias);
  const CsrGraphView view(g);
  std::vector<float> scratch;
  try {
    table.visit(view, 1, scratch);
    ADD_FAILURE() << "negative bias accepted";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("negative bias"),
              std::string::npos);
  }
  EXPECT_EQ(table.state(1), StaticCtpsTable::State::kBuilding);
  EXPECT_EQ(table.visit(view, 1, scratch).state,
            StaticCtpsTable::State::kBuilding);
}

TEST(StaticBias, PolicyWithBothHooksIsRejected) {
  const CsrGraph& g = *shared_graph();
  auto setup = biased_random_walk(kLength);
  setup.policy.edge_bias = [](const GraphView&, const EdgeRef&,
                              const InstanceContext&) { return 1.0f; };
  EXPECT_THROW(setup.policy.validate(), CheckError);
  EXPECT_THROW(Sampler(g, setup), CheckError);
  const CsrGraphView view(g);
  EXPECT_THROW(SamplingEngine(view, setup.policy, setup.spec), CheckError);
  SamplerOptions sharded;
  sharded.mode = ExecutionMode::kSharded;
  EXPECT_THROW(Sampler(g, setup, sharded), CheckError);
}

TEST(StaticBias, RowsFilledOverAnotherGraphAreRejected) {
  // Equal vertex counts pass the engine's construction check, but the
  // complete graph's rows hold 8 entries where the cycle's vertices have
  // degree 2: drawing from such a row would index past the adjacency.
  const CsrGraph complete = make_complete(8);
  const CsrGraph cycle = make_cycle(8);
  ASSERT_EQ(complete.num_vertices(), cycle.num_vertices());
  const auto setup = simple_random_walk(4);
  EngineConfig config;
  config.static_ctps = make_static_ctps(complete, setup.policy, setup.spec);
  ASSERT_NE(config.static_ctps, nullptr);
  const CsrGraphView complete_view(complete);
  std::vector<float> scratch;
  for (VertexId v = 0; v < complete.num_vertices(); ++v) {
    ASSERT_EQ(config.static_ctps->visit(complete_view, v, scratch).state,
              StaticCtpsTable::State::kReady);
  }

  const CsrGraphView cycle_view(cycle);
  SamplingEngine engine(cycle_view, setup.policy, setup.spec, config);
  sim::Device device(0);
  const std::vector<VertexId> seeds = {0, 3};
  try {
    engine.run_single_seed(device, seeds);
    ADD_FAILURE() << "a row of another graph was used";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("different graph"),
              std::string::npos)
        << error.what();
  }
}

TEST(StaticBias, TableMustMatchTheGraph) {
  const CsrGraph& g = *shared_graph();
  const CsrGraph other = make_path(8);
  const auto setup = biased_random_walk(kLength);
  auto table =
      std::make_shared<StaticCtpsTable>(other, setup.policy.static_edge_bias);
  Sampler sampler(g, setup);
  EXPECT_THROW(sampler.attach({.static_ctps = table}), CheckError);
  EXPECT_THROW(StaticCtpsTable(g, nullptr), CheckError);
}

// --- Service: the per-(graph, algorithm) table behind sharded routing
// and streamed delivery agrees with the per-step path too.

SampleRequest walk_request(std::uint32_t rng_base, std::uint32_t offset) {
  SampleRequest request = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, kLength,
      spread_seeds(*shared_graph(), kInstances, offset));
  request.rng_base = rng_base;
  return request;
}

TEST(StaticBias, ShardedServiceMatchesPerStepRouter) {
  for (const std::uint32_t width : kWidths) {
    ServiceConfig config;
    config.options.num_threads = width;
    config.shards = 2;
    Service service(config);
    service.add_graph("g", shared_graph());

    // The service's own options, sharded; every transport knob is at
    // its default on both sides.
    SamplerOptions sharded = config.options;
    sharded.mode = ExecutionMode::kSharded;
    sharded.shard.shards = config.shards;

    // Two sequential single-request batches: the first fills the graph's
    // table cold, the second runs warm on the same table.
    for (const std::uint32_t offset : {0u, 7u}) {
      const std::uint32_t rng_base = kBase + offset * kInstances;
      Submission submission = service.submit(walk_request(rng_base, offset));
      ASSERT_TRUE(submission.accepted());
      const RunResult got = submission.result.get();
      ASSERT_TRUE(got.shard.has_value());

      Sampler reference(*shared_graph(),
                        as_dynamic(biased_random_walk(kLength)), sharded);
      const RunResult want = reference.run_tagged(
          expand_single_seeds(
              spread_seeds(*shared_graph(), kInstances, offset)),
          tags_from(rng_base, kInstances));
      const std::string label = "threads=" + std::to_string(width) +
                                " offset=" + std::to_string(offset);
      expect_same_run(got, want, label);
      EXPECT_EQ(got.shard->forwarded_walkers, want.shard->forwarded_walkers)
          << label;
    }
  }
}

TEST(StaticBias, StreamedServiceMatchesPerStepSampler) {
  for (const std::uint32_t width : kWidths) {
    ServiceConfig config;
    config.options.num_threads = width;
    Service service(config);
    service.add_graph("g", shared_graph());
    Sampler reference(*shared_graph(), as_dynamic(biased_random_walk(kLength)),
                      config.options);

    double want_sim_seconds = 0.0;
    sim::KernelStats want_stats;
    for (const std::uint32_t offset : {0u, 7u}) {
      const std::uint32_t rng_base = kBase + offset * kInstances;
      StreamSubmission streaming =
          service.submit_streaming(walk_request(rng_base, offset));
      ASSERT_TRUE(streaming.accepted());
      std::map<std::uint32_t, std::vector<Edge>> rows;
      while (auto chunk = streaming.stream->next()) {
        rows.emplace(chunk->instance, std::move(chunk->edges));
      }
      const RunResult want = reference.run_tagged(
          expand_single_seeds(
              spread_seeds(*shared_graph(), kInstances, offset)),
          tags_from(rng_base, kInstances));
      const std::string label = "threads=" + std::to_string(width) +
                                " offset=" + std::to_string(offset);
      ASSERT_EQ(rows.size(), kInstances) << label;
      for (std::uint32_t i = 0; i < kInstances; ++i) {
        EXPECT_EQ(rows[i], want.samples.edges(i)) << label << ", instance "
                                                  << i;
      }
      want_sim_seconds += want.sim_seconds;
      want_stats.merge(want.stats);
    }
    service.drain();
    EXPECT_EQ(service.stats().sim_seconds, want_sim_seconds);
    // Every kernel counter the service accumulated matches the per-step
    // runs' totals.
    const std::string text = service.metrics_text();
    sim::visit_kernel_stats(want_stats, [&](const char* field,
                                            std::uint64_t v) {
      const std::string line = std::string("csaw_kernel_") + field +
                               "_total " + std::to_string(v) + "\n";
      EXPECT_NE(text.find(line), std::string::npos) << line;
    });
  }
}

}  // namespace
}  // namespace csaw
