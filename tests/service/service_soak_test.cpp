// Concurrency soak for csaw::Service: 8 client threads fire 200 mixed
// requests (two graphs, two algorithms, occasional invalid ones) at a
// live service while a separate thread polls stats() and graphs(). CI
// runs this under ThreadSanitizer with CSAW_THREADS=4 (the service-soak
// job), turning data races between admission, the dispatcher and the
// shared engine pool into hard failures. Assertions here are about
// accounting closure — every accepted request resolves, every counter
// adds up — not about bytes (service_determinism_test.cpp owns those).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "service/service.hpp"

namespace csaw {
namespace {

constexpr std::uint32_t kClients = 8;
constexpr std::uint32_t kRequestsPerClient = 25;  // 8 x 25 = 200 total

TEST(ServiceSoak, MixedTrafficFromEightClients) {
  ServiceConfig config;
  config.max_queue_depth = 64;
  // Exercise every scheduler policy at once: three concurrent batch
  // runners on the shared pool, a short batching window so both the
  // deadline-wait and the launch paths run, and a quota tight enough
  // that some tenants get deferred under load.
  config.max_concurrent_batches = 3;
  config.batching_deadline = std::chrono::microseconds(200);
  config.tenant_quota = 12;
  Service service(config);
  const auto small =
      std::make_shared<const CsrGraph>(generate_rmat(512, 4096, 95));
  const auto large =
      std::make_shared<const CsrGraph>(generate_rmat(2048, 16384, 96));
  service.add_graph("small", small);
  service.add_graph("large", large);

  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> edges{0};

  const auto client = [&](std::uint32_t c) {
    std::vector<std::future<RunResult>> in_flight;
    for (std::uint32_t r = 0; r < kRequestsPerClient; ++r) {
      SampleRequest request;
      const bool use_large = r % 3 == 0;
      request.graph = use_large ? "large" : "small";
      request.algorithm = (r % 2 == 0) ? AlgorithmId::kBiasedRandomWalk
                                       : AlgorithmId::kBiasedNeighborSampling;
      request.depth_or_length = 4 + (r % 3);
      const VertexId num_vertices =
          (use_large ? large : small)->num_vertices();
      const std::uint32_t instances = 2 + (r % 4);
      for (std::uint32_t i = 0; i < instances; ++i) {
        request.seeds.push_back(
            {static_cast<VertexId>((c * 131 + r * 17 + i) % num_vertices)});
      }
      if (r % 10 == 9) request.graph = "missing";  // exercise rejection
      request.tenant = "client-" + std::to_string(c % 3);  // 3 tenants
      Submission submission = service.submit(std::move(request));
      if (!submission.accepted()) {
        EXPECT_EQ(submission.rejected, RejectReason::kUnknownGraph);
        ++rejected;
        continue;
      }
      in_flight.push_back(std::move(submission.result));
      // Resolve a few early so queue pressure and waiting interleave.
      if (in_flight.size() >= 4) {
        edges += in_flight.front().get().sampled_edges();
        in_flight.erase(in_flight.begin());
        ++resolved;
      }
    }
    for (auto& future : in_flight) {
      edges += future.get().sampled_edges();
      ++resolved;
    }
  };

  std::atomic<bool> stop_observer{false};
  std::thread observer([&] {
    // Concurrent reads of the control plane while traffic flows.
    while (!stop_observer.load()) {
      (void)service.stats();
      (void)service.graphs();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back(client, c);
  }
  for (auto& t : clients) t.join();
  stop_observer.store(true);
  observer.join();
  service.shutdown();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.accepted, resolved.load());
  EXPECT_EQ(stats.completed, resolved.load());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.failed,
            stats.outcomes[RequestOutcome::kCancelled] +
                stats.outcomes[RequestOutcome::kDeadlineExceeded] +
                stats.outcomes[RequestOutcome::kTransferFailed] +
                stats.outcomes[RequestOutcome::kInternal]);
  EXPECT_EQ(stats.rejected_total(), rejected.load());
  EXPECT_EQ(stats.rejected[RejectReason::kUnknownGraph], rejected.load());
  EXPECT_EQ(stats.sampled_edges, edges.load());
  EXPECT_GT(stats.sampled_edges, 0u);
  EXPECT_LE(stats.batches, stats.completed);
  EXPECT_GT(stats.batches, 0u);

  // Concurrency stayed within its bound, and the per-tenant slice closes
  // over the totals — no request is double-counted or dropped between
  // the global and the tenant columns.
  EXPECT_GE(stats.peak_concurrent_batches, 1u);
  EXPECT_LE(stats.peak_concurrent_batches, 3u);
  std::uint64_t tenant_accepted = 0;
  std::uint64_t tenant_completed = 0;
  std::uint64_t tenant_failed = 0;
  std::uint64_t tenant_edges = 0;
  for (const TenantStats& tenant : stats.tenants) {
    tenant_accepted += tenant.accepted;
    tenant_completed += tenant.completed;
    tenant_failed += tenant.failed;
    tenant_edges += tenant.sampled_edges;
    EXPECT_LE(tenant.peak_inflight_instances, 12u);  // the quota held
    // Fault-free traffic: the failure breakdown exists and closes at 0.
    EXPECT_EQ(tenant.failed,
              tenant.outcomes[RequestOutcome::kCancelled] +
                  tenant.outcomes[RequestOutcome::kDeadlineExceeded] +
                  tenant.outcomes[RequestOutcome::kTransferFailed] +
                  tenant.outcomes[RequestOutcome::kInternal])
        << tenant.tenant;
  }
  EXPECT_EQ(tenant_accepted, stats.accepted);
  EXPECT_EQ(tenant_completed, stats.completed);
  EXPECT_EQ(tenant_failed, stats.failed);
  EXPECT_EQ(tenant_edges, stats.sampled_edges);
}

}  // namespace
}  // namespace csaw
