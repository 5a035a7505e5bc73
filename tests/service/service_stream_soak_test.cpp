// Streaming concurrency soak: 6 client threads drive a mix of streamed
// and buffered requests at one live service — streaming consumers run at
// different speeds (one deliberately slow, parking its producers on the
// chunk budget), some streams are cancelled or abandoned mid-drain, and
// buffered traffic rides the same batches throughout. CI runs this under
// ThreadSanitizer with CSAW_THREADS=4 (the stream-soak job), turning
// races between the completion bridge, parked engine workers, stream
// consumers and the dispatcher into hard failures. Assertions are about
// accounting closure and the backpressure bound; bytes are owned by
// service_stream_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "service/service.hpp"

namespace csaw {
namespace {

constexpr std::uint32_t kClients = 6;
constexpr std::uint32_t kRequestsPerClient = 20;  // 6 x 20 = 120 total
constexpr std::uint32_t kBudget = 2;

TEST(ServiceStreamSoak, MixedStreamingAndBufferedClients) {
  ServiceConfig config;
  config.max_queue_depth = 64;
  config.max_concurrent_batches = 3;
  config.batching_deadline = std::chrono::microseconds(200);
  config.stream_chunk_budget = kBudget;
  Service service(config);
  const auto small =
      std::make_shared<const CsrGraph>(generate_rmat(512, 4096, 95));
  const auto large =
      std::make_shared<const CsrGraph>(generate_rmat(2048, 16384, 96));
  service.add_graph("small", small);
  service.add_graph("large", large);

  std::atomic<std::uint64_t> buffered_done{0};
  std::atomic<std::uint64_t> streams_ok{0};
  std::atomic<std::uint64_t> streams_failed{0};
  std::atomic<std::uint64_t> streams_abandoned{0};
  std::atomic<std::uint64_t> edges{0};
  std::atomic<std::uint64_t> streamed_chunks{0};
  std::atomic<bool> budget_held{true};

  const auto client = [&](std::uint32_t c) {
    // Client 0 is the deliberately slow consumer: it sleeps between
    // next() calls, parking its batches' producers on the chunk budget
    // while other clients' traffic keeps arriving.
    const bool slow = c == 0;
    std::vector<std::future<RunResult>> in_flight;
    for (std::uint32_t r = 0; r < kRequestsPerClient; ++r) {
      SampleRequest request;
      const bool use_large = r % 3 == 0;
      request.graph = use_large ? "large" : "small";
      request.depth_or_length = 4 + (r % 3);
      const VertexId num_vertices =
          (use_large ? large : small)->num_vertices();
      const std::uint32_t instances = 2 + (r % 5);
      for (std::uint32_t i = 0; i < instances; ++i) {
        request.seeds.push_back(
            {static_cast<VertexId>((c * 131 + r * 17 + i) % num_vertices)});
      }
      request.tenant = "client-" + std::to_string(c % 3);

      if (r % 2 == 0) {
        // Buffered rider on the same batches.
        Submission submission = service.submit(std::move(request));
        ASSERT_TRUE(submission.accepted());
        in_flight.push_back(std::move(submission.result));
        continue;
      }

      CancelSource canceller;
      const bool cancel_midway = r % 8 == 5;
      const bool abandon_midway = r % 8 == 7;
      if (cancel_midway) request.cancel = canceller.token();
      StreamSubmission streaming =
          service.submit_streaming(std::move(request));
      ASSERT_TRUE(streaming.accepted());
      std::uint64_t drained = 0;
      std::uint64_t drained_edges = 0;
      try {
        while (true) {
          if (slow) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          auto chunk = streaming.stream->next();
          if (!chunk.has_value()) break;
          ++drained;
          drained_edges += chunk->edges.size();
          if (cancel_midway && drained == 1) canceller.cancel();
          if (abandon_midway && drained == 1) {
            streaming.stream->cancel();
            ++streams_abandoned;
            break;
          }
        }
        if (!abandon_midway) {
          ++streams_ok;
          // Only a stream that retired kOk books its edges (a cancelled
          // request's partial rows are charged to nobody), so only these
          // drains are comparable against ServiceStats::sampled_edges.
          edges += drained_edges;
        }
      } catch (const RequestError& error) {
        EXPECT_EQ(error.outcome(), RequestOutcome::kCancelled);
        ++streams_failed;
      }
      streamed_chunks += drained;
      if (streaming.stream->peak_queued() > kBudget) {
        budget_held.store(false);
      }
    }
    for (auto& future : in_flight) {
      edges += future.get().sampled_edges();
      ++buffered_done;
    }
  };

  std::atomic<bool> stop_observer{false};
  std::thread observer([&] {
    while (!stop_observer.load()) {
      (void)service.stats();
      (void)service.health();
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
  EXPECT_EQ(stats.accepted, stats.submitted);
  // Every request retired exactly once. An abandoned stream races its
  // own batch: it usually retires cancelled, but a fast batch may finish
  // kOk before the abandon lands — so the split between completed and
  // failed is bounded, while their sum closes exactly.
  EXPECT_EQ(stats.completed + stats.failed, stats.accepted);
  EXPECT_GE(stats.completed, buffered_done.load() + streams_ok.load());
  EXPECT_LE(stats.failed, streams_failed.load() + streams_abandoned.load());
  // Only cancel-shaped faults.
  EXPECT_EQ(stats.outcomes[RequestOutcome::kCancelled], stats.failed);
  EXPECT_GT(streams_ok.load(), 0u);
  EXPECT_GT(streams_failed.load(), 0u);
  EXPECT_GT(streams_abandoned.load(), 0u);
  EXPECT_GT(streamed_chunks.load(), 0u);
  // The backpressure bound held on every stream, including the slow
  // consumer's parked ones.
  EXPECT_TRUE(budget_held.load());
  // Streamed edges are booked exactly like buffered ones: every edge a
  // kOk stream's consumer drained is in the service total (abandoned-
  // but-completed streams book chunks nobody drained, so >=).
  EXPECT_GE(stats.sampled_edges, edges.load());
  EXPECT_GT(stats.batches, 0u);
}

}  // namespace
}  // namespace csaw
