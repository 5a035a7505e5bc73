#include "core/frontier_queue.hpp"

#include <gtest/gtest.h>

#include "core/instance.hpp"
#include "core/sample_store.hpp"

namespace csaw {
namespace {

TEST(FrontierQueue, PushAtDrainRoundTrip) {
  FrontierQueue q;
  EXPECT_TRUE(q.empty());
  q.push(FrontierEntry{5, 1, 0, 2, 3, 4});
  q.push(FrontierEntry{6, 2, 1, 0, 1, kInvalidVertex});
  EXPECT_EQ(q.size(), 2u);

  const FrontierEntry first = q.at(0);
  EXPECT_EQ(first.vertex, 5u);
  EXPECT_EQ(first.instance, 1u);
  EXPECT_EQ(first.local, 0u);
  EXPECT_EQ(first.depth, 2u);
  EXPECT_EQ(first.slot, 3u);
  EXPECT_EQ(first.prev, 4u);
  EXPECT_EQ(q.at(1).local, 1u);

  // The drain replaces whatever the caller's vector held.
  std::vector<FrontierEntry> drained(3);
  q.drain(drained);
  EXPECT_TRUE(q.empty());
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[1].vertex, 6u);
  EXPECT_EQ(drained[1].prev, kInvalidVertex);
}

TEST(FrontierQueue, BytesTrackSize) {
  FrontierQueue q;
  EXPECT_EQ(q.bytes(), 0u);
  q.push(FrontierEntry{});
  EXPECT_EQ(q.bytes(), 2 * sizeof(VertexId) + 4 * sizeof(std::uint32_t));
}

TEST(InstanceState, InitSeedsPoolSlotsAndVisited) {
  InstanceState inst;
  const std::vector<VertexId> seeds = {4, 9, 2};
  inst.init(7, seeds, 16, /*track_visited=*/true);
  EXPECT_EQ(inst.id, 7u);
  EXPECT_EQ(inst.pool, seeds);
  EXPECT_EQ(inst.pool_slots, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(inst.seed_vertex, 4u);
  EXPECT_TRUE(inst.active);
  EXPECT_TRUE(inst.visited.test(4));
  EXPECT_TRUE(inst.visited.test(9));
  EXPECT_FALSE(inst.visited.test(5));
}

TEST(InstanceState, MarkVisitedSemantics) {
  InstanceState inst;
  inst.init(0, std::vector<VertexId>{1}, 8, true);
  EXPECT_FALSE(inst.mark_visited(1));  // seed already visited
  EXPECT_TRUE(inst.mark_visited(3));
  EXPECT_FALSE(inst.mark_visited(3));
}

TEST(InstanceState, UntrackedVisitedAlwaysAccepts) {
  InstanceState inst;
  inst.init(0, std::vector<VertexId>{1}, 8, false);
  EXPECT_TRUE(inst.mark_visited(1));
  EXPECT_TRUE(inst.mark_visited(1));
}

TEST(InstanceState, EmptySeedsIsInactive) {
  InstanceState inst;
  inst.init(0, std::vector<VertexId>{}, 8, true);
  EXPECT_FALSE(inst.active);
  EXPECT_EQ(inst.seed_vertex, kInvalidVertex);
}

TEST(SampleStore, AccumulatesPerInstance) {
  SampleStore store(3);
  store.add(0, Edge{1, 2});
  store.add(0, Edge{2, 3});
  store.add(2, Edge{4, 5});
  EXPECT_EQ(store.edges(0).size(), 2u);
  EXPECT_EQ(store.edges(1).size(), 0u);
  EXPECT_EQ(store.total_edges(), 3u);
  EXPECT_NEAR(store.average_edges(), 1.0, 1e-12);
  store.reset(2);
  EXPECT_EQ(store.total_edges(), 0u);
  EXPECT_EQ(store.num_instances(), 2u);
}

}  // namespace
}  // namespace csaw
