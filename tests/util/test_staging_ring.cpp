// StagingRing + RecyclingPool unit tests — FIFO order, capacity-1
// backpressure, multi-producer ordering, Close/Cancel semantics (the
// streaming engine's no-deadlock guarantees hang off these), stall
// accounting and pool reuse stats.
#include "labmon/util/staging_ring.hpp"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace labmon::util {
namespace {

TEST(StagingRingTest, FifoOrderAndCloseDrain) {
  StagingRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.Push(int(i)));
  ring.Close();
  EXPECT_FALSE(ring.Push(99));  // closed
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.Pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.Pop(out));  // closed + drained
  const StagingRingStats stats = ring.stats();
  EXPECT_EQ(stats.pushed, 5u);
  EXPECT_EQ(stats.popped, 5u);
  EXPECT_EQ(stats.peak_occupancy, 5u);
  EXPECT_EQ(stats.capacity, 8u);
}

TEST(StagingRingTest, ZeroCapacityIsClampedToOne) {
  StagingRing<int> ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
}

TEST(StagingRingTest, CapacityOneBackpressuresProducer) {
  StagingRing<int> ring(1);
  constexpr int kItems = 500;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(ring.Push(int(i)));
    ring.Close();
  });
  int expected = 0;
  int out = -1;
  while (ring.Pop(out)) {
    EXPECT_EQ(out, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
  const StagingRingStats stats = ring.stats();
  EXPECT_EQ(stats.pushed, static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(stats.peak_occupancy, 1u);
  // The producer must have parked at least once on a capacity-1 ring with
  // 500 items, and the stall time must have been accounted.
  EXPECT_GT(stats.push_stalls, 0u);
}

TEST(StagingRingTest, MultiProducerPreservesPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  StagingRing<std::pair<int, int>> ring(3);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ring.Push(std::pair<int, int>(p, i)));
      }
    });
  }
  std::vector<int> next(kProducers, 0);
  int total = 0;
  std::pair<int, int> item;
  while (total < kProducers * kPerProducer) {
    ASSERT_TRUE(ring.Pop(item));
    EXPECT_EQ(item.second, next[item.first]++);  // per-producer FIFO
    ++total;
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPerProducer);
}

TEST(StagingRingTest, CancelWakesParkedProducerAndDropsItems) {
  StagingRing<int> ring(1);
  ASSERT_TRUE(ring.Push(1));  // ring now full
  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result.store(ring.Push(2));  // parks: ring is full
    push_returned.store(true);
  });
  while (ring.stats().push_stalls == 0) std::this_thread::yield();
  ring.Cancel();
  producer.join();
  EXPECT_TRUE(push_returned.load());
  EXPECT_FALSE(push_result.load());
  // Pending items are dropped; the consumer observes a dead ring.
  int out = -1;
  EXPECT_FALSE(ring.Pop(out));
  EXPECT_FALSE(ring.TryPop(out));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.cancelled());
}

TEST(StagingRingTest, CancelWakesParkedConsumer) {
  StagingRing<int> ring(4);
  std::atomic<bool> pop_result{true};
  std::thread consumer([&] {
    int out = -1;
    pop_result.store(ring.Pop(out));  // parks: ring is empty
  });
  while (ring.stats().pop_stalls == 0) std::this_thread::yield();
  ring.Cancel();
  consumer.join();
  EXPECT_FALSE(pop_result.load());
}

TEST(StagingRingTest, TryPopNeverBlocks) {
  StagingRing<int> ring(4);
  int out = -1;
  EXPECT_FALSE(ring.TryPop(out));
  ASSERT_TRUE(ring.Push(7));
  EXPECT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(ring.TryPop(out));
}

TEST(StagingRingTest, MoveOnlyPayloads) {
  StagingRing<std::unique_ptr<int>> ring(2);
  ASSERT_TRUE(ring.Push(std::make_unique<int>(42)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.Pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

TEST(RecyclingPoolTest, ReusesReleasedObjectsAndCountsRatio) {
  RecyclingPool<std::vector<int>> pool;
  std::vector<int> a = pool.Acquire();  // empty pool -> fresh object
  a.assign(100, 7);
  const int* data = a.data();
  a.clear();  // caller resets; capacity survives
  pool.Release(std::move(a));
  std::vector<int> b = pool.Acquire();  // served from the free list
  EXPECT_EQ(b.data(), data);            // same allocation came back
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquired, 2u);
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_EQ(stats.released, 1u);
  EXPECT_DOUBLE_EQ(stats.ReuseRatio(), 0.5);
}

TEST(RecyclingPoolTest, NullUniquePtrSignalsAllocationFallback) {
  // The streaming engine pools unique_ptr<TraceBlock>: an empty pool hands
  // back a null pointer, which the caller replaces with a fresh heap block.
  RecyclingPool<std::unique_ptr<int>> pool;
  std::unique_ptr<int> missing = pool.Acquire();
  EXPECT_EQ(missing, nullptr);
  pool.Release(std::make_unique<int>(3));
  std::unique_ptr<int> reused = pool.Acquire();
  ASSERT_NE(reused, nullptr);
  EXPECT_EQ(*reused, 3);
}

}  // namespace
}  // namespace labmon::util
