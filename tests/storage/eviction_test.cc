// CLOCK eviction and the background flusher: scan resistance (a long
// sequential scan must not purge the hot set, because scan pages enter the
// pool with their reference bit clear), asynchronous drains of dirty
// frames, and prefetch through the flusher queue (FIFO order makes
// FlushAll a barrier: everything enqueued before it is done when it
// returns).
#include <gtest/gtest.h>

#include <vector>

#include "storage/buffer_pool.h"

namespace ruidx {
namespace storage {
namespace {

class EvictionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pager = Pager::Open("");
    ASSERT_TRUE(pager.ok());
    pager_ = pager.MoveValueUnsafe();
  }

  /// Allocates `n` pages through `pool`, each stamped with its index, and
  /// commits them so later fetches re-load from disk.
  std::vector<uint32_t> MakePages(BufferPool* pool, int n) {
    std::vector<uint32_t> ids;
    for (int i = 0; i < n; ++i) {
      uint8_t* frame = nullptr;
      auto id = pool->AllocatePinned(&frame);
      EXPECT_TRUE(id.ok());
      frame[0] = static_cast<uint8_t>(i & 0xFF);
      pool->Unpin(*id, true);
      ids.push_back(*id);
    }
    EXPECT_TRUE(pool->FlushAll().ok());
    return ids;
  }

  std::unique_ptr<Pager> pager_;
};

TEST_F(EvictionTest, SequentialScanDoesNotPurgeHotSet) {
  // 4 hot pages re-touched throughout a 160-page sequential scan that is
  // 10x the pool: under strict LRU every scan round would flush the hot
  // set out (12+ distinct pages between consecutive hot touches); under
  // CLOCK the scan pages come in cold (referenced=false) and are the ones
  // recycled, so hot accesses keep hitting.
  BufferPool pool(pager_.get(), 16);
  std::vector<uint32_t> ids = MakePages(&pool, 164);
  std::vector<uint32_t> hot(ids.begin(), ids.begin() + 4);
  std::vector<uint32_t> cold(ids.begin() + 4, ids.end());

  auto touch = [&](uint32_t id) {
    auto f = pool.Fetch(id);
    ASSERT_TRUE(f.ok());
    pool.Unpin(id, false);
  };
  for (uint32_t id : hot) touch(id);  // warm the hot set

  uint64_t hot_accesses = 0;
  uint64_t hot_hits = 0;
  for (int round = 0; round < 5; ++round) {
    for (size_t c = 0; c < cold.size(); ++c) {
      touch(cold[c]);
      if (c % 8 == 7) {
        // Re-reference the whole hot set: 8 cold misses advance the clock
        // hand well under one lap of 16, so the re-set bits always beat it.
        uint64_t before = pool.stats().hits;
        for (uint32_t id : hot) touch(id);
        hot_accesses += hot.size();
        hot_hits += pool.stats().hits - before;
      }
    }
  }
  ASSERT_GT(hot_accesses, 0u);
  double hit_rate = static_cast<double>(hot_hits) /
                    static_cast<double>(hot_accesses);
  EXPECT_GE(hit_rate, 0.9) << hot_hits << "/" << hot_accesses;
  // The scan itself must have cycled the pool many times over.
  EXPECT_GT(pool.stats().evictions, 5 * cold.size() / 2);
}

TEST_F(EvictionTest, FlusherDrainsDirtyFramesAsynchronously) {
  BufferPool pool(pager_.get(), 8);
  pool.StartBackgroundFlusher();
  ASSERT_TRUE(pool.has_background_flusher());
  // Dirty 6 of 8 frames: past the capacity/2 watermark, so Unpin schedules
  // a drain. FlushAll routes through the same FIFO queue, so by the time
  // it returns every earlier drain has run.
  std::vector<uint32_t> ids;
  for (int i = 0; i < 6; ++i) {
    uint8_t* frame = nullptr;
    auto id = pool.AllocatePinned(&frame);
    ASSERT_TRUE(id.ok());
    frame[0] = static_cast<uint8_t>(0xA0 + i);
    pool.Unpin(*id, true);
    ids.push_back(*id);
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  BufferPoolStats stats = pool.stats();
  EXPECT_GE(stats.flusher_drains, 1u);
  EXPECT_GE(stats.async_writebacks, 1u);
  // Every page made it to disk regardless of which path wrote it.
  for (int i = 0; i < 6; ++i) {
    char raw[kPageSize];
    ASSERT_TRUE(pager_->ReadPage(ids[static_cast<size_t>(i)], raw).ok());
    EXPECT_EQ(static_cast<uint8_t>(raw[0]), static_cast<uint8_t>(0xA0 + i));
  }
}

TEST_F(EvictionTest, PrefetchLoadsThroughTheFlusherQueue) {
  BufferPool pool(pager_.get(), 4);
  pool.StartBackgroundFlusher();
  std::vector<uint32_t> ids = MakePages(&pool, 8);
  // CLOCK skips a frame whose write-back is still in flight, so page 0 can
  // survive MakePages. Fetch pages 4..7 until one pass over them is all
  // hits: the four frames then hold exactly those pages, so page 0 is not
  // resident.
  for (int pass = 0;; ++pass) {
    ASSERT_LT(pass, 8) << "pages 4..7 never became resident together";
    uint64_t before = pool.stats().misses;
    for (size_t i = 4; i < 8; ++i) {
      auto f = pool.Fetch(ids[i]);
      ASSERT_TRUE(f.ok());
      pool.Unpin(ids[i], false);
    }
    if (pool.stats().misses == before) break;
  }
  // Prefetch an evicted page and use FlushAll as the queue barrier before
  // measuring.
  pool.Prefetch(ids[0]);
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.stats().prefetches, 1u);
  uint64_t hits = pool.stats().hits;
  uint64_t misses = pool.stats().misses;
  auto f = pool.Fetch(ids[0]);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)[0], 0u);
  pool.Unpin(ids[0], false);
  EXPECT_EQ(pool.stats().hits, hits + 1);
  EXPECT_EQ(pool.stats().misses, misses);
}

}  // namespace
}  // namespace storage
}  // namespace ruidx
