// Race stress for the two shared-state hot spots, meant to run under TSan:
//  - AncestorPathCache: concurrent Ancestors/AncestorsPacked readers while
//    an updater thread keeps invalidating (OnUpdate/Clear), on a tree whose
//    deep identifiers do not pack, so their chains go through the memo.
//  - BufferPool's background flusher: copy-out drains racing workers that
//    pin, mutate and unpin disjoint page slices of a journaled pool.
// The assertions are deliberately light — the point is the interleaving;
// TSan (and the DCHECKs inside the production code) do the judging.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/ruid2.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"
#include "xml/generator.h"

namespace ruidx {
namespace {

TEST(RaceStressTest, AncestorCacheReadersDuringInvalidation) {
  // Every node roots its own area down a depth-90 spine, so globals grow
  // like 3^depth and the deep ones pass 2^128: packed chains are computed
  // without the cache, the deep BigUint ones are memoized.
  xml::DeepTreeConfig deep;
  deep.depth = 90;
  deep.siblings_per_level = 2;
  auto doc = xml::GenerateDeepTree(deep);
  core::PartitionOptions part;
  part.max_area_nodes = 2;
  part.max_area_depth = 1;
  core::Ruid2Scheme scheme(part);
  scheme.Build(doc->root());

  std::vector<core::Ruid2Id> ids;
  scheme.ForEachLabeled(
      [&](xml::Node*, const core::Ruid2Id& id) { ids.push_back(id); });
  ASSERT_FALSE(ids.empty());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> chains_read{0};

  auto reader = [&](size_t offset) {
    size_t i = offset;
    while (!stop.load(std::memory_order_relaxed)) {
      const core::Ruid2Id& id = ids[i % ids.size()];
      // By-value / caller-buffer APIs only: pointers returned by the cache
      // are invalidated by the updater thread.
      std::vector<core::Ruid2Id> chain = scheme.Ancestors(id);
      std::vector<core::PackedRuid2Id> packed;
      scheme.AncestorsPacked(id, &packed);
      chains_read.fetch_add(1 + chain.size(), std::memory_order_relaxed);
      ++i;
    }
  };

  auto updater = [&] {
    core::UpdateReport relabel;
    relabel.relabeled = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      scheme.ancestor_cache().OnUpdate(relabel);
      scheme.ancestor_cache().Clear();
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) threads.emplace_back(reader, t * 13);
  threads.emplace_back(updater);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_GT(chains_read.load(), 0u);
  EXPECT_GT(scheme.ancestor_cache().misses(), 0u);

  // The cache still serves correct chains after the storm.
  for (const core::Ruid2Id& id : ids) {
    std::vector<core::Ruid2Id> chain = scheme.Ancestors(id);
    if (!(id == core::Ruid2RootId())) {
      EXPECT_FALSE(chain.empty());
    }
  }
}

TEST(RaceStressTest, FlusherDrainsWhileWorkersDirtyDisjointSlices) {
  // The background flusher's racy surface: its copy-out drains (pin==0
  // frames only) run concurrently with workers pinning, mutating, and
  // unpinning frames of a journaled pool, with foreground evictions
  // waiting out in-flight writes. Workers own disjoint 24-page slices, so
  // frame *bytes* are single-writer; everything else (pin counts, dirty
  // bits, the clock hand, the journal) is the shared state under test.
  auto pager = storage::Pager::Open("");
  ASSERT_TRUE(pager.ok());
  auto wal = storage::WriteAheadLog::Open("", (*pager)->fault_injector());
  ASSERT_TRUE(wal.ok());
  storage::BufferPool pool(pager->get(), 32);
  pool.AttachWal(wal->get());
  pool.StartBackgroundFlusher();

  constexpr size_t kWorkers = 4;
  constexpr size_t kPagesPerWorker = 24;
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < kWorkers * kPagesPerWorker; ++i) {
    uint8_t* frame = nullptr;
    auto id = pool.AllocatePinned(&frame);
    ASSERT_TRUE(id.ok());
    frame[0] = 0;
    pool.Unpin(*id, true);
    ids.push_back(*id);
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  constexpr int kRounds = 60;
  auto worker = [&](size_t w) {
    for (int round = 1; round <= kRounds; ++round) {
      for (size_t p = 0; p < kPagesPerWorker; ++p) {
        uint32_t id = ids[w * kPagesPerWorker + p];
        auto f = pool.Fetch(id);
        ASSERT_TRUE(f.ok());
        (*f)[0] = static_cast<uint8_t>(round);
        (*f)[1] = static_cast<uint8_t>(w);
        pool.Unpin(id, true);
        if (p + 1 < kPagesPerWorker) {
          pool.Prefetch(ids[w * kPagesPerWorker + p + 1]);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWorkers; ++w) threads.emplace_back(worker, w);
  for (auto& t : threads) t.join();

  // Commit at quiescence, then check that every page holds its worker's
  // final round — no drain ever wrote a stale copy over a newer one.
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_GE(pool.stats().flusher_drains, 1u);
  for (size_t w = 0; w < kWorkers; ++w) {
    for (size_t p = 0; p < kPagesPerWorker; ++p) {
      uint32_t id = ids[w * kPagesPerWorker + p];
      auto f = pool.Fetch(id);
      ASSERT_TRUE(f.ok());
      EXPECT_EQ((*f)[0], static_cast<uint8_t>(kRounds));
      EXPECT_EQ((*f)[1], static_cast<uint8_t>(w));
      pool.Unpin(id, false);
    }
  }
}

}  // namespace
}  // namespace ruidx
