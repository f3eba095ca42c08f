// Positive exercise of the runtime lock-rank validator (util/sync.h): run
// the deepest real lock-nesting chains in the system — a small-pool
// ElementStore with its background flusher (pool mutex over wal/pager
// mutexes, flusher queue, commit latches), parallel labeling (thread pool,
// completion latches) followed by a bulk load into a small-pool store, and
// ancestor-cache invalidation racing readers — and require that everything
// completes without a rank abort. In dcheck builds every Lock() in these
// paths runs rank validation, so this test IS the proof that the documented
// global order matches the code's actual nesting; in NDEBUG builds it
// degrades to a plain integration smoke test.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/ruid2.h"
#include "storage/element_store.h"
#include "util/sync.h"
#include "util/thread_pool.h"
#include "xml/generator.h"

namespace ruidx {
namespace storage {
namespace {

core::PartitionOptions SmallAreas() {
  core::PartitionOptions options;
  options.max_area_nodes = 24;
  options.max_area_depth = 3;
  return options;
}

TEST(LockRankTest, FlusherCommitChainRunsCleanUnderValidator) {
  // Tiny pool: evictions run the synchronous write-back chain (pool mutex
  // held across wal sync + pager write); the flusher adds the async drain
  // and commit-latch chains on top.
  auto store = ElementStore::Create("", /*buffer_pool_pages=*/8);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  auto doc = xml::GenerateDblpLike(200);
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  Status put_status = Status::OK();
  scheme.ForEachLabeled([&](xml::Node* n, const core::Ruid2Id& id) {
    if (!put_status.ok()) return;
    ElementRecord record;
    record.id = id;
    record.parent_id = id;
    record.node_type = static_cast<uint8_t>(n->type());
    record.name = n->name();
    put_status = (*store)->Put(record);
  });
  ASSERT_TRUE(put_status.ok()) << put_status.ToString();
  // The commit protocol end to end: flusher latch wait, queue handoff,
  // pool mutex over wal sync / write-backs / pager sync / checkpoint.
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_TRUE((*store)->VerifyOnDisk().ok());
}

TEST(LockRankTest, ParallelLabelBulkLoadAndCacheInvalidationRunClean) {
  auto doc = xml::GenerateDblpLike(300);
  core::Ruid2Scheme scheme(SmallAreas());
  util::ThreadPool pool(4);
  scheme.Build(doc->root(), &pool);

  // Readers keep the ancestor-cache mutex hot while the bulk load drives
  // the pool / flusher / wal / pager chains of an 8-page store, and an
  // updater thread interleaves invalidations — together with the parallel
  // labeling above, every rank in the table gets acquired, in every real
  // combination.
  std::vector<core::Ruid2Id> ids;
  scheme.ForEachLabeled(
      [&](xml::Node*, const core::Ruid2Id& id) { ids.push_back(id); });
  ASSERT_FALSE(ids.empty());

  std::atomic<bool> stop{false};
  std::thread cache_churn([&] {
    core::UpdateReport relabel;
    relabel.relabeled = 1;
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)scheme.Ancestors(ids[i % ids.size()]);
      scheme.ancestor_cache().OnUpdate(relabel);
      ++i;
    }
  });

  auto store = ElementStore::Create("", /*buffer_pool_pages=*/8);
  ASSERT_TRUE(store.ok());
  Status load = (*store)->BulkLoad(scheme, doc->root());
  stop.store(true);
  cache_churn.join();
  ASSERT_TRUE(load.ok()) << load.ToString();

  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->VerifyOnDisk().ok());
  EXPECT_EQ((*store)->record_count(), scheme.label_count());
}

TEST(LockRankTest, ValidatorCompiledStateMatchesBuild) {
#if RUIDX_DCHECK_IS_ON
  SUCCEED() << "rank validator active: the tests above validated every "
               "acquisition against the global order";
#else
  GTEST_SKIP() << "NDEBUG build: the chains above ran, but rank validation "
                  "was compiled out";
#endif
}

}  // namespace
}  // namespace storage
}  // namespace ruidx
