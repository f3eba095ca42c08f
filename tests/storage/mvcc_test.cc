// MVCC snapshot reads and group commit.
//
// The contract under test (storage/snapshot.h, BufferPool::FlushAll):
//   * a Snapshot pins one committed state and keeps serving it — byte for
//     byte — no matter what later transactions dirty or commit;
//   * a pinned snapshot read completes while another thread is parked
//     INSIDE the commit protocol (readers never take the pool mutex);
//   * concurrent FlushAll callers are group-committed: one journal fsync,
//     one checkpoint, every waiter observing the shared run's status —
//     including a poison raised mid-protocol;
//   * a crash anywhere inside a group commit recovers to all-or-nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "storage/element_store.h"
#include "storage/flusher.h"
#include "xml/parser.h"
#include "xpath/structural_join.h"

namespace ruidx {
namespace storage {

/// Reaches the store's internals the way the invariant-checker peer does:
/// the group-commit tests drive the POOL's FlushAll concurrently (the
/// store-level Flush is single-writer by contract — its meta write is not
/// synchronized), so they stage the meta page once and then hammer the
/// pool directly.
class ElementStoreTestPeer {
 public:
  static BufferPool* pool(ElementStore* store) { return store->pool_.get(); }
  static WriteAheadLog* wal(ElementStore* store) { return store->wal_.get(); }
  /// Everything ElementStore::Flush does before the pool commit.
  static Status PrepareCommit(ElementStore* store) {
    return store->WriteMeta();
  }
};

namespace {

void SpinUntil(const std::atomic<bool>& flag) {
  while (!flag.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// Pool-level tests: Pager + WAL + BufferPool wired up the way ElementStore
// does it, minus the store machinery.
// ---------------------------------------------------------------------------

class MvccPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    injector_ = std::make_shared<IoFaultInjector>();
    auto pager = Pager::Open("", PagerOpenOptions{}, injector_);
    ASSERT_TRUE(pager.ok());
    pager_ = pager.MoveValueUnsafe();
    auto wal = WriteAheadLog::Open("", injector_);
    ASSERT_TRUE(wal.ok());
    wal_ = wal.MoveValueUnsafe();
  }

  /// Allocates a page through `pool`, stamps `value` at offset 64, and
  /// leaves it dirty.
  uint32_t NewPage(BufferPool* pool, uint8_t value) {
    uint8_t* frame = nullptr;
    auto id = pool->AllocatePinned(&frame);
    EXPECT_TRUE(id.ok());
    frame[64] = value;
    pool->Unpin(*id, true);
    return *id;
  }

  void Overwrite(BufferPool* pool, uint32_t page_id, uint8_t value) {
    auto frame = pool->Fetch(page_id);
    ASSERT_TRUE(frame.ok());
    (*frame)[64] = value;
    pool->Unpin(page_id, true);
  }

  /// One byte read through a snapshot handle (fetch, copy, unpin).
  uint8_t SnapByte(Snapshot* snap, uint32_t page_id) {
    auto frame = snap->Fetch(page_id);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    if (!frame.ok()) return 0xFF;
    uint8_t value = (*frame)[64];
    snap->Unpin(page_id, false);
    return value;
  }

  std::shared_ptr<IoFaultInjector> injector_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<WriteAheadLog> wal_;
};

TEST_F(MvccPoolTest, SnapshotServesCommittedStateAcrossCommits) {
  BufferPool pool(pager_.get(), 8);
  pool.AttachWal(wal_.get());
  uint32_t page = NewPage(&pool, 'A');
  ASSERT_TRUE(pool.FlushAll().ok());  // commit 1

  auto snap1 = pool.CreateSnapshot();
  ASSERT_TRUE(snap1.ok());
  EXPECT_EQ((*snap1)->commit_seq(), 1u);

  // Overwrite after the snapshot: the pre-image is mirrored at dirtying
  // time (a snapshot is live), so the snapshot keeps reading 'A' from the
  // live layer...
  Overwrite(&pool, page, 'B');
  EXPECT_EQ(SnapByte(snap1->get(), page), 'A');

  // ...and from the frozen layer after the overwrite commits.
  ASSERT_TRUE(pool.FlushAll().ok());  // commit 2
  EXPECT_EQ(SnapByte(snap1->get(), page), 'A');

  // A fresh snapshot pins the new commit.
  auto snap2 = pool.CreateSnapshot();
  ASSERT_TRUE(snap2.ok());
  EXPECT_EQ((*snap2)->commit_seq(), 2u);
  EXPECT_EQ(SnapByte(snap2->get(), page), 'B');
  EXPECT_EQ(SnapByte(snap1->get(), page), 'A');

  SnapshotStats stats = pool.snapshot_stats();
  EXPECT_EQ(stats.live_snapshots, 2u);
  EXPECT_EQ(stats.snapshots_opened, 2u);
  EXPECT_GE(stats.cow_frames, 1u);

  snap1->reset();
  snap2->reset();
  stats = pool.snapshot_stats();
  EXPECT_EQ(stats.live_snapshots, 0u);
  // All pre-image layers are garbage once no snapshot needs them.
  EXPECT_EQ(stats.cow_frames, 0u);
  EXPECT_EQ(stats.cached_pages, 0u);
}

TEST_F(MvccPoolTest, MidTransactionSnapshotIsSeededFromTheJournal) {
  BufferPool pool(pager_.get(), 8);
  pool.AttachWal(wal_.get());
  uint32_t page = NewPage(&pool, 'A');
  uint32_t other = NewPage(&pool, 'X');
  ASSERT_TRUE(pool.FlushAll().ok());  // commit 1

  // Dirty BEFORE any snapshot exists: the pre-image lives nowhere but the
  // WAL. A snapshot opened mid-transaction must be seeded from it.
  Overwrite(&pool, page, 'B');
  ASSERT_TRUE(wal_->in_transaction());

  auto snap = pool.CreateSnapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(SnapByte(snap->get(), page), 'A');

  // Dirty AFTER the snapshot exists: covered by live mirroring instead.
  Overwrite(&pool, other, 'Y');
  EXPECT_EQ(SnapByte(snap->get(), other), 'X');

  // Pages the open transaction appended are past the snapshot's limit.
  uint32_t appended = NewPage(&pool, 'Z');
  auto past = snap->get()->Fetch(appended);
  EXPECT_FALSE(past.ok());
  EXPECT_TRUE(past.status().IsNotFound());

  ASSERT_TRUE(pool.FlushAll().ok());  // commit 2
  EXPECT_EQ(SnapByte(snap->get(), page), 'A');
  EXPECT_EQ(SnapByte(snap->get(), other), 'X');
}

TEST_F(MvccPoolTest, SnapshotIsReadOnly) {
  BufferPool pool(pager_.get(), 8);
  pool.AttachWal(wal_.get());
  NewPage(&pool, 'A');
  ASSERT_TRUE(pool.FlushAll().ok());
  auto snap = pool.CreateSnapshot();
  ASSERT_TRUE(snap.ok());
  uint8_t* frame = nullptr;
  EXPECT_TRUE((*snap)->AllocatePinned(&frame).status().IsInternal());
  EXPECT_TRUE((*snap)->FreePage(0).IsInternal());
}

TEST_F(MvccPoolTest, SnapshotFailsCleanlyAfterPoolTeardown) {
  auto pool = std::make_unique<BufferPool>(pager_.get(), 8);
  pool->AttachWal(wal_.get());
  uint32_t page = NewPage(pool.get(), 'A');
  ASSERT_TRUE(pool->FlushAll().ok());
  auto snap = pool->CreateSnapshot();
  ASSERT_TRUE(snap.ok());
  pool.reset();  // closes the snapshot table
  auto read = snap->get()->Fetch(page);
  EXPECT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsInternal());
}

// The tentpole proof: a reader holding a snapshot completes a read while
// another thread is parked INSIDE the commit protocol (pool mutex held).
TEST_F(MvccPoolTest, SnapshotReadCompletesWhileCommitIsLatchedOpen) {
  std::atomic<bool> in_commit{false};
  std::atomic<bool> release{false};
  std::atomic<bool> commit_done{false};

  BufferPool pool(pager_.get(), 8);
  pool.AttachWal(wal_.get());
  uint32_t page = NewPage(&pool, 'A');
  ASSERT_TRUE(pool.FlushAll().ok());  // commit 1

  auto snap = pool.CreateSnapshot();
  ASSERT_TRUE(snap.ok());
  Overwrite(&pool, page, 'B');

  pool.SetCommitHookForTesting([&] {
    in_commit.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  Status commit_status;
  std::thread committer([&] {
    commit_status = pool.FlushAll();
    commit_done.store(true);
  });
  SpinUntil(in_commit);

  // The committer is inside CommitProtocolLocked, holding the pool mutex.
  // The snapshot read must complete anyway — and serve the old bytes.
  EXPECT_EQ(SnapByte(snap->get(), page), 'A');
  EXPECT_FALSE(commit_done.load());

  release.store(true);
  committer.join();
  EXPECT_TRUE(commit_status.ok()) << commit_status.ToString();
  EXPECT_EQ(SnapByte(snap->get(), page), 'A');
  pool.SetCommitHookForTesting(nullptr);
}

TEST_F(MvccPoolTest, GroupCommitCoalescesConcurrentFlushes) {
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};

  BufferPool pool(pager_.get(), 16);
  pool.AttachWal(wal_.get());
  pool.StartBackgroundFlusher();
  uint32_t page = NewPage(&pool, 'A');
  ASSERT_TRUE(pool.FlushAll().ok());  // commit 1
  Overwrite(&pool, page, 'B');       // journals a pre-image (unsynced)

  // Park the flusher on an I/O-free sentinel (prefetch of a resident
  // page), then queue four commits behind it so absorption is
  // deterministic.
  BackgroundFlusher* flusher = pool.flusher_for_testing();
  ASSERT_NE(flusher, nullptr);
  flusher->SetServeHookForTesting([&] {
    if (release.load()) return;
    parked.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  pool.Prefetch(page);
  SpinUntil(parked);

  const BufferPoolStats pool_before = pool.stats();
  constexpr int kCommitters = 4;
  std::vector<Status> statuses(kCommitters);
  std::vector<std::thread> committers;
  committers.reserve(kCommitters);
  for (int i = 0; i < kCommitters; ++i) {
    committers.emplace_back(
        [&pool, &statuses, i] { statuses[static_cast<size_t>(i)] = pool.FlushAll(); });
  }
  while (pool.flusher_queue_depth() < kCommitters) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t syncs_before = wal_->stats().syncs;

  release.store(true);
  for (std::thread& t : committers) t.join();
  for (const Status& st : statuses) EXPECT_TRUE(st.ok()) << st.ToString();

  // One journal fsync served all four callers...
  EXPECT_EQ(wal_->stats().syncs - syncs_before, 1u);
  // ...because four requests collapsed into one protocol run.
  const BufferPoolStats pool_after = pool.stats();
  EXPECT_EQ(pool_after.commit_requests - pool_before.commit_requests,
            static_cast<uint64_t>(kCommitters));
  EXPECT_EQ(pool_after.commit_batches - pool_before.commit_batches, 1u);

  // The shared run really committed: the page is durable with 'B'.
  char raw[kPageSize];
  ASSERT_TRUE(pager_->ReadPage(page, raw).ok());
  EXPECT_EQ(static_cast<uint8_t>(raw[64]), 'B');
  flusher->SetServeHookForTesting(nullptr);
}

TEST_F(MvccPoolTest, PoisonDuringGroupCommitReachesEveryWaiter) {
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};

  BufferPool pool(pager_.get(), 16);
  pool.AttachWal(wal_.get());
  pool.StartBackgroundFlusher();
  uint32_t page = NewPage(&pool, 'A');
  ASSERT_TRUE(pool.FlushAll().ok());
  Overwrite(&pool, page, 'B');

  BackgroundFlusher* flusher = pool.flusher_for_testing();
  ASSERT_NE(flusher, nullptr);
  flusher->SetServeHookForTesting([&] {
    if (release.load()) return;
    parked.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  pool.Prefetch(page);
  SpinUntil(parked);

  constexpr int kCommitters = 4;
  std::vector<Status> statuses(kCommitters);
  std::vector<std::thread> committers;
  committers.reserve(kCommitters);
  for (int i = 0; i < kCommitters; ++i) {
    committers.emplace_back(
        [&pool, &statuses, i] { statuses[static_cast<size_t>(i)] = pool.FlushAll(); });
  }
  while (pool.flusher_queue_depth() < kCommitters) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The very next physical operation — inside the shared protocol run —
  // fails. Every waiting committer must observe it, not just the leader.
  pager_->InjectFaultAfter(0);
  release.store(true);
  for (std::thread& t : committers) t.join();
  for (const Status& st : statuses) EXPECT_FALSE(st.ok());

  // The pool is sticky-poisoned: later commits and snapshots fail too.
  EXPECT_FALSE(pool.status().ok());
  EXPECT_FALSE(pool.FlushAll().ok());
  EXPECT_FALSE(pool.CreateSnapshot().ok());
  pager_->InjectFaultAfter(UINT64_MAX);
  flusher->SetServeHookForTesting(nullptr);
}

// ---------------------------------------------------------------------------
// Store-level tests.
// ---------------------------------------------------------------------------

constexpr uint64_t kIdStride = 64;

core::Ruid2Id MakeId(uint64_t i) {
  core::Ruid2Id id;
  id.global = BigUint(1 + i / kIdStride);
  id.local = BigUint(2 + i % kIdStride);
  id.is_area_root = false;
  return id;
}

ElementRecord MakeRecord(uint64_t i, const std::string& value) {
  ElementRecord record;
  record.id = MakeId(i);
  record.parent_id = MakeId(i);
  record.node_type = 1;
  record.name = "n" + std::to_string(i % 8);
  record.value = value;
  return record;
}

/// Serializes a committed view: raw keys + names + values in scan order.
std::string Fingerprint(StoreSnapshot* snap, Status* status) {
  std::string out;
  *status = snap->ScanAll(
      [&](const BPlusTree::Key& key, const ElementRecord& record) {
        out.append(reinterpret_cast<const char*>(key.data()), key.size());
        out += record.name;
        out += '=';
        out += record.value;
        out += ';';
        return true;
      });
  return out;
}

TEST(MvccStoreTest, OpenSnapshotRequiresACommit) {
  auto store = ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put(MakeRecord(0, "v0")).ok());
  auto snap = (*store)->OpenSnapshot();
  EXPECT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsNotFound());
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_TRUE((*store)->OpenSnapshot().ok());
}

TEST(MvccStoreTest, SnapshotIsolatesCommittedState) {
  auto store = ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  constexpr uint64_t kN = 50;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE((*store)->Put(MakeRecord(i, "old" + std::to_string(i))).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());

  auto snap = (*store)->OpenSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->record_count(), kN);

  // Mutate every kind of state after the snapshot: overwrites, an insert,
  // a delete — committed and uncommitted.
  for (uint64_t i = 0; i < kN; i += 2) {
    ASSERT_TRUE((*store)->Put(MakeRecord(i, "new" + std::to_string(i))).ok());
  }
  ASSERT_TRUE((*store)->Put(MakeRecord(kN, "inserted")).ok());
  ASSERT_TRUE((*store)->Remove(MakeId(1)).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Put(MakeRecord(2, "uncommitted")).ok());

  // The live store sees the churn...
  auto live = (*store)->Get(MakeId(2));
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->value, "uncommitted");
  EXPECT_TRUE((*store)->Get(MakeId(1)).status().IsNotFound());

  // ...the snapshot sees exactly the first commit.
  auto old0 = (*snap)->Get(MakeId(0));
  ASSERT_TRUE(old0.ok()) << old0.status().ToString();
  EXPECT_EQ(old0->value, "old0");
  auto old2 = (*snap)->Get(MakeId(2));
  ASSERT_TRUE(old2.ok());
  EXPECT_EQ(old2->value, "old2");
  auto gone = (*snap)->Get(MakeId(1));
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->value, "old1");
  auto exists = (*snap)->Exists(MakeId(kN));
  ASSERT_TRUE(exists.ok());
  EXPECT_FALSE(*exists);

  // The committed posting index too: name scans resolve old records.
  uint64_t name_hits = 0;
  ASSERT_TRUE((*snap)
                  ->ScanNameTerm("n0",
                                 [&](const ElementRecord& record) {
                                   EXPECT_EQ(record.value.rfind("old", 0), 0u);
                                   ++name_hits;
                                   return true;
                                 })
                  .ok());
  EXPECT_GT(name_hits, 0u);
  EXPECT_EQ((*snap)->record_count(), kN);
}

TEST(MvccStoreTest, ConcurrentSnapshotReadersAreByteStable) {
  auto created = ElementStore::Create("");
  ASSERT_TRUE(created.ok());
  ElementStore* store = created->get();
  constexpr uint64_t kN = 120;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(store->Put(MakeRecord(i, "v0")).ok());
  }
  ASSERT_TRUE(store->Flush().ok());

  struct ReaderResult {
    uint64_t iterations = 0;
    bool scan_failed = false;
    bool unstable = false;       // two scans of ONE snapshot differed
    bool mixed_versions = false; // a scan saw a half-committed value mix
    bool bad_count = false;
  };
  std::atomic<bool> done{false};
  constexpr int kReaders = 3;
  std::vector<ReaderResult> results(kReaders);  // one slot per thread
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([store, &done, &results, r] {
      ReaderResult* result = &results[static_cast<size_t>(r)];
      while (!done.load()) {
        auto snap = store->OpenSnapshot();
        if (!snap.ok()) {
          result->scan_failed = true;
          return;
        }
        Status st1, st2;
        std::string fp1 = Fingerprint(snap->get(), &st1);
        std::string fp2 = Fingerprint(snap->get(), &st2);
        if (!st1.ok() || !st2.ok()) result->scan_failed = true;
        if (fp1 != fp2) result->unstable = true;
        // Every writer commit rewrites ALL records to one version string,
        // so any consistent view holds exactly one distinct value.
        std::set<std::string> values;
        uint64_t count = 0;
        Status st3 = snap->get()->ScanAll(
            [&](const BPlusTree::Key&, const ElementRecord& record) {
              values.insert(record.value);
              ++count;
              return true;
            });
        if (!st3.ok()) result->scan_failed = true;
        if (values.size() != 1) result->mixed_versions = true;
        if (count != kN) result->bad_count = true;
        ++result->iterations;
      }
    });
  }

  // Writer churn: each iteration rewrites every record and commits.
  for (int version = 1; version <= 12; ++version) {
    for (uint64_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(
          store->Put(MakeRecord(i, "v" + std::to_string(version))).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  done.store(true);
  for (std::thread& t : readers) t.join();

  for (const ReaderResult& result : results) {
    EXPECT_GT(result.iterations, 0u);
    EXPECT_FALSE(result.scan_failed);
    EXPECT_FALSE(result.unstable);
    EXPECT_FALSE(result.mixed_versions);
    EXPECT_FALSE(result.bad_count);
  }
  SnapshotStats stats = store->snapshot_stats();
  EXPECT_EQ(stats.live_snapshots, 0u);
  EXPECT_EQ(stats.cow_frames, 0u);
}

// Crash-point sweep over a GROUP commit: two threads share one protocol
// run; a fault anywhere inside it must recover to all-or-nothing.
TEST(MvccStoreTest, GroupCommitCrashSweepRecoversAllOrNothing) {
  const std::string path = ::testing::TempDir() + "/ruidx_mvcc_sweep.db";
  constexpr uint64_t kN = 40;
  bool completed = false;
  uint64_t fault = 0;
  for (; fault < 2000 && !completed; ++fault) {
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
    {
      auto created = ElementStore::Create(path, 12);
      ASSERT_TRUE(created.ok());
      ElementStore* store = created->get();
      for (uint64_t i = 0; i < kN; ++i) {
        ASSERT_TRUE(store->Put(MakeRecord(i, "old")).ok());
      }
      ASSERT_TRUE(store->Flush().ok());
      for (uint64_t i = 0; i < kN; i += 2) {
        ASSERT_TRUE(store->Put(MakeRecord(i, "new")).ok());
      }
      // Stage the meta page once (the store-level half of Flush),
      // then run the pool commit from two threads with the crash armed —
      // the flusher absorbs them into one protocol run.
      ASSERT_TRUE(ElementStoreTestPeer::PrepareCommit(store).ok());
      store->InjectFaultAfter(fault);
      BufferPool* pool = ElementStoreTestPeer::pool(store);
      Status st_a, st_b;
      std::thread a([&] { st_a = pool->FlushAll(); });
      std::thread b([&] { st_b = pool->FlushAll(); });
      a.join();
      b.join();
      completed = st_a.ok() && st_b.ok();
      // Crash: the store is destroyed with the fault still armed.
    }
    auto reopened = ElementStore::Open(path, 12);
    ASSERT_TRUE(reopened.ok())
        << "fault=" << fault << ": " << reopened.status().ToString();
    ASSERT_TRUE((*reopened)->VerifyOnDisk().ok()) << "fault=" << fault;
    ASSERT_TRUE((*reopened)->VerifySecondaryIndexes().ok())
        << "fault=" << fault;
    uint64_t old_values = 0, new_values = 0, other = 0;
    ASSERT_TRUE((*reopened)
                    ->ScanAll([&](const BPlusTree::Key&,
                                  const ElementRecord& record) {
                      if (record.value == "old") {
                        ++old_values;
                      } else if (record.value == "new") {
                        ++new_values;
                      } else {
                        ++other;
                      }
                      return true;
                    })
                    .ok());
    EXPECT_EQ(other, 0u) << "fault=" << fault;
    EXPECT_EQ((*reopened)->record_count(), kN) << "fault=" << fault;
    const bool all_old = old_values == kN && new_values == 0;
    const bool committed_mix = new_values == kN / 2 && old_values == kN / 2;
    ASSERT_TRUE(all_old || committed_mix)
        << "fault=" << fault << ": torn commit visible (" << old_values
        << " old, " << new_values << " new)";
    if (completed) {
      EXPECT_TRUE(committed_mix) << "completed run lost its commit";
    }
  }
  ASSERT_TRUE(completed) << "the sweep never reached a fault-free run";
  EXPECT_GT(fault, 5u);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(MvccJoinTest, JoinFromSnapshotMatchesLiveJoin) {
  const std::string xml =
      "<lib><shelf><book><title/></book><book><title/></book></shelf>"
      "<shelf><book><title/></book></shelf><title/></lib>";
  auto doc = xml::Parse(xml);
  ASSERT_TRUE(doc.ok());
  core::Ruid2Scheme scheme;
  scheme.Build((*doc)->root());

  auto store = ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, (*doc)->root()).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  auto live = xpath::StructuralJoinRuidFromStore(scheme, store->get(), "book",
                                                 "title");
  ASSERT_TRUE(live.ok());
  ASSERT_EQ(live->size(), 3u);

  auto snap = (*store)->OpenSnapshot();
  ASSERT_TRUE(snap.ok());
  auto snapped = xpath::StructuralJoinRuidFromSnapshot(scheme, snap->get(),
                                                       "book", "title");
  ASSERT_TRUE(snapped.ok()) << snapped.status().ToString();
  EXPECT_EQ(*live, *snapped);

  // Uncommitted churn does not leak into the snapshot's join inputs.
  ElementRecord extra;
  extra.id = MakeId(999);
  extra.parent_id = MakeId(999);
  extra.node_type = 1;
  extra.name = "title";
  extra.value = "phantom";
  ASSERT_TRUE((*store)->Put(extra).ok());
  auto again = xpath::StructuralJoinRuidFromSnapshot(scheme, snap->get(),
                                                     "book", "title");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*live, *again);
}

}  // namespace
}  // namespace storage
}  // namespace ruidx
