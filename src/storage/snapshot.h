// MVCC snapshot reads over the rollback-journal storage engine.
//
// The engine's WAL already forces every page of the last committed state to
// yield a pre-image before it is overwritten — those pre-images ARE the
// committed version of the database. A Snapshot is a read-only PageIo that
// serves exactly that committed state: pages the open transaction has not
// touched come straight from the main file, pages it has touched come from
// an in-memory mirror of their pre-images, and pages the transaction
// appended do not exist yet (the snapshot's page limit cuts them off).
// Readers holding a snapshot therefore never block on FlushAll and never
// observe a half-committed page mix.
//
// Versioning model. The pool counts commits (commit_seq). While at least
// one snapshot is live, the first pre-image of every page dirtied by the
// current transaction is mirrored into the table's LIVE layer. When the
// transaction commits, the live layer — which holds the state as of the
// previous commit — is FROZEN and tagged with the new commit's sequence
// number. A snapshot opened at sequence C resolves a page by scanning the
// frozen layers in ascending order for the first layer with seq > C (the
// earliest overwrite after the snapshot), then the live layer, then the
// main file. Frozen layers are garbage-collected when no live snapshot is
// old enough to need them; with no snapshots live, nothing is mirrored at
// all — the whole subsystem costs one atomic load per page dirtying.
//
// A snapshot opened mid-transaction is seeded with the pre-images the WAL
// has already journaled (WriteAheadLog::ForEachTxnPreImage) — the pool only
// mirrors while snapshots are live, so earlier pre-images exist nowhere
// but the journal.
//
// Locking. One mutex (rank kSnapshotTable, BELOW the pool's and the WAL's,
// ABOVE the pager's) guards the layers, the registry, and the per-snapshot
// page caches. Resolution holds it across the pager read, which closes the
// only race: a page cannot move from "committed on disk" to "overwritten"
// while a reader is mid-read, because the writer's pre-image mirroring
// needs the same mutex. The cost is bounded — a committer waits for at most
// one page read, never the reverse (readers never take the pool mutex).
//
// Lifetime. Snapshot handles share ownership of the table with the pool;
// closing the store (BufferPool destruction) marks the table closed, after
// which snapshot reads fail cleanly instead of touching a dead pager.
#ifndef RUIDX_STORAGE_SNAPSHOT_H_
#define RUIDX_STORAGE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/page_io.h"
#include "storage/pager.h"
#include "util/result.h"
#include "util/sync.h"

namespace ruidx {
namespace storage {

class Snapshot;

/// Counters for `ruidx_tool check --store` and the MVCC tests.
struct SnapshotStats {
  uint64_t live_snapshots = 0;
  /// Copy-on-write frames: pre-image pages held across the live and frozen
  /// layers on behalf of snapshot readers.
  uint64_t cow_frames = 0;
  /// Pages resolved and cached inside individual snapshots.
  uint64_t cached_pages = 0;
  /// Snapshots ever opened (monotonic).
  uint64_t snapshots_opened = 0;
};

/// The pool-owned registry of live snapshots and pre-image layers. All
/// methods lock internally; callers hold higher-ranked locks (pool, WAL)
/// or none.
class SnapshotTable {
 public:
  explicit SnapshotTable(Pager* pager) : pager_(pager) {}
  SnapshotTable(const SnapshotTable&) = delete;
  SnapshotTable& operator=(const SnapshotTable&) = delete;

  /// True when at least one snapshot is live — the pool's cheap gate for
  /// pre-image mirroring (one relaxed atomic load on the no-snapshot path).
  bool HasLiveSnapshots() const {
    return live_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Mirrors the pre-image of `page_id` (kPageSize bytes, the page's
  /// content as of the last commit) into the live layer. First image wins —
  /// later calls for the same page within one transaction are no-ops.
  /// Cheap no-op when no snapshot is live.
  void RecordPreImage(uint32_t page_id, const uint8_t* image);

  /// Registers a new snapshot pinned at commit sequence `commit_seq`.
  /// `lsn_bound` is the exclusive upper bound of committed trailer stamps
  /// (any on-disk page stamped >= lsn_bound is an uncommitted write-back);
  /// `page_limit` is the committed page count — ids at or past it belong to
  /// the open transaction. `self` is the shared handle to this table (the
  /// snapshot co-owns it so store teardown cannot dangle readers).
  std::shared_ptr<Snapshot> Register(std::shared_ptr<SnapshotTable> self,
                                     uint64_t commit_seq, uint64_t lsn_bound,
                                     uint32_t page_limit);

  /// Commit notification: the transaction that the live layer mirrors has
  /// committed as sequence `new_commit_seq`. Freezes the live layer under
  /// that tag when snapshots still need it, discards it otherwise.
  void OnCommit(uint64_t new_commit_seq);

  /// Store teardown: subsequent snapshot reads fail with Internal instead
  /// of dereferencing a destroyed pager. Layers and caches are dropped.
  void Close();

  SnapshotStats stats() const;

 private:
  friend class Snapshot;

  struct CachedPage {
    std::unique_ptr<uint8_t[]> data;  // kPageSize; stable across rehash
    int pins = 0;
  };
  struct SnapState {
    uint64_t commit_seq = 0;
    uint64_t lsn_bound = 0;
    uint32_t page_limit = 0;
    std::unordered_map<uint32_t, CachedPage> cache;
  };
  /// One generation of pre-images: the state-as-of-commit-(seq-1) content
  /// of every page first dirtied by the transaction that committed as
  /// `seq`. The live layer is the same map with no seq yet.
  struct Layer {
    uint64_t seq = 0;
    std::unordered_map<uint32_t, std::vector<uint8_t>> images;
  };

  /// Snapshot-facing page resolution; pins the resolved copy in the
  /// snapshot's cache.
  Result<uint8_t*> FetchFor(uint64_t snap_id, uint32_t page_id);
  void UnpinFor(uint64_t snap_id, uint32_t page_id);
  /// Drops the snapshot and garbage-collects frozen layers no remaining
  /// snapshot is old enough to need.
  void Release(uint64_t snap_id);
  void EvictCacheLocked(SnapState* snap) RUIDX_REQUIRES(mu_);

  /// Pre-image layers, registry, and caches. Taken under the pool mutex
  /// (mirroring) and the WAL mutex (mid-transaction seeding); held across
  /// pager reads by resolution — rank table in util/sync.h.
  mutable Mutex mu_{LockRank::kSnapshotTable, "snapshot_table.mu"};
  Pager* pager_;  // set once; invalidated only via Close()
  bool closed_ RUIDX_GUARDED_BY(mu_) = false;
  std::unordered_map<uint32_t, std::vector<uint8_t>> live_
      RUIDX_GUARDED_BY(mu_);
  std::vector<Layer> frozen_ RUIDX_GUARDED_BY(mu_);  // ascending seq
  std::map<uint64_t, SnapState> snaps_ RUIDX_GUARDED_BY(mu_);
  uint64_t next_snap_id_ RUIDX_GUARDED_BY(mu_) = 1;
  uint64_t snapshots_opened_ RUIDX_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> live_count_{0};
};

/// A read-only, commit-pinned PageIo. Obtained from
/// BufferPool::CreateSnapshot; destroy (drop the shared_ptr) to release the
/// pre-image layers it pins. Handles are not thread-safe individually —
/// share one per reader thread, or open one per thread (opening is cheap).
class Snapshot : public PageIo {
 public:
  ~Snapshot() override { table_->Release(id_); }
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// Pinned pointer to the committed content of `page_id`. Fails with
  /// NotFound past the snapshot's page limit, Corruption when the main
  /// file serves a page stamped past the snapshot's LSN bound (which would
  /// mean a pre-image went missing), Internal after the store closed.
  Result<uint8_t*> Fetch(uint32_t page_id) override;
  void Unpin(uint32_t page_id, bool dirty) override;

  /// Snapshots are read-only: mutation entry points fail.
  Result<uint32_t> AllocatePinned(uint8_t** frame) override;
  Status FreePage(uint32_t page_id) override;

  /// The commit sequence this snapshot is pinned to.
  uint64_t commit_seq() const { return commit_seq_; }
  /// Exclusive LSN upper bound of the committed state this snapshot reads.
  uint64_t lsn_bound() const { return lsn_bound_; }
  /// Fetch calls made through this handle, successful or not.
  uint64_t page_accesses() const { return page_accesses_; }

 private:
  friend class SnapshotTable;
  Snapshot(std::shared_ptr<SnapshotTable> table, uint64_t id,
           uint64_t commit_seq, uint64_t lsn_bound)
      : table_(std::move(table)),
        id_(id),
        commit_seq_(commit_seq),
        lsn_bound_(lsn_bound) {}

  const std::shared_ptr<SnapshotTable> table_;
  const uint64_t id_;
  const uint64_t commit_seq_;
  const uint64_t lsn_bound_;
  uint64_t page_accesses_ = 0;
};

}  // namespace storage
}  // namespace ruidx

#endif  // RUIDX_STORAGE_SNAPSHOT_H_
