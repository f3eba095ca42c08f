// ElementStore: a disk-backed table of XML nodes keyed by their 2-level
// ruid, with a B+tree index over the identifier ("the data items are sorted
// first by the global index, and then by local index" — Sec. 2.1).
//
// Each record also carries the parent's identifier, which enables the
// *navigational* ancestor check a parent-pointer store must perform (one
// record fetch per hop). The identifier-arithmetic check needs none — the
// contrast the E12 benchmark quantifies.
#ifndef RUIDX_STORAGE_ELEMENT_STORE_H_
#define RUIDX_STORAGE_ELEMENT_STORE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/ruid2.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/secondary_index.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "xml/dom.h"

namespace ruidx {
namespace storage {

struct ElementRecord {
  core::Ruid2Id id;
  /// Parent identifier; for the tree root this equals its own id.
  core::Ruid2Id parent_id;
  uint8_t node_type = 0;  // xml::NodeType
  std::string name;
  std::string value;
  /// Rolling hash of the root-to-node tag path (the path-index term).
  /// 0 = unset: the store resolves it on Put — root hash when the record is
  /// its own parent, otherwise extended from the parent record's stored
  /// term (falling back to the bare name hash when the child is Put before
  /// its parent). Reads fill in the stored value.
  uint64_t path_term = 0;
};

/// Per-store secondary-index observability (ruidx_tool check --store).
struct SecondaryIndexStats {
  uint64_t name_postings = 0;
  uint64_t path_postings = 0;
};

/// Encodes an identifier as a 33-byte key whose bytewise order equals
/// (global, local, flag) numeric order. Fails for components over 128 bits
/// (use more ruid levels long before that).
Result<BPlusTree::Key> EncodeIdKey(const core::Ruid2Id& id);

/// Inverse of EncodeIdKey.
core::Ruid2Id DecodeIdKey(const BPlusTree::Key& key);

/// A read-only view of one store's last committed state, obtained from
/// ElementStore::OpenSnapshot. All page reads go through an MVCC Snapshot
/// (storage/snapshot.h): they never block on a concurrent Flush, never
/// observe uncommitted mutations, and stay byte-stable for the view's whole
/// lifetime no matter what writers commit meanwhile. The view attaches its
/// own B+tree and posting-index handles over the snapshot, rooted at the
/// COMMITTED meta page — so even index restructuring (splits, root moves)
/// after the snapshot is invisible.
///
/// Not thread-safe; open one per reader thread (opening is cheap).
class StoreSnapshot {
 public:
  /// Point lookup against the committed index.
  Result<ElementRecord> Get(const core::Ruid2Id& id);
  Result<bool> Exists(const core::Ruid2Id& id);

  /// The committed counterparts of the ElementStore scans.
  Status ScanArea(const BigUint& global,
                  const std::function<bool(const ElementRecord&)>& fn);
  Status ScanAll(
      const std::function<bool(const BPlusTree::Key&, const ElementRecord&)>&
          fn);
  Status ScanNameTerm(std::string_view name,
                      const std::function<bool(const ElementRecord&)>& fn);
  Status ScanPathTerm(uint64_t term,
                      const std::function<bool(const ElementRecord&)>& fn);

  uint64_t record_count() const { return index_.entry_count(); }
  /// The commit sequence this view is pinned to (pool-local counter).
  uint64_t commit_seq() const { return snap_->commit_seq(); }

 private:
  friend class ElementStore;
  StoreSnapshot(std::shared_ptr<Snapshot> snap, BPlusTree index,
                SecondaryIndex name_index, SecondaryIndex path_index)
      : snap_(std::move(snap)),
        index_(std::move(index)),
        name_index_(std::move(name_index)),
        path_index_(std::move(path_index)) {}

  std::shared_ptr<Snapshot> snap_;
  BPlusTree index_;
  SecondaryIndex name_index_;
  SecondaryIndex path_index_;
};

class ElementStore {
 public:
  /// Creates an empty store backed by `path` (empty = temp file). The
  /// store starts its dedicated I/O thread, which drains dirty pool frames
  /// asynchronously.
  static Result<std::unique_ptr<ElementStore>> Create(
      const std::string& path, size_t buffer_pool_pages = 64);

  /// Re-opens a store previously Create()d and Flush()ed at `path`. Runs
  /// crash recovery first: if the sidecar journal ("<path>.wal") holds a
  /// transaction, the main file is rolled back to the last committed state
  /// (pre-images re-applied, appended pages truncated, torn journal tails
  /// discarded) before the metadata is read.
  static Result<std::unique_ptr<ElementStore>> Open(
      const std::string& path, size_t buffer_pool_pages = 64);

  /// Inserts or replaces a record.
  Status Put(const ElementRecord& record);

  /// Removes a record's index entry (NotFound if absent). The heap copy
  /// becomes dead space until compaction; the index page an emptied leaf
  /// occupied is reclaimed through the pool's free list.
  Status Remove(const core::Ruid2Id& id);

  /// Point lookup by identifier: one descent of the primary tree.
  Result<ElementRecord> Get(const core::Ruid2Id& id);

  /// True iff the identifier names a stored (real) node.
  Result<bool> Exists(const core::Ruid2Id& id);

  /// Loads every labeled node of the subtree at `root` under `scheme`,
  /// streamed from the DOM in preorder (no record vector is built). Into a
  /// non-empty store this is a Put per node. Into an empty one, every key
  /// is validated first (CapacityExceeded or, for a repeated id,
  /// InvalidArgument, with the store left empty), the heap records are
  /// appended in document order, and each of the three trees is built
  /// bottom-up from its own sorted (key, location) run — leaves filled back
  /// to back, no top-down descents. Identifier order is not document order
  /// (a preorder walk returns from a child area, whose global index is
  /// larger, to its parent's), so each run is sorted, never assumed sorted.
  Status BulkLoad(const core::Ruid2Scheme& scheme, xml::Node* root);

  /// Scans all records of one UID-local area (one identifier-prefix range).
  Status ScanArea(const BigUint& global,
                  const std::function<bool(const ElementRecord&)>& fn);

  /// Scans every record in index-key order, handing the caller both the raw
  /// B+tree key and the decoded record — the invariant verifier checks that
  /// the two agree and that keys ascend.
  Status ScanAll(
      const std::function<bool(const BPlusTree::Key&, const ElementRecord&)>&
          fn);

  /// Scans all records named `name` in ascending identifier order (document
  /// order within each area), seeded from the persistent name index —
  /// posting-list pages plus one heap read per match instead of a
  /// full-store enumeration. This is the paper's Sec. 4 by-name table
  /// selection, held as one key range of the name-posting tree. Term-hash
  /// collisions are filtered against the fetched record.
  Status ScanNameTerm(std::string_view name,
                      const std::function<bool(const ElementRecord&)>& fn);

  /// Scans all records whose root-to-node tag path hashes to `term`
  /// (compose terms with RootPathTerm/ExtendPathTerm), in the same
  /// identifier order.
  Status ScanPathTerm(uint64_t term,
                      const std::function<bool(const ElementRecord&)>& fn);

  /// Raw name-index postings in (term, identifier) key order — the fsck
  /// coverage invariants walk these.
  Status ScanNamePostings(
      const std::function<bool(uint64_t term, const core::Ruid2Id& id,
                               uint64_t location)>& fn) const;

  /// Raw path-index postings, same order.
  Status ScanPathPostings(
      const std::function<bool(uint64_t term, const core::Ruid2Id& id,
                               uint64_t location)>& fn) const;

  /// Ancestor check via identifier arithmetic (Fig. 6): runs entirely on
  /// the in-memory (κ, K) state — zero page accesses.
  bool IsAncestorViaRuid(const core::Ruid2Scheme& scheme,
                         const core::Ruid2Id& a, const core::Ruid2Id& d) const;

  /// Ancestor check by chasing stored parent pointers: one indexed record
  /// fetch per hop, the way a scheme without computable parents must do it.
  Result<bool> IsAncestorViaParentPointers(const core::Ruid2Id& a,
                                           const core::Ruid2Id& d);

  /// Fetches the records of all ancestors of `id`, computing their
  /// identifiers first (Sec. 3.3: "ascertaining the identifiers of data
  /// items prior to loading data from the disk can help to reduce disk
  /// access"). Returns nearest-first.
  Result<std::vector<ElementRecord>> FetchAncestors(
      const core::Ruid2Scheme& scheme, const core::Ruid2Id& id);

  /// Commits: persists the metadata and runs the pool's atomic commit
  /// protocol (journal sync -> write-back -> file sync -> checkpoint).
  /// When this returns OK the store's state survives any crash.
  /// Concurrent Flush callers are group-committed — they share one journal
  /// fsync and one checkpoint (see BufferPool::FlushAll).
  Status Flush();

  /// Opens an MVCC view of the last committed state (see StoreSnapshot).
  /// Requires at least one successful Flush (a store that never committed
  /// has no committed meta page to read — NotFound). Readers holding the
  /// view never block on concurrent Put/Remove/Flush. Release all views
  /// before destroying the store.
  Result<std::unique_ptr<StoreSnapshot>> OpenSnapshot();

  /// Live MVCC counters of this store's pool (snapshots, COW frames).
  SnapshotStats snapshot_stats() const { return pool_->snapshot_stats(); }

  /// On-disk integrity checks over the flushed image, read raw through the
  /// pager: page trailer checksums, LSN bounds (every stamp below the
  /// journal's LSN counter), free-list well-formedness (FREE markers,
  /// acyclic, length agrees), and index-page reachability disjoint from
  /// the free list. Returns Corruption("[invariant-name] ...").
  Status VerifyOnDisk();

  /// Scheme-free consistency battery over the secondary indexes: posting
  /// counts equal the record count, every posting's location resolves to a
  /// record carrying that id and term, and both posting trees validate
  /// structurally. Corruption("[invariant-name] ...").
  Status VerifySecondaryIndexes();

  /// Posting counts of the name and path indexes.
  SecondaryIndexStats secondary_stats() const;

  /// Leaf-page compression accounting summed over the primary tree and
  /// both posting trees: page/entry counts, stored vs raw key bytes, and
  /// the run-length histogram (see BPlusTree::LeafStats).
  Status ComputeLeafStats(BPlusTree::LeafStats* stats) const;

  /// Arms the shared fault injector covering every physical operation of
  /// both the main file and the journal — the crash-point matrix test
  /// sweeps `ops` over the whole range. UINT64_MAX disarms.
  void InjectFaultAfter(uint64_t ops) { pager_->InjectFaultAfter(ops); }

  uint64_t record_count() const { return index_->entry_count(); }
  /// By value: Pager::stats() snapshots under the pager mutex, so there is
  /// no stable object a reference could point at.
  PagerStats pager_stats() const { return pager_->stats(); }
  BufferPoolStats pool_stats() const { return pool_->stats(); }
  /// Requests waiting in the background flusher's queue (0 without one).
  size_t flusher_queue_depth() const { return pool_->flusher_queue_depth(); }
  void ResetStats() {
    pager_->ResetStats();
    pool_->ResetStats();
  }
  /// Logical page accesses (pool hits + misses) — the paper-level I/O
  /// metric, independent of pool capacity.
  uint64_t logical_page_accesses() const {
    BufferPoolStats s = pool_->stats();
    return s.hits + s.misses;
  }

 private:
  /// Corruption injection for the invariant-verifier tests (defined there).
  friend class ElementStoreTestPeer;

  ElementStore() = default;

  /// One pass over a bulk load's records in document order: `visit` gets
  /// each record, path term resolved, and a non-OK status from it ends the
  /// pass and is returned. Every pass yields the same records.
  using RecordVisitor = std::function<Status(const ElementRecord& record)>;
  using RecordWalk = std::function<Status(const RecordVisitor& visit)>;

  /// The batch path of BulkLoad into an empty store: one validating pass,
  /// one heap-append pass, then one pass per posting tree. `size_hint`
  /// reserves the key buffer.
  Status BulkBuild(size_t size_hint, const RecordWalk& walk);

  Result<uint64_t> AppendRecord(const ElementRecord& record,
                                uint64_t path_term);
  Result<ElementRecord> ReadRecord(uint64_t location);
  Status WriteMeta();
  /// The record's path-index term: the caller-supplied value when set,
  /// otherwise derived from the parent record (see ElementRecord::path_term).
  Result<uint64_t> ResolvePathTerm(const ElementRecord& record);

  // Destruction order matters: the pool's destructor runs a final commit
  // through the journal, so pool_ must die before wal_ (and both before
  // pager_) — members are destroyed in reverse declaration order.
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BPlusTree> index_;
  std::unique_ptr<SecondaryIndex> name_index_;
  std::unique_ptr<SecondaryIndex> path_index_;
  uint32_t current_heap_page_ = kInvalidPage;
};

}  // namespace storage
}  // namespace ruidx

#endif  // RUIDX_STORAGE_ELEMENT_STORE_H_
