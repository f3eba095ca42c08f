// A persistent term→posting secondary index over element identifiers,
// layered on the same fixed-33-byte B+tree the primary index uses. One
// instance serves the name index (term = hash of the element name) and one
// the path index (term = rolling hash of the root-to-node tag path) — the
// two index kinds Mahboubi & Darmont's survey names as what turns a
// labeling scheme into a query engine.
//
// Posting key layout (byte order = (term, identifier order)):
//   [0..8)    u64 term hash, big-endian
//   [8..20)   global index, 12-byte big-endian
//   [20..32)  local index, 12-byte big-endian
//   [32]      area-root flag
//
// Identifier components above 96 bits fail with CapacityExceeded — the
// primary key caps at 128, and a document that deep should use more ruid
// levels long before either bound matters. Within one term the posting
// keys sort exactly like primary keys, so a term scan yields identifier
// order: areas by global index, and within an area by local index, which
// is the UID's level order — not document order, even inside one area.
// Term hashes can collide (8 bytes of FNV-1a). Record scans filter
// postings against the fetched record, so a collision costs one wasted
// record read, never a wrong answer. Identifier scans (ScanTermIds) read
// no record at all: their callers check the name of the node an
// identifier resolves to instead (the store joins, structural_join.h).
//
// The posting value is the record's heap location, letting an index-seeded
// step fetch matching records without a second descent through the primary
// tree. All pages go through the owning store's buffer pool, so posting
// mutations ride the same WAL transaction as the primary index and heap.
#ifndef RUIDX_STORAGE_SECONDARY_INDEX_H_
#define RUIDX_STORAGE_SECONDARY_INDEX_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/packed_ruid2_id.h"
#include "core/ruid2_id.h"
#include "storage/bptree.h"
#include "util/result.h"

namespace ruidx {
namespace storage {

/// Term hash of an element/text name (FNV-1a 64 over the raw bytes).
uint64_t HashNameTerm(std::string_view name);

/// Term hash of the root's tag path (one component).
uint64_t RootPathTerm(std::string_view root_name);

/// Extends a parent's path-term hash by one child tag. The combiner mixes
/// the parent hash before folding the child's name hash in, so "a/b/c" and
/// "a/c/b" land on different terms.
uint64_t ExtendPathTerm(uint64_t parent_term, std::string_view child_name);

/// Encodes a (term, id) posting key. CapacityExceeded above 96-bit
/// components.
Result<BPlusTree::Key> EncodePostingKey(uint64_t term,
                                        const core::Ruid2Id& id);

/// Term half of a posting key.
uint64_t DecodePostingTerm(const BPlusTree::Key& key);

/// Identifier half of a posting key.
core::Ruid2Id DecodePostingId(const BPlusTree::Key& key);

/// The identifiers of one term's postings, decoded from the keys alone.
struct PostingIds {
  /// Identifiers within the packed range, in key order.
  std::vector<core::PackedRuid2Id> packed;
  /// The rest (a local index of 63 bits or more), in key order.
  std::vector<core::Ruid2Id> wide;
};

class SecondaryIndex {
 public:
  /// Creates an empty index (allocates its root leaf in `pool`).
  static Result<SecondaryIndex> Create(PageIo* pool);

  /// Attaches to a persisted index.
  static SecondaryIndex Attach(PageIo* pool, uint32_t root_page,
                               uint64_t entry_count);

  /// Inserts (or re-points) the posting for (term, id) at `location`.
  Status Add(uint64_t term, const core::Ruid2Id& id, uint64_t location);

  /// Removes the posting for (term, id). NotFound if absent.
  Status Remove(uint64_t term, const core::Ruid2Id& id);

  /// Builds the whole index from ascending posting entries into an empty
  /// tree (the B+tree's sequential batch path).
  Status BulkLoadSorted(const std::vector<BPlusTree::Entry>& entries);

  /// Scans the postings of one term in identifier order. Return false from
  /// the callback to stop early.
  Status ScanTerm(uint64_t term,
                  const std::function<bool(const core::Ruid2Id& id,
                                           uint64_t location)>& fn) const;

  /// Replaces *out with the identifiers of one term's postings, decoded
  /// straight from the keys: posting pages only, no record read, so
  /// term-hash collisions are left for the caller to filter.
  Status ScanTermIds(uint64_t term, PostingIds* out) const;

  /// Scans every posting in (term, identifier) key order — the fsck
  /// coverage checks walk this.
  Status ScanAll(const std::function<bool(const BPlusTree::Key& key,
                                          uint64_t term,
                                          const core::Ruid2Id& id,
                                          uint64_t location)>& fn) const;

  uint64_t entry_count() const { return tree_.entry_count(); }
  uint32_t root_page() const { return tree_.root_page(); }
  Status CollectPages(std::unordered_set<uint32_t>* pages) const {
    return tree_.CollectPages(pages);
  }
  Status Validate() const { return tree_.Validate(); }
  /// Leaf-page compression accounting of the posting tree.
  Status ComputeLeafStats(BPlusTree::LeafStats* stats) const {
    return tree_.ComputeLeafStats(stats);
  }

 private:
  explicit SecondaryIndex(BPlusTree tree) : tree_(std::move(tree)) {}

  BPlusTree tree_;
};

}  // namespace storage
}  // namespace ruidx

#endif  // RUIDX_STORAGE_SECONDARY_INDEX_H_
