// A disk-backed B+tree over fixed-width byte-string keys, built on the
// buffer pool. This is the index structure the element store keys by ruid
// identifiers — the paper's Sec. 4 points out that identifier-sorted
// storage ("sorted first by the global index, and then by local index")
// makes area-local operations cluster, which the benchmarks measure via
// the pool's hit/miss counters. Every leaf is a v2 page
// (storage/leaf_codec.h); a call that reads a leaf with any other format
// byte returns Corruption.
#ifndef RUIDX_STORAGE_BPTREE_H_
#define RUIDX_STORAGE_BPTREE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "storage/leaf_codec.h"
#include "storage/page_io.h"
#include "storage/pager.h"
#include "util/result.h"

namespace ruidx {
namespace storage {

class BPlusTree {
 public:
  /// 16-byte global index + 16-byte local index + root flag, big-endian, so
  /// bytewise comparison equals (global, local, flag) comparison.
  static constexpr size_t kKeySize = 33;
  using Key = std::array<uint8_t, kKeySize>;
  /// A (key, value) pair as the leaf codec stores it.
  using Entry = leaf::Entry;

  /// Creates an empty tree (allocates the root leaf).
  static Result<BPlusTree> Create(PageIo* pool);

  /// Attaches to an existing tree rooted at `root_page`. With a read-only
  /// PageIo (a Snapshot) the lookup/scan paths work and mutations fail.
  static BPlusTree Attach(PageIo* pool, uint32_t root_page,
                          uint64_t entry_count);

  /// Inserts or overwrites.
  Status Insert(const Key& key, uint64_t value);

  /// Builds the whole tree from `entries` (strictly ascending keys) into an
  /// EMPTY tree: leaves are filled back to back to 7/8 of a page with the
  /// doubly-linked chain stitched as they are laid down, then the internal
  /// levels are assembled bottom-up — no top-down descents, no splits, no
  /// page ever touched twice. InvalidArgument if the tree is non-empty or
  /// the input is not strictly ascending. Insert/Erase work normally on
  /// the result, and the free eighth absorbs the first inserts into each
  /// leaf without a split.
  Status BulkLoadSorted(const std::vector<Entry>& entries);

  /// Point lookup.
  Result<uint64_t> Get(const Key& key) const;

  /// Removes a key. A leaf emptied by the removal is unlinked from the
  /// (doubly-linked) leaf chain, dropped from its ancestors, and its page
  /// handed to the pool's free list for reuse; trivial single-child roots
  /// collapse. Delete-heavy storms therefore neither leak pages nor leave
  /// empty leaves for scans to wade through.
  Status Erase(const Key& key);

  /// In-order scan over [lo, hi] inclusive. Stop early by returning false
  /// from the callback.
  Status Scan(const Key& lo, const Key& hi,
              const std::function<bool(const Key&, uint64_t)>& fn) const;

  uint32_t root_page() const { return root_page_; }
  uint64_t entry_count() const { return entry_count_; }

  /// Tree height (1 = root is a leaf).
  Result<int> Height() const;

  /// Collects every page id reachable from the root (internal and leaf) —
  /// the on-disk verifier proves these are disjoint from the free list.
  Status CollectPages(std::unordered_set<uint32_t>* pages) const;

  /// Full structural check: keys sorted within every node, separator keys
  /// bound their subtrees, leaf chain in order, entry count consistent.
  /// Leaves additionally pass the codec's per-page invariants
  /// ([restart-point-order], [compressed-page-reconstruction]). Returns
  /// Corruption with a description on the first violation.
  Status Validate() const;

  /// Per-leaf compression accounting, aggregated over the leaf chain.
  /// key_bytes_stored counts what the pages actually spend on key material
  /// (prefix + per-slot headers and suffixes); key_bytes_raw is
  /// entries * kKeySize, so stored/raw is the compression ratio and
  /// entries/leaf_pages the average leaf fan-out.
  struct LeafStats {
    uint64_t leaf_pages = 0;
    uint64_t entries = 0;
    uint64_t key_bytes_stored = 0;
    uint64_t key_bytes_raw = 0;
    /// run_length_histogram[len] = number of restart runs of `len` entries
    /// across all leaves (index 0 unused).
    std::vector<uint64_t> run_length_histogram;
  };
  Status ComputeLeafStats(LeafStats* stats) const;

 private:
  BPlusTree(PageIo* pool, uint32_t root_page)
      : pool_(pool), root_page_(root_page) {}

  struct SplitResult {
    bool split = false;
    Key separator{};       // smallest key of the new right sibling
    uint32_t right_page = kInvalidPage;
  };

  Result<SplitResult> InsertRec(uint32_t page_id, const Key& key,
                                uint64_t value, bool* inserted);
  /// Splits the pinned leaf `page` into itself plus a new right sibling,
  /// redistributing `all` (the leaf's entries with the new one already
  /// spliced in) half-and-half and stitching the chain. Unpins `page_id` on
  /// every path.
  Result<SplitResult> SplitLeaf(uint32_t page_id, uint8_t* page,
                                std::vector<leaf::Entry> all);
  /// Descends to the leaf that may hold `key`.
  Result<uint32_t> FindLeaf(const Key& key) const;

  PageIo* pool_;
  uint32_t root_page_;
  uint64_t entry_count_ = 0;
};

}  // namespace storage
}  // namespace ruidx

#endif  // RUIDX_STORAGE_BPTREE_H_
