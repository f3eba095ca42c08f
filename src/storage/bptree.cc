#include "storage/bptree.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <utility>
#include <vector>

#include "storage/leaf_codec.h"

namespace ruidx {
namespace storage {

namespace {

// Page layout. Common header:
//   [0] u8  is_leaf
//   [1] u8  reserved
//   [2] u16 count
// Leaf:      [4] u32 next_leaf, [8] u32 prev_leaf,
//            entries at 12: count * (key + u64 value)
// Internal:  [4] u32 child0,    [8] u32 reserved,
//            entries at 12: count * (key + u32 child)
// Internal semantics: entry i holds the smallest key of child i+1. The leaf
// chain is doubly linked so an emptied leaf can be unlinked (and its page
// reclaimed) without a second descent. Entries stay inside kPageUsableSize;
// the page trailer belongs to the buffer pool.
constexpr size_t kHeader = 12;
constexpr size_t kLeafEntry = BPlusTree::kKeySize + 8;
constexpr size_t kInnerEntry = BPlusTree::kKeySize + 4;
constexpr uint16_t kLeafCapacity =
    static_cast<uint16_t>((kPageUsableSize - kHeader) / kLeafEntry);
constexpr uint16_t kInnerCapacity =
    static_cast<uint16_t>((kPageUsableSize - kHeader) / kInnerEntry);
// BulkLoadSorted fills each leaf to 7/8 of a page in either format, so the
// first inserts after a load land in free space instead of splitting every
// leaf they touch (PostgreSQL's nbtree builds leave 10% free for the same
// reason).
constexpr size_t kBulkLeafBytes = size_t{kPageUsableSize} * 7 / 8;
constexpr size_t kBulkLeafLegacyCount = (kBulkLeafBytes - kHeader) / kLeafEntry;

bool IsLeaf(const uint8_t* page) { return page[0] == 1; }
void SetLeaf(uint8_t* page, bool leaf) { page[0] = leaf ? 1 : 0; }

uint16_t Count(const uint8_t* page) {
  uint16_t v;
  std::memcpy(&v, page + 2, 2);
  return v;
}
void SetCount(uint8_t* page, uint16_t v) { std::memcpy(page + 2, &v, 2); }

uint32_t Link(const uint8_t* page) {  // next_leaf or child0
  uint32_t v;
  std::memcpy(&v, page + 4, 4);
  return v;
}
void SetLink(uint8_t* page, uint32_t v) { std::memcpy(page + 4, &v, 4); }

uint32_t Prev(const uint8_t* page) {  // previous leaf in the chain
  uint32_t v;
  std::memcpy(&v, page + 8, 4);
  return v;
}
void SetPrev(uint8_t* page, uint32_t v) { std::memcpy(page + 8, &v, 4); }

uint8_t* LeafEntry(uint8_t* page, size_t i) {
  return page + kHeader + i * kLeafEntry;
}
const uint8_t* LeafEntry(const uint8_t* page, size_t i) {
  return page + kHeader + i * kLeafEntry;
}
uint8_t* InnerEntry(uint8_t* page, size_t i) {
  return page + kHeader + i * kInnerEntry;
}
const uint8_t* InnerEntry(const uint8_t* page, size_t i) {
  return page + kHeader + i * kInnerEntry;
}

void ReadKey(const uint8_t* entry, BPlusTree::Key* key) {
  std::memcpy(key->data(), entry, BPlusTree::kKeySize);
}
int CompareKey(const uint8_t* entry, const BPlusTree::Key& key) {
  return std::memcmp(entry, key.data(), BPlusTree::kKeySize);
}

uint64_t LeafValue(const uint8_t* page, size_t i) {
  uint64_t v;
  std::memcpy(&v, LeafEntry(page, i) + BPlusTree::kKeySize, 8);
  return v;
}
uint32_t InnerChild(const uint8_t* page, size_t i) {
  // child i: i == 0 -> header link; else entry i-1's child field.
  if (i == 0) return Link(page);
  uint32_t v;
  std::memcpy(&v, InnerEntry(page, i - 1) + BPlusTree::kKeySize, 4);
  return v;
}

/// Index of the first leaf entry >= key, or count.
size_t LeafLowerBound(const uint8_t* page, const BPlusTree::Key& key) {
  size_t lo = 0, hi = Count(page);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (CompareKey(LeafEntry(page, mid), key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Leaf pages self-describe their format (header byte [1]): legacy
// fixed-width slots and compressed v2 pages coexist in one tree, so the
// accessors below dispatch per page. Internal nodes have one format.

void LeafKeyAt(const uint8_t* page, size_t i, BPlusTree::Key* key) {
  if (leaf::IsCompressed(page)) {
    leaf::KeyAt(page, i, key);
  } else {
    ReadKey(LeafEntry(page, i), key);
  }
}

uint64_t LeafValueAt(const uint8_t* page, size_t i) {
  return leaf::IsCompressed(page) ? leaf::ValueAt(page, i)
                                  : LeafValue(page, i);
}

/// First slot with key >= `key` in either leaf format; *exact on equality.
size_t LeafSearch(const uint8_t* page, const BPlusTree::Key& key,
                  bool* exact) {
  if (leaf::IsCompressed(page)) return leaf::LowerBound(page, key, exact);
  size_t idx = LeafLowerBound(page, key);
  *exact = idx < Count(page) && CompareKey(LeafEntry(page, idx), key) == 0;
  return idx;
}

/// Writes `n` entries as one leaf page in the requested format. False when
/// they do not fit (the caller splits further).
bool WriteLeafPage(uint8_t* frame, const leaf::Entry* entries, size_t n,
                   uint32_t next, uint32_t prev, bool compressed) {
  if (compressed) return leaf::BuildLeaf(frame, entries, n, next, prev);
  if (n > kLeafCapacity) return false;
  SetLeaf(frame, true);
  frame[1] = leaf::kLeafFormatLegacy;  // frame may be a rebuilt v2 page
  SetCount(frame, static_cast<uint16_t>(n));
  SetLink(frame, next);
  SetPrev(frame, prev);
  for (size_t i = 0; i < n; ++i) {
    uint8_t* e = LeafEntry(frame, i);
    std::memcpy(e, entries[i].key.data(), BPlusTree::kKeySize);
    std::memcpy(e + BPlusTree::kKeySize, &entries[i].value, 8);
  }
  return true;
}

/// Child slot to descend into for `key`.
size_t InnerChildIndex(const uint8_t* page, const BPlusTree::Key& key) {
  size_t lo = 0, hi = Count(page);
  // Find the first separator > key; descend into that child slot.
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (CompareKey(InnerEntry(page, mid), key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

Result<BPlusTree> BPlusTree::Create(PageIo* pool) {
  uint8_t* frame = nullptr;
  RUIDX_ASSIGN_OR_RETURN(uint32_t root, pool->AllocatePinned(&frame));
  WriteLeafPage(frame, nullptr, 0, kInvalidPage, kInvalidPage,
                LeafCompressionEnabled());
  pool->Unpin(root, /*dirty=*/true);
  return BPlusTree(pool, root);
}

BPlusTree BPlusTree::Attach(PageIo* pool, uint32_t root_page,
                            uint64_t entry_count) {
  BPlusTree tree(pool, root_page);
  tree.entry_count_ = entry_count;
  return tree;
}

Result<uint32_t> BPlusTree::FindLeaf(const Key& key) const {
  uint32_t page_id = root_page_;
  for (;;) {
    RUIDX_ASSIGN_OR_RETURN(uint8_t* page, pool_->Fetch(page_id));
    if (IsLeaf(page)) {
      pool_->Unpin(page_id, false);
      return page_id;
    }
    size_t slot = InnerChildIndex(page, key);
    uint32_t child = InnerChild(page, slot);
    pool_->Unpin(page_id, false);
    page_id = child;
  }
}

Result<uint64_t> BPlusTree::Get(const Key& key) const {
  RUIDX_ASSIGN_OR_RETURN(uint32_t leaf_id, FindLeaf(key));
  RUIDX_ASSIGN_OR_RETURN(uint8_t* page, pool_->Fetch(leaf_id));
  bool exact = false;
  size_t idx = LeafSearch(page, key, &exact);
  if (exact) {
    uint64_t value = LeafValueAt(page, idx);
    pool_->Unpin(leaf_id, false);
    return value;
  }
  pool_->Unpin(leaf_id, false);
  return Status::NotFound("key not in tree");
}

Result<BPlusTree::SplitResult> BPlusTree::InsertRec(uint32_t page_id,
                                                    const Key& key,
                                                    uint64_t value,
                                                    bool* inserted) {
  RUIDX_ASSIGN_OR_RETURN(uint8_t* page, pool_->Fetch(page_id));
  if (IsLeaf(page)) {
    bool exact = false;
    size_t idx = LeafSearch(page, key, &exact);
    uint16_t count = Count(page);
    if (exact) {
      if (leaf::IsCompressed(page)) {
        leaf::SetValueAt(page, idx, value);  // key bytes stay put
      } else {
        std::memcpy(LeafEntry(page, idx) + kKeySize, &value, 8);
      }
      *inserted = false;
      pool_->Unpin(page_id, true);
      return SplitResult{};
    }
    *inserted = true;
    if (leaf::IsCompressed(page)) {
      if (leaf::InsertAt(page, idx, key, value) ==
          leaf::InsertOutcome::kDone) {
        pool_->Unpin(page_id, true);
        return SplitResult{};
      }
      // The run-local insert declined (prefix mismatch, overlong run, or no
      // room): re-encode the whole page, and only if even that cannot host
      // the new entry, split.
      std::vector<leaf::Entry> all;
      leaf::DecodeAll(page, &all);
      all.insert(all.begin() + idx, leaf::Entry{key, value});
      if (leaf::BuildLeaf(page, all.data(), all.size(), Link(page),
                          Prev(page))) {
        pool_->Unpin(page_id, true);
        return SplitResult{};
      }
      // A compressed source must split compressed: its halves are strict
      // subsets of a page that fit, plus one 33-byte key — guaranteed room.
      return SplitLeaf(page_id, page, std::move(all), /*compressed=*/true);
    }
    if (count < kLeafCapacity) {
      std::memmove(LeafEntry(page, idx + 1), LeafEntry(page, idx),
                   (count - idx) * kLeafEntry);
      std::memcpy(LeafEntry(page, idx), key.data(), kKeySize);
      std::memcpy(LeafEntry(page, idx) + kKeySize, &value, 8);
      SetCount(page, count + 1);
      pool_->Unpin(page_id, true);
      return SplitResult{};
    }
    // A full legacy leaf splits into the current output format — with
    // compression on, old pages convert lazily as they overflow.
    std::vector<leaf::Entry> all;
    all.reserve(count + 1);
    for (size_t i = 0; i < count; ++i) {
      leaf::Entry e;
      ReadKey(LeafEntry(page, i), &e.key);
      e.value = LeafValue(page, i);
      all.push_back(e);
    }
    all.insert(all.begin() + idx, leaf::Entry{key, value});
    return SplitLeaf(page_id, page, std::move(all),
                     LeafCompressionEnabled());
  }

  // Internal node.
  size_t slot = InnerChildIndex(page, key);
  uint32_t child = InnerChild(page, slot);
  pool_->Unpin(page_id, false);  // release during recursion (no re-entry)
  RUIDX_ASSIGN_OR_RETURN(SplitResult child_split,
                         InsertRec(child, key, value, inserted));
  if (!child_split.split) return SplitResult{};

  RUIDX_ASSIGN_OR_RETURN(page, pool_->Fetch(page_id));
  uint16_t count = Count(page);
  if (count < kInnerCapacity) {
    std::memmove(InnerEntry(page, slot + 1), InnerEntry(page, slot),
                 (count - slot) * kInnerEntry);
    std::memcpy(InnerEntry(page, slot), child_split.separator.data(),
                kKeySize);
    std::memcpy(InnerEntry(page, slot) + kKeySize, &child_split.right_page, 4);
    SetCount(page, count + 1);
    pool_->Unpin(page_id, true);
    return SplitResult{};
  }
  // Split this internal node. Build the full entry list in a scratch
  // buffer, then redistribute around the middle separator (pushed up).
  std::vector<uint8_t> scratch((count + 1) * kInnerEntry);
  std::memcpy(scratch.data(), InnerEntry(page, 0), slot * kInnerEntry);
  std::memcpy(scratch.data() + slot * kInnerEntry,
              child_split.separator.data(), kKeySize);
  std::memcpy(scratch.data() + slot * kInnerEntry + kKeySize,
              &child_split.right_page, 4);
  std::memcpy(scratch.data() + (slot + 1) * kInnerEntry, InnerEntry(page, slot),
              (count - slot) * kInnerEntry);
  uint16_t total = count + 1;
  uint16_t mid = total / 2;  // entry pushed up

  uint8_t* right = nullptr;
  auto right_id_result = pool_->AllocatePinned(&right);
  if (!right_id_result.ok()) {
    pool_->Unpin(page_id, false);
    return right_id_result.status();
  }
  uint32_t right_id = *right_id_result;
  SetLeaf(right, false);
  // Left keeps entries [0, mid); right gets entries (mid, total) with its
  // child0 = the pushed-up entry's child.
  SetCount(page, mid);
  std::memcpy(InnerEntry(page, 0), scratch.data(), mid * kInnerEntry);
  uint32_t up_child;
  std::memcpy(&up_child, scratch.data() + mid * kInnerEntry + kKeySize, 4);
  SetLink(right, up_child);
  uint16_t right_count = total - mid - 1;
  SetCount(right, right_count);
  std::memcpy(InnerEntry(right, 0),
              scratch.data() + (mid + 1) * kInnerEntry,
              right_count * kInnerEntry);

  SplitResult split;
  split.split = true;
  std::memcpy(split.separator.data(), scratch.data() + mid * kInnerEntry,
              kKeySize);
  split.right_page = right_id;
  pool_->Unpin(page_id, true);
  pool_->Unpin(right_id, true);
  return split;
}

Result<BPlusTree::SplitResult> BPlusTree::SplitLeaf(
    uint32_t page_id, uint8_t* page, std::vector<leaf::Entry> all,
    bool compressed) {
  uint8_t* right = nullptr;
  auto right_id_result = pool_->AllocatePinned(&right);
  if (!right_id_result.ok()) {
    pool_->Unpin(page_id, false);
    return right_id_result.status();
  }
  uint32_t right_id = *right_id_result;
  size_t keep = all.size() / 2;
  uint32_t old_next = Link(page);
  uint32_t old_prev = Prev(page);
  if (!WriteLeafPage(right, all.data() + keep, all.size() - keep, old_next,
                     page_id, compressed) ||
      !WriteLeafPage(page, all.data(), keep, right_id, old_prev,
                     compressed)) {
    pool_->Unpin(page_id, true);
    pool_->Unpin(right_id, true);
    return Status::Corruption("leaf split half does not fit a page");
  }
  if (old_next != kInvalidPage) {
    // Keep the chain doubly linked: the old successor's prev moves to the
    // new right sibling.
    auto next_page = pool_->Fetch(old_next);
    if (!next_page.ok()) {
      pool_->Unpin(page_id, true);
      pool_->Unpin(right_id, true);
      return next_page.status();
    }
    SetPrev(*next_page, right_id);
    pool_->Unpin(old_next, true);
  }
  SplitResult split;
  split.split = true;
  split.separator = all[keep].key;
  split.right_page = right_id;
  pool_->Unpin(page_id, true);
  pool_->Unpin(right_id, true);
  return split;
}

Status BPlusTree::Insert(const Key& key, uint64_t value) {
  bool inserted = false;
  RUIDX_ASSIGN_OR_RETURN(SplitResult split,
                         InsertRec(root_page_, key, value, &inserted));
  if (inserted) ++entry_count_;
  if (!split.split) return Status::OK();
  // Grow a new root.
  uint8_t* frame = nullptr;
  RUIDX_ASSIGN_OR_RETURN(uint32_t new_root, pool_->AllocatePinned(&frame));
  SetLeaf(frame, false);
  SetCount(frame, 1);
  SetLink(frame, root_page_);
  std::memcpy(InnerEntry(frame, 0), split.separator.data(), kKeySize);
  std::memcpy(InnerEntry(frame, 0) + kKeySize, &split.right_page, 4);
  pool_->Unpin(new_root, true);
  root_page_ = new_root;
  return Status::OK();
}

Status BPlusTree::Erase(const Key& key) {
  // Descend, recording the ancestor chain so an emptied leaf can be
  // removed from its parents without a second search.
  std::vector<std::pair<uint32_t, size_t>> path;  // (internal page, slot)
  uint32_t leaf_id = root_page_;
  for (;;) {
    RUIDX_ASSIGN_OR_RETURN(uint8_t* node, pool_->Fetch(leaf_id));
    if (IsLeaf(node)) {
      pool_->Unpin(leaf_id, false);
      break;
    }
    size_t slot = InnerChildIndex(node, key);
    uint32_t child = InnerChild(node, slot);
    pool_->Unpin(leaf_id, false);
    path.emplace_back(leaf_id, slot);
    leaf_id = child;
  }
  RUIDX_ASSIGN_OR_RETURN(uint8_t* page, pool_->Fetch(leaf_id));
  bool exact = false;
  size_t idx = LeafSearch(page, key, &exact);
  uint16_t count = Count(page);
  if (!exact) {
    pool_->Unpin(leaf_id, false);
    return Status::NotFound("key not in tree");
  }
  if (leaf::IsCompressed(page)) {
    // Run-local removal: only the touched run's bytes and the restart
    // directory move; other runs are untouched.
    leaf::EraseAt(page, idx);
  } else {
    std::memmove(LeafEntry(page, idx), LeafEntry(page, idx + 1),
                 (count - idx - 1) * kLeafEntry);
    SetCount(page, count - 1);
  }
  --entry_count_;
  if (count - 1 > 0 || path.empty()) {
    pool_->Unpin(leaf_id, true);
    return Status::OK();
  }
  // The leaf is empty and is not the root: unlink it from the leaf chain,
  // reclaim its page, and drop its slot from the ancestors.
  uint32_t prev = Prev(page);
  uint32_t next = Link(page);
  pool_->Unpin(leaf_id, true);
  if (prev != kInvalidPage) {
    RUIDX_ASSIGN_OR_RETURN(uint8_t* p, pool_->Fetch(prev));
    SetLink(p, next);
    pool_->Unpin(prev, true);
  }
  if (next != kInvalidPage) {
    RUIDX_ASSIGN_OR_RETURN(uint8_t* n, pool_->Fetch(next));
    SetPrev(n, prev);
    pool_->Unpin(next, true);
  }
  RUIDX_RETURN_NOT_OK(pool_->FreePage(leaf_id));
  // Remove the freed child from its parent. A parent whose only child was
  // freed becomes childless: free it too and continue up the path.
  while (!path.empty()) {
    auto [parent_id, slot] = path.back();
    path.pop_back();
    RUIDX_ASSIGN_OR_RETURN(uint8_t* parent, pool_->Fetch(parent_id));
    uint16_t pcount = Count(parent);
    if (slot == 0 && pcount == 0) {
      if (path.empty()) {
        // The root lost its last child: the tree is empty again — turn the
        // root back into an empty leaf (the root page id never changes
        // here, so the meta page stays valid).
        SetLeaf(parent, true);
        SetCount(parent, 0);
        SetLink(parent, kInvalidPage);
        SetPrev(parent, kInvalidPage);
        pool_->Unpin(parent_id, true);
        return Status::OK();
      }
      pool_->Unpin(parent_id, false);
      RUIDX_RETURN_NOT_OK(pool_->FreePage(parent_id));
      continue;
    }
    if (slot == 0) {
      // child0 gone: promote child 1 into the header link, shift entries.
      SetLink(parent, InnerChild(parent, 1));
      std::memmove(InnerEntry(parent, 0), InnerEntry(parent, 1),
                   (pcount - 1) * kInnerEntry);
    } else {
      // Entry slot-1 carried the freed child and its separator.
      std::memmove(InnerEntry(parent, slot - 1), InnerEntry(parent, slot),
                   (pcount - slot) * kInnerEntry);
    }
    SetCount(parent, pcount - 1);
    pool_->Unpin(parent_id, true);
    break;
  }
  // Collapse trivial roots: an internal root left with a single child
  // hands the root role down and frees itself.
  for (;;) {
    RUIDX_ASSIGN_OR_RETURN(uint8_t* root, pool_->Fetch(root_page_));
    if (IsLeaf(root) || Count(root) > 0) {
      pool_->Unpin(root_page_, false);
      break;
    }
    uint32_t only_child = InnerChild(root, 0);
    pool_->Unpin(root_page_, false);
    uint32_t old_root = root_page_;
    root_page_ = only_child;
    RUIDX_RETURN_NOT_OK(pool_->FreePage(old_root));
  }
  return Status::OK();
}

Status BPlusTree::BulkLoadSorted(const std::vector<Entry>& entries) {
  {
    RUIDX_ASSIGN_OR_RETURN(uint8_t* root, pool_->Fetch(root_page_));
    bool empty = IsLeaf(root) && Count(root) == 0;
    pool_->Unpin(root_page_, false);
    if (!empty || entry_count_ != 0) {
      return Status::InvalidArgument(
          "BulkLoadSorted requires an empty tree; use Insert");
    }
  }
  if (entries.empty()) return Status::OK();
  for (size_t i = 1; i < entries.size(); ++i) {
    if (!(entries[i - 1].key < entries[i].key)) {
      return Status::InvalidArgument(
          "BulkLoadSorted input must be strictly ascending");
    }
  }
  struct NodeRef {
    Key first_key;  // smallest key in the subtree
    uint32_t page;
  };
  std::vector<NodeRef> level;
  level.reserve(entries.size() / kBulkLeafLegacyCount + 1);
  // Leaf pass: fill leaves to kBulkLeafBytes in key order. The previous leaf
  // stays pinned until its successor exists so the chain is stitched with
  // each page touched exactly once. The empty root page becomes the first
  // leaf (a single-leaf result then keeps the root id unchanged). With
  // compression on, each page takes as many entries as encode into the
  // budget, emitting compressed pages directly.
  const bool compress = LeafCompressionEnabled();
  uint32_t prev_leaf = kInvalidPage;
  uint8_t* prev_frame = nullptr;
  size_t i = 0;
  while (i < entries.size()) {
    size_t take =
        compress ? leaf::MaxLeafTake(entries.data(), i, entries.size(),
                                     kBulkLeafBytes)
                 : std::min(kBulkLeafLegacyCount, entries.size() - i);
    uint32_t page_id;
    uint8_t* frame = nullptr;
    if (prev_leaf == kInvalidPage) {
      page_id = root_page_;
      auto fetched = pool_->Fetch(page_id);
      if (!fetched.ok()) return fetched.status();
      frame = *fetched;
    } else {
      auto allocated = pool_->AllocatePinned(&frame);
      if (!allocated.ok()) {
        pool_->Unpin(prev_leaf, true);
        return allocated.status();
      }
      page_id = *allocated;
    }
    if (!WriteLeafPage(frame, entries.data() + i, take, kInvalidPage,
                       prev_leaf, compress)) {
      if (prev_leaf != kInvalidPage) pool_->Unpin(prev_leaf, true);
      pool_->Unpin(page_id, false);
      return Status::Corruption("bulk-load chunk does not fit a page");
    }
    if (prev_leaf != kInvalidPage) {
      SetLink(prev_frame, page_id);
      pool_->Unpin(prev_leaf, true);
    }
    level.push_back(NodeRef{entries[i].key, page_id});
    prev_leaf = page_id;
    prev_frame = frame;
    i += take;
  }
  pool_->Unpin(prev_leaf, true);
  // Internal passes, bottom-up: each node takes up to kInnerCapacity+1
  // children; entry c-1 holds the smallest key of child c (the established
  // internal-node semantics).
  std::vector<NodeRef> next_level;
  while (level.size() > 1) {
    next_level.clear();
    const size_t max_children = static_cast<size_t>(kInnerCapacity) + 1;
    size_t idx = 0;
    while (idx < level.size()) {
      size_t take = std::min(max_children, level.size() - idx);
      // A node needs >= 2 children to carry a separator; borrow one from a
      // full chunk rather than leaving a single-child straggler.
      if (level.size() - idx - take == 1) --take;
      uint8_t* frame = nullptr;
      auto allocated = pool_->AllocatePinned(&frame);
      if (!allocated.ok()) return allocated.status();
      uint32_t page_id = *allocated;
      SetLeaf(frame, false);
      SetCount(frame, static_cast<uint16_t>(take - 1));
      SetLink(frame, level[idx].page);  // child0
      for (size_t c = 1; c < take; ++c) {
        uint8_t* entry = InnerEntry(frame, c - 1);
        std::memcpy(entry, level[idx + c].first_key.data(), kKeySize);
        std::memcpy(entry + kKeySize, &level[idx + c].page, 4);
      }
      pool_->Unpin(page_id, true);
      next_level.push_back(NodeRef{level[idx].first_key, page_id});
      idx += take;
    }
    level.swap(next_level);
  }
  root_page_ = level[0].page;
  entry_count_ = entries.size();
  return Status::OK();
}

Status BPlusTree::Scan(
    const Key& lo, const Key& hi,
    const std::function<bool(const Key&, uint64_t)>& fn) const {
  RUIDX_ASSIGN_OR_RETURN(uint32_t leaf_id, FindLeaf(lo));
  while (leaf_id != kInvalidPage) {
    RUIDX_ASSIGN_OR_RETURN(uint8_t* page, pool_->Fetch(leaf_id));
    // Leaf-chain read-ahead: let the flusher thread pull the successor in
    // while this leaf is consumed (no-op on pools without a flusher).
    {
      uint32_t ahead = Link(page);
      if (ahead != kInvalidPage) pool_->Prefetch(ahead);
    }
    bool stop = false;
    if (leaf::IsCompressed(page)) {
      bool exact = false;
      size_t start = leaf::LowerBound(page, lo, &exact);
      leaf::ForEachEntry(page, [&](size_t i, const Key& key, uint64_t value) {
        if (i < start) return true;
        if (std::memcmp(key.data(), hi.data(), kKeySize) > 0 ||
            !fn(key, value)) {
          stop = true;
          return false;
        }
        return true;
      });
    } else {
      uint16_t count = Count(page);
      for (size_t i = LeafLowerBound(page, lo); i < count; ++i) {
        Key key;
        ReadKey(LeafEntry(page, i), &key);
        if (std::memcmp(key.data(), hi.data(), kKeySize) > 0 ||
            !fn(key, LeafValue(page, i))) {
          stop = true;
          break;
        }
      }
    }
    if (stop) {
      pool_->Unpin(leaf_id, false);
      return Status::OK();
    }
    uint32_t next = Link(page);
    pool_->Unpin(leaf_id, false);
    leaf_id = next;
  }
  return Status::OK();
}

Status BPlusTree::Validate() const {
  // Recursive descent with explicit bounds; uses an explicit stack.
  struct Frame {
    uint32_t page_id;
    bool has_lo = false;
    Key lo{};  // inclusive lower bound for every key in the subtree
    bool has_hi = false;
    Key hi{};  // exclusive upper bound
  };
  uint64_t leaf_entries = 0;
  std::unordered_set<uint32_t> leaf_pages;
  std::vector<Frame> stack{{root_page_, false, {}, false, {}}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    RUIDX_ASSIGN_OR_RETURN(uint8_t* page, pool_->Fetch(f.page_id));
    uint16_t count = Count(page);
    bool leaf_node = IsLeaf(page);
    Status status = Status::OK();
    if (leaf_node && leaf::IsCompressed(page)) {
      // The codec invariants subsume in-page ordering; only the subtree
      // bounds remain to check here.
      status = leaf::ValidateLeaf(page);
      if (!status.ok()) {
        status = Status::Corruption(status.message() + " in page " +
                                    std::to_string(f.page_id));
      }
    }
    Key prev_key{}, cur_key{};
    for (size_t i = 0; i < count && status.ok(); ++i) {
      if (leaf_node) {
        LeafKeyAt(page, i, &cur_key);
      } else {
        ReadKey(InnerEntry(page, i), &cur_key);
      }
      if (i > 0 &&
          std::memcmp(prev_key.data(), cur_key.data(), kKeySize) >= 0) {
        status = Status::Corruption("keys out of order in page " +
                                    std::to_string(f.page_id));
      }
      if (f.has_lo &&
          std::memcmp(cur_key.data(), f.lo.data(), kKeySize) < 0) {
        status = Status::Corruption("key below lower bound in page " +
                                    std::to_string(f.page_id));
      }
      if (f.has_hi &&
          std::memcmp(cur_key.data(), f.hi.data(), kKeySize) >= 0) {
        status = Status::Corruption("key above upper bound in page " +
                                    std::to_string(f.page_id));
      }
      prev_key = cur_key;
    }
    if (status.ok() && leaf_node) {
      leaf_entries += count;
      leaf_pages.insert(f.page_id);
    } else if (status.ok()) {
      // Push children with narrowed bounds: child i spans [key[i-1], key[i]).
      for (size_t i = 0; i <= count; ++i) {
        Frame child;
        child.page_id = InnerChild(page, i);
        child.has_lo = f.has_lo || i > 0;
        if (i > 0) {
          ReadKey(InnerEntry(page, i - 1), &child.lo);
        } else {
          child.lo = f.lo;
        }
        child.has_hi = f.has_hi || i < count;
        if (i < count) {
          ReadKey(InnerEntry(page, i), &child.hi);
        } else {
          child.hi = f.hi;
        }
        stack.push_back(child);
      }
    }
    pool_->Unpin(f.page_id, false);
    RUIDX_RETURN_NOT_OK(status);
  }
  if (leaf_entries != entry_count_) {
    return Status::Corruption(
        "entry count mismatch: leaves hold " + std::to_string(leaf_entries) +
        ", tree believes " + std::to_string(entry_count_));
  }
  // The doubly-linked leaf chain must visit exactly the leaves reachable
  // from the root, with consistent back links (an unlink bug would leave a
  // freed page threaded in, or orphan a live leaf).
  uint32_t chain = root_page_;
  for (;;) {
    RUIDX_ASSIGN_OR_RETURN(uint8_t* page, pool_->Fetch(chain));
    bool leaf = IsLeaf(page);
    uint32_t child = leaf ? kInvalidPage : InnerChild(page, 0);
    pool_->Unpin(chain, false);
    if (leaf) break;
    chain = child;
  }
  uint32_t expect_prev = kInvalidPage;
  size_t visited = 0;
  while (chain != kInvalidPage) {
    RUIDX_ASSIGN_OR_RETURN(uint8_t* page, pool_->Fetch(chain));
    Status status = Status::OK();
    if (!IsLeaf(page)) {
      status = Status::Corruption("leaf chain reaches non-leaf page " +
                                  std::to_string(chain));
    } else if (leaf_pages.count(chain) == 0) {
      status = Status::Corruption("leaf chain visits unreachable page " +
                                  std::to_string(chain));
    } else if (Prev(page) != expect_prev) {
      status = Status::Corruption("broken prev link at leaf page " +
                                  std::to_string(chain));
    }
    uint32_t next = Link(page);
    pool_->Unpin(chain, false);
    RUIDX_RETURN_NOT_OK(status);
    if (++visited > leaf_pages.size()) {
      return Status::Corruption("leaf chain cycle");
    }
    expect_prev = chain;
    chain = next;
  }
  if (visited != leaf_pages.size()) {
    return Status::Corruption(
        "leaf chain visits " + std::to_string(visited) + " of " +
        std::to_string(leaf_pages.size()) + " reachable leaves");
  }
  return Status::OK();
}

Status BPlusTree::CollectPages(std::unordered_set<uint32_t>* pages) const {
  std::vector<uint32_t> stack{root_page_};
  while (!stack.empty()) {
    uint32_t page_id = stack.back();
    stack.pop_back();
    if (!pages->insert(page_id).second) {
      return Status::Corruption("page " + std::to_string(page_id) +
                                " reachable twice from the index root");
    }
    RUIDX_ASSIGN_OR_RETURN(uint8_t* page, pool_->Fetch(page_id));
    if (!IsLeaf(page)) {
      uint16_t count = Count(page);
      for (size_t i = 0; i <= count; ++i) stack.push_back(InnerChild(page, i));
    }
    pool_->Unpin(page_id, false);
  }
  return Status::OK();
}

Status BPlusTree::ComputeLeafStats(LeafStats* stats) const {
  *stats = LeafStats{};
  stats->run_length_histogram.assign(leaf::kMaxRunLength + 1, 0);
  // Descend to the leftmost leaf, then walk the chain.
  uint32_t page_id = root_page_;
  for (;;) {
    RUIDX_ASSIGN_OR_RETURN(uint8_t* page, pool_->Fetch(page_id));
    bool leaf_node = IsLeaf(page);
    uint32_t child = leaf_node ? kInvalidPage : InnerChild(page, 0);
    pool_->Unpin(page_id, false);
    if (leaf_node) break;
    page_id = child;
  }
  while (page_id != kInvalidPage) {
    RUIDX_ASSIGN_OR_RETURN(uint8_t* page, pool_->Fetch(page_id));
    ++stats->leaf_pages;
    if (leaf::IsCompressed(page)) {
      ++stats->compressed_pages;
      leaf::PageStats ps;
      leaf::AccumulateStats(page, &ps);
      stats->entries += ps.entries;
      stats->key_bytes_stored += ps.key_bytes_stored;
      stats->key_bytes_raw += ps.key_bytes_raw;
      for (size_t len = 0; len < ps.run_length_histogram.size(); ++len) {
        stats->run_length_histogram[len] += ps.run_length_histogram[len];
      }
    } else {
      uint64_t count = Count(page);
      stats->entries += count;
      stats->key_bytes_stored += count * kKeySize;
      stats->key_bytes_raw += count * kKeySize;
    }
    uint32_t next = Link(page);
    pool_->Unpin(page_id, false);
    page_id = next;
  }
  return Status::OK();
}

Result<int> BPlusTree::Height() const {
  int height = 1;
  uint32_t page_id = root_page_;
  for (;;) {
    RUIDX_ASSIGN_OR_RETURN(uint8_t* page, pool_->Fetch(page_id));
    bool leaf = IsLeaf(page);
    uint32_t child = leaf ? kInvalidPage : InnerChild(page, 0);
    pool_->Unpin(page_id, false);
    if (leaf) return height;
    page_id = child;
    ++height;
  }
}

}  // namespace storage
}  // namespace ruidx
