#include "storage/element_store.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/dcheck.h"

namespace ruidx {
namespace storage {

namespace {

// Heap page layout: [0] u16 slot_count, [2] u16 data_start (records grow
// down from kPageUsableSize — the trailer past it belongs to the buffer
// pool). Slot i is a u16 offset at 4 + 2*i; a record's length is implicit
// in its serialization.
constexpr size_t kHeapHeader = 4;

uint16_t SlotCount(const uint8_t* page) {
  uint16_t v;
  std::memcpy(&v, page, 2);
  return v;
}
void SetSlotCount(uint8_t* page, uint16_t v) { std::memcpy(page, &v, 2); }
uint16_t DataStart(const uint8_t* page) {
  uint16_t v;
  std::memcpy(&v, page + 2, 2);
  return v == 0 ? static_cast<uint16_t>(kPageUsableSize) : v;
}
void SetDataStart(uint8_t* page, uint16_t v) { std::memcpy(page + 2, &v, 2); }
uint16_t SlotOffset(const uint8_t* page, size_t i) {
  uint16_t v;
  std::memcpy(&v, page + kHeapHeader + 2 * i, 2);
  return v;
}
void SetSlotOffset(uint8_t* page, size_t i, uint16_t off) {
  std::memcpy(page + kHeapHeader + 2 * i, &off, 2);
}

size_t SerializedSize(const ElementRecord& record) {
  return 2 * BPlusTree::kKeySize + 1 + 8 + 2 + record.name.size() + 2 +
         record.value.size();
}

/// A record must fit one heap page beside the page header and its slot.
bool FitsHeapPage(const ElementRecord& record) {
  return SerializedSize(record) + kHeapHeader + 2 <= kPageUsableSize;
}

/// Bytewise key order, one big-endian word at a time (the byte swap, as in
/// the key codec below, assumes a little-endian host): the bulk load's three
/// sorts spend most of their time comparing keys.
bool EntryKeyLess(const BPlusTree::Entry& a, const BPlusTree::Entry& b) {
  for (size_t off = 0; off + 8 <= BPlusTree::kKeySize; off += 8) {
    uint64_t x, y;
    std::memcpy(&x, a.key.data() + off, 8);
    std::memcpy(&y, b.key.data() + off, 8);
    if (x != y) return __builtin_bswap64(x) < __builtin_bswap64(y);
  }
  return a.key[BPlusTree::kKeySize - 1] < b.key[BPlusTree::kKeySize - 1];
}

void WriteU16(uint8_t** cursor, uint16_t v) {
  std::memcpy(*cursor, &v, 2);
  *cursor += 2;
}
uint16_t ReadU16(const uint8_t** cursor) {
  uint16_t v;
  std::memcpy(&v, *cursor, 2);
  *cursor += 2;
  return v;
}

}  // namespace

namespace {

/// Writes `v` big-endian into out[0..15]. The key format is unchanged —
/// this is byte-for-byte what ToBytesBE produces for values up to two
/// words, without the per-byte loop. Covers every storable component (the
/// codec rejects anything past 128 bits).
inline void StoreU128KeyHalfBE(uint8_t* out, uint128_t v) {
  uint64_t hi_be = __builtin_bswap64(static_cast<uint64_t>(v >> 64));
  uint64_t lo_be = __builtin_bswap64(static_cast<uint64_t>(v));
  std::memcpy(out, &hi_be, 8);
  std::memcpy(out + 8, &lo_be, 8);
}

/// Reads a 16-byte big-endian key half with two byte swaps instead of 16
/// BigUint steps; single-word values (the common case) stay inline.
inline BigUint LoadKeyHalfBE(const uint8_t* in) {
  uint64_t hi_be, lo_be;
  std::memcpy(&hi_be, in, 8);
  std::memcpy(&lo_be, in + 8, 8);
  uint64_t hi = __builtin_bswap64(hi_be);
  uint64_t lo = __builtin_bswap64(lo_be);
  if (hi == 0) return BigUint(lo);
  return BigUint::FromUint128((static_cast<uint128_t>(hi) << 64) | lo);
}

}  // namespace

Result<BPlusTree::Key> EncodeIdKey(const core::Ruid2Id& id) {
  BPlusTree::Key key{};
  if (core::PackedFastPathEnabled() && id.global.FitsUint128() &&
      id.local.FitsUint128()) {
    StoreU128KeyHalfBE(key.data(), id.global.ToUint128());
    StoreU128KeyHalfBE(key.data() + 16, id.local.ToUint128());
    key[32] = id.is_area_root ? 1 : 0;
    return key;
  }
  if (!id.global.ToBytesBE(key.data(), 16)) {
    return Status::CapacityExceeded("global index exceeds 128 bits");
  }
  if (!id.local.ToBytesBE(key.data() + 16, 16)) {
    return Status::CapacityExceeded("local index exceeds 128 bits");
  }
  key[32] = id.is_area_root ? 1 : 0;
  return key;
}

core::Ruid2Id DecodeIdKey(const BPlusTree::Key& key) {
  core::Ruid2Id id;
  if (core::PackedFastPathEnabled()) {
    id.global = LoadKeyHalfBE(key.data());
    id.local = LoadKeyHalfBE(key.data() + 16);
  } else {
    id.global = BigUint::FromBytesBE(key.data(), 16);
    id.local = BigUint::FromBytesBE(key.data() + 16, 16);
  }
  id.is_area_root = key[32] != 0;
  return id;
}

namespace {
// Meta page (page 0) layout:
//   [0..4)   u32 magic
//   [4..8)   u32 index root page
//   [8..16)  u64 index entry count
//   [16..20) u32 current heap page
//   [20..24) u32 free-list head page
//   [24..32) u64 free-list length
//   [32..36) u32 name-index root page
//   [36..44) u64 name-index entry count
//   [44..48) u32 path-index root page
//   [48..56) u64 path-index entry count
// Leaf pages self-describe their format (plain or prefix-compressed) via
// their format byte. Earlier magics ("RXS3", "RXS4") marked a longer meta
// page with fields this layout dropped; no such stores were deployed, and
// Open and OpenSnapshot refuse them as Corruption.
constexpr uint32_t kMetaMagic = 0x52585335;  // "RXS5"
constexpr size_t kMetaSize = 56;

/// The sidecar journal lives next to the store file; anonymous temp-backed
/// stores get an anonymous temp journal.
std::string WalPathFor(const std::string& path) {
  return path.empty() ? std::string() : path + ".wal";
}
}  // namespace

namespace {

/// Decodes the record at `location` (page_id << 16 | slot) through any
/// PageIo — the live pool for ElementStore reads, a Snapshot for
/// StoreSnapshot reads. One body, so the two paths cannot drift.
Result<ElementRecord> ReadRecordVia(PageIo* io, uint64_t location) {
  uint32_t page_id = static_cast<uint32_t>(location >> 16);
  uint16_t slot = static_cast<uint16_t>(location & 0xFFFF);
  RUIDX_ASSIGN_OR_RETURN(uint8_t* page, io->Fetch(page_id));
  if (slot >= SlotCount(page)) {
    io->Unpin(page_id, false);
    return Status::Corruption("bad slot");
  }
  const uint8_t* cursor = page + SlotOffset(page, slot);
  ElementRecord record;
  BPlusTree::Key key;
  std::memcpy(key.data(), cursor, BPlusTree::kKeySize);
  cursor += BPlusTree::kKeySize;
  record.id = DecodeIdKey(key);
  std::memcpy(key.data(), cursor, BPlusTree::kKeySize);
  cursor += BPlusTree::kKeySize;
  record.parent_id = DecodeIdKey(key);
  record.node_type = *cursor++;
  std::memcpy(&record.path_term, cursor, 8);
  cursor += 8;
  uint16_t name_len = ReadU16(&cursor);
  record.name.assign(reinterpret_cast<const char*>(cursor), name_len);
  cursor += name_len;
  uint16_t value_len = ReadU16(&cursor);
  record.value.assign(reinterpret_cast<const char*>(cursor), value_len);
  io->Unpin(page_id, false);
  return record;
}

Status ScanAreaVia(BPlusTree* index, PageIo* io, const BigUint& global,
                   const std::function<bool(const ElementRecord&)>& fn) {
  // All locals, both flag values: [ (g,0,false), (g,2^128-1,true) ].
  BPlusTree::Key lo_key{};
  if (!global.ToBytesBE(lo_key.data(), 16)) {
    return Status::CapacityExceeded("global index exceeds 128 bits");
  }
  BPlusTree::Key hi_key = lo_key;
  std::memset(hi_key.data() + 16, 0xFF, 16);
  hi_key[32] = 1;
  Status status = Status::OK();
  RUIDX_RETURN_NOT_OK(index->Scan(
      lo_key, hi_key, [&](const BPlusTree::Key&, uint64_t location) {
        auto record = ReadRecordVia(io, location);
        if (!record.ok()) {
          status = record.status();
          return false;
        }
        return fn(*record);
      }));
  return status;
}

Status ScanAllVia(
    BPlusTree* index, PageIo* io,
    const std::function<bool(const BPlusTree::Key&, const ElementRecord&)>&
        fn) {
  BPlusTree::Key lo_key{};
  BPlusTree::Key hi_key;
  hi_key.fill(0xFF);
  Status status = Status::OK();
  RUIDX_RETURN_NOT_OK(index->Scan(
      lo_key, hi_key, [&](const BPlusTree::Key& key, uint64_t location) {
        auto record = ReadRecordVia(io, location);
        if (!record.ok()) {
          status = record.status();
          return false;
        }
        return fn(key, *record);
      }));
  return status;
}

Status ScanNameTermVia(SecondaryIndex* idx, PageIo* io, std::string_view name,
                       const std::function<bool(const ElementRecord&)>& fn) {
  Status status = Status::OK();
  RUIDX_RETURN_NOT_OK(idx->ScanTerm(
      HashNameTerm(name), [&](const core::Ruid2Id&, uint64_t location) {
        auto record = ReadRecordVia(io, location);
        if (!record.ok()) {
          status = record.status();
          return false;
        }
        if (record->name != name) return true;  // term-hash collision
        return fn(*record);
      }));
  return status;
}

Status ScanPathTermVia(SecondaryIndex* idx, PageIo* io, uint64_t term,
                       const std::function<bool(const ElementRecord&)>& fn) {
  Status status = Status::OK();
  RUIDX_RETURN_NOT_OK(idx->ScanTerm(
      term, [&](const core::Ruid2Id&, uint64_t location) {
        auto record = ReadRecordVia(io, location);
        if (!record.ok()) {
          status = record.status();
          return false;
        }
        if (record->path_term != term) return true;  // stale/collision guard
        return fn(*record);
      }));
  return status;
}

}  // namespace

Status ElementStore::WriteMeta() {
  uint8_t meta[kMetaSize];
  std::memset(meta, 0, sizeof(meta));
  std::memcpy(meta, &kMetaMagic, 4);
  uint32_t root = index_->root_page();
  std::memcpy(meta + 4, &root, 4);
  uint64_t count = index_->entry_count();
  std::memcpy(meta + 8, &count, 8);
  std::memcpy(meta + 16, &current_heap_page_, 4);
  uint32_t free_head = pool_->free_head();
  std::memcpy(meta + 20, &free_head, 4);
  uint64_t free_count = pool_->free_page_count();
  std::memcpy(meta + 24, &free_count, 8);
  uint32_t name_root = name_index_->root_page();
  std::memcpy(meta + 32, &name_root, 4);
  uint64_t name_count = name_index_->entry_count();
  std::memcpy(meta + 36, &name_count, 8);
  uint32_t path_root = path_index_->root_page();
  std::memcpy(meta + 44, &path_root, 4);
  uint64_t path_count = path_index_->entry_count();
  std::memcpy(meta + 48, &path_count, 8);
  RUIDX_ASSIGN_OR_RETURN(uint8_t* page, pool_->Fetch(0));
  // Only dirty (and so journal) the meta page when something changed —
  // a read-only Flush then commits nothing.
  bool changed = std::memcmp(page, meta, kMetaSize) != 0;
  if (changed) std::memcpy(page, meta, kMetaSize);
  pool_->Unpin(0, changed);
  return Status::OK();
}

Result<std::unique_ptr<ElementStore>> ElementStore::Create(
    const std::string& path, size_t buffer_pool_pages) {
  auto store = std::unique_ptr<ElementStore>(new ElementStore());
  auto injector = std::make_shared<IoFaultInjector>();
  RUIDX_ASSIGN_OR_RETURN(store->pager_,
                         Pager::Open(path, PagerOpenOptions{}, injector));
  RUIDX_ASSIGN_OR_RETURN(store->wal_,
                         WriteAheadLog::Open(WalPathFor(path), injector));
  if (store->wal_->recovery_plan().has_transaction ||
      store->wal_->recovery_plan().torn_tail) {
    // A fresh store must not inherit the journal of a deleted predecessor.
    RUIDX_RETURN_NOT_OK(store->wal_->Checkpoint());
  }
  store->pool_ =
      std::make_unique<BufferPool>(store->pager_.get(), buffer_pool_pages);
  store->pool_->AttachWal(store->wal_.get());
  store->pool_->StartBackgroundFlusher();
  // Reserve page 0 for the metadata header.
  uint8_t* meta = nullptr;
  RUIDX_ASSIGN_OR_RETURN(uint32_t meta_page, store->pool_->AllocatePinned(&meta));
  if (meta_page != 0) {
    return Status::Corruption("store file is not empty; use Open()");
  }
  store->pool_->Unpin(0, /*dirty=*/true);
  RUIDX_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::Create(store->pool_.get()));
  store->index_ = std::make_unique<BPlusTree>(std::move(tree));
  RUIDX_ASSIGN_OR_RETURN(SecondaryIndex name_index,
                         SecondaryIndex::Create(store->pool_.get()));
  store->name_index_ = std::make_unique<SecondaryIndex>(std::move(name_index));
  RUIDX_ASSIGN_OR_RETURN(SecondaryIndex path_index,
                         SecondaryIndex::Create(store->pool_.get()));
  store->path_index_ = std::make_unique<SecondaryIndex>(std::move(path_index));
  RUIDX_RETURN_NOT_OK(store->WriteMeta());
  return store;
}

Result<std::unique_ptr<ElementStore>> ElementStore::Open(
    const std::string& path, size_t buffer_pool_pages) {
  auto store = std::unique_ptr<ElementStore>(new ElementStore());
  auto injector = std::make_shared<IoFaultInjector>();
  RUIDX_ASSIGN_OR_RETURN(store->wal_,
                         WriteAheadLog::Open(WalPathFor(path), injector));
  const WriteAheadLog::RecoveryPlan& plan = store->wal_->recovery_plan();
  PagerOpenOptions options;
  // A torn final write in the main file is only acceptable when a journal
  // transaction is about to overwrite/truncate it; otherwise strict.
  options.zero_pad_partial_tail = plan.has_transaction;
  RUIDX_ASSIGN_OR_RETURN(store->pager_, Pager::Open(path, options, injector));
  if (plan.has_transaction) {
    // Roll back the uncommitted transaction: re-apply the journaled
    // pre-images (the committed content of every page the transaction
    // touched), truncate pages it appended, make it durable, and only
    // then drop the journal.
    for (const auto& [page_id, image] : plan.pre_images) {
      if (page_id >= plan.base_page_count) continue;  // truncated below
      RUIDX_RETURN_NOT_OK(
          store->pager_->WritePage(page_id, image.data()));  // NOLINT(wal-bypass)
    }
    if (store->pager_->page_count() > plan.base_page_count) {
      RUIDX_RETURN_NOT_OK(
          store->pager_->TruncateToPages(plan.base_page_count));
    }
    // Recovery writes raw through the pager, below the durability layer's
    // own machinery — this sync makes the rollback durable before the
    // journal is dropped.
    RUIDX_RETURN_NOT_OK(store->pager_->Sync());  // NOLINT(sync-outside-durability)
    RUIDX_RETURN_NOT_OK(store->wal_->Checkpoint());
  }
  store->pool_ =
      std::make_unique<BufferPool>(store->pager_.get(), buffer_pool_pages);
  store->pool_->AttachWal(store->wal_.get());
  store->pool_->StartBackgroundFlusher();
  RUIDX_ASSIGN_OR_RETURN(uint8_t* page, store->pool_->Fetch(0));
  uint32_t magic = 0;
  std::memcpy(&magic, page, 4);
  if (magic != kMetaMagic) {
    store->pool_->Unpin(0, false);
    return Status::Corruption("not an element store file: " + path);
  }
  uint32_t root = 0;
  uint64_t count = 0;
  uint32_t free_head = kInvalidPage;
  uint64_t free_count = 0;
  uint32_t name_root = 0, path_root = 0;
  uint64_t name_count = 0, path_count = 0;
  std::memcpy(&root, page + 4, 4);
  std::memcpy(&count, page + 8, 8);
  std::memcpy(&store->current_heap_page_, page + 16, 4);
  std::memcpy(&free_head, page + 20, 4);
  std::memcpy(&free_count, page + 24, 8);
  std::memcpy(&name_root, page + 32, 4);
  std::memcpy(&name_count, page + 36, 8);
  std::memcpy(&path_root, page + 44, 4);
  std::memcpy(&path_count, page + 48, 8);
  store->pool_->Unpin(0, false);
  store->pool_->RestoreFreeList(free_head, free_count);
  store->index_ = std::make_unique<BPlusTree>(
      BPlusTree::Attach(store->pool_.get(), root, count));
  store->name_index_ = std::make_unique<SecondaryIndex>(
      SecondaryIndex::Attach(store->pool_.get(), name_root, name_count));
  store->path_index_ = std::make_unique<SecondaryIndex>(
      SecondaryIndex::Attach(store->pool_.get(), path_root, path_count));
  return store;
}

Result<uint64_t> ElementStore::AppendRecord(const ElementRecord& record,
                                            uint64_t path_term) {
  if (!FitsHeapPage(record)) {
    return Status::CapacityExceeded("record larger than a page");
  }
  size_t need = SerializedSize(record);
  uint8_t* page = nullptr;
  uint32_t page_id = current_heap_page_;
  if (page_id != kInvalidPage) {
    RUIDX_ASSIGN_OR_RETURN(page, pool_->Fetch(page_id));
    size_t used_slots = SlotCount(page);
    size_t free_low = kHeapHeader + 2 * used_slots;
    if (DataStart(page) < free_low + 2 + need) {
      pool_->Unpin(page_id, false);
      page_id = kInvalidPage;
    }
  }
  if (page_id == kInvalidPage) {
    RUIDX_ASSIGN_OR_RETURN(page_id, pool_->AllocatePinned(&page));
    SetSlotCount(page, 0);
    SetDataStart(page, static_cast<uint16_t>(kPageUsableSize));
    current_heap_page_ = page_id;
  }
  uint16_t slot = SlotCount(page);
  uint16_t start = static_cast<uint16_t>(DataStart(page) - need);
  uint8_t* cursor = page + start;
  RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key key, EncodeIdKey(record.id));
  RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key parent_key,
                         EncodeIdKey(record.parent_id));
  std::memcpy(cursor, key.data(), BPlusTree::kKeySize);
  cursor += BPlusTree::kKeySize;
  std::memcpy(cursor, parent_key.data(), BPlusTree::kKeySize);
  cursor += BPlusTree::kKeySize;
  *cursor++ = record.node_type;
  std::memcpy(cursor, &path_term, 8);
  cursor += 8;
  WriteU16(&cursor, static_cast<uint16_t>(record.name.size()));
  std::memcpy(cursor, record.name.data(), record.name.size());
  cursor += record.name.size();
  WriteU16(&cursor, static_cast<uint16_t>(record.value.size()));
  std::memcpy(cursor, record.value.data(), record.value.size());

  SetSlotOffset(page, slot, start);
  SetSlotCount(page, slot + 1);
  SetDataStart(page, start);
  pool_->Unpin(page_id, true);
  return (static_cast<uint64_t>(page_id) << 16) | slot;
}

Result<ElementRecord> ElementStore::ReadRecord(uint64_t location) {
  return ReadRecordVia(pool_.get(), location);
}

Result<uint64_t> ElementStore::ResolvePathTerm(const ElementRecord& record) {
  if (record.path_term != 0) return record.path_term;
  if (record.parent_id == record.id) return RootPathTerm(record.name);
  RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key parent_key,
                         EncodeIdKey(record.parent_id));
  auto location = index_->Get(parent_key);
  if (location.ok()) {
    RUIDX_ASSIGN_OR_RETURN(ElementRecord parent, ReadRecord(*location));
    return ExtendPathTerm(parent.path_term, record.name);
  }
  if (!location.status().IsNotFound()) return location.status();
  // The parent is not stored (yet): the child was Put before its parent.
  // Seed the term from the bare name. Deterministic — Remove and overwrite
  // still find the posting through the stored term — but path queries
  // against this record miss it.
  return HashNameTerm(record.name);
}

Status ElementStore::Put(const ElementRecord& record) {
  RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key key, EncodeIdKey(record.id));
  // Overwrites must retarget the old record's postings.
  bool had_old = false;
  uint64_t old_name_term = 0;
  uint64_t old_path_term = 0;
  auto old_location = index_->Get(key);
  if (old_location.ok()) {
    RUIDX_ASSIGN_OR_RETURN(ElementRecord old, ReadRecord(*old_location));
    had_old = true;
    old_name_term = HashNameTerm(old.name);
    old_path_term = old.path_term;
  } else if (!old_location.status().IsNotFound()) {
    return old_location.status();
  }
  uint64_t name_term = HashNameTerm(record.name);
  RUIDX_ASSIGN_OR_RETURN(uint64_t path_term, ResolvePathTerm(record));
  // Probe the posting-key encoding before mutating anything: a 96-bit
  // capacity failure must not leave a half-indexed record behind.
  {
    auto probe = EncodePostingKey(name_term, record.id);
    if (!probe.ok()) return probe.status();
  }
  RUIDX_ASSIGN_OR_RETURN(uint64_t location, AppendRecord(record, path_term));
  RUIDX_RETURN_NOT_OK(index_->Insert(key, location));
  if (had_old && old_name_term != name_term) {
    RUIDX_RETURN_NOT_OK(name_index_->Remove(old_name_term, record.id));
  }
  if (had_old && old_path_term != path_term) {
    RUIDX_RETURN_NOT_OK(path_index_->Remove(old_path_term, record.id));
  }
  RUIDX_RETURN_NOT_OK(name_index_->Add(name_term, record.id, location));
  RUIDX_RETURN_NOT_OK(path_index_->Add(path_term, record.id, location));
  return Status::OK();
}

Status ElementStore::Remove(const core::Ruid2Id& id) {
  RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key key, EncodeIdKey(id));
  RUIDX_ASSIGN_OR_RETURN(uint64_t location, index_->Get(key));
  RUIDX_ASSIGN_OR_RETURN(ElementRecord old, ReadRecord(location));
  RUIDX_RETURN_NOT_OK(index_->Erase(key));
  RUIDX_RETURN_NOT_OK(name_index_->Remove(HashNameTerm(old.name), id));
  RUIDX_RETURN_NOT_OK(path_index_->Remove(old.path_term, id));
  return Status::OK();
}

Result<ElementRecord> ElementStore::Get(const core::Ruid2Id& id) {
  RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key key, EncodeIdKey(id));
  RUIDX_ASSIGN_OR_RETURN(uint64_t location, index_->Get(key));
  return ReadRecord(location);
}

Result<bool> ElementStore::Exists(const core::Ruid2Id& id) {
  RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key key, EncodeIdKey(id));
  auto location = index_->Get(key);
  if (location.ok()) return true;
  if (location.status().IsNotFound()) return false;
  return location.status();
}

Status ElementStore::BulkLoad(const core::Ruid2Scheme& scheme,
                              xml::Node* root) {
  // Every pass walks the DOM again, refilling one scratch record per node.
  // Preorder visits parents before children, so depth-indexed stacks hold
  // the parent's identifier and path term at depth-1.
  RecordWalk walk = [&](const RecordVisitor& visit) {
    ElementRecord record;
    std::vector<const core::Ruid2Id*> id_stack;
    std::vector<uint64_t> term_stack;
    Status status = Status::OK();
    xml::PreorderTraverse(root, [&](xml::Node* n, int depth) {
      // Returning false prunes only this subtree, so the first error must
      // also gate every later visit.
      if (!status.ok()) return false;
      const core::Ruid2Id& id = scheme.label(n);
      record.id = id;
      record.parent_id = depth == 0 ? id : *id_stack[depth - 1];
      record.node_type = static_cast<uint8_t>(n->type());
      record.name = n->name();
      if (n->is_element()) {
        record.value.clear();
      } else {
        record.value = n->value();
      }
      record.path_term =
          depth == 0 ? RootPathTerm(record.name)
                     : ExtendPathTerm(term_stack[depth - 1], record.name);
      id_stack.resize(depth + 1);
      id_stack[depth] = &id;
      term_stack.resize(depth + 1);
      term_stack[depth] = record.path_term;
      status = visit(record);
      return status.ok();
    });
    return status;
  };
  if (index_->entry_count() != 0) {
    return walk([this](const ElementRecord& record) { return Put(record); });
  }
  return BulkBuild(scheme.label_count(), walk);
}

Status ElementStore::BulkBuild(size_t size_hint, const RecordWalk& walk) {
  // One buffer serves all three trees in turn, so at most one (key,
  // location) run is alive at a time. Its first use holds (primary key,
  // input position).
  std::vector<BPlusTree::Entry> entries;
  entries.reserve(size_hint);
  // Pass 1 validates everything an append or a tree insert could reject,
  // before the first heap append: a failed batch leaves the store empty.
  RUIDX_RETURN_NOT_OK(walk([&](const ElementRecord& record) -> Status {
    RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key key, EncodeIdKey(record.id));
    RUIDX_RETURN_NOT_OK(EncodeIdKey(record.parent_id).status());
    // Both posting keys carry the same identifier, so one encoding
    // proves both fit.
    RUIDX_RETURN_NOT_OK(
        EncodePostingKey(record.path_term, record.id).status());
    if (!FitsHeapPage(record)) {
      return Status::CapacityExceeded("record larger than a page");
    }
    entries.push_back(BPlusTree::Entry{key, entries.size()});
    return Status::OK();
  }));
  if (entries.empty()) return Status::OK();
  std::sort(entries.begin(), entries.end(), EntryKeyLess);
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].key == entries[i].key) {
      return Status::InvalidArgument("bulk load repeats id " +
                                     DecodeIdKey(entries[i].key).ToString());
    }
  }
  // Pass 2: the heap, in input order.
  std::vector<uint64_t> locations;
  locations.reserve(entries.size());
  RUIDX_RETURN_NOT_OK(walk([&](const ElementRecord& record) -> Status {
    RUIDX_ASSIGN_OR_RETURN(uint64_t location,
                           AppendRecord(record, record.path_term));
    locations.push_back(location);
    return Status::OK();
  }));
  RUIDX_DCHECK(locations.size() == entries.size(),
               "bulk-load passes disagree on the record count");
  // The primary tree.
  for (BPlusTree::Entry& entry : entries) {
    entry.value = locations[entry.value];
  }
  RUIDX_RETURN_NOT_OK(index_->BulkLoadSorted(entries));
  // Passes 3 and 4: one posting tree each. Posting keys lead with the term
  // hash, so each run is sorted before its build.
  auto build_postings =
      [&](SecondaryIndex* index,
          uint64_t (*term_for)(const ElementRecord&)) -> Status {
    entries.clear();
    RUIDX_RETURN_NOT_OK(walk([&](const ElementRecord& record) -> Status {
      RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key key,
                             EncodePostingKey(term_for(record), record.id));
      entries.push_back(BPlusTree::Entry{key, locations[entries.size()]});
      return Status::OK();
    }));
    std::sort(entries.begin(), entries.end(), EntryKeyLess);
    return index->BulkLoadSorted(entries);
  };
  RUIDX_RETURN_NOT_OK(
      build_postings(name_index_.get(), [](const ElementRecord& record) {
        return HashNameTerm(record.name);
      }));
  return build_postings(path_index_.get(), [](const ElementRecord& record) {
    return record.path_term;
  });
}

Status ElementStore::ScanArea(
    const BigUint& global,
    const std::function<bool(const ElementRecord&)>& fn) {
  return ScanAreaVia(index_.get(), pool_.get(), global, fn);
}

Status ElementStore::ScanAll(
    const std::function<bool(const BPlusTree::Key&, const ElementRecord&)>&
        fn) {
  return ScanAllVia(index_.get(), pool_.get(), fn);
}

Status ElementStore::ScanNameTerm(
    std::string_view name,
    const std::function<bool(const ElementRecord&)>& fn) {
  return ScanNameTermVia(name_index_.get(), pool_.get(), name, fn);
}

Status ElementStore::ScanPathTerm(
    uint64_t term, const std::function<bool(const ElementRecord&)>& fn) {
  return ScanPathTermVia(path_index_.get(), pool_.get(), term, fn);
}

Status ElementStore::ScanNamePostings(
    const std::function<bool(uint64_t term, const core::Ruid2Id& id,
                             uint64_t location)>& fn) const {
  return name_index_->ScanAll(
      [&](const BPlusTree::Key&, uint64_t term, const core::Ruid2Id& id,
          uint64_t location) { return fn(term, id, location); });
}

Status ElementStore::ScanPathPostings(
    const std::function<bool(uint64_t term, const core::Ruid2Id& id,
                             uint64_t location)>& fn) const {
  return path_index_->ScanAll(
      [&](const BPlusTree::Key&, uint64_t term, const core::Ruid2Id& id,
          uint64_t location) { return fn(term, id, location); });
}

bool ElementStore::IsAncestorViaRuid(const core::Ruid2Scheme& scheme,
                                     const core::Ruid2Id& a,
                                     const core::Ruid2Id& d) const {
  return scheme.IsAncestorId(a, d);
}

Result<bool> ElementStore::IsAncestorViaParentPointers(
    const core::Ruid2Id& a, const core::Ruid2Id& d) {
  core::Ruid2Id cur = d;
  for (;;) {
    RUIDX_ASSIGN_OR_RETURN(ElementRecord record, Get(cur));
    if (record.parent_id == cur) return false;  // reached the root
    cur = record.parent_id;
    if (cur == a) return true;
  }
}

Result<std::vector<ElementRecord>> ElementStore::FetchAncestors(
    const core::Ruid2Scheme& scheme, const core::Ruid2Id& id) {
  std::vector<ElementRecord> out;
  for (const core::Ruid2Id& ancestor : scheme.Ancestors(id)) {
    RUIDX_ASSIGN_OR_RETURN(ElementRecord record, Get(ancestor));
    out.push_back(std::move(record));
  }
  return out;
}

Status ElementStore::Flush() {
  RUIDX_RETURN_NOT_OK(WriteMeta());
  return pool_->FlushAll();
}

Result<std::unique_ptr<StoreSnapshot>> ElementStore::OpenSnapshot() {
  RUIDX_ASSIGN_OR_RETURN(std::shared_ptr<Snapshot> snap,
                         pool_->CreateSnapshot());
  // Parse the COMMITTED meta page through the snapshot — the live index_
  // handles may already point at roots the open transaction moved. A store
  // that never flushed has no committed page 0 at all; the snapshot's page
  // limit turns that into NotFound here.
  RUIDX_ASSIGN_OR_RETURN(uint8_t* page, snap->Fetch(0));
  uint32_t magic = 0;
  std::memcpy(&magic, page, 4);
  if (magic != kMetaMagic) {
    snap->Unpin(0, false);
    return Status::Corruption("snapshot meta page lacks the store magic");
  }
  uint32_t root = 0, name_root = 0, path_root = 0;
  uint64_t count = 0, name_count = 0, path_count = 0;
  std::memcpy(&root, page + 4, 4);
  std::memcpy(&count, page + 8, 8);
  std::memcpy(&name_root, page + 32, 4);
  std::memcpy(&name_count, page + 36, 8);
  std::memcpy(&path_root, page + 44, 4);
  std::memcpy(&path_count, page + 48, 8);
  snap->Unpin(0, false);
  BPlusTree index = BPlusTree::Attach(snap.get(), root, count);
  SecondaryIndex name_index =
      SecondaryIndex::Attach(snap.get(), name_root, name_count);
  SecondaryIndex path_index =
      SecondaryIndex::Attach(snap.get(), path_root, path_count);
  return std::unique_ptr<StoreSnapshot>(
      new StoreSnapshot(std::move(snap), std::move(index),
                        std::move(name_index), std::move(path_index)));
}

Result<ElementRecord> StoreSnapshot::Get(const core::Ruid2Id& id) {
  RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key key, EncodeIdKey(id));
  RUIDX_ASSIGN_OR_RETURN(uint64_t location, index_.Get(key));
  return ReadRecordVia(snap_.get(), location);
}

Result<bool> StoreSnapshot::Exists(const core::Ruid2Id& id) {
  RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key key, EncodeIdKey(id));
  auto location = index_.Get(key);
  if (location.ok()) return true;
  if (location.status().IsNotFound()) return false;
  return location.status();
}

Status StoreSnapshot::ScanArea(
    const BigUint& global,
    const std::function<bool(const ElementRecord&)>& fn) {
  return ScanAreaVia(&index_, snap_.get(), global, fn);
}

Status StoreSnapshot::ScanAll(
    const std::function<bool(const BPlusTree::Key&, const ElementRecord&)>&
        fn) {
  return ScanAllVia(&index_, snap_.get(), fn);
}

Status StoreSnapshot::ScanNameTerm(
    std::string_view name,
    const std::function<bool(const ElementRecord&)>& fn) {
  return ScanNameTermVia(&name_index_, snap_.get(), name, fn);
}

Status StoreSnapshot::ScanPathTerm(
    uint64_t term, const std::function<bool(const ElementRecord&)>& fn) {
  return ScanPathTermVia(&path_index_, snap_.get(), term, fn);
}

Status ElementStore::VerifyOnDisk() {
  // The checks read the flushed image raw through the pager, so the pool's
  // cached copies must be on disk first.
  RUIDX_RETURN_NOT_OK(Flush());
  const uint32_t page_count = pager_->page_count();
  const uint64_t lsn_bound = wal_->next_lsn();
  std::vector<uint8_t> page(kPageSize);

  // [page-checksum] + [lsn-monotonic]: every page either carries a valid
  // trailer checksum (CRC 0 = never stamped, i.e. written raw/zero) and
  // every stamped LSN lies below the journal's counter.
  for (uint32_t id = 0; id < page_count; ++id) {
    RUIDX_RETURN_NOT_OK(pager_->ReadPage(id, page.data()));
    Status trailer = VerifyPageTrailer(page.data(), id);
    if (!trailer.ok()) {
      return Status::Corruption("[page-checksum] " + trailer.message());
    }
    uint64_t lsn = PageTrailerLsn(page.data());
    if (lsn >= lsn_bound) {
      return Status::Corruption(
          "[lsn-monotonic] page " + std::to_string(id) + " stamped with LSN " +
          std::to_string(lsn) + " >= journal counter " +
          std::to_string(lsn_bound));
    }
  }

  // [free-list]: walk from the meta's head — in bounds, never page 0, FREE
  // markers present, acyclic, and the recorded length agrees.
  std::unordered_set<uint32_t> free_pages;
  uint32_t cursor = pool_->free_head();
  while (cursor != kInvalidPage) {
    if (cursor == 0 || cursor >= page_count) {
      return Status::Corruption("[free-list] link to out-of-range page " +
                                std::to_string(cursor));
    }
    if (!free_pages.insert(cursor).second) {
      return Status::Corruption("[free-list] cycle through page " +
                                std::to_string(cursor));
    }
    if (free_pages.size() > page_count) {
      return Status::Corruption("[free-list] longer than the file");
    }
    RUIDX_RETURN_NOT_OK(pager_->ReadPage(cursor, page.data()));
    uint32_t magic;
    std::memcpy(&magic, page.data(), 4);
    if (magic != kFreePageMagic) {
      return Status::Corruption("[free-list] page " + std::to_string(cursor) +
                                " lacks the FREE marker");
    }
    std::memcpy(&cursor, page.data() + 4, 4);
  }
  if (free_pages.size() != pool_->free_page_count()) {
    return Status::Corruption(
        "[free-list] meta records " +
        std::to_string(pool_->free_page_count()) + " free pages, walk found " +
        std::to_string(free_pages.size()));
  }

  // [tree-reachability]: the primary and both secondary trees each form a
  // tree (CollectPages rejects shared pages), the three page sets are
  // mutually disjoint, stay in bounds, and never alias page 0, a free page,
  // or a heap page holding a live record.
  std::unordered_set<uint32_t> index_pages;
  RUIDX_RETURN_NOT_OK(index_->CollectPages(&index_pages));
  {
    std::unordered_set<uint32_t> secondary_pages;
    RUIDX_RETURN_NOT_OK(name_index_->CollectPages(&secondary_pages));
    RUIDX_RETURN_NOT_OK(path_index_->CollectPages(&secondary_pages));
    for (uint32_t id : secondary_pages) {
      if (!index_pages.insert(id).second) {
        return Status::Corruption("[tree-reachability] page " +
                                  std::to_string(id) +
                                  " shared between index trees");
      }
    }
    // [restart-point-order] + [compressed-page-reconstruction]: every
    // compressed leaf of the three trees, read raw from the flushed image,
    // decodes cleanly and re-encodes run-for-run to its own bytes.
    for (uint32_t id : index_pages) {
      if (id >= page_count) continue;  // range violations reported below
      RUIDX_RETURN_NOT_OK(pager_->ReadPage(id, page.data()));
      if (page[0] == 1 && leaf::IsCompressed(page.data())) {
        Status leaf_status = leaf::ValidateLeaf(page.data());
        if (!leaf_status.ok()) {
          return Status::Corruption(leaf_status.message() + " (page " +
                                    std::to_string(id) + ")");
        }
      }
    }
  }
  for (uint32_t id : index_pages) {
    if (id == 0 || id >= page_count) {
      return Status::Corruption("[tree-reachability] index page " +
                                std::to_string(id) + " out of range");
    }
    if (free_pages.count(id) != 0) {
      return Status::Corruption("[tree-reachability] index page " +
                                std::to_string(id) + " is on the free list");
    }
  }
  Status status = Status::OK();
  RUIDX_RETURN_NOT_OK(index_->Scan(
      BPlusTree::Key{},
      [] {
        BPlusTree::Key k;
        k.fill(0xFF);
        return k;
      }(),
      [&](const BPlusTree::Key&, uint64_t location) {
        uint32_t heap_page = static_cast<uint32_t>(location >> 16);
        if (heap_page == 0 || heap_page >= page_count) {
          status = Status::Corruption("[tree-reachability] record on "
                                      "out-of-range heap page " +
                                      std::to_string(heap_page));
          return false;
        }
        if (free_pages.count(heap_page) != 0 ||
            index_pages.count(heap_page) != 0) {
          status = Status::Corruption(
              "[tree-reachability] heap page " + std::to_string(heap_page) +
              " aliases a free or index page");
          return false;
        }
        return true;
      }));
  return status;
}

Status ElementStore::VerifySecondaryIndexes() {
  // [index-coverage]: one name posting and one path posting per record —
  // anything else means maintenance dropped or duplicated a posting.
  if (name_index_->entry_count() != index_->entry_count() ||
      path_index_->entry_count() != index_->entry_count()) {
    return Status::Corruption(
        "[index-coverage] record count " +
        std::to_string(index_->entry_count()) + " vs " +
        std::to_string(name_index_->entry_count()) + " name / " +
        std::to_string(path_index_->entry_count()) + " path postings");
  }
  RUIDX_RETURN_NOT_OK(name_index_->Validate());
  RUIDX_RETURN_NOT_OK(path_index_->Validate());

  // [name-index-coverage]: every posting's location must resolve to a live
  // record carrying the posting's id and a name that hashes to its term.
  Status status = Status::OK();
  RUIDX_RETURN_NOT_OK(ScanNamePostings(
      [&](uint64_t term, const core::Ruid2Id& id, uint64_t location) {
        auto record = ReadRecord(location);
        if (!record.ok()) {
          status = Status::Corruption("[name-index-coverage] posting for " +
                                      id.ToString() +
                                      " points at an unreadable location: " +
                                      record.status().message());
          return false;
        }
        if (record->id != id || HashNameTerm(record->name) != term) {
          status = Status::Corruption("[name-index-coverage] posting for " +
                                      id.ToString() +
                                      " disagrees with the stored record");
          return false;
        }
        return true;
      }));
  RUIDX_RETURN_NOT_OK(status);

  // [path-index-coverage]: same agreement for path postings, against the
  // record's stored path term.
  RUIDX_RETURN_NOT_OK(ScanPathPostings(
      [&](uint64_t term, const core::Ruid2Id& id, uint64_t location) {
        auto record = ReadRecord(location);
        if (!record.ok()) {
          status = Status::Corruption("[path-index-coverage] posting for " +
                                      id.ToString() +
                                      " points at an unreadable location: " +
                                      record.status().message());
          return false;
        }
        if (record->id != id || record->path_term != term) {
          status = Status::Corruption("[path-index-coverage] posting for " +
                                      id.ToString() +
                                      " disagrees with the stored record");
          return false;
        }
        return true;
      }));
  return status;
}

SecondaryIndexStats ElementStore::secondary_stats() const {
  SecondaryIndexStats stats;
  stats.name_postings = name_index_->entry_count();
  stats.path_postings = path_index_->entry_count();
  return stats;
}

Status ElementStore::ComputeLeafStats(BPlusTree::LeafStats* stats) const {
  *stats = BPlusTree::LeafStats{};
  stats->run_length_histogram.assign(leaf::kMaxRunLength + 1, 0);
  BPlusTree::LeafStats part;
  auto merge = [stats](const BPlusTree::LeafStats& part) {
    stats->leaf_pages += part.leaf_pages;
    stats->compressed_pages += part.compressed_pages;
    stats->entries += part.entries;
    stats->key_bytes_stored += part.key_bytes_stored;
    stats->key_bytes_raw += part.key_bytes_raw;
    for (size_t i = 0;
         i < part.run_length_histogram.size() &&
         i < stats->run_length_histogram.size();
         ++i) {
      stats->run_length_histogram[i] += part.run_length_histogram[i];
    }
  };
  RUIDX_RETURN_NOT_OK(index_->ComputeLeafStats(&part));
  merge(part);
  RUIDX_RETURN_NOT_OK(name_index_->ComputeLeafStats(&part));
  merge(part);
  RUIDX_RETURN_NOT_OK(path_index_->ComputeLeafStats(&part));
  merge(part);
  return Status::OK();
}

}  // namespace storage
}  // namespace ruidx
