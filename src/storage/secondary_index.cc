#include "storage/secondary_index.h"

#include <cstring>

namespace ruidx {
namespace storage {

namespace {

/// 64-bit FNV-1a over an arbitrary byte string.
uint64_t Fnv1a64(const uint8_t* data, size_t len) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Seed distinguishing "path term for a root named x" from "name term for
/// x" — the two index kinds share one hash function but never one term
/// space.
constexpr uint64_t kPathSeed = 0x9E3779B97F4A7C15ULL;

uint64_t MixPath(uint64_t h) {
  // splitmix64 finalizer: full-avalanche so the parent term's bits all
  // matter before the next component folds in.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

uint64_t HashNameTerm(std::string_view name) {
  return Fnv1a64(reinterpret_cast<const uint8_t*>(name.data()), name.size());
}

uint64_t RootPathTerm(std::string_view root_name) {
  return MixPath(kPathSeed ^ HashNameTerm(root_name));
}

uint64_t ExtendPathTerm(uint64_t parent_term, std::string_view child_name) {
  return MixPath(parent_term ^ HashNameTerm(child_name));
}

Result<BPlusTree::Key> EncodePostingKey(uint64_t term,
                                        const core::Ruid2Id& id) {
  BPlusTree::Key key{};
  uint64_t be = __builtin_bswap64(term);
  std::memcpy(key.data(), &be, 8);
  if (!id.global.ToBytesBE(key.data() + 8, 12)) {
    return Status::CapacityExceeded("global index exceeds 96 bits");
  }
  if (!id.local.ToBytesBE(key.data() + 20, 12)) {
    return Status::CapacityExceeded("local index exceeds 96 bits");
  }
  key[32] = id.is_area_root ? 1 : 0;
  return key;
}

uint64_t DecodePostingTerm(const BPlusTree::Key& key) {
  uint64_t be;
  std::memcpy(&be, key.data(), 8);
  return __builtin_bswap64(be);
}

core::Ruid2Id DecodePostingId(const BPlusTree::Key& key) {
  core::Ruid2Id id;
  id.global = BigUint::FromBytesBE(key.data() + 8, 12);
  id.local = BigUint::FromBytesBE(key.data() + 20, 12);
  id.is_area_root = key[32] != 0;
  return id;
}

Result<SecondaryIndex> SecondaryIndex::Create(PageIo* pool) {
  RUIDX_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::Create(pool));
  return SecondaryIndex(std::move(tree));
}

SecondaryIndex SecondaryIndex::Attach(PageIo* pool, uint32_t root_page,
                                      uint64_t entry_count) {
  return SecondaryIndex(BPlusTree::Attach(pool, root_page, entry_count));
}

Status SecondaryIndex::Add(uint64_t term, const core::Ruid2Id& id,
                           uint64_t location) {
  RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key key, EncodePostingKey(term, id));
  return tree_.Insert(key, location);
}

Status SecondaryIndex::Remove(uint64_t term, const core::Ruid2Id& id) {
  RUIDX_ASSIGN_OR_RETURN(BPlusTree::Key key, EncodePostingKey(term, id));
  return tree_.Erase(key);
}

Status SecondaryIndex::BulkLoadSorted(
    const std::vector<BPlusTree::Entry>& entries) {
  return tree_.BulkLoadSorted(entries);
}

Status SecondaryIndex::ScanTerm(
    uint64_t term, const std::function<bool(const core::Ruid2Id& id,
                                            uint64_t location)>& fn) const {
  BPlusTree::Key lo{};
  uint64_t be = __builtin_bswap64(term);
  std::memcpy(lo.data(), &be, 8);
  BPlusTree::Key hi = lo;
  std::memset(hi.data() + 8, 0xFF, BPlusTree::kKeySize - 8);
  return tree_.Scan(lo, hi, [&](const BPlusTree::Key& key, uint64_t location) {
    return fn(DecodePostingId(key), location);
  });
}

Status SecondaryIndex::ScanAll(
    const std::function<bool(const BPlusTree::Key& key, uint64_t term,
                             const core::Ruid2Id& id, uint64_t location)>& fn)
    const {
  BPlusTree::Key lo{};
  BPlusTree::Key hi;
  hi.fill(0xFF);
  return tree_.Scan(lo, hi, [&](const BPlusTree::Key& key, uint64_t location) {
    return fn(key, DecodePostingTerm(key), DecodePostingId(key), location);
  });
}

}  // namespace storage
}  // namespace ruidx
