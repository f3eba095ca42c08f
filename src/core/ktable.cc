#include "core/ktable.h"

#include <algorithm>

#include "util/dcheck.h"

namespace ruidx {
namespace core {

namespace {

struct GlobalLess {
  bool operator()(const KRow& row, const BigUint& g) const {
    return row.global < g;
  }
};

struct PackedGlobalLess {
  bool operator()(const PackedKRow& row, uint128_t g) const {
    return row.global < g;
  }
};

constexpr uint64_t kPackedLocalLimit = uint64_t{1} << 63;

}  // namespace

void KTable::SyncPacked(const KRow& row) {
  if (!row.global.FitsUint128()) return;  // never had a mirror entry
  uint128_t g = row.global.ToUint128();
  bool packable =
      row.root_local.FitsUint64() && row.root_local.ToUint64() < kPackedLocalLimit;
  auto it = std::lower_bound(packed_rows_.begin(), packed_rows_.end(), g,
                             PackedGlobalLess());
  bool present = it != packed_rows_.end() && it->global == g;
  if (packable) {
    PackedKRow mirror{g, row.root_local.ToUint64(), row.fanout};
    if (present) {
      *it = mirror;
    } else {
      packed_rows_.insert(it, mirror);
    }
  } else if (present) {
    packed_rows_.erase(it);
  }
}

void KTable::ErasePacked(const BigUint& global) {
  if (!global.FitsUint128()) return;
  uint128_t g = global.ToUint128();
  auto it = std::lower_bound(packed_rows_.begin(), packed_rows_.end(), g,
                             PackedGlobalLess());
  if (it != packed_rows_.end() && it->global == g) packed_rows_.erase(it);
}

bool KTable::PackedMirrorAgrees(const KRow& row) const {
  if (!row.global.FitsUint128()) {
    return true;  // outside the mirror's key space by definition
  }
  const PackedKRow* mirror = FindPacked(row.global.ToUint128());
  bool packable =
      row.root_local.FitsUint64() && row.root_local.ToUint64() < kPackedLocalLimit;
  if (!packable) return mirror == nullptr;
  return mirror != nullptr && mirror->root_local == row.root_local.ToUint64() &&
         mirror->fanout == row.fanout;
}

void KTable::Upsert(KRow row) {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), row.global,
                             GlobalLess());
  if (it != rows_.end() && it->global == row.global) {
    *it = std::move(row);
  } else {
    it = rows_.insert(it, std::move(row));
  }
  SyncPacked(*it);
  [[maybe_unused]] size_t i = static_cast<size_t>(it - rows_.begin());
  RUIDX_DCHECK(i == 0 || rows_[i - 1].global < rows_[i].global,
               "K rows out of order after Upsert");
  RUIDX_DCHECK(i + 1 >= rows_.size() || rows_[i].global < rows_[i + 1].global,
               "K rows out of order after Upsert");
  RUIDX_DCHECK(PackedMirrorAgrees(rows_[i]),
               "packed mirror stale after Upsert");
}

void KTable::Erase(const BigUint& global) {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), global, GlobalLess());
  if (it != rows_.end() && it->global == global) {
    rows_.erase(it);
    ErasePacked(global);
  }
  RUIDX_DCHECK(
      !global.FitsUint128() || FindPacked(global.ToUint128()) == nullptr,
      "packed mirror row survived Erase");
}

const KRow* KTable::Find(const BigUint& global) const {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), global, GlobalLess());
  if (it != rows_.end() && it->global == global) return &*it;
  return nullptr;
}

const PackedKRow* KTable::FindPacked(uint128_t global) const {
  // Branchless binary search: rparent probes this on every call with
  // effectively random globals, so a conditional-move halving loop beats
  // std::lower_bound's unpredictable branches.
  const PackedKRow* base = packed_rows_.data();
  size_t n = packed_rows_.size();
  while (n > 1) {
    size_t half = n / 2;
    base = (base[half].global <= global) ? base + half : base;
    n -= half;
  }
  if (n == 1 && base->global == global) return base;
  return nullptr;
}

bool KTable::SetFanout(const BigUint& global, uint64_t fanout) {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), global, GlobalLess());
  if (it == rows_.end() || !(it->global == global)) return false;
  it->fanout = fanout;
  SyncPacked(*it);
  RUIDX_DCHECK(PackedMirrorAgrees(*it), "packed mirror stale after SetFanout");
  return true;
}

bool KTable::SetRootLocal(const BigUint& global, BigUint root_local) {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), global, GlobalLess());
  if (it == rows_.end() || !(it->global == global)) return false;
  it->root_local = std::move(root_local);
  SyncPacked(*it);
  RUIDX_DCHECK(PackedMirrorAgrees(*it),
               "packed mirror stale after SetRootLocal");
  return true;
}

uint64_t KTable::SizeInBytes() const {
  uint64_t bytes = 0;
  for (const KRow& row : rows_) {
    bytes += sizeof(KRow);
    bytes += static_cast<uint64_t>(row.global.WordCount()) * 8;
    bytes += static_cast<uint64_t>(row.root_local.WordCount()) * 8;
  }
  return bytes;
}

}  // namespace core
}  // namespace ruidx
