#include "storage/snapshot.h"

#include <cstring>
#include <string>
#include <utility>

#include "util/dcheck.h"

namespace ruidx {
namespace storage {

namespace {
/// Per-snapshot resolved-page cache cap. Enough to cover a tree descent
/// plus a leaf-chain window; scans past it recycle unpinned entries instead
/// of duplicating the whole file in memory.
constexpr size_t kSnapshotCacheCap = 128;
}  // namespace

void SnapshotTable::RecordPreImage(uint32_t page_id, const uint8_t* image) {
  if (!HasLiveSnapshots()) return;
  MutexLock lock(&mu_);
  if (closed_) return;
  auto [it, inserted] = live_.try_emplace(page_id);
  if (!inserted) return;  // first image wins
  it->second.assign(image, image + kPageSize);
}

std::shared_ptr<Snapshot> SnapshotTable::Register(
    std::shared_ptr<SnapshotTable> self, uint64_t commit_seq,
    uint64_t lsn_bound, uint32_t page_limit) {
  MutexLock lock(&mu_);
  const uint64_t id = next_snap_id_++;
  SnapState& snap = snaps_[id];
  snap.commit_seq = commit_seq;
  snap.lsn_bound = lsn_bound;
  snap.page_limit = page_limit;
  ++snapshots_opened_;
  live_count_.store(snaps_.size(), std::memory_order_relaxed);
  // Private constructor: make_shared cannot reach it, and the destructor
  // must run (it releases the registry slot), so plain new is right here.
  return std::shared_ptr<Snapshot>(
      new Snapshot(std::move(self), id, commit_seq, lsn_bound));
}

void SnapshotTable::OnCommit(uint64_t new_commit_seq) {
  MutexLock lock(&mu_);
  if (live_.empty()) return;
  if (snaps_.empty()) {
    live_.clear();
    return;
  }
  Layer layer;
  layer.seq = new_commit_seq;
  layer.images = std::move(live_);
  live_.clear();
  frozen_.push_back(std::move(layer));
}

void SnapshotTable::Close() {
  MutexLock lock(&mu_);
  closed_ = true;
  live_.clear();
  frozen_.clear();
  for (auto& [id, snap] : snaps_) snap.cache.clear();
}

SnapshotStats SnapshotTable::stats() const {
  MutexLock lock(&mu_);
  SnapshotStats out;
  out.live_snapshots = snaps_.size();
  out.cow_frames = live_.size();
  for (const Layer& layer : frozen_) out.cow_frames += layer.images.size();
  for (const auto& [id, snap] : snaps_) out.cached_pages += snap.cache.size();
  out.snapshots_opened = snapshots_opened_;
  return out;
}

Result<uint8_t*> SnapshotTable::FetchFor(uint64_t snap_id, uint32_t page_id) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("snapshot read after the store closed");
  }
  auto snap_it = snaps_.find(snap_id);
  if (snap_it == snaps_.end()) {
    return Status::Internal("snapshot not registered");
  }
  SnapState& snap = snap_it->second;
  auto cached = snap.cache.find(page_id);
  if (cached != snap.cache.end()) {
    ++cached->second.pins;
    return cached->second.data.get();
  }
  if (page_id >= snap.page_limit) {
    return Status::NotFound("page " + std::to_string(page_id) +
                            " is beyond the snapshot (committed pages: " +
                            std::to_string(snap.page_limit) + ")");
  }
  // Resolve: earliest frozen layer overwriting the page after this
  // snapshot's commit, then the live layer, then the main file.
  const uint8_t* src = nullptr;
  for (const Layer& layer : frozen_) {
    if (layer.seq <= snap.commit_seq) continue;
    auto it = layer.images.find(page_id);
    if (it != layer.images.end()) {
      src = it->second.data();
      break;
    }
  }
  if (src == nullptr) {
    auto it = live_.find(page_id);
    if (it != live_.end()) src = it->second.data();
  }
  CachedPage entry;
  entry.data = std::make_unique<uint8_t[]>(kPageSize);
  entry.pins = 1;
  if (src != nullptr) {
    std::memcpy(entry.data.get(), src, kPageSize);
  } else {
    // The open transaction never touched this page, so the main file still
    // holds its committed content. mu_ is held across the read (rank 35 →
    // 30), which keeps a concurrent commit from overwriting the page
    // between this read and its pre-image landing in the live layer.
    RUIDX_RETURN_NOT_OK(pager_->ReadPage(page_id, entry.data.get()));
    RUIDX_RETURN_NOT_OK(VerifyPageTrailer(entry.data.get(), page_id));
    const uint64_t lsn = PageTrailerLsn(entry.data.get());
    if (lsn >= snap.lsn_bound) {
      return Status::Corruption(
          "snapshot page " + std::to_string(page_id) + " stamped lsn " +
          std::to_string(lsn) + " >= snapshot bound " +
          std::to_string(snap.lsn_bound) + " (missing pre-image)");
    }
  }
  if (snap.cache.size() >= kSnapshotCacheCap) EvictCacheLocked(&snap);
  uint8_t* out = entry.data.get();
  snap.cache.emplace(page_id, std::move(entry));
  return out;
}

void SnapshotTable::EvictCacheLocked(SnapState* snap) {
  for (auto it = snap->cache.begin();
       it != snap->cache.end() && snap->cache.size() >= kSnapshotCacheCap;) {
    if (it->second.pins == 0) {
      it = snap->cache.erase(it);
    } else {
      ++it;
    }
  }
}

void SnapshotTable::UnpinFor(uint64_t snap_id, uint32_t page_id) {
  MutexLock lock(&mu_);
  auto snap_it = snaps_.find(snap_id);
  if (snap_it == snaps_.end()) return;
  auto it = snap_it->second.cache.find(page_id);
  if (it == snap_it->second.cache.end()) return;
  RUIDX_DCHECK(it->second.pins > 0, "snapshot unpin without a pin");
  if (it->second.pins > 0) --it->second.pins;
}

void SnapshotTable::Release(uint64_t snap_id) {
  MutexLock lock(&mu_);
  snaps_.erase(snap_id);
  live_count_.store(snaps_.size(), std::memory_order_relaxed);
  if (snaps_.empty()) {
    frozen_.clear();
    live_.clear();
    return;
  }
  // A frozen layer tagged seq serves snapshots pinned strictly before it;
  // drop every layer the oldest survivor no longer needs.
  uint64_t oldest = snaps_.begin()->second.commit_seq;
  for (const auto& [id, snap] : snaps_) {
    if (snap.commit_seq < oldest) oldest = snap.commit_seq;
  }
  size_t keep_from = 0;
  while (keep_from < frozen_.size() && frozen_[keep_from].seq <= oldest) {
    ++keep_from;
  }
  if (keep_from > 0) {
    frozen_.erase(frozen_.begin(),
                  frozen_.begin() + static_cast<long>(keep_from));
  }
}

Result<uint8_t*> Snapshot::Fetch(uint32_t page_id) {
  ++page_accesses_;
  return table_->FetchFor(id_, page_id);
}

void Snapshot::Unpin(uint32_t page_id, [[maybe_unused]] bool dirty) {
  RUIDX_DCHECK(!dirty, "dirty unpin through a read-only snapshot");
  table_->UnpinFor(id_, page_id);
}

Result<uint32_t> Snapshot::AllocatePinned(uint8_t** frame) {
  (void)frame;
  return Status::Internal("snapshot is read-only: AllocatePinned");
}

Status Snapshot::FreePage(uint32_t page_id) {
  (void)page_id;
  return Status::Internal("snapshot is read-only: FreePage");
}

}  // namespace storage
}  // namespace ruidx
