#include "core/ancestor_path_cache.h"

#include "util/dcheck.h"

namespace ruidx {
namespace core {

std::vector<Ruid2Id> AncestorPathCache::UncachedChain(const Ruid2Id& id,
                                                      uint64_t kappa,
                                                      const KTable& k) {
  std::vector<Ruid2Id> chain;
  Ruid2Id cur = id;
  while (!(cur == Ruid2RootId())) {
    auto parent = RuidParent(cur, kappa, k);
    if (!parent.ok()) break;
    cur = parent.MoveValueUnsafe();
    chain.push_back(cur);
  }
  return chain;
}

const std::vector<Ruid2Id>* AncestorPathCache::AreaRootAncestors(
    const BigUint& global, uint64_t kappa, const KTable& k) const {
  {
    MutexLock lock(&mu_);
    auto it = chains_.find(global);
    if (it != chains_.end()) {
      ++hits_;
      return &it->second;
    }
    ++misses_;
  }
  // Compute outside the lock (the chain walk is the expensive part), then
  // publish. A racing computation of the same area yields the same chain,
  // and unordered_map entries are node-stable, so returned pointers survive
  // concurrent insertions.
  const KRow* row = k.Find(global);
  std::vector<Ruid2Id> chain;
  if (row != nullptr) {
    chain = UncachedChain(Ruid2Id{global, row->root_local, true}, kappa, k);
  }
  MutexLock lock(&mu_);
  return &chains_.try_emplace(global, std::move(chain)).first->second;
}

void AncestorPathCache::AppendAreaRootChain(const BigUint& global,
                                            uint64_t kappa, const KTable& k,
                                            std::vector<Ruid2Id>* chain) const {
  {
    MutexLock lock(&mu_);
    auto it = chains_.find(global);
    if (it != chains_.end()) {
      ++hits_;
      chain->insert(chain->end(), it->second.begin(), it->second.end());
      return;
    }
    ++misses_;
  }
  // Compute outside the lock (the chain walk is the expensive part), then
  // publish and copy in one critical section: a concurrent Clear() may
  // destroy the map entry the moment the lock drops, so the caller's copy
  // must be taken before it does.
  const KRow* row = k.Find(global);
  std::vector<Ruid2Id> tail;
  if (row != nullptr) {
    tail = UncachedChain(Ruid2Id{global, row->root_local, true}, kappa, k);
  }
  MutexLock lock(&mu_);
  const std::vector<Ruid2Id>& stored =
      chains_.try_emplace(global, std::move(tail)).first->second;
  chain->insert(chain->end(), stored.begin(), stored.end());
}

std::vector<Ruid2Id> AncestorPathCache::Ancestors(const Ruid2Id& id,
                                                  uint64_t kappa,
                                                  const KTable& k) const {
  std::vector<Ruid2Id> chain;
  // Climb within the node's own area until the area root (or the main root)
  // is reached; this part is node-specific and stays uncached.
  Ruid2Id cur = id;
  while (!cur.is_area_root) {
    auto parent = RuidParent(cur, kappa, k);
    if (!parent.ok()) return chain;
    cur = parent.MoveValueUnsafe();
    chain.push_back(cur);
  }
  if (cur == Ruid2RootId()) return chain;
  // From the area root upward every node of the area shares one chain,
  // copied under the cache lock (readers may race an invalidation).
  AppendAreaRootChain(cur.global, kappa, k, &chain);
  return chain;
}

const AncestorPathCache::PackedChainEntry*
AncestorPathCache::PackedAreaRootAncestors(uint128_t global, uint64_t kappa,
                                           const KTable& k) const {
  {
    MutexLock lock(&mu_);
    auto it = packed_chains_.find(global);
    if (it != packed_chains_.end()) {
      ++hits_;
      return &it->second;
    }
    ++misses_;
  }
  // Compute outside the lock, then publish; same reasoning as the BigUint
  // twin above (racing computations agree, entries are node-stable).
  PackedChainEntry entry;
  if (const PackedKRow* row = k.FindPacked(global)) {
    PackedRuid2Id root{global, row->root_local | PackedRuid2Id::kRootBit};
    entry.ok = PackedRuidAncestors(root, kappa, k, &entry.chain);
    if (!entry.ok) entry.chain.clear();
  }
  MutexLock lock(&mu_);
  return &packed_chains_.try_emplace(global, std::move(entry)).first->second;
}

bool AncestorPathCache::AppendPackedAreaRootChain(
    uint128_t global, uint64_t kappa, const KTable& k,
    std::vector<PackedRuid2Id>* out) const {
  {
    MutexLock lock(&mu_);
    auto it = packed_chains_.find(global);
    if (it != packed_chains_.end()) {
      ++hits_;
      if (!it->second.ok) return false;
      out->insert(out->end(), it->second.chain.begin(),
                  it->second.chain.end());
      return true;
    }
    ++misses_;
  }
  // Compute outside the lock, publish and copy in one critical section —
  // same lifetime reasoning as the BigUint twin above.
  PackedChainEntry entry;
  if (const PackedKRow* row = k.FindPacked(global)) {
    PackedRuid2Id root{global, row->root_local | PackedRuid2Id::kRootBit};
    entry.ok = PackedRuidAncestors(root, kappa, k, &entry.chain);
    if (!entry.ok) entry.chain.clear();
  }
  MutexLock lock(&mu_);
  const PackedChainEntry& stored =
      packed_chains_.try_emplace(global, std::move(entry)).first->second;
  if (!stored.ok) return false;
  out->insert(out->end(), stored.chain.begin(), stored.chain.end());
  return true;
}

bool AncestorPathCache::AncestorsPacked(const PackedRuid2Id& id,
                                        uint64_t kappa, const KTable& k,
                                        std::vector<PackedRuid2Id>* out) const {
  out->clear();
  // Climb within the node's own area — node-specific, uncached, and pure
  // uint64 division.
  PackedRuid2Id cur = id;
  while (!cur.is_area_root()) {
    PackedRuid2Id parent;
    switch (PackedRuidParent(cur, kappa, k, &parent)) {
      case PackedParentStatus::kOk:
        cur = parent;
        out->push_back(cur);
        continue;
      case PackedParentStatus::kFallback:
        return false;
      case PackedParentStatus::kMainRoot:
      case PackedParentStatus::kNoParentInArea:
        return true;  // chain ends here, as in the BigUint climb
    }
  }
  if (cur == PackedRuid2RootId()) return true;
  // From the area root upward every node of the area shares one chain,
  // copied under the cache lock (readers may race an invalidation).
  return AppendPackedAreaRootChain(cur.global, kappa, k, out);
}

bool AncestorPathCache::AncestorsHybrid(const PackedRuid2Id& id,
                                        uint64_t kappa, const KTable& k,
                                        std::vector<Ruid2Id>* out) const {
  out->clear();
  // Node-specific climb on machine words; only these few steps unpack.
  PackedRuid2Id cur = id;
  while (!cur.is_area_root()) {
    PackedRuid2Id parent;
    switch (PackedRuidParent(cur, kappa, k, &parent)) {
      case PackedParentStatus::kOk:
        cur = parent;
        out->push_back(UnpackRuid2Id(cur));
        continue;
      case PackedParentStatus::kFallback:
        return false;
      case PackedParentStatus::kMainRoot:
      case PackedParentStatus::kNoParentInArea:
        return true;  // chain ends here, as in the BigUint climb
    }
  }
  if (cur == PackedRuid2RootId()) return true;
  // The shared frame tail is appended in its memoized BigUint form — a
  // straight copy, no per-element conversion.
  AppendAreaRootChain(BigUint::FromUint128(cur.global), kappa, k, out);
  return true;
}

void AncestorPathCache::OnUpdate(const UpdateReport& report) {
  if (report.relabeled > 0 || report.areas_dropped > 0 ||
      report.local_fanout_grew) {
    MutexLock lock(&mu_);
    if (!chains_.empty() || !packed_chains_.empty()) ++invalidations_;
    chains_.clear();
    packed_chains_.clear();
    // An update that relabeled, dropped areas, or grew a fan-out may have
    // changed any cached chain; nothing may survive the flush. Checked under
    // the same lock — a concurrent reader may legitimately repopulate the
    // instant it is released.
    RUIDX_DCHECK(chains_.empty() && packed_chains_.empty(),
                 "cache entries survived invalidation");
  }
}

void AncestorPathCache::Clear() {
  MutexLock lock(&mu_);
  if (!chains_.empty() || !packed_chains_.empty()) ++invalidations_;
  chains_.clear();
  packed_chains_.clear();
}

uint64_t AncestorPathCache::hits() const {
  MutexLock lock(&mu_);
  return hits_;
}

uint64_t AncestorPathCache::misses() const {
  MutexLock lock(&mu_);
  return misses_;
}

uint64_t AncestorPathCache::invalidations() const {
  MutexLock lock(&mu_);
  return invalidations_;
}

size_t AncestorPathCache::entry_count() const {
  MutexLock lock(&mu_);
  return chains_.size() + packed_chains_.size();
}

}  // namespace core
}  // namespace ruidx
