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

void AncestorPathCache::OnUpdate(const UpdateReport& report) {
  if (report.relabeled > 0 || report.areas_dropped > 0 ||
      report.local_fanout_grew) {
    MutexLock lock(&mu_);
    if (!chains_.empty()) ++invalidations_;
    chains_.clear();
    // An update that relabeled, dropped areas, or grew a fan-out may have
    // changed any cached chain; nothing may survive the flush. Checked under
    // the same lock — a concurrent reader may legitimately repopulate the
    // instant it is released.
    RUIDX_DCHECK(chains_.empty(), "cache entries survived invalidation");
  }
}

void AncestorPathCache::Clear() {
  MutexLock lock(&mu_);
  if (!chains_.empty()) ++invalidations_;
  chains_.clear();
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
  return chains_.size();
}

}  // namespace core
}  // namespace ruidx
