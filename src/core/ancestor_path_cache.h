// Per-area memoization of frame ancestor chains, for identifiers outside
// the packed range.
//
// rparent() (Fig. 6) on BigUint identifiers is repeated multi-word
// division. By Defs. 1-3 every node of a UID-local area shares the ancestor
// chain of its area root from the area root upward: the only per-node work
// is the short climb inside the node's own area (bounded by the
// partition's area-depth budget). This cache memoizes, per area global
// index, the proper-ancestor chain of the area root, so the frame part of a
// BigUint chain is computed once per area instead of once per call.
//
// Packed identifiers (core/packed_ruid2_id.h) never come here: their
// rparent is a couple of hardware divides, and a cold climb costs less than
// a locked map probe and copy. Ruid2Scheme computes packed chains on every
// call and consults this memo only when an identifier or its chain does not
// pack.
//
// Invalidation is driven by the Sec. 3.2 update accounting (UpdateReport):
// a cached chain embeds area-root identifiers (whose locals change when an
// area is re-enumerated), K-row root_local values, and per-area fan-outs,
// so any update that relabels existing nodes, drops areas, or grows a local
// fan-out flushes the cache wholesale. Updates that only append fresh
// labels (relabeled == 0, no drops, no fan-out growth) leave every cached
// chain valid.
#ifndef RUIDX_CORE_ANCESTOR_PATH_CACHE_H_
#define RUIDX_CORE_ANCESTOR_PATH_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/ktable.h"
#include "core/ruid2_id.h"
#include "util/sync.h"

namespace ruidx {
namespace core {

class AncestorPathCache {
 public:
  AncestorPathCache() = default;

  // The cache is per-scheme memo state guarded by a mutex; copied or moved
  // schemes start with a cold cache.
  AncestorPathCache(const AncestorPathCache&) {}
  AncestorPathCache(AncestorPathCache&&) noexcept {}
  AncestorPathCache& operator=(const AncestorPathCache&) {
    Clear();
    return *this;
  }
  AncestorPathCache& operator=(AncestorPathCache&&) noexcept {
    Clear();
    return *this;
  }

  /// Full proper-ancestor chain of `id`, nearest first — the rancestor()
  /// result. Climbs inside the node's own area with rparent, then appends
  /// the memoized chain of the area root.
  std::vector<Ruid2Id> Ancestors(const Ruid2Id& id, uint64_t kappa,
                                 const KTable& k) const;

  /// Proper-ancestor chain of the root of the area with global index
  /// `global`, nearest first. The pointer stays valid until the next
  /// Invalidate()/Clear() (entries are node-stable) — so this form is for
  /// single-threaded callers (tests, the invariant verifier); concurrent
  /// readers go through Ancestors(), which copies the memoized tail while
  /// holding the cache lock.
  const std::vector<Ruid2Id>* AreaRootAncestors(const BigUint& global,
                                                uint64_t kappa,
                                                const KTable& k) const;

  /// Invalidation hook for the incremental-update paths: flushes every
  /// entry when the report shows relabels, dropped areas, or local fan-out
  /// growth; keeps the cache warm for append-only updates.
  void OnUpdate(const UpdateReport& report);

  /// Drops every cached chain (full rebuilds, external relabeling).
  void Clear();

  // --- statistics (for tests and the bench tables) --------------------------
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t invalidations() const;
  size_t entry_count() const;

 private:
  /// Corruption injection for the invariant-verifier tests (defined there).
  friend class AncestorPathCacheTestPeer;

  /// Cold chain computation by repeated rparent, no memoization.
  static std::vector<Ruid2Id> UncachedChain(const Ruid2Id& id, uint64_t kappa,
                                            const KTable& k);

  /// Appends the memoized chain of area `global` to *chain, copying under
  /// mu_ so a concurrent Clear()/OnUpdate() cannot destroy the entry
  /// mid-copy (computes and publishes the chain first on a miss).
  void AppendAreaRootChain(const BigUint& global, uint64_t kappa,
                           const KTable& k,
                           std::vector<Ruid2Id>* chain) const;

  /// Guards chains_ and the counters; Ancestors() must be callable from
  /// concurrent readers (the bulk pipelines share one scheme). Leaf-side
  /// rank: taken while a store holds its pool mutex during invalidation
  /// (rank table in util/sync.h).
  mutable Mutex mu_{LockRank::kAncestorCache, "ancestor_cache.mu"};
  mutable std::unordered_map<BigUint, std::vector<Ruid2Id>, BigUintHash>
      chains_ RUIDX_GUARDED_BY(mu_);
  mutable uint64_t hits_ RUIDX_GUARDED_BY(mu_) = 0;
  mutable uint64_t misses_ RUIDX_GUARDED_BY(mu_) = 0;
  uint64_t invalidations_ RUIDX_GUARDED_BY(mu_) = 0;
};

}  // namespace core
}  // namespace ruidx

#endif  // RUIDX_CORE_ANCESTOR_PATH_CACHE_H_
