// Per-area memoization of frame ancestor chains.
//
// rparent() (Fig. 6) recovers a node's ancestors by repeated BigUint
// division, and every Ancestors/CompareIds/axis/join call re-derives the
// same chains from scratch. But by Defs. 1-3 every node of a UID-local area
// shares the ancestor chain of its area root from the area root upward: the
// only per-node work is the short climb inside the node's own area (bounded
// by the partition's area-depth budget). This cache memoizes, per area
// global index, the proper-ancestor chain of the area root, so the frame
// part of every chain is computed once per area instead of once per call.
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

#include "core/packed_ruid2_id.h"
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
  /// the memoized chain of the area root. The BigUint-identifier path, for
  /// identifiers the packed variants below cannot take.
  std::vector<Ruid2Id> Ancestors(const Ruid2Id& id, uint64_t kappa,
                                 const KTable& k) const;

  /// Packed-identifier variant: writes the full proper-ancestor chain of
  /// `id`, nearest first, into *out using pure uint64 arithmetic and the
  /// packed per-area memo. Returns false (with *out unspecified) when any
  /// identifier on the chain is outside the packed range — the caller then
  /// uses Ancestors(). Shares the hit/miss/invalidate accounting with the
  /// BigUint chains.
  bool AncestorsPacked(const PackedRuid2Id& id, uint64_t kappa,
                       const KTable& k, std::vector<PackedRuid2Id>* out) const;

  /// Hybrid variant for callers that need BigUint identifiers: the climb
  /// inside the node's own area — the only fresh divisions — runs on packed
  /// machine-word arithmetic, then the memoized BigUint chain of the area
  /// root is appended directly, with no per-element unpacking of the shared
  /// tail. This also covers areas whose root chain leaves the packed range:
  /// only the member's own climb has to stay packed. Returns false (with
  /// *out holding a partial prefix) when the climb falls back — the caller
  /// then uses Ancestors().
  bool AncestorsHybrid(const PackedRuid2Id& id, uint64_t kappa,
                       const KTable& k, std::vector<Ruid2Id>* out) const;

  /// Appends the packed proper-ancestor chain of the root of area
  /// `global`, nearest first, to *out — the frame part shared by every
  /// identifier of that area — copying it under the cache lock. Returns
  /// false when the area has no K row or its chain leaves the packed range
  /// (a cached negative); the caller then falls back to BigUint.
  bool AppendPackedAreaRootChain(uint128_t global, uint64_t kappa,
                                 const KTable& k,
                                 std::vector<PackedRuid2Id>* out) const;

  /// Proper-ancestor chain of the root of the area with global index
  /// `global`, nearest first. The pointer stays valid until the next
  /// Invalidate()/Clear() (entries are node-stable) — so this form is for
  /// single-threaded callers (tests, the invariant verifier); concurrent
  /// readers go through Ancestors()/AncestorsPacked(), which copy the
  /// memoized tail while holding the cache lock.
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

  /// A memoized packed area chain. `ok == false` is a cached negative: the
  /// area's root chain leaves the packed range, so packed queries against it
  /// fall back without re-deriving the failure every call.
  struct PackedChainEntry {
    bool ok = false;
    std::vector<PackedRuid2Id> chain;
  };

  /// Packed twin of AreaRootAncestors over packed_chains_. The returned
  /// entry is node-stable until the next Clear(); single-threaded callers
  /// only, like its BigUint twin.
  const PackedChainEntry* PackedAreaRootAncestors(uint128_t global,
                                                  uint64_t kappa,
                                                  const KTable& k) const;

  /// Appends the memoized chain of area `global` to *chain, copying under
  /// mu_ so a concurrent Clear()/OnUpdate() cannot destroy the entry
  /// mid-copy (computes and publishes the chain first on a miss).
  void AppendAreaRootChain(const BigUint& global, uint64_t kappa,
                           const KTable& k,
                           std::vector<Ruid2Id>* chain) const;

  /// Guards chains_, packed_chains_, and the counters; Ancestors() must be
  /// callable from concurrent readers (the bulk pipelines share one
  /// scheme). Leaf-side rank: taken while a store holds its pool mutex
  /// during invalidation (rank table in util/sync.h).
  mutable Mutex mu_{LockRank::kAncestorCache, "ancestor_cache.mu"};
  mutable std::unordered_map<BigUint, std::vector<Ruid2Id>, BigUintHash>
      chains_ RUIDX_GUARDED_BY(mu_);
  /// Per-area chains in packed form, for areas whose whole root chain fits
  /// the packed range. Separate from chains_ so each path pays only its own
  /// representation; an area queried through both APIs may appear in both.
  mutable std::unordered_map<uint128_t, PackedChainEntry, Uint128Hash>
      packed_chains_ RUIDX_GUARDED_BY(mu_);
  mutable uint64_t hits_ RUIDX_GUARDED_BY(mu_) = 0;
  mutable uint64_t misses_ RUIDX_GUARDED_BY(mu_) = 0;
  uint64_t invalidations_ RUIDX_GUARDED_BY(mu_) = 0;
};

}  // namespace core
}  // namespace ruidx

#endif  // RUIDX_CORE_ANCESTOR_PATH_CACHE_H_
