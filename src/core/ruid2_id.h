// The 2-level ruid identifier (Def. 3) and the pure identifier arithmetic
// that needs only (κ, K) — split out of ruid2.h so that components which
// operate on identifiers alone (the ancestor-path cache, storage keys) can
// depend on the identifier without pulling in the full scheme.
#ifndef RUIDX_CORE_RUID2_ID_H_
#define RUIDX_CORE_RUID2_ID_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/ktable.h"
#include "util/biguint.h"
#include "util/result.h"

namespace ruidx {
namespace core {

/// \brief A full 2-level ruid (Def. 3): (g_i, l_i, r_i).
struct Ruid2Id {
  BigUint global;
  BigUint local;
  bool is_area_root = false;

  bool operator==(const Ruid2Id& o) const {
    return is_area_root == o.is_area_root && global == o.global &&
           local == o.local;
  }
  bool operator!=(const Ruid2Id& o) const { return !(*this == o); }

  /// "(g, l, r)" in the notation of the paper.
  std::string ToString() const;

  size_t Hash() const {
    size_t h = global.Hash();
    h = h * 1099511628211ULL ^ local.Hash();
    return h * 2 + (is_area_root ? 1 : 0);
  }
};

struct Ruid2IdHash {
  size_t operator()(const Ruid2Id& id) const { return id.Hash(); }
};

/// The identifier of the main root, (1, 1, true).
Ruid2Id Ruid2RootId();

/// rparent() — the Fig. 6 algorithm as a pure function of (κ, K). Given the
/// identifier of a node, computes the identifier of its parent entirely in
/// main memory. Fails for the main root and for identifiers whose area has
/// no K row. Runs on machine words (PackedRuidParent) and falls back to
/// RuidParentBigUint only outside the packed range.
Result<Ruid2Id> RuidParent(const Ruid2Id& id, uint64_t kappa, const KTable& k);

/// Fig. 6 in BigUint arithmetic throughout: RuidParent's fallback, and the
/// reference the packed path is checked against. Same values, status codes
/// and messages as RuidParent.
Result<Ruid2Id> RuidParentBigUint(const Ruid2Id& id, uint64_t kappa,
                                  const KTable& k);

/// rancestor() as a cold climb of RuidParentBigUint: the proper ancestors of
/// `id`, nearest first, with no cache and no machine-word arithmetic. The
/// reference for Ruid2Scheme::Ancestors and its packed and cached paths.
std::vector<Ruid2Id> RuidAncestorsBigUint(const Ruid2Id& id, uint64_t kappa,
                                          const KTable& k);

/// \brief Outcome of an incremental structural update (Sec. 3.2 accounting).
struct UpdateReport {
  /// Previously labeled nodes whose identifier changed.
  uint64_t relabeled = 0;
  /// Areas whose local enumeration was redone.
  uint64_t areas_touched = 0;
  /// True when the insertion overflowed the area's local fan-out and k_i had
  /// to be enlarged.
  bool local_fanout_grew = false;
  /// Areas (and their K rows) dropped because a deletion removed them.
  uint64_t areas_dropped = 0;
};

}  // namespace core
}  // namespace ruidx

#endif  // RUIDX_CORE_RUID2_ID_H_
