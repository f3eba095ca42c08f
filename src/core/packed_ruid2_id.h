// The packed identifier fast path.
//
// The multilevel scheme exists precisely to keep per-level indices small:
// with fan-out adjustment (Sec. 2.3) real global and local indices almost
// always fit in a machine word, yet Ruid2Id carries two BigUints and every
// hot path — rparent (Fig. 6), ancestor chains, order comparison, B+tree
// keys, structural joins — pays for multi-word code paths. PackedRuid2Id is
// the trivially-copyable common case: a 2-word (128-bit) global index plus
// a 63-bit local index and a 1-bit root indicator sharing the final word.
// Parent recovery on a packed identifier is a couple of hardware divides
// and a handful of compares, with zero allocation.
//
// Why two words for the global: frame globals grow like kappa^frame_depth,
// so deep topologies overflow a single word almost immediately (a depth-250
// spine under the default area budgets reaches ~2^120) and used to spend
// their lives in the BigUint fallback. The storage key codec already caps
// identifier components at 128 bits — "use more ruid levels long before
// that" — so the 2-word packed range coincides exactly with the storable
// range: every identifier a store accepts now takes the fast path.
//
// Overflow fallback rule: an identifier is packable iff its global index
// fits in 128 bits and its local index in 63 bits; a K row participates in
// the fast path iff its global and root_local satisfy the same bounds. The
// moment either bound is exceeded — or a K row is missing — the packed
// routines report kFallback/false and the caller reruns the untouched
// BigUint path, so both paths always agree (property-tested against the
// BigUint reference, including at and across the 2^63/2^128 boundaries).
// Every caller takes the packed path first.
#ifndef RUIDX_CORE_PACKED_RUID2_ID_H_
#define RUIDX_CORE_PACKED_RUID2_ID_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/ktable.h"
#include "core/ruid2_id.h"

namespace ruidx {
namespace core {

/// \brief The packed form of a 2-level ruid: (g_i, l_i, r_i) in three words
/// (padded to four).
struct PackedRuid2Id {
  /// Bit 63 of `local_bits` is the root indicator; the low 63 bits are the
  /// local index. Keeping the flag in the same word makes equality three
  /// word compares.
  static constexpr uint64_t kRootBit = uint64_t{1} << 63;
  static constexpr uint64_t kLocalMask = kRootBit - 1;

  uint128_t global = 0;
  uint64_t local_bits = 0;

  uint64_t local() const { return local_bits & kLocalMask; }
  bool is_area_root() const { return (local_bits & kRootBit) != 0; }

  bool operator==(const PackedRuid2Id& o) const {
    return global == o.global && local_bits == o.local_bits;
  }
  bool operator!=(const PackedRuid2Id& o) const { return !(*this == o); }
};

static_assert(std::is_trivially_copyable_v<PackedRuid2Id>);
static_assert(sizeof(PackedRuid2Id) == 32);

/// Hash over the three words of a packed identifier (splitmix64 finalizer),
/// for the identifier-to-node indexes.
struct PackedRuid2IdHash {
  size_t operator()(const PackedRuid2Id& id) const {
    const uint64_t hi = static_cast<uint64_t>(id.global >> 64);
    uint64_t x = static_cast<uint64_t>(id.global) ^
                 hi * 0x9E3779B97F4A7C15ULL ^
                 id.local_bits * 0xC2B2AE3D27D4EB4FULL;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

/// The packed main-root identifier (1, 1, true).
inline PackedRuid2Id PackedRuid2RootId() {
  return PackedRuid2Id{1, 1 | PackedRuid2Id::kRootBit};
}

/// Packs `id` when its components are within the packed range (global
/// < 2^128, local < 2^63). Returns false — leaving *out untouched — for
/// identifiers that need the BigUint form.
inline bool PackRuid2Id(const Ruid2Id& id, PackedRuid2Id* out) {
  if (!id.global.FitsUint128() || !id.local.FitsUint64()) return false;
  uint64_t local = id.local.ToUint64();
  if ((local & PackedRuid2Id::kRootBit) != 0) return false;
  out->global = id.global.ToUint128();
  out->local_bits = local | (id.is_area_root ? PackedRuid2Id::kRootBit : 0);
  return true;
}

/// Inverse of PackRuid2Id (total: every packed value unpacks).
inline Ruid2Id UnpackRuid2Id(const PackedRuid2Id& id) {
  return Ruid2Id{BigUint::FromUint128(id.global), BigUint(id.local()),
                 id.is_area_root()};
}

/// Outcome of a packed rparent attempt.
enum class PackedParentStatus {
  kOk,            ///< *out holds the parent identifier.
  kMainRoot,      ///< the input is the main root (NotFound in the Result API)
  kNoParentInArea,///< local index < 2 (InvalidArgument in the Result API)
  kFallback,      ///< outside the packed range — rerun the BigUint path
};

/// rparent() (Fig. 6) entirely in machine-word arithmetic (the global in
/// two words, the local in one). Every quantity it computes is bounded by
/// its inputs, so the only fallback triggers are a missing/unpackable K row
/// or a frame parent below the UID domain.
inline PackedParentStatus PackedRuidParent(const PackedRuid2Id& id,
                                           uint64_t kappa, const KTable& k,
                                           PackedRuid2Id* out) {
  if (id == PackedRuid2RootId()) return PackedParentStatus::kMainRoot;
  uint128_t g = id.global;
  if (id.is_area_root()) {
    // Fig. 6, lines 1-5: the parent lives in the upper area, found by the
    // original UID parent formula over the frame.
    if (g < 2) return PackedParentStatus::kFallback;
    g = (g - 2) / kappa + 1;
  }
  const PackedKRow* row = k.FindPacked(g);
  if (row == nullptr) return PackedParentStatus::kFallback;
  uint64_t local = id.local();
  if (local < 2) return PackedParentStatus::kNoParentInArea;
  // Fig. 6, lines 6-13.
  uint64_t l = (local - 2) / row->fanout + 1;
  if (l == 1) {
    *out = PackedRuid2Id{g, row->root_local | PackedRuid2Id::kRootBit};
  } else {
    *out = PackedRuid2Id{g, l};
  }
  return PackedParentStatus::kOk;
}

/// rancestor() on packed identifiers: appends the proper-ancestor chain of
/// `id`, nearest first, to *out. Returns false (leaving *out in an
/// unspecified state) when any step leaves the packed range; the caller
/// must then rerun the BigUint path.
bool PackedRuidAncestors(const PackedRuid2Id& id, uint64_t kappa,
                         const KTable& k, std::vector<PackedRuid2Id>* out);

/// The original UID parent formula (1) on machine words; requires id >= 2.
inline uint128_t PackedUidParent(uint128_t id, uint64_t k) {
  return (id - 2) / k + 1;
}

/// UidIsAncestor on machine words (identical climb, no allocation).
inline bool PackedUidIsAncestor(uint128_t a, uint128_t d, uint64_t k) {
  if (d <= a) return false;
  uint128_t cur = d;
  while (cur > a) cur = PackedUidParent(cur, k);
  return cur == a;
}

/// UidCompareOrder (Fig. 10) on machine words.
int PackedUidCompareOrder(uint128_t a, uint128_t b, uint64_t k);

}  // namespace core
}  // namespace ruidx

#endif  // RUIDX_CORE_PACKED_RUID2_ID_H_
