#include "core/packed_ruid2_id.h"

#include <algorithm>

namespace ruidx {
namespace core {

bool PackedRuidAncestors(const PackedRuid2Id& id, uint64_t kappa,
                         const KTable& k, std::vector<PackedRuid2Id>* out) {
  PackedRuid2Id cur = id;
  for (;;) {
    PackedRuid2Id parent;
    switch (PackedRuidParent(cur, kappa, k, &parent)) {
      case PackedParentStatus::kOk:
        cur = parent;
        out->push_back(cur);
        break;
      case PackedParentStatus::kMainRoot:
        return true;  // reached the top: chain complete
      case PackedParentStatus::kNoParentInArea:
        return true;  // chain ends here, matching the BigUint loop's break
      case PackedParentStatus::kFallback:
        return false;
    }
  }
}

namespace {

/// Root-first ancestor chain of `id` (the node itself included) in the
/// complete k-ary enumeration.
std::vector<uint128_t> UidChainOf(uint128_t id, uint64_t k) {
  std::vector<uint128_t> chain;
  uint128_t cur = id;
  chain.push_back(cur);
  while (cur > 1) {
    cur = PackedUidParent(cur, k);
    chain.push_back(cur);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

}  // namespace

int PackedUidCompareOrder(uint128_t a, uint128_t b, uint64_t k) {
  if (a == b) return 0;
  std::vector<uint128_t> ca = UidChainOf(a, k);
  std::vector<uint128_t> cb = UidChainOf(b, k);
  size_t i = 0;
  while (i < ca.size() && i < cb.size() && ca[i] == cb[i]) ++i;
  if (i == ca.size()) return -1;  // a is an ancestor of b: a comes first
  if (i == cb.size()) return 1;   // b is an ancestor of a
  return ca[i] < cb[i] ? -1 : 1;
}

}  // namespace core
}  // namespace ruidx
