// XPath-axis construction from ruid identifiers (Sec. 3.5 of the paper):
// rparent, rancestor, rchildren, rdescendant, rpsibling, rfsibling,
// rpreceding and rfollowing.
//
// Each generator comes in two flavours where the paper describes both: a
// *candidate* flavour that is pure identifier arithmetic (and may name
// virtual nodes — slots the enumeration reserves but no real node occupies),
// and a *filtered* flavour that intersects the candidates with the index of
// real identifiers, the in-memory stand-in for the paper's RDBMS index.
#ifndef RUIDX_CORE_AXES_H_
#define RUIDX_CORE_AXES_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/ruid2.h"

namespace ruidx {
namespace core {

class RuidAxes {
 public:
  /// PreorderRank of a node the scheme has not labeled.
  static constexpr uint32_t kUnranked = std::numeric_limits<uint32_t>::max();

  /// The scheme must outlive this object. Call Refresh() after structural
  /// updates to rebuild the per-area member index and the order key.
  explicit RuidAxes(const Ruid2Scheme* scheme);

  /// Rebuilds the area -> members index, the frame-child lists and the
  /// order key from the scheme's current labels.
  void Refresh();

  // --- document order -------------------------------------------------------

  /// The order key: a labeled node's preorder rank (the main root is 0), as
  /// of the last Refresh(). Comparing two ranks compares document positions,
  /// so a result set sorts in one pass instead of one CompareIds per pair.
  /// kUnranked for nodes the scheme did not label.
  uint32_t PreorderRank(const xml::Node* n) const {
    return n->serial() < rank_.size() ? rank_[n->serial()] : kUnranked;
  }

  // --- parent / ancestor ----------------------------------------------------

  /// rancestor(): ancestor identifiers, nearest first (pure arithmetic).
  std::vector<Ruid2Id> AncestorIds(const Ruid2Id& id) const {
    return scheme_->Ancestors(id);
  }

  /// Ancestor nodes, nearest first (candidates filtered against the index).
  std::vector<xml::Node*> Ancestors(const Ruid2Id& id) const;

  // --- child / descendant ---------------------------------------------------

  /// rchildren(): every child *slot* of the node, with the correct
  /// identifier shape — (θ', i, true) where table K names an area root at
  /// slot i, (g, i, false) otherwise. Includes virtual slots.
  std::vector<Ruid2Id> ChildSlots(const Ruid2Id& id) const;

  /// Real children, in document order.
  std::vector<xml::Node*> Children(const Ruid2Id& id) const;

  /// rdescendant() via the frame (Sec. 3.5): descendants inside the node's
  /// own area are found with repeated rchildren; every area in the frame
  /// subtree of an area root met on the way is then swallowed whole. The
  /// cost follows the answer size: no other area is looked at.
  std::vector<xml::Node*> Descendants(const Ruid2Id& id) const;

  // --- siblings ---------------------------------------------------------------

  /// rpsibling(): real preceding siblings, nearest first.
  std::vector<xml::Node*> PrecedingSiblings(const Ruid2Id& id) const;

  /// rfsibling(): real following siblings, nearest first.
  std::vector<xml::Node*> FollowingSiblings(const Ruid2Id& id) const;

  // --- preceding / following -------------------------------------------------

  /// rpreceding(): all real nodes before `id` in document order, excluding
  /// its ancestors. Areas that are order-comparable in the frame (Lemma 3)
  /// are accepted or rejected wholesale; only the areas on the frame path of
  /// `id` need per-node work.
  std::vector<xml::Node*> Preceding(const Ruid2Id& id) const;

  /// rfollowing(): all real nodes after `id`, excluding its descendants.
  std::vector<xml::Node*> Following(const Ruid2Id& id) const;

 private:
  struct AreaMembers {
    BigUint global;
    uint64_t fanout = 1;
    /// All nodes enumerated in this area (area-root children included),
    /// sorted by their local index — the in-memory analogue of the paper's
    /// storage order "sorted first by the global index, and then by local
    /// index" (Sec. 2.1). Child sets are contiguous local ranges here.
    std::vector<std::pair<BigUint, xml::Node*>> by_local;
    /// Indices of the areas whose roots are this area's frame children.
    std::vector<uint32_t> frame_children;
  };

  /// Fills rank_ by one rchildren walk from the main root over the member
  /// lists (Refresh's last step).
  void RankInPreorder(xml::Node* main_root);
  const AreaMembers* FindArea(const BigUint& global) const;
  /// Appends the real children of `id` in document order (rchildren).
  void AppendChildren(const Ruid2Id& id, std::vector<xml::Node*>* out) const;
  /// Real children via a local-index range search in the sorted member
  /// list: O(log area + result), the Sec. 4 storage-order optimization.
  void AppendChildrenInRange(const AreaMembers& area, const BigUint& lo,
                             const BigUint& hi,
                             std::vector<xml::Node*>* out) const;

  const Ruid2Scheme* scheme_;
  std::vector<AreaMembers> area_members_;  // indexed by area index
  std::unordered_map<BigUint, size_t, BigUintHash> area_index_;
  /// serial -> preorder rank (kUnranked for unlabeled serials).
  std::vector<uint32_t> rank_;
};

}  // namespace core
}  // namespace ruidx

#endif  // RUIDX_CORE_AXES_H_
