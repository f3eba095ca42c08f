#include "core/axes.h"

#include <algorithm>
#include <unordered_set>

#include "scheme/uid.h"

namespace ruidx {
namespace core {

using scheme::UidChild;
using scheme::UidCompareOrder;
using scheme::UidIsAncestor;

RuidAxes::RuidAxes(const Ruid2Scheme* scheme) : scheme_(scheme) { Refresh(); }

void RuidAxes::Refresh() {
  const Partition& partition = scheme_->partition();
  area_members_.clear();
  area_members_.resize(partition.areas.size());
  area_index_.clear();
  xml::Node* main_root =
      partition.areas.empty() ? nullptr : partition.areas[0].root;
  for (size_t i = 0; i < partition.areas.size(); ++i) {
    area_members_[i].by_local.reserve(partition.areas[i].member_count);
  }
  uint32_t serial_bound = 0;
  scheme_->ForEachLabeled([&](xml::Node* n, const Ruid2Id& id) {
    serial_bound = std::max(serial_bound, n->serial() + 1);
    // The main root is nominally a member of its own area with local index
    // 1, but it can never appear on anyone's child/sibling/preceding/
    // following/descendant axis, so the member lists skip it.
    if (n == main_root) return;
    uint32_t area = partition.member_area.at(n->serial());
    // A node's local index within its member area is id.local in both the
    // non-root and the area-root case (Def. 3).
    area_members_[area].by_local.emplace_back(id.local, n);
  });
  for (uint32_t i = 0; i < partition.areas.size(); ++i) {
    if (partition.areas[i].root == nullptr) continue;
    const Ruid2Id& root_id = scheme_->label(partition.areas[i].root);
    area_members_[i].global = root_id.global;
    area_members_[i].fanout = partition.areas[i].local_fanout;
    std::sort(area_members_[i].by_local.begin(),
              area_members_[i].by_local.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    area_index_[area_members_[i].global] = i;
    uint32_t up = partition.areas[i].parent_area;
    if (up != Partition::kNoArea) {
      area_members_[up].frame_children.push_back(i);
    }
  }

  rank_.assign(serial_bound, kUnranked);
  if (main_root != nullptr) RankInPreorder(main_root);
}

void RuidAxes::RankInPreorder(xml::Node* main_root) {
  // rchildren of α in an area with fan-out k is the local range
  // [(α-1)k+2, αk+1], so the child runs of the area root (α = 1) and then
  // of each member in local order tile the local-sorted member list: one
  // sweep per area finds them all. run_end[a][0] ends the root's run in
  // area a, run_end[a][p + 1] the run of member p.
  std::vector<std::vector<uint32_t>> run_end(area_members_.size());
  for (size_t a = 0; a < area_members_.size(); ++a) {
    const auto& members = area_members_[a].by_local;
    uint64_t k = area_members_[a].fanout;
    std::vector<uint32_t>& ends = run_end[a];
    ends.resize(members.size() + 1);
    uint32_t next = 0;
    auto close_run = [&](const BigUint& alpha, size_t slot) {
      BigUint last_child = UidChild(alpha, k, k - 1);
      while (next < members.size() && members[next].first <= last_child) {
        ++next;
      }
      ends[slot] = next;
    };
    close_run(BigUint(1), 0);
    for (size_t p = 0; p < members.size(); ++p) {
      close_run(members[p].first, p + 1);
    }
  }
  // The walk itself: by Lemma 2 the preorder of rchildren is document
  // order, so the visit count is the preorder rank. An area root's
  // children are its own area's root run.
  struct Run {
    size_t area;
    uint32_t next;
    uint32_t end;
  };
  const auto& rooted_area = scheme_->partition().rooted_area;
  uint32_t next_rank = 0;
  rank_[main_root->serial()] = next_rank++;
  std::vector<Run> stack{{0, 0, run_end[0][0]}};
  while (!stack.empty()) {
    Run& run = stack.back();
    if (run.next == run.end) {
      stack.pop_back();
      continue;
    }
    size_t area = run.area;
    uint32_t p = run.next++;
    xml::Node* n = area_members_[area].by_local[p].second;
    rank_[n->serial()] = next_rank++;
    auto rooted = rooted_area.find(n->serial());
    if (rooted == rooted_area.end()) {
      stack.push_back({area, run_end[area][p], run_end[area][p + 1]});
    } else {
      stack.push_back({rooted->second, 0, run_end[rooted->second][0]});
    }
  }
}

const RuidAxes::AreaMembers* RuidAxes::FindArea(const BigUint& global) const {
  auto it = area_index_.find(global);
  return it == area_index_.end() ? nullptr : &area_members_[it->second];
}

void RuidAxes::AppendChildrenInRange(const AreaMembers& area, const BigUint& lo,
                                     const BigUint& hi,
                                     std::vector<xml::Node*>* out) const {
  auto begin = std::lower_bound(
      area.by_local.begin(), area.by_local.end(), lo,
      [](const auto& entry, const BigUint& v) { return entry.first < v; });
  for (auto it = begin; it != area.by_local.end() && it->first <= hi; ++it) {
    out->push_back(it->second);
  }
}

std::vector<xml::Node*> RuidAxes::Ancestors(const Ruid2Id& id) const {
  std::vector<xml::Node*> out;
  for (const Ruid2Id& a : scheme_->Ancestors(id)) {
    xml::Node* n = scheme_->NodeById(a);
    if (n != nullptr) out.push_back(n);
  }
  return out;
}

std::vector<Ruid2Id> RuidAxes::ChildSlots(const Ruid2Id& id) const {
  std::vector<Ruid2Id> slots;
  // Children are enumerated in the area identified by id.global — the node's
  // own area when it is an area root, its containing area otherwise.
  const BigUint& g = id.global;
  const KRow* row = scheme_->ktable().Find(g);
  if (row == nullptr) return slots;
  uint64_t k = row->fanout;
  BigUint alpha = id.is_area_root ? BigUint(1) : id.local;

  // L1 of the paper: the child areas of g in the frame, as
  // (global, root_local) pairs taken from table K.
  std::vector<const KRow*> frame_children;
  for (uint64_t j = 0; j < scheme_->kappa(); ++j) {
    BigUint theta = UidChild(g, scheme_->kappa(), j);
    const KRow* child_row = scheme_->ktable().Find(theta);
    if (child_row != nullptr) frame_children.push_back(child_row);
  }

  slots.reserve(k);
  for (uint64_t j = 0; j < k; ++j) {
    BigUint local = UidChild(alpha, k, j);
    const KRow* area_root_row = nullptr;
    for (const KRow* child_row : frame_children) {
      if (child_row->root_local == local) {
        area_root_row = child_row;
        break;
      }
    }
    if (area_root_row != nullptr) {
      slots.push_back(Ruid2Id{area_root_row->global, std::move(local), true});
    } else {
      slots.push_back(Ruid2Id{g, std::move(local), false});
    }
  }
  return slots;
}

std::vector<xml::Node*> RuidAxes::Children(const Ruid2Id& id) const {
  std::vector<xml::Node*> out;
  AppendChildren(id, &out);
  return out;
}

void RuidAxes::AppendChildren(const Ruid2Id& id,
                              std::vector<xml::Node*>* out) const {
  const AreaMembers* area = FindArea(id.global);
  if (area == nullptr) return;
  // Child locals occupy the contiguous range [(α-1)k+2, αk+1]; one range
  // search in the local-sorted member list yields them in document order.
  uint64_t k = area->fanout;
  BigUint alpha = id.is_area_root ? BigUint(1) : id.local;
  BigUint lo = UidChild(alpha, k, 0);
  BigUint hi = UidChild(alpha, k, k - 1);
  AppendChildrenInRange(*area, lo, hi, out);
}

std::vector<xml::Node*> RuidAxes::Descendants(const Ruid2Id& id) const {
  std::vector<xml::Node*> out;
  // Phase 1: within-area walk by repeated rchildren, with `out` as the
  // queue; collect the areas rooted at descendants found along the way.
  std::vector<size_t> subtree_areas;
  auto collect_area = [&](const BigUint& global) {
    auto it = area_index_.find(global);
    if (it != area_index_.end()) subtree_areas.push_back(it->second);
  };
  if (id.is_area_root) {
    collect_area(id.global);
  } else {
    AppendChildren(id, &out);
  }
  for (size_t next = 0; next < out.size(); ++next) {
    const Ruid2Id& child_id = scheme_->label(out[next]);
    if (child_id.is_area_root) {
      collect_area(child_id.global);
    } else {
      AppendChildren(child_id, &out);
    }
  }
  // Phase 2: swallow whole every area in the frame subtree of a collected
  // area root (their members are descendants by construction). id itself
  // is a member of its *upper* area, never of these areas, so no
  // self-exclusion is needed; deeper area roots appear exactly once, as
  // members of their upper area.
  while (!subtree_areas.empty()) {
    const AreaMembers& area = area_members_[subtree_areas.back()];
    subtree_areas.pop_back();
    for (const auto& [local, node] : area.by_local) out.push_back(node);
    subtree_areas.insert(subtree_areas.end(), area.frame_children.begin(),
                         area.frame_children.end());
  }
  return out;
}

std::vector<xml::Node*> RuidAxes::PrecedingSiblings(const Ruid2Id& id) const {
  std::vector<xml::Node*> out;
  auto parent = scheme_->Parent(id);
  if (!parent.ok()) return out;
  // Siblings are enumerated where the parent's children live: the parent's
  // own area when it is an area root, its containing area otherwise. Both
  // are parent->global (Def. 3). Note id.global would be wrong when id is
  // itself an area root.
  const AreaMembers* area = FindArea(parent->global);
  if (area == nullptr || id.local < BigUint(2)) return out;
  uint64_t k = area->fanout;
  BigUint alpha = parent->is_area_root ? BigUint(1) : parent->local;
  BigUint lo = UidChild(alpha, k, 0);
  AppendChildrenInRange(*area, lo, id.local - 1, &out);
  std::reverse(out.begin(), out.end());  // nearest sibling first
  return out;
}

std::vector<xml::Node*> RuidAxes::FollowingSiblings(const Ruid2Id& id) const {
  std::vector<xml::Node*> out;
  auto parent = scheme_->Parent(id);
  if (!parent.ok()) return out;
  const AreaMembers* area = FindArea(parent->global);
  if (area == nullptr) return out;
  uint64_t k = area->fanout;
  BigUint alpha = parent->is_area_root ? BigUint(1) : parent->local;
  BigUint hi = UidChild(alpha, k, k - 1);
  AppendChildrenInRange(*area, id.local + 1, hi, &out);
  return out;
}

std::vector<xml::Node*> RuidAxes::Preceding(const Ruid2Id& id) const {
  std::vector<xml::Node*> out;
  const BigUint& theta = id.global;
  uint64_t kappa = scheme_->kappa();
  // Ancestors must be excluded from the preceding axis; they can only live
  // in the node's own area or in frame-ancestor areas.
  std::unordered_set<Ruid2Id, Ruid2IdHash> ancestors;
  for (const Ruid2Id& a : scheme_->Ancestors(id)) ancestors.insert(a);

  for (const AreaMembers& am : area_members_) {
    if (am.by_local.empty()) continue;
    if (am.global == theta || UidIsAncestor(am.global, theta, kappa)) {
      // On the frame path of id: per-node comparison plus ancestor filter.
      for (const auto& [local, n] : am.by_local) {
        const Ruid2Id& x = scheme_->label(n);
        if (ancestors.contains(x)) continue;
        if (scheme_->CompareIds(x, id) < 0) out.push_back(n);
      }
    } else if (UidIsAncestor(theta, am.global, kappa)) {
      // Frame-descendant area: contains no ancestors of id, but its gateway
      // may put it before or after id — compare per node.
      for (const auto& [local, n] : am.by_local) {
        if (scheme_->CompareIds(scheme_->label(n), id) < 0) out.push_back(n);
      }
    } else {
      // Order-comparable in the frame: Lemma 3 decides wholesale.
      if (UidCompareOrder(am.global, theta, kappa) < 0) {
        for (const auto& [local, n] : am.by_local) out.push_back(n);
      }
    }
  }
  return out;
}

std::vector<xml::Node*> RuidAxes::Following(const Ruid2Id& id) const {
  std::vector<xml::Node*> out;
  const BigUint& theta = id.global;
  uint64_t kappa = scheme_->kappa();

  for (const AreaMembers& am : area_members_) {
    if (am.by_local.empty()) continue;
    if (am.global == theta || UidIsAncestor(theta, am.global, kappa)) {
      // Own area or frame-descendant: may contain descendants of id, which
      // the following axis excludes.
      for (const auto& [local, n] : am.by_local) {
        const Ruid2Id& x = scheme_->label(n);
        if (scheme_->CompareIds(x, id) > 0 && !scheme_->IsAncestorId(id, x)) {
          out.push_back(n);
        }
      }
    } else if (UidIsAncestor(am.global, theta, kappa)) {
      // Frame-ancestor area: contains no descendants of id.
      for (const auto& [local, n] : am.by_local) {
        if (scheme_->CompareIds(scheme_->label(n), id) > 0) out.push_back(n);
      }
    } else {
      if (UidCompareOrder(am.global, theta, kappa) > 0) {
        for (const auto& [local, n] : am.by_local) out.push_back(n);
      }
    }
  }
  return out;
}

}  // namespace core
}  // namespace ruidx
