#include "core/partition.h"

#include <algorithm>

#include "xml/stats.h"

namespace ruidx {
namespace core {

uint64_t Partition::FrameFanout() const {
  uint64_t max_fanout = 1;
  for (const Area& a : areas) {
    max_fanout = std::max<uint64_t>(max_fanout, a.child_areas.size());
  }
  return max_fanout;
}

Partition DerivePartition(xml::Node* root,
                          const std::unordered_set<uint32_t>& root_serials) {
  Partition p;
  Partition::Area main_area;
  main_area.root = root;
  p.areas.push_back(std::move(main_area));

  // Preorder traversal with children pushed in reverse, so nodes are
  // *visited* in document order. Areas are created at visit time, which
  // keeps every child_areas list in document order of the roots — the
  // property Lemma 3 needs from the frame enumeration.
  struct Frame {
    xml::Node* node;
    uint32_t member_area;  // area in which this node takes its local index
  };
  std::vector<Frame> stack{{root, 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    p.member_area[f.node->serial()] = f.member_area;

    uint32_t expand_area = f.member_area;
    if (f.node == root) {
      p.rooted_area[root->serial()] = 0;
      // The tree root is the one member of its own area counted at
      // construction (member_count starts at 1).
    } else {
      ++p.areas[f.member_area].member_count;
      if (root_serials.contains(f.node->serial())) {
        uint32_t idx = static_cast<uint32_t>(p.areas.size());
        Partition::Area child_area;
        child_area.root = f.node;
        child_area.parent_area = f.member_area;
        p.areas.push_back(std::move(child_area));
        p.areas[f.member_area].child_areas.push_back(idx);
        p.rooted_area[f.node->serial()] = idx;
        expand_area = idx;
      }
    }
    p.areas[expand_area].local_fanout = std::max<uint64_t>(
        p.areas[expand_area].local_fanout, f.node->fanout());
    const auto& ch = f.node->children();
    for (size_t i = ch.size(); i-- > 0;) {
      stack.push_back({ch[i], expand_area});
    }
  }
  return p;
}

namespace {

/// Greedy top-down selection of area roots under the node/depth budgets.
///
/// Spill policy: when expanding a node's children would exceed the area's
/// budget, the *node itself* is promoted to an area root and its children
/// are enumerated in the fresh area. Promoting the parent (rather than each
/// child) keeps areas at least one star wide, so frames genuinely shrink
/// level by level and their fan-out rarely exceeds the source fan-out in
/// the first place (the Sec. 2.3 pass then handles the remaining cases).
std::unordered_set<uint32_t> SelectAreaRoots(xml::Node* root,
                                             const PartitionOptions& options) {
  std::unordered_set<uint32_t> roots{root->serial()};
  std::vector<uint64_t> member_count{1};  // per provisional area

  struct Frame {
    xml::Node* node;
    uint32_t area;
    uint64_t depth;  // depth of the node within its expanding area
  };
  std::vector<Frame> stack{{root, 0, 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.node->children().empty()) continue;
    bool over_budget = f.depth + 1 > options.max_area_depth ||
                       member_count[f.area] + f.node->fanout() >
                           options.max_area_nodes;
    uint32_t area = f.area;
    uint64_t depth = f.depth;
    if (over_budget && f.depth > 0) {
      // Start a new area rooted at this node. (When the node already roots
      // its area — depth 0 — there is nothing left to split: the area
      // simply exceeds the budget, e.g. a single node wider than
      // max_area_nodes.)
      roots.insert(f.node->serial());
      area = static_cast<uint32_t>(member_count.size());
      member_count.push_back(1);
      depth = 0;
    }
    member_count[area] += f.node->fanout();
    for (xml::Node* c : f.node->children()) {
      stack.push_back({c, area, depth + 1});
    }
  }
  return roots;
}

/// For the violating area `a`, returns the serial of the deepest member with
/// at least two of a's child-area roots in its subtree (the "marked node" of
/// Fig. 7), or 0 with found=false (cannot happen for a genuine violation).
bool FindPromotionCandidate(const Partition& p, uint32_t area_idx,
                            uint32_t* out_serial) {
  const Partition::Area& area = p.areas[area_idx];
  // Count, for every member on the path from each child-area root up to the
  // area root (exclusive), how many child areas pass through it. The map is
  // lookup-only: candidate selection below walks the DOM, never the map, so
  // no decision depends on hash-iteration order over addresses.
  std::unordered_map<uint32_t, uint64_t> counts;
  for (uint32_t child_idx : area.child_areas) {
    const xml::Node* r = p.areas[child_idx].root;
    for (const xml::Node* x = r->parent(); x != nullptr && x != area.root;
         x = x->parent()) {
      ++counts[x->serial()];
    }
  }
  // Deepest member with >= 2 child areas passing through, ties broken by
  // serial. Crossing nodes all lie between a child-area root and the area
  // root, so descent can stop at nested area roots.
  uint32_t best_serial = 0;
  uint64_t best_depth = 0;
  bool found = false;
  xml::PreorderTraverse(area.root, [&](xml::Node* n, int depth) {
    if (depth > 0 && p.rooted_area.contains(n->serial())) return false;
    auto it = counts.find(n->serial());
    if (it == counts.end() || it->second < 2) return true;
    uint64_t d = static_cast<uint64_t>(depth);
    if (!found || d > best_depth ||
        (d == best_depth && n->serial() < best_serial)) {
      best_serial = n->serial();
      best_depth = d;
      found = true;
    }
    return true;
  });
  if (!found) return false;
  *out_serial = best_serial;
  return true;
}

/// Folds undersized areas back into their parents, bottom-up, while the
/// union stays within twice the node budget. The 2x allowance matters: the
/// greedy pass splinters whenever a small sibling subtree is visited after
/// its area filled up (the node spills into a near-empty area of its own),
/// and the parent of such a splinter sits at the budget by construction —
/// with an exact cap nothing would ever fold back. A modestly oversized
/// area is the cheaper failure mode: every area costs a frame identifier
/// and a KTable row, while an overfull one merely enumerates more locals.
///
/// Child areas always carry a larger index than their parent
/// (DerivePartition creates areas at preorder visit time), so one reverse
/// scan is a full bottom-up pass: by the time area i is considered, every
/// merge below it is already reflected in eff[i], and eff[parent] keeps
/// absorbing further undersized siblings as the scan passes them. One
/// re-derive at the end rebuilds the partition.
void MergeUndersizedAreas(xml::Node* root, const PartitionOptions& options,
                          std::unordered_set<uint32_t>* roots, Partition* p) {
  std::vector<uint64_t> eff(p->areas.size());
  for (size_t i = 0; i < eff.size(); ++i) eff[i] = p->areas[i].member_count;
  bool changed = false;
  for (uint32_t i = static_cast<uint32_t>(p->areas.size()); i-- > 1;) {
    uint32_t up = p->areas[i].parent_area;
    // The area root is a member of both areas, so the union holds one node
    // fewer than the sum of the counts.
    if (eff[i] < options.min_area_nodes &&
        eff[up] + eff[i] - 1 <= 2 * options.max_area_nodes) {
      eff[up] += eff[i] - 1;
      roots->erase(p->areas[i].root->serial());
      changed = true;
    }
  }
  if (changed) *p = DerivePartition(root, *roots);
}

}  // namespace

Result<Partition> PartitionTree(xml::Node* root,
                                const PartitionOptions& options) {
  if (root == nullptr) return Status::InvalidArgument("null root");
  if (options.max_area_nodes < 2 || options.max_area_depth < 1) {
    return Status::InvalidArgument(
        "area budgets must allow at least depth 1 and 2 nodes");
  }
  PartitionOptions effective = options;
  if (options.target_area_count > 0) {
    // Adaptive granularity: size areas off the data volume. The depth
    // budget is lifted — it is exactly what shatters deep topologies into
    // splinter areas — so only the (volume-derived) node budget and the
    // merge floor govern area size.
    uint64_t node_count = xml::ComputeStats(root).node_count;
    uint64_t per_area =
        (node_count + options.target_area_count - 1) / options.target_area_count;
    effective.max_area_nodes = std::max(effective.max_area_nodes, per_area);
    effective.max_area_depth = std::numeric_limits<uint64_t>::max();
    if (effective.min_area_nodes == 0) {
      effective.min_area_nodes = effective.max_area_nodes / 2;
    }
  }
  std::unordered_set<uint32_t> roots = SelectAreaRoots(root, effective);
  Partition p = DerivePartition(root, roots);
  if (effective.min_area_nodes > 0) {
    // Merge before the fan-out adjustment: the adjustment is the
    // paper-mandated constraint, so its promotions must not be un-done —
    // even when they leave an undersized area behind.
    MergeUndersizedAreas(root, effective, &roots, &p);
  }
  if (!effective.adjust_fanout) return p;

  // Sec. 2.3: promote marked nodes until the frame fan-out is within the
  // source tree fan-out.
  uint64_t limit = std::max<uint64_t>(1, xml::ComputeStats(root).max_fanout);
  // Each round pushes every remaining violation at least one level deeper,
  // so the number of rounds is bounded by the tree height.
  for (;;) {
    bool promoted = false;
    for (uint32_t i = 0; i < p.areas.size(); ++i) {
      if (p.areas[i].child_areas.size() <= limit) continue;
      uint32_t serial = 0;
      if (FindPromotionCandidate(p, i, &serial)) {
        roots.insert(serial);
        promoted = true;
      }
    }
    if (!promoted) break;
    p = DerivePartition(root, roots);
  }
  return p;
}

}  // namespace core
}  // namespace ruidx
