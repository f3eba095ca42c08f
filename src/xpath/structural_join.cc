#include "xpath/structural_join.h"

#include <algorithm>
#include <bit>

#include "storage/element_store.h"
#include "xml/dom.h"

namespace ruidx {
namespace xpath {

namespace {

/// One merge pass in document order. `less(a, b)` is strict document-order
/// comparison; `contains(a, d)` is the proper-ancestor test. Both inputs are
/// sorted internally.
template <typename Less, typename Contains>
JoinResult StackJoin(std::vector<xml::Node*> ancestors,
                     std::vector<xml::Node*> descendants, const Less& less,
                     const Contains& contains) {
  std::sort(ancestors.begin(), ancestors.end(), less);
  std::sort(descendants.begin(), descendants.end(), less);
  JoinResult out;
  std::vector<xml::Node*> stack;
  size_t ai = 0;
  for (xml::Node* d : descendants) {
    // Admit every ancestor candidate that starts before d.
    while (ai < ancestors.size() && less(ancestors[ai], d)) {
      xml::Node* a = ancestors[ai++];
      while (!stack.empty() && !contains(stack.back(), a)) stack.pop_back();
      stack.push_back(a);
    }
    // Retire stack entries that do not contain d.
    while (!stack.empty() && !contains(stack.back(), d)) stack.pop_back();
    for (xml::Node* a : stack) out.emplace_back(a, d);
  }
  return out;
}

/// The ancestor side of a packed join: packed identifier -> node, in a
/// flat table with linear probing (a null node marks an empty slot). At
/// most half full, so every probe run ends.
class AncestorTable {
 public:
  explicit AncestorTable(size_t n) : slots_(std::bit_ceil(2 * n + 1)) {}

  bool empty() const { return size_ == 0; }

  void Insert(const core::PackedRuid2Id& id, xml::Node* node) {
    size_t i = Home(id);
    while (slots_[i].node != nullptr) {
      if (slots_[i].id == id) return;
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = Slot{id, node};
    ++size_;
  }

  /// The node of ancestor candidate `id`, or nullptr.
  xml::Node* Find(const core::PackedRuid2Id& id) const {
    for (size_t i = Home(id);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].node == nullptr || slots_[i].id == id) {
        return slots_[i].node;
      }
    }
  }

 private:
  struct Slot {
    core::PackedRuid2Id id;
    xml::Node* node = nullptr;
  };

  size_t Home(const core::PackedRuid2Id& id) const {
    return core::PackedRuid2IdHash()(id) & (slots_.size() - 1);
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// The join on machine words. `ancestors` holds the ancestor candidates;
/// `desc` holds the descendant candidates' packed identifiers with equal
/// globals adjacent. Each descendant climbs inside its area with
/// PackedRuidParent and probes the table at every step, while the frame
/// part of its chain, shared by all identifiers of one area, is climbed and
/// probed once per run of that area. `resolve(i)` names the node of
/// desc[i], or nullptr to drop it; it runs only for descendants with an
/// ancestor. Matched descendants are sorted by their root-first chains of
/// sibling locals (Fig. 10: document order is lexicographic on them).
/// Returns false when a chain leaves the packed range; the caller then
/// falls back to the stack join.
template <typename Resolve>
bool PackedJoin(const core::Ruid2Scheme& scheme,
                const AncestorTable& ancestors,
                const std::vector<core::PackedRuid2Id>& desc,
                const Resolve& resolve, JoinResult* out) {
  out->clear();
  if (ancestors.empty()) return true;
  struct Match {
    xml::Node* node;
    uint32_t chain_offset, chain_length;  // into chains
    uint32_t pair_offset, pair_length;    // into pair_ancestors
  };
  std::vector<Match> matches;
  std::vector<uint64_t> chains;             // root-first sibling locals
  std::vector<xml::Node*> pair_ancestors;   // outer first, per match
  std::vector<core::PackedRuid2Id> frame, climb;
  std::vector<uint64_t> frame_locals;       // root first
  std::vector<xml::Node*> frame_ancestors;  // outer first
  const size_t n = desc.size();
  for (size_t i = 0; i < n;) {
    const uint128_t area = desc[i].global;
    if (!scheme.AreaRootAncestorsPacked(area, &frame)) return false;
    frame_locals.clear();
    frame_ancestors.clear();
    for (auto it = frame.rbegin(); it != frame.rend(); ++it) {
      frame_locals.push_back(it->local());
      if (xml::Node* a = ancestors.Find(*it)) frame_ancestors.push_back(a);
    }
    for (; i < n && desc[i].global == area; ++i) {
      const core::PackedRuid2Id& d = desc[i];
      // The climb to the area root, nearest first.
      climb.clear();
      core::PackedRuid2Id cur = d;
      bool complete = true;
      while (complete && !cur.is_area_root()) {
        core::PackedRuid2Id parent;
        switch (core::PackedRuidParent(cur, scheme.kappa(), scheme.ktable(),
                                       &parent)) {
          case core::PackedParentStatus::kOk:
            climb.push_back(parent);
            cur = parent;
            break;
          case core::PackedParentStatus::kFallback:
            return false;
          default:  // no parent in its area: not a labeled identifier
            complete = false;
        }
      }
      if (!complete) continue;
      const size_t pair_offset = pair_ancestors.size();
      pair_ancestors.insert(pair_ancestors.end(), frame_ancestors.begin(),
                            frame_ancestors.end());
      for (auto it = climb.rbegin(); it != climb.rend(); ++it) {
        if (xml::Node* a = ancestors.Find(*it)) pair_ancestors.push_back(a);
      }
      xml::Node* node = nullptr;
      if (pair_ancestors.size() > pair_offset) node = resolve(i);
      if (node == nullptr) {
        pair_ancestors.resize(pair_offset);
        continue;
      }
      const size_t chain_offset = chains.size();
      chains.insert(chains.end(), frame_locals.begin(), frame_locals.end());
      for (auto it = climb.rbegin(); it != climb.rend(); ++it) {
        chains.push_back(it->local());
      }
      chains.push_back(d.local());
      matches.push_back(Match{
          node, static_cast<uint32_t>(chain_offset),
          static_cast<uint32_t>(chains.size() - chain_offset),
          static_cast<uint32_t>(pair_offset),
          static_cast<uint32_t>(pair_ancestors.size() - pair_offset)});
    }
  }
  std::sort(matches.begin(), matches.end(),
            [&](const Match& x, const Match& y) {
              const uint64_t* cx = chains.data() + x.chain_offset;
              const uint64_t* cy = chains.data() + y.chain_offset;
              return std::lexicographical_compare(
                  cx, cx + x.chain_length, cy, cy + y.chain_length);
            });
  out->reserve(pair_ancestors.size());
  for (const Match& m : matches) {
    for (uint32_t j = 0; j < m.pair_length; ++j) {
      out->emplace_back(pair_ancestors[m.pair_offset + j], m.node);
    }
  }
  return true;
}

/// StructuralJoinRuid's packed arm: both node lists packed, the
/// descendants grouped by area. Returns false when a label or a chain does
/// not pack.
bool PackedNodeJoin(const core::Ruid2Scheme& scheme,
                    const std::vector<xml::Node*>& ancestors,
                    const std::vector<xml::Node*>& descendants,
                    JoinResult* out) {
  AncestorTable table(ancestors.size());
  core::PackedRuid2Id id;
  for (xml::Node* a : ancestors) {
    if (!core::PackRuid2Id(scheme.label(a), &id)) return false;
    table.Insert(id, a);
  }
  std::vector<std::pair<core::PackedRuid2Id, xml::Node*>> by_area;
  by_area.reserve(descendants.size());
  for (xml::Node* d : descendants) {
    if (!core::PackRuid2Id(scheme.label(d), &id)) return false;
    by_area.emplace_back(id, d);
  }
  std::sort(by_area.begin(), by_area.end(),
            [](const auto& x, const auto& y) {
              return x.first.global < y.first.global;
            });
  std::vector<core::PackedRuid2Id> ids;
  ids.reserve(by_area.size());
  for (const auto& entry : by_area) ids.push_back(entry.first);
  return PackedJoin(scheme, table, ids,
                    [&](size_t i) { return by_area[i].second; }, out);
}

}  // namespace

JoinResult StructuralJoinRuid(const core::Ruid2Scheme& scheme,
                              std::vector<xml::Node*> ancestors,
                              std::vector<xml::Node*> descendants) {
  JoinResult out;
  if (PackedNodeJoin(scheme, ancestors, descendants, &out)) return out;
  // Identifiers outside the packed range: the stack skeleton on the
  // scheme's own order and ancestorship.
  auto less = [&scheme](const xml::Node* a, const xml::Node* b) {
    return scheme.CompareIds(scheme.label(a), scheme.label(b)) < 0;
  };
  auto contains = [&scheme](const xml::Node* a, const xml::Node* d) {
    return scheme.IsAncestorId(scheme.label(a), scheme.label(d));
  };
  return StackJoin(std::move(ancestors), std::move(descendants), less,
                   contains);
}

JoinResult StructuralJoinRuidByName(const core::Ruid2Scheme& scheme,
                                    const NameIndex& index,
                                    std::string_view ancestor_name,
                                    std::string_view descendant_name) {
  return StructuralJoinRuid(scheme, index.Lookup(ancestor_name),
                            index.Lookup(descendant_name));
}

namespace {

/// The nodes named `name` that one side's posting identifiers resolve to.
/// Checking the resolved node's name is the term-collision guard of the
/// store joins; an identifier the scheme does not know is skipped.
std::vector<xml::Node*> ResolvePostings(const core::Ruid2Scheme& scheme,
                                        const storage::PostingIds& ids,
                                        std::string_view name) {
  std::vector<xml::Node*> out;
  out.reserve(ids.packed.size() + ids.wide.size());
  auto keep = [&](xml::Node* node) {
    if (node != nullptr && node->name() == name) out.push_back(node);
  };
  for (const core::PackedRuid2Id& id : ids.packed) {
    keep(scheme.NodeByPackedId(id));
  }
  for (const core::Ruid2Id& id : ids.wide) keep(scheme.NodeById(id));
  return out;
}

/// The store join's packed arm. The name guards live here: a posting
/// counts only if it resolves to a node of the requested name.
bool PackedPostingJoin(const core::Ruid2Scheme& scheme,
                       const storage::PostingIds& anc,
                       const storage::PostingIds& desc,
                       std::string_view ancestor_name,
                       std::string_view descendant_name, JoinResult* out) {
  if (!anc.wide.empty() || !desc.wide.empty()) return false;
  AncestorTable ancestors(anc.packed.size());
  for (const core::PackedRuid2Id& id : anc.packed) {
    xml::Node* node = scheme.NodeByPackedId(id);
    if (node != nullptr && node->name() == ancestor_name) {
      ancestors.Insert(id, node);
    }
  }
  // Postings arrive area-major, so equal globals are already adjacent.
  return PackedJoin(scheme, ancestors, desc.packed, [&](size_t i) {
    xml::Node* node = scheme.NodeByPackedId(desc.packed[i]);
    return node != nullptr && node->name() == descendant_name ? node : nullptr;
  }, out);
}

/// One posting-identifier scan per side, then the packed join — or, when
/// an identifier leaves the packed range, StructuralJoinRuid over the
/// resolved nodes. `Source` is ElementStore or StoreSnapshot.
template <typename Source>
Result<JoinResult> JoinFromPostings(const core::Ruid2Scheme& scheme,
                                    Source* source,
                                    std::string_view ancestor_name,
                                    std::string_view descendant_name) {
  storage::PostingIds anc, desc;
  RUIDX_RETURN_NOT_OK(source->ScanNameIds(ancestor_name, &anc));
  RUIDX_RETURN_NOT_OK(source->ScanNameIds(descendant_name, &desc));
  JoinResult out;
  if (PackedPostingJoin(scheme, anc, desc, ancestor_name, descendant_name,
                        &out)) {
    return out;
  }
  return StructuralJoinRuid(scheme,
                            ResolvePostings(scheme, anc, ancestor_name),
                            ResolvePostings(scheme, desc, descendant_name));
}

}  // namespace

Result<JoinResult> StructuralJoinRuidFromStore(
    const core::Ruid2Scheme& scheme, storage::ElementStore* store,
    std::string_view ancestor_name, std::string_view descendant_name) {
  return JoinFromPostings(scheme, store, ancestor_name, descendant_name);
}

Result<JoinResult> StructuralJoinRuidFromSnapshot(
    const core::Ruid2Scheme& scheme, storage::StoreSnapshot* snapshot,
    std::string_view ancestor_name, std::string_view descendant_name) {
  return JoinFromPostings(scheme, snapshot, ancestor_name, descendant_name);
}

JoinResult StructuralJoinInterval(const scheme::XissScheme& scheme,
                                  std::vector<xml::Node*> ancestors,
                                  std::vector<xml::Node*> descendants) {
  auto less = [&scheme](const xml::Node* a, const xml::Node* b) {
    return scheme.label(a).order < scheme.label(b).order;
  };
  auto contains = [&scheme](const xml::Node* a, const xml::Node* d) {
    return scheme.IsAncestor(a, d);
  };
  return StackJoin(std::move(ancestors), std::move(descendants), less,
                   contains);
}

JoinResult StructuralJoinNestedLoop(std::vector<xml::Node*> ancestors,
                                    std::vector<xml::Node*> descendants) {
  JoinResult out;
  for (xml::Node* d : descendants) {
    for (xml::Node* a : ancestors) {
      if (d->HasAncestor(a)) out.emplace_back(a, d);
    }
  }
  return out;
}

}  // namespace xpath
}  // namespace ruidx
