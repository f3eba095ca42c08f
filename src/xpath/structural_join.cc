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

}  // namespace

namespace {

/// A join input annotated with its root-to-node identifier chain, computed
/// exactly once per input element — the comparators below run on plain
/// vector compares, with no per-comparison rparent() calls or hash lookups.
struct ChainedNode {
  xml::Node* node;
  std::vector<core::Ruid2Id> chain;  // root first, the node itself last
};

std::vector<ChainedNode> AnnotateChains(const core::Ruid2Scheme& scheme,
                                        const std::vector<xml::Node*>& nodes) {
  std::vector<ChainedNode> out;
  out.reserve(nodes.size());
  for (xml::Node* n : nodes) {
    // Ancestors() serves the frame part of the chain from the per-area
    // ancestor-path cache; only the within-area climb costs divisions.
    std::vector<core::Ruid2Id> chain = scheme.Ancestors(scheme.label(n));
    std::reverse(chain.begin(), chain.end());
    chain.push_back(scheme.label(n));
    out.push_back(ChainedNode{n, std::move(chain)});
  }
  return out;
}

/// Document order is lexicographic on sibling locals (Fig. 10 / Lemma 2).
bool ChainLess(const ChainedNode& a, const ChainedNode& b) {
  size_t n = std::min(a.chain.size(), b.chain.size());
  for (size_t i = 0; i < n; ++i) {
    if (!(a.chain[i] == b.chain[i])) return a.chain[i].local < b.chain[i].local;
  }
  return a.chain.size() < b.chain.size();  // ancestors precede descendants
}

/// Ancestorship is the proper-prefix relation on chains.
bool ChainContains(const ChainedNode& a, const ChainedNode& d) {
  if (a.chain.size() >= d.chain.size()) return false;
  for (size_t i = 0; i < a.chain.size(); ++i) {
    if (!(a.chain[i] == d.chain[i])) return false;
  }
  return true;
}

/// The packed fast path stores every root-to-node chain of one join input
/// in a single contiguous arena of packed identifiers — one buffer
/// per input, no per-node std::vector<BigUint> — with (offset, length)
/// entries per node. Comparators run on flat uint64 words.
struct PackedChainSet {
  struct Item {
    xml::Node* node;
    uint32_t offset;
    uint32_t length;
  };
  std::vector<core::PackedRuid2Id> arena;
  std::vector<Item> items;

  const core::PackedRuid2Id* chain(const Item& item) const {
    return arena.data() + item.offset;
  }
};

/// Annotates `nodes` with packed chains. Returns false when any identifier
/// on any chain leaves the packed range; the caller then reruns the BigUint
/// annotation for both inputs.
bool AnnotatePackedChains(const core::Ruid2Scheme& scheme,
                          const std::vector<xml::Node*>& nodes,
                          PackedChainSet* out) {
  out->items.reserve(nodes.size());
  std::vector<core::PackedRuid2Id> chain;
  for (xml::Node* n : nodes) {
    const core::Ruid2Id& label = scheme.label(n);
    if (!scheme.AncestorsPacked(label, &chain)) return false;
    core::PackedRuid2Id self;
    if (!core::PackRuid2Id(label, &self)) return false;
    uint32_t offset = static_cast<uint32_t>(out->arena.size());
    // AncestorsPacked is nearest-first; the arena stores root first.
    out->arena.insert(out->arena.end(), chain.rbegin(), chain.rend());
    out->arena.push_back(self);
    out->items.push_back(PackedChainSet::Item{
        n, offset, static_cast<uint32_t>(chain.size() + 1)});
  }
  return true;
}

/// ChainLess on packed arena spans (same order as the BigUint ChainLess).
bool PackedChainLess(const PackedChainSet& sa, const PackedChainSet::Item& a,
                     const PackedChainSet& sb, const PackedChainSet::Item& b) {
  const core::PackedRuid2Id* pa = sa.chain(a);
  const core::PackedRuid2Id* pb = sb.chain(b);
  uint32_t n = std::min(a.length, b.length);
  for (uint32_t i = 0; i < n; ++i) {
    if (pa[i] != pb[i]) return pa[i].local() < pb[i].local();
  }
  return a.length < b.length;  // ancestors precede descendants
}

/// Proper-prefix test on packed arena spans.
bool PackedChainContains(const PackedChainSet& sa,
                         const PackedChainSet::Item& a,
                         const PackedChainSet& sb,
                         const PackedChainSet::Item& b) {
  if (a.length >= b.length) return false;
  const core::PackedRuid2Id* pa = sa.chain(a);
  const core::PackedRuid2Id* pb = sb.chain(b);
  for (uint32_t i = 0; i < a.length; ++i) {
    if (pa[i] != pb[i]) return false;
  }
  return true;
}

JoinResult PackedStackJoin(PackedChainSet anc, PackedChainSet desc) {
  std::sort(anc.items.begin(), anc.items.end(),
            [&](const PackedChainSet::Item& x, const PackedChainSet::Item& y) {
              return PackedChainLess(anc, x, anc, y);
            });
  std::sort(desc.items.begin(), desc.items.end(),
            [&](const PackedChainSet::Item& x, const PackedChainSet::Item& y) {
              return PackedChainLess(desc, x, desc, y);
            });
  JoinResult out;
  out.reserve(desc.items.size());
  std::vector<const PackedChainSet::Item*> stack;
  size_t ai = 0;
  for (const PackedChainSet::Item& d : desc.items) {
    while (ai < anc.items.size() &&
           PackedChainLess(anc, anc.items[ai], desc, d)) {
      const PackedChainSet::Item* a = &anc.items[ai++];
      while (!stack.empty() &&
             !PackedChainContains(anc, *stack.back(), anc, *a)) {
        stack.pop_back();
      }
      stack.push_back(a);
    }
    while (!stack.empty() &&
           !PackedChainContains(anc, *stack.back(), desc, d)) {
      stack.pop_back();
    }
    for (const PackedChainSet::Item* a : stack) {
      out.emplace_back(a->node, d.node);
    }
  }
  return out;
}

}  // namespace

JoinResult StructuralJoinRuid(const core::Ruid2Scheme& scheme,
                              std::vector<xml::Node*> ancestors,
                              std::vector<xml::Node*> descendants) {
  PackedChainSet packed_anc, packed_desc;
  if (AnnotatePackedChains(scheme, ancestors, &packed_anc) &&
      AnnotatePackedChains(scheme, descendants, &packed_desc)) {
    return PackedStackJoin(std::move(packed_anc), std::move(packed_desc));
  }
  std::vector<ChainedNode> anc = AnnotateChains(scheme, ancestors);
  std::vector<ChainedNode> desc = AnnotateChains(scheme, descendants);
  std::sort(anc.begin(), anc.end(), ChainLess);
  std::sort(desc.begin(), desc.end(), ChainLess);

  JoinResult out;
  out.reserve(desc.size());  // every surviving descendant emits >= 1 pair
  std::vector<const ChainedNode*> stack;
  size_t ai = 0;
  for (const ChainedNode& d : desc) {
    // Admit every ancestor candidate that starts before d.
    while (ai < anc.size() && ChainLess(anc[ai], d)) {
      const ChainedNode* a = &anc[ai++];
      while (!stack.empty() && !ChainContains(*stack.back(), *a)) {
        stack.pop_back();
      }
      stack.push_back(a);
    }
    // Retire stack entries that do not contain d.
    while (!stack.empty() && !ChainContains(*stack.back(), d)) {
      stack.pop_back();
    }
    for (const ChainedNode* a : stack) out.emplace_back(a->node, d.node);
  }
  return out;
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

/// The ancestor side of a posting join: packed identifier -> node, in a
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

/// The store join on machine words. Ancestor identifiers go into a hash
/// table; each descendant climbs inside its area with PackedRuidParent and
/// probes it at every step, while the frame part of its chain, shared by
/// all identifiers of one area, is fetched and probed once per run of
/// postings in that area (postings arrive area-major). Only descendants
/// with an ancestor are resolved to nodes and sorted, by their root-first
/// chains of sibling locals (Fig. 10: document order is lexicographic on
/// them). Returns false when an identifier or chain leaves the packed
/// range; the caller then runs the BigUint join.
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
  const size_t n = desc.packed.size();
  for (size_t i = 0; i < n;) {
    const uint128_t area = desc.packed[i].global;
    if (!scheme.AreaRootAncestorsPacked(area, &frame)) return false;
    frame_locals.clear();
    frame_ancestors.clear();
    for (auto it = frame.rbegin(); it != frame.rend(); ++it) {
      frame_locals.push_back(it->local());
      if (xml::Node* a = ancestors.Find(*it)) frame_ancestors.push_back(a);
    }
    for (; i < n && desc.packed[i].global == area; ++i) {
      const core::PackedRuid2Id& d = desc.packed[i];
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
      if (pair_ancestors.size() > pair_offset) {
        node = scheme.NodeByPackedId(d);
      }
      if (node == nullptr || node->name() != descendant_name) {
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
