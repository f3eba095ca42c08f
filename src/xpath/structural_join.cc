#include "xpath/structural_join.h"

#include <algorithm>

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

Result<JoinResult> StructuralJoinRuidFromStore(
    const core::Ruid2Scheme& scheme, storage::ElementStore* store,
    std::string_view ancestor_name, std::string_view descendant_name) {
  auto gather = [&](std::string_view name,
                    std::vector<xml::Node*>* out) -> Status {
    return store->ScanNameTerm(name, [&](const storage::ElementRecord& rec) {
      xml::Node* node = scheme.NodeById(rec.id);
      if (node != nullptr) out->push_back(node);
      return true;
    });
  };
  std::vector<xml::Node*> ancestors, descendants;
  RUIDX_RETURN_NOT_OK(gather(ancestor_name, &ancestors));
  RUIDX_RETURN_NOT_OK(gather(descendant_name, &descendants));
  return StructuralJoinRuid(scheme, std::move(ancestors),
                            std::move(descendants));
}

Result<JoinResult> StructuralJoinRuidFromSnapshot(
    const core::Ruid2Scheme& scheme, storage::StoreSnapshot* snapshot,
    std::string_view ancestor_name, std::string_view descendant_name) {
  auto gather = [&](std::string_view name,
                    std::vector<xml::Node*>* out) -> Status {
    return snapshot->ScanNameTerm(name,
                                  [&](const storage::ElementRecord& rec) {
                                    xml::Node* node = scheme.NodeById(rec.id);
                                    if (node != nullptr) out->push_back(node);
                                    return true;
                                  });
  };
  std::vector<xml::Node*> ancestors, descendants;
  RUIDX_RETURN_NOT_OK(gather(ancestor_name, &ancestors));
  RUIDX_RETURN_NOT_OK(gather(descendant_name, &descendants));
  return StructuralJoinRuid(scheme, std::move(ancestors),
                            std::move(descendants));
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
