// Structural (containment) joins: given a candidate ancestor set A and a
// candidate descendant set D, produce every (a, d) pair with a ancestor of
// d. This is the workhorse of relational XML query processing (Li & Moon
// [6]; Zhang et al. [11] in the paper's related work) and the natural
// consumer of a numbering scheme: the join condition is decided by
// identifiers alone.
//
// Two join algorithms, plus a reference:
//   * packed join — ruid identifiers on machine words: the ancestor side is
//     hashed by packed identifier, each descendant climbs its own area with
//     rparent while the frame part of its chain is climbed once per area,
//     and the matched descendants are sorted into document order.
//     StructuralJoinRuid and the store joins both run it.
//   * stack join — one merge pass over both inputs in document order,
//     keeping the stack of currently open ancestors. It runs over XISS
//     (order, size) labels, and over ruid identifiers that do not pack.
//   * nested loop — the quadratic DOM baseline, used as ground truth.
#ifndef RUIDX_XPATH_STRUCTURAL_JOIN_H_
#define RUIDX_XPATH_STRUCTURAL_JOIN_H_

#include <string_view>
#include <utility>
#include <vector>

#include "core/ruid2.h"
#include "scheme/xiss.h"
#include "util/result.h"
#include "xml/dom.h"
#include "xpath/name_index.h"

namespace ruidx {
namespace storage {
class ElementStore;
class StoreSnapshot;
}  // namespace storage

namespace xpath {

using JoinResult = std::vector<std::pair<xml::Node*, xml::Node*>>;

/// The ruid join. Inputs need not be sorted. Pairs come out grouped by
/// descendant, descendants in document order, outer ancestors first. A
/// label or chain outside the packed range sends both sides through the
/// stack join on CompareIds and IsAncestorId.
JoinResult StructuralJoinRuid(const core::Ruid2Scheme& scheme,
                              std::vector<xml::Node*> ancestors,
                              std::vector<xml::Node*> descendants);

/// Seeds both join inputs from the in-memory name index (Sec. 3.5's
/// "second approach" applied to the join: candidates come from the
/// condition, containment from identifier arithmetic) and runs
/// StructuralJoinRuid — no document scan to gather either side.
JoinResult StructuralJoinRuidByName(const core::Ruid2Scheme& scheme,
                                    const NameIndex& index,
                                    std::string_view ancestor_name,
                                    std::string_view descendant_name);

/// Same seeding from the persistent name index: one posting-identifier scan
/// per side (ElementStore::ScanNameIds) that decodes the identifiers from
/// the posting keys and reads no heap record — the store is never
/// enumerated and no record is fetched. The packed join then runs on the
/// posting identifiers, which arrive grouped by area, and takes no lock.
/// A posting counts only if the scheme resolves it to a node of the
/// requested name (NodeById(id)->name()), which guards against term-hash
/// collisions on the nodes the caller receives. Pairs come out as from
/// StructuralJoinRuid: descendants in document order, outer ancestors
/// first. An identifier outside the packed range sends both sides, resolved
/// to nodes, through StructuralJoinRuid instead.
Result<JoinResult> StructuralJoinRuidFromStore(
    const core::Ruid2Scheme& scheme, storage::ElementStore* store,
    std::string_view ancestor_name, std::string_view descendant_name);

/// The same index-seeded join against an MVCC view of the store
/// (ElementStore::OpenSnapshot): the posting scans go through the
/// snapshot's committed pages, so the join neither blocks on a concurrent
/// Flush nor observes half-committed postings.
Result<JoinResult> StructuralJoinRuidFromSnapshot(
    const core::Ruid2Scheme& scheme, storage::StoreSnapshot* snapshot,
    std::string_view ancestor_name, std::string_view descendant_name);

/// The stack join over XISS interval labels.
JoinResult StructuralJoinInterval(const scheme::XissScheme& scheme,
                                  std::vector<xml::Node*> ancestors,
                                  std::vector<xml::Node*> descendants);

/// Quadratic DOM-pointer baseline (ground truth for tests and the
/// benchmark's lower bound).
JoinResult StructuralJoinNestedLoop(std::vector<xml::Node*> ancestors,
                                    std::vector<xml::Node*> descendants);

}  // namespace xpath
}  // namespace ruidx

#endif  // RUIDX_XPATH_STRUCTURAL_JOIN_H_
