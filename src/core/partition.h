// Partitioning an XML tree into UID-local areas (Defs. 1-2) and building the
// frame F over their roots, including the Sec. 2.3 fan-out adjustment.
//
// The paper specifies the *constraints* a partition must satisfy — every
// area is an induced subtree, areas overlap only at area roots, the frame
// fan-out should not exceed the source tree's fan-out — but leaves the
// partitioning policy open. We use a greedy top-down policy with two
// budgets: an area stops growing when it reaches `max_area_nodes` members or
// `max_area_depth` levels, whichever comes first; the children at the
// boundary become the roots of new areas. The adjustment pass then promotes
// additional "marked" nodes to area roots (Fig. 7) until the frame fan-out
// is within the source fan-out.
#ifndef RUIDX_CORE_PARTITION_H_
#define RUIDX_CORE_PARTITION_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/result.h"
#include "xml/dom.h"

namespace ruidx {
namespace core {

struct PartitionOptions {
  /// Maximum number of locally enumerated nodes per area (root included).
  uint64_t max_area_nodes = 256;
  /// Maximum depth of an area (root at depth 0).
  uint64_t max_area_depth = 6;
  /// Merge floor: after the greedy selection, areas with fewer than this
  /// many members are folded back into their parent area (bottom-up) as
  /// long as the union stays within 2x `max_area_nodes`. Topology
  /// accidents — a depth budget slicing a long chain, a spill right before
  /// a subtree ends — otherwise litter the partition with near-empty
  /// areas, and every area multiplies downstream per-area cost (KTable
  /// rows, frame identifiers). Merging trades the other budgets
  /// away by design: a merged area may run deeper than `max_area_depth`
  /// and up to twice `max_area_nodes`. 0 disables the pass.
  uint64_t min_area_nodes = 0;
  /// Adaptive granularity: when positive, the node budget is raised (never
  /// lowered) to ceil(node_count / target_area_count) before partitioning,
  /// the depth budget is lifted, and — unless the caller set one — the
  /// merge floor defaults to half the effective node budget. Area count
  /// then tracks data volume instead of topology: a deep chain and a flat
  /// fan of the same size partition into a similar number of areas. 0
  /// keeps the explicit budgets above.
  uint64_t target_area_count = 0;
  /// Apply the Sec. 2.3 promotion pass so that the frame fan-out never
  /// exceeds the source tree fan-out.
  bool adjust_fanout = true;
};

/// \brief The result of partitioning: the areas, the frame, and per-node
/// membership.
struct Partition {
  static constexpr uint32_t kNoArea = std::numeric_limits<uint32_t>::max();

  struct Area {
    xml::Node* root = nullptr;
    /// Index of the parent area in the frame; kNoArea for the main area.
    uint32_t parent_area = kNoArea;
    /// Child areas in document order of their roots (this order is what
    /// makes Lemma 3 hold for the frame enumeration).
    std::vector<uint32_t> child_areas;
    /// Local maximal fan-out k_i: the largest fan-out among the area's
    /// expanding members (nodes whose children are enumerated in this area).
    uint64_t local_fanout = 1;
    /// Number of nodes carrying a local index in this area (root included).
    uint64_t member_count = 1;
  };

  std::vector<Area> areas;  // areas[0] is rooted at the tree root
  /// serial -> index of the area in which the node takes its local index.
  /// Area roots map to the *upper* area; the tree root maps to area 0.
  std::unordered_map<uint32_t, uint32_t> member_area;
  /// serial -> index of the area this node roots (absent for non-roots).
  std::unordered_map<uint32_t, uint32_t> rooted_area;

  bool IsAreaRoot(const xml::Node* n) const {
    return rooted_area.contains(n->serial());
  }

  /// Maximal fan-out of the frame F (>= 1).
  uint64_t FrameFanout() const;
};

/// Partitions the tree rooted at `root`. Fails on a null root.
Result<Partition> PartitionTree(xml::Node* root, const PartitionOptions& options);

/// Rebuilds a Partition from an explicit set of area-root serials (the tree
/// root is always included). Exposed for tests and for the adjustment pass.
Partition DerivePartition(xml::Node* root,
                          const std::unordered_set<uint32_t>& root_serials);

}  // namespace core
}  // namespace ruidx

#endif  // RUIDX_CORE_PARTITION_H_
