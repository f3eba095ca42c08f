#include "analysis/invariant_checker.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <sstream>
#include <unordered_map>

#include "core/packed_ruid2_id.h"
#include "storage/element_store.h"
#include "storage/secondary_index.h"
#include "util/random.h"
#include "xml/stats.h"

namespace ruidx {
namespace analysis {

namespace {

using core::KRow;
using core::KTable;
using core::Partition;
using core::Ruid2Id;
using core::Ruid2RootId;
using core::Ruid2Scheme;
using core::RuidMId;
using core::RuidMScheme;
using core::RuidParent;

Status Violation(const char* invariant, const std::string& detail) {
  return Status::Corruption(std::string("[") + invariant + "] " + detail);
}

void MarkPassed(CheckReport* report, const char* invariant) {
  if (report != nullptr) report->invariants.emplace_back(invariant);
}

/// Restores the process-wide packed toggle on scope exit, so the
/// cross-representation checks can flip it without leaking state.
class PackedToggleGuard {
 public:
  explicit PackedToggleGuard(bool enabled)
      : previous_(core::PackedFastPathEnabled()) {
    core::SetPackedFastPathEnabled(enabled);
  }
  ~PackedToggleGuard() { core::SetPackedFastPathEnabled(previous_); }
  PackedToggleGuard(const PackedToggleGuard&) = delete;
  PackedToggleGuard& operator=(const PackedToggleGuard&) = delete;

 private:
  bool previous_;
};

/// Document order as the ground truth every order-related invariant is
/// compared against: preorder rank per serial.
struct DocOrder {
  std::vector<xml::Node*> nodes;               // in document order
  std::unordered_map<uint32_t, size_t> rank;   // serial -> preorder rank

  explicit DocOrder(xml::Node* root) {
    nodes = xml::CollectPreorder(root);
    rank.reserve(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) rank[nodes[i]->serial()] = i;
  }
};

/// Runs fn(a, b) over either every unordered node pair (small documents) or
/// `samples` seeded random pairs. fn returns a Status; the first failure
/// stops the sweep.
Status ForSampledPairs(const DocOrder& order, uint64_t samples, uint64_t seed,
                       uint64_t* pairs_out,
                       const std::function<Status(xml::Node*, xml::Node*)>& fn) {
  const size_t n = order.nodes.size();
  uint64_t pairs = 0;
  if (n < 2) {
    if (pairs_out != nullptr) *pairs_out = pairs;
    return Status::OK();
  }
  if (n <= 64 && n * (n - 1) / 2 <= samples) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        ++pairs;
        RUIDX_RETURN_NOT_OK(fn(order.nodes[i], order.nodes[j]));
      }
    }
  } else {
    Rng rng(seed);
    for (uint64_t s = 0; s < samples; ++s) {
      size_t i = static_cast<size_t>(rng.NextBounded(n));
      size_t j = static_cast<size_t>(rng.NextBounded(n - 1));
      if (j >= i) ++j;
      ++pairs;
      RUIDX_RETURN_NOT_OK(fn(order.nodes[i], order.nodes[j]));
    }
  }
  if (pairs_out != nullptr) *pairs_out = pairs;
  return Status::OK();
}

/// `samples` seeded random nodes (all of them for small documents).
std::vector<xml::Node*> SampledNodes(const DocOrder& order, uint64_t samples,
                                     uint64_t seed) {
  if (order.nodes.size() <= samples) return order.nodes;
  std::vector<xml::Node*> out;
  out.reserve(samples);
  Rng rng(seed);
  for (uint64_t s = 0; s < samples; ++s) {
    out.push_back(order.nodes[rng.NextBounded(order.nodes.size())]);
  }
  return out;
}

/// Numeric (global, local, flag) order — the order EncodeIdKey's byte
/// encoding must realize (Sec. 2.1: "sorted first by the global index, and
/// then by local index").
int CompareIdTriples(const Ruid2Id& a, const Ruid2Id& b) {
  if (a.global != b.global) return a.global < b.global ? -1 : 1;
  if (a.local != b.local) return a.local < b.local ? -1 : 1;
  if (a.is_area_root != b.is_area_root) return a.is_area_root ? 1 : -1;
  return 0;
}

// ---------------------------------------------------------------------------
// Document-level invariants
// ---------------------------------------------------------------------------

Status CheckKTableSorted(const KTable& k) {
  const std::vector<KRow>& rows = k.rows();
  for (size_t i = 1; i < rows.size(); ++i) {
    if (!(rows[i - 1].global < rows[i].global)) {
      return Violation("ktable-sorted",
                       "K rows not strictly ascending at index " +
                           std::to_string(i) + ": " +
                           rows[i - 1].global.ToDecimalString() + " then " +
                           rows[i].global.ToDecimalString());
    }
  }
  return Status::OK();
}

Status CheckKTablePackedMirror(const KTable& k) {
  size_t expected_packed = 0;
  for (const KRow& row : k.rows()) {
    if (!k.PackedMirrorAgrees(row)) {
      return Violation("ktable-packed-mirror",
                       "packed mirror disagrees with the BigUint row for "
                       "global " +
                           row.global.ToDecimalString());
    }
    if (row.global.FitsUint128() &&
        k.FindPacked(row.global.ToUint128()) != nullptr) {
      ++expected_packed;
    }
  }
  if (expected_packed != k.packed_size()) {
    return Violation("ktable-packed-mirror",
                     "packed mirror holds " + std::to_string(k.packed_size()) +
                         " rows, " + std::to_string(expected_packed) +
                         " reachable from the BigUint rows (stale entry)");
  }
  return Status::OK();
}

Status CheckPartitionCover(const Ruid2Scheme& scheme, xml::Node* root,
                           const DocOrder& order, uint64_t* areas_out) {
  const Partition& p = scheme.partition();

  // Every live node sits in exactly one live area; an area root's members
  // are enumerated in the *upper* area (Def. 1/2: areas overlap only at
  // area roots). The operational form below is exactly the rule the
  // enumeration uses, so any divergence is a cover/disjointness break.
  for (xml::Node* n : order.nodes) {
    auto mit = p.member_area.find(n->serial());
    if (mit == p.member_area.end()) {
      return Violation("partition-cover",
                       "node <" + n->name() + "> (serial " +
                           std::to_string(n->serial()) +
                           ") belongs to no area");
    }
    uint32_t member = mit->second;
    if (member >= p.areas.size() || p.areas[member].root == nullptr) {
      return Violation("partition-cover",
                       "node serial " + std::to_string(n->serial()) +
                           " assigned to dead area " + std::to_string(member));
    }
    auto rit = p.rooted_area.find(n->serial());
    if (rit != p.rooted_area.end() && p.areas[rit->second].root != n) {
      return Violation("partition-cover",
                       "rooted_area points area " +
                           std::to_string(rit->second) +
                           " at a different node than serial " +
                           std::to_string(n->serial()));
    }
    if (n == root) {
      if (member != 0 || rit == p.rooted_area.end() || rit->second != 0) {
        return Violation("partition-cover",
                         "tree root must root and belong to area 0");
      }
      continue;
    }
    // Disjointness, operationally: a node takes its local index in the area
    // where its parent's children are enumerated — parent's rooted area if
    // the parent is an area root, the parent's member area otherwise.
    xml::Node* parent = n->parent();
    auto prit = p.rooted_area.find(parent->serial());
    uint32_t expected = prit != p.rooted_area.end()
                            ? prit->second
                            : p.member_area.at(parent->serial());
    if (member != expected) {
      return Violation("partition-cover",
                       "node serial " + std::to_string(n->serial()) +
                           " enumerated in area " + std::to_string(member) +
                           ", its parent expands area " +
                           std::to_string(expected));
    }
  }

  // Per-area structure: back-pointers, document order of child areas, and
  // the member/fan-out accounting the K rows are derived from.
  uint64_t live = 0;
  for (uint32_t i = 0; i < p.areas.size(); ++i) {
    const Partition::Area& area = p.areas[i];
    if (area.root == nullptr) continue;
    ++live;
    size_t prev_rank = 0;
    bool have_prev = false;
    for (uint32_t c : area.child_areas) {
      if (c >= p.areas.size() || p.areas[c].root == nullptr) {
        return Violation("partition-cover",
                         "area " + std::to_string(i) +
                             " lists dead child area " + std::to_string(c));
      }
      if (p.areas[c].parent_area != i) {
        return Violation("partition-cover",
                         "child area " + std::to_string(c) +
                             " does not point back at parent area " +
                             std::to_string(i));
      }
      size_t r = order.rank.at(p.areas[c].root->serial());
      if (have_prev && r <= prev_rank) {
        return Violation("partition-cover",
                         "child areas of area " + std::to_string(i) +
                             " are not in document order (Lemma 3)");
      }
      prev_rank = r;
      have_prev = true;
    }
    // Recount members and the expanding fan-out the way the enumeration
    // walks the area: root plus every child of an expanding member, nested
    // area roots counted but not descended.
    uint64_t members = 1;
    uint64_t max_fanout = 1;
    xml::PreorderTraverse(area.root, [&](xml::Node* m, int depth) {
      if (depth > 0) {
        ++members;
        if (p.rooted_area.contains(m->serial())) return false;
      }
      max_fanout = std::max<uint64_t>(max_fanout, m->fanout());
      return true;
    });
    if (members != area.member_count) {
      return Violation("partition-cover",
                       "area " + std::to_string(i) + " records " +
                           std::to_string(area.member_count) +
                           " members, recount gives " +
                           std::to_string(members));
    }
    // k_i only ever grows (Sec. 3.2), so recorded >= recounted.
    if (max_fanout > area.local_fanout) {
      return Violation("partition-cover",
                       "area " + std::to_string(i) + " has a member fan-out " +
                           std::to_string(max_fanout) +
                           " above its recorded k_i " +
                           std::to_string(area.local_fanout));
    }
  }
  if (areas_out != nullptr) *areas_out = live;
  return Status::OK();
}

Status CheckKTablePartitionAgreement(const Ruid2Scheme& scheme) {
  const Partition& p = scheme.partition();
  const KTable& k = scheme.ktable();
  uint64_t live = 0;
  for (uint32_t i = 0; i < p.areas.size(); ++i) {
    const Partition::Area& area = p.areas[i];
    if (area.root == nullptr) continue;
    ++live;
    if (!scheme.HasLabel(area.root)) {
      return Violation("ktable-partition",
                       "area " + std::to_string(i) + " root is unlabeled");
    }
    const Ruid2Id& root_id = scheme.label(area.root);
    const KRow* row = k.Find(root_id.global);
    if (row == nullptr) {
      return Violation("ktable-partition",
                       "no K row for live area with global " +
                           root_id.global.ToDecimalString());
    }
    if (row->fanout != area.local_fanout) {
      return Violation("ktable-partition",
                       "K fan-out " + std::to_string(row->fanout) +
                           " disagrees with partition k_i " +
                           std::to_string(area.local_fanout) + " for global " +
                           root_id.global.ToDecimalString());
    }
    if (row->root_local != root_id.local) {
      return Violation("ktable-partition",
                       "K root_local " + row->root_local.ToDecimalString() +
                           " disagrees with the area root's local index " +
                           root_id.local.ToDecimalString() + " for global " +
                           root_id.global.ToDecimalString());
    }
  }
  if (live != k.size()) {
    return Violation("ktable-partition",
                     "K table has " + std::to_string(k.size()) +
                         " rows for " + std::to_string(live) + " live areas");
  }
  if (scheme.kappa() < p.FrameFanout()) {
    return Violation("ktable-partition",
                     "kappa " + std::to_string(scheme.kappa()) +
                         " below the frame fan-out " +
                         std::to_string(p.FrameFanout()));
  }
  return Status::OK();
}

Status CheckFrameFanoutBound(const Ruid2Scheme& scheme, xml::Node* root) {
  if (!scheme.options().adjust_fanout) return Status::OK();
  uint64_t source = std::max<uint64_t>(1, xml::ComputeStats(root).max_fanout);
  uint64_t frame = scheme.partition().FrameFanout();
  if (frame > source) {
    return Violation("frame-fanout-bound",
                     "frame fan-out " + std::to_string(frame) +
                         " exceeds the source-tree fan-out " +
                         std::to_string(source) + " (Sec. 2.3)");
  }
  return Status::OK();
}

Status CheckLabelsCompleteAndUnique(const Ruid2Scheme& scheme,
                                    const DocOrder& order) {
  for (xml::Node* n : order.nodes) {
    if (!scheme.HasLabel(n)) {
      return Violation("id-unique", "node <" + n->name() + "> (serial " +
                                        std::to_string(n->serial()) +
                                        ") carries no identifier");
    }
    const Ruid2Id& id = scheme.label(n);
    xml::Node* back = scheme.NodeById(id);
    if (back != n) {
      return Violation(
          "id-unique",
          "identifier " + id.ToString() + " of serial " +
              std::to_string(n->serial()) +
              (back == nullptr
                   ? " is not indexed"
                   : " resolves to serial " + std::to_string(back->serial()) +
                         " — two nodes share one identifier"));
    }
  }
  if (scheme.label_count() != order.nodes.size()) {
    return Violation("id-unique",
                     "label table holds " +
                         std::to_string(scheme.label_count()) +
                         " identifiers for " +
                         std::to_string(order.nodes.size()) + " nodes");
  }
  return Status::OK();
}

Status CheckRparentClosure(const Ruid2Scheme& scheme, xml::Node* root,
                           const DocOrder& order) {
  if (!(scheme.label(root) == Ruid2RootId())) {
    return Violation("rparent-closure",
                     "tree root is " + scheme.label(root).ToString() +
                         ", expected (1, 1, true) (Def. 3)");
  }
  for (xml::Node* n : order.nodes) {
    if (n == root) continue;
    const Ruid2Id& id = scheme.label(n);
    auto parent = scheme.Parent(id);
    if (!parent.ok()) {
      return Violation("rparent-closure",
                       "rparent(" + id.ToString() +
                           ") failed: " + parent.status().ToString());
    }
    const Ruid2Id& dom_parent = scheme.label(n->parent());
    if (!(*parent == dom_parent)) {
      return Violation("rparent-closure",
                       "rparent(" + id.ToString() + ") = " +
                           parent->ToString() + ", DOM parent is " +
                           dom_parent.ToString() + " (Fig. 6)");
    }
  }
  return Status::OK();
}

Status CheckOrderAgreement(const Ruid2Scheme& scheme, const DocOrder& order,
                           const CheckOptions& options, CheckReport* report) {
  uint64_t pairs = 0;
  Status st = ForSampledPairs(
      order, options.order_samples, options.rng_seed, &pairs,
      [&](xml::Node* a, xml::Node* b) {
        const Ruid2Id& ia = scheme.label(a);
        const Ruid2Id& ib = scheme.label(b);
        int want = order.rank.at(a->serial()) < order.rank.at(b->serial())
                       ? -1
                       : 1;
        int got = scheme.CompareIds(ia, ib);
        if (got != want) {
          return Violation("order-agreement",
                           "CompareIds(" + ia.ToString() + ", " +
                               ib.ToString() + ") = " + std::to_string(got) +
                               ", document order says " +
                               std::to_string(want));
        }
        if (scheme.CompareIds(ib, ia) != -want) {
          return Violation("order-agreement",
                           "CompareIds is not antisymmetric on " +
                               ia.ToString() + " and " + ib.ToString());
        }
        return Status::OK();
      });
  if (report != nullptr) report->pairs_sampled += pairs;
  return st;
}

Status CheckIdKeyOrder(const Ruid2Scheme& scheme, const DocOrder& order,
                       const CheckOptions& options) {
  return ForSampledPairs(
      order, options.order_samples, options.rng_seed + 1, nullptr,
      [&](xml::Node* a, xml::Node* b) {
        const Ruid2Id& ia = scheme.label(a);
        const Ruid2Id& ib = scheme.label(b);
        auto ka = storage::EncodeIdKey(ia);
        auto kb = storage::EncodeIdKey(ib);
        if (!ka.ok() || !kb.ok()) return Status::OK();  // >128-bit: no key
        int byte_order = std::memcmp(ka->data(), kb->data(), ka->size());
        byte_order = byte_order < 0 ? -1 : (byte_order > 0 ? 1 : 0);
        int numeric = CompareIdTriples(ia, ib);
        if (byte_order != numeric) {
          return Violation("id-key-order",
                           "key byte order " + std::to_string(byte_order) +
                               " disagrees with (global, local, flag) order " +
                               std::to_string(numeric) + " for " +
                               ia.ToString() + " vs " + ib.ToString());
        }
        if (options.check_packed) {
          // The packed and BigUint encoders must emit identical bytes.
          auto packed = [&] {
            PackedToggleGuard on(true);
            return storage::EncodeIdKey(ia);
          }();
          auto plain = [&] {
            PackedToggleGuard off(false);
            return storage::EncodeIdKey(ia);
          }();
          if (packed.ok() != plain.ok() ||
              (packed.ok() &&
               std::memcmp(packed->data(), plain->data(), packed->size()) !=
                   0)) {
            return Violation("id-key-order",
                             "packed and BigUint key encodings differ for " +
                                 ia.ToString());
          }
        }
        return Status::OK();
      });
}

Status CheckCacheCoherence(const Ruid2Scheme& scheme, const DocOrder& order,
                           const CheckOptions& options) {
  // Ground truth: the DOM ancestor chain mapped through the labels.
  auto dom_chain = [&](xml::Node* n) {
    std::vector<Ruid2Id> chain;
    for (xml::Node* a = n->parent(); a != nullptr && !a->is_document();
         a = a->parent()) {
      chain.push_back(scheme.label(a));
    }
    return chain;
  };
  for (xml::Node* n :
       SampledNodes(order, options.chain_samples, options.rng_seed + 2)) {
    const Ruid2Id& id = scheme.label(n);
    std::vector<Ruid2Id> expected = dom_chain(n);
    std::vector<Ruid2Id> got = scheme.Ancestors(id);
    if (got != expected) {
      return Violation("cache-coherence",
                       "Ancestors(" + id.ToString() + ") returned " +
                           std::to_string(got.size()) +
                           " identifiers that disagree with the DOM chain (" +
                           std::to_string(expected.size()) + " ancestors)");
    }
  }
  // Per-area: the memoized chain of each area root against a fresh
  // rparent() climb that never touches the cache.
  const Partition& p = scheme.partition();
  for (uint32_t i = 0; i < p.areas.size(); ++i) {
    if (p.areas[i].root == nullptr) continue;
    const Ruid2Id root_id = scheme.label(p.areas[i].root);
    std::vector<Ruid2Id> fresh;
    Ruid2Id cur = root_id;
    while (!(cur == Ruid2RootId())) {
      auto parent = RuidParent(cur, scheme.kappa(), scheme.ktable());
      if (!parent.ok()) break;
      cur = parent.MoveValueUnsafe();
      fresh.push_back(cur);
    }
    const std::vector<Ruid2Id>* cached = scheme.ancestor_cache().AreaRootAncestors(
        root_id.global, scheme.kappa(), scheme.ktable());
    if (cached == nullptr || *cached != fresh) {
      return Violation("cache-coherence",
                       "cached area-root chain for global " +
                           root_id.global.ToDecimalString() +
                           " disagrees with a fresh rparent() climb");
    }
  }
  return Status::OK();
}

Status CheckPackedAgreement(const Ruid2Scheme& scheme, const DocOrder& order,
                            const CheckOptions& options) {
  for (xml::Node* n :
       SampledNodes(order, options.chain_samples, options.rng_seed + 3)) {
    const Ruid2Id& id = scheme.label(n);
    Result<Ruid2Id> packed_parent = [&] {
      PackedToggleGuard on(true);
      return scheme.Parent(id);
    }();
    Result<Ruid2Id> plain_parent = [&] {
      PackedToggleGuard off(false);
      return scheme.Parent(id);
    }();
    if (packed_parent.ok() != plain_parent.ok() ||
        (packed_parent.ok() && !(*packed_parent == *plain_parent))) {
      return Violation("packed-agreement",
                       "packed and BigUint rparent() disagree for " +
                           id.ToString());
    }
    std::vector<Ruid2Id> packed_chain = [&] {
      PackedToggleGuard on(true);
      return scheme.Ancestors(id);
    }();
    std::vector<Ruid2Id> plain_chain = [&] {
      PackedToggleGuard off(false);
      return scheme.Ancestors(id);
    }();
    if (packed_chain != plain_chain) {
      return Violation("packed-agreement",
                       "packed and BigUint ancestor chains disagree for " +
                           id.ToString());
    }
  }
  return Status::OK();
}

}  // namespace

std::string CheckReport::Summary() const {
  std::ostringstream os;
  os << invariants.size() << " invariants clean over " << nodes_checked
     << " nodes, " << areas_checked << " areas, " << pairs_sampled
     << " sampled pairs:";
  for (const std::string& name : invariants) os << " " << name;
  return os.str();
}

Status CheckDocumentInvariants(const Ruid2Scheme& scheme, xml::Node* root,
                               const CheckOptions& options,
                               CheckReport* report) {
  if (root == nullptr) return Status::InvalidArgument("null root");
  DocOrder order(root);
  if (report != nullptr) report->nodes_checked += order.nodes.size();

  RUIDX_RETURN_NOT_OK(CheckKTableSorted(scheme.ktable()));
  MarkPassed(report, "ktable-sorted");

  RUIDX_RETURN_NOT_OK(CheckKTablePackedMirror(scheme.ktable()));
  MarkPassed(report, "ktable-packed-mirror");

  uint64_t areas = 0;
  RUIDX_RETURN_NOT_OK(CheckPartitionCover(scheme, root, order, &areas));
  if (report != nullptr) report->areas_checked += areas;
  MarkPassed(report, "partition-cover");

  RUIDX_RETURN_NOT_OK(CheckKTablePartitionAgreement(scheme));
  MarkPassed(report, "ktable-partition");

  if (options.check_frame_bound) {
    RUIDX_RETURN_NOT_OK(CheckFrameFanoutBound(scheme, root));
    MarkPassed(report, "frame-fanout-bound");
  }

  RUIDX_RETURN_NOT_OK(CheckLabelsCompleteAndUnique(scheme, order));
  MarkPassed(report, "id-unique");

  RUIDX_RETURN_NOT_OK(CheckRparentClosure(scheme, root, order));
  MarkPassed(report, "rparent-closure");

  RUIDX_RETURN_NOT_OK(CheckOrderAgreement(scheme, order, options, report));
  MarkPassed(report, "order-agreement");

  RUIDX_RETURN_NOT_OK(CheckIdKeyOrder(scheme, order, options));
  MarkPassed(report, "id-key-order");

  if (options.check_cache) {
    RUIDX_RETURN_NOT_OK(CheckCacheCoherence(scheme, order, options));
    MarkPassed(report, "cache-coherence");
  }

  if (options.check_packed) {
    RUIDX_RETURN_NOT_OK(CheckPackedAgreement(scheme, order, options));
    MarkPassed(report, "packed-agreement");
  }
  return Status::OK();
}

Status CheckStoreInvariants(const Ruid2Scheme& scheme, xml::Node* root,
                            storage::ElementStore* store,
                            const CheckOptions& options, CheckReport* report) {
  if (root == nullptr || store == nullptr) {
    return Status::InvalidArgument("null root or store");
  }
  (void)options;
  Status violation = Status::OK();
  bool have_prev = false;
  storage::BPlusTree::Key prev{};
  uint64_t records = 0;
  RUIDX_RETURN_NOT_OK(store->ScanAll([&](const storage::BPlusTree::Key& key,
                                         const storage::ElementRecord& rec) {
    ++records;
    if (have_prev && std::memcmp(prev.data(), key.data(), key.size()) >= 0) {
      violation = Violation("store-key-order",
                            "index keys not strictly ascending at record " +
                                rec.id.ToString());
      return false;
    }
    prev = key;
    have_prev = true;
    core::Ruid2Id decoded = storage::DecodeIdKey(key);
    if (!(decoded == rec.id)) {
      violation = Violation("store-key-id",
                            "key decodes to " + decoded.ToString() +
                                " but the record carries " +
                                rec.id.ToString());
      return false;
    }
    auto reencoded = storage::EncodeIdKey(rec.id);
    if (!reencoded.ok() ||
        std::memcmp(reencoded->data(), key.data(), key.size()) != 0) {
      violation = Violation("store-key-id",
                            "re-encoding " + rec.id.ToString() +
                                " does not reproduce its index key");
      return false;
    }
    xml::Node* node = scheme.NodeById(rec.id);
    if (node == nullptr) {
      violation = Violation("store-coverage",
                            "stored identifier " + rec.id.ToString() +
                                " is not labeled in the scheme");
      return false;
    }
    if (node->name() != rec.name ||
        static_cast<uint8_t>(node->type()) != rec.node_type) {
      violation = Violation("store-coverage",
                            "record for " + rec.id.ToString() +
                                " disagrees with the DOM node's name/type");
      return false;
    }
    const core::Ruid2Id expected_parent =
        (node == root) ? rec.id : scheme.label(node->parent());
    if (!(rec.parent_id == expected_parent)) {
      violation = Violation("store-coverage",
                            "record for " + rec.id.ToString() +
                                " carries parent " + rec.parent_id.ToString() +
                                ", DOM parent is " +
                                expected_parent.ToString());
      return false;
    }
    return true;
  }));
  RUIDX_RETURN_NOT_OK(violation);
  MarkPassed(report, "store-key-order");
  MarkPassed(report, "store-key-id");
  if (records != scheme.label_count() || store->record_count() != records) {
    return Violation("store-coverage",
                     "store holds " + std::to_string(records) +
                         " records (counter " +
                         std::to_string(store->record_count()) + ") for " +
                         std::to_string(scheme.label_count()) +
                         " labeled nodes");
  }
  MarkPassed(report, "store-coverage");
  if (report != nullptr) report->nodes_checked += records;

  // Secondary-index battery, scheme-aware side: the store-level checks
  // (VerifySecondaryIndexes) prove postings agree with the heap; these
  // prove they agree with the *document* — term hashes re-derived from the
  // DOM, posting order re-derived from the scheme's comparator.

  // name-index-coverage: every name posting resolves to a labeled node
  // whose tag hashes to the posting's term, and the posting count matches
  // the record count (with per-posting agreement, equality makes the
  // posting set a bijection onto the records).
  uint64_t name_postings = 0;
  RUIDX_RETURN_NOT_OK(store->ScanNamePostings(
      [&](uint64_t term, const core::Ruid2Id& id, uint64_t location) {
        (void)location;
        ++name_postings;
        xml::Node* node = scheme.NodeById(id);
        if (node == nullptr) {
          violation = Violation("name-index-coverage",
                                "name posting for " + id.ToString() +
                                    " names an identifier the scheme never "
                                    "labeled");
          return false;
        }
        if (storage::HashNameTerm(node->name()) != term) {
          violation = Violation("name-index-coverage",
                                "name posting for " + id.ToString() +
                                    " is filed under a term that is not the "
                                    "hash of \"" +
                                    std::string(node->name()) + "\"");
          return false;
        }
        return true;
      }));
  RUIDX_RETURN_NOT_OK(violation);
  if (name_postings != records) {
    return Violation("name-index-coverage",
                     "name index holds " + std::to_string(name_postings) +
                         " postings for " + std::to_string(records) +
                         " records");
  }
  MarkPassed(report, "name-index-coverage");

  // path-index-order: postings within one term must strictly ascend in the
  // store's canonical (global, local, flag) identifier order — the same
  // order the primary keys realize, which is document order inside each
  // area (Sec. 2.1) — and each term must equal the root-to-node tag-path
  // hash recomputed from the DOM (preorder keeps the parent's term on a
  // depth-indexed stack, mirroring BulkLoad).
  std::unordered_map<uint32_t, uint64_t> dom_path_term;  // serial -> term
  {
    std::vector<uint64_t> term_stack;
    xml::PreorderTraverse(root, [&](xml::Node* n, int depth) {
      uint64_t term =
          depth == 0 ? storage::RootPathTerm(n->name())
                     : storage::ExtendPathTerm(term_stack[depth - 1],
                                               n->name());
      term_stack.resize(depth + 1);
      term_stack[depth] = term;
      dom_path_term[n->serial()] = term;
      return true;
    });
  }
  uint64_t path_postings = 0;
  bool have_prev_posting = false;
  uint64_t prev_term = 0;
  core::Ruid2Id prev_id;
  RUIDX_RETURN_NOT_OK(store->ScanPathPostings(
      [&](uint64_t term, const core::Ruid2Id& id, uint64_t location) {
        (void)location;
        ++path_postings;
        xml::Node* node = scheme.NodeById(id);
        if (node == nullptr) {
          violation = Violation("path-index-order",
                                "path posting for " + id.ToString() +
                                    " names an identifier the scheme never "
                                    "labeled");
          return false;
        }
        auto it = dom_path_term.find(node->serial());
        if (it == dom_path_term.end() || it->second != term) {
          violation = Violation("path-index-order",
                                "path posting for " + id.ToString() +
                                    " is filed under a term that does not "
                                    "match its root-to-node tag path");
          return false;
        }
        if (have_prev_posting && prev_term == term &&
            CompareIdTriples(prev_id, id) >= 0) {
          violation = Violation("path-index-order",
                                "path postings for one term leave "
                                    "(global, local, flag) identifier "
                                    "order at " +
                                    id.ToString());
          return false;
        }
        have_prev_posting = true;
        prev_term = term;
        prev_id = id;
        return true;
      }));
  RUIDX_RETURN_NOT_OK(violation);
  if (path_postings != records) {
    return Violation("path-index-order",
                     "path index holds " + std::to_string(path_postings) +
                         " postings for " + std::to_string(records) +
                         " records");
  }
  MarkPassed(report, "path-index-order");

  // On-disk battery: flushes, then reads the file raw — page trailer
  // checksums, LSN bounds, free-list shape, index/heap/free disjointness
  // (see ElementStore::VerifyOnDisk).
  RUIDX_RETURN_NOT_OK(store->VerifyOnDisk());
  MarkPassed(report, "page-checksum");
  MarkPassed(report, "lsn-monotonic");
  MarkPassed(report, "free-list");
  MarkPassed(report, "tree-reachability");

  // Store-side secondary battery: postings ↔ heap-location agreement and
  // index B+tree shape, which the scheme-aware passes above cannot see.
  RUIDX_RETURN_NOT_OK(store->VerifySecondaryIndexes());
  MarkPassed(report, "index-consistency");
  return Status::OK();
}

Status CheckRuidMInvariants(const RuidMScheme& scheme, xml::Node* root,
                            const CheckOptions& options, CheckReport* report) {
  if (root == nullptr) return Status::InvalidArgument("null root");
  DocOrder order(root);
  if (report != nullptr) report->nodes_checked += order.nodes.size();

  for (xml::Node* n : order.nodes) {
    if (!scheme.HasId(n)) {
      return Violation("ruidm-unique", "node serial " +
                                           std::to_string(n->serial()) +
                                           " carries no multilevel id");
    }
    xml::Node* back = scheme.NodeById(scheme.IdOf(n));
    if (back != n) {
      return Violation("ruidm-unique",
                       "multilevel id " + scheme.IdOf(n).ToString() +
                           " does not resolve back to its node — duplicate");
    }
  }
  if (scheme.id_count() != order.nodes.size()) {
    return Violation("ruidm-unique",
                     "id table holds " + std::to_string(scheme.id_count()) +
                         " identifiers for " +
                         std::to_string(order.nodes.size()) + " nodes");
  }
  MarkPassed(report, "ruidm-unique");

  for (xml::Node* n : order.nodes) {
    auto parent = scheme.Parent(scheme.IdOf(n));
    if (n == root) {
      if (parent.ok()) {
        return Violation("ruidm-parent-closure",
                         "the root id has a parent: " + parent->ToString());
      }
      continue;
    }
    if (!parent.ok()) {
      return Violation("ruidm-parent-closure",
                       "parent(" + scheme.IdOf(n).ToString() +
                           ") failed: " + parent.status().ToString());
    }
    if (!(*parent == scheme.IdOf(n->parent()))) {
      return Violation("ruidm-parent-closure",
                       "parent(" + scheme.IdOf(n).ToString() + ") = " +
                           parent->ToString() + ", DOM parent is " +
                           scheme.IdOf(n->parent()).ToString());
    }
  }
  MarkPassed(report, "ruidm-parent-closure");

  uint64_t pairs = 0;
  RUIDX_RETURN_NOT_OK(ForSampledPairs(
      order, options.order_samples, options.rng_seed + 4, &pairs,
      [&](xml::Node* a, xml::Node* b) {
        int want = order.rank.at(a->serial()) < order.rank.at(b->serial())
                       ? -1
                       : 1;
        if (scheme.CompareIds(scheme.IdOf(a), scheme.IdOf(b)) != want) {
          return Violation("ruidm-order",
                           "CompareIds disagrees with document order for " +
                               scheme.IdOf(a).ToString() + " vs " +
                               scheme.IdOf(b).ToString());
        }
        return Status::OK();
      }));
  if (report != nullptr) report->pairs_sampled += pairs;
  MarkPassed(report, "ruidm-order");
  return Status::OK();
}

}  // namespace analysis
}  // namespace ruidx
