// The 2-level recursive UID numbering scheme (Sec. 2 of the paper).
//
// An identifier is the triple (global index, local index, root indicator)
// of Def. 3. The scheme keeps the frame fan-out κ and table K in memory, so
// rparent() (Fig. 6) and everything built on it (ancestors, order
// comparison, axis candidate generation) run without touching the tree —
// let alone the disk.
#ifndef RUIDX_CORE_RUID2_H_
#define RUIDX_CORE_RUID2_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ancestor_path_cache.h"
#include "core/ktable.h"
#include "core/packed_ruid2_id.h"
#include "core/partition.h"
#include "core/ruid2_id.h"
#include "scheme/labeling.h"
#include "util/biguint.h"
#include "util/result.h"
#include "xml/dom.h"

namespace ruidx {
namespace util {
class ThreadPool;
}  // namespace util

namespace core {

/// \brief 2-level ruid over a DOM tree.
///
/// Implements the generic LabelingScheme interface for the cross-scheme
/// benchmarks, plus the identifier-arithmetic API (Parent/Ancestors/
/// CompareIds) that works on (κ, K) alone, plus incremental updates.
class Ruid2Scheme : public scheme::LabelingScheme {
 public:
  explicit Ruid2Scheme(PartitionOptions options = {})
      : options_(std::move(options)) {}

  // --- LabelingScheme ------------------------------------------------------
  std::string name() const override { return "ruid2"; }
  void Build(xml::Node* root) override;
  /// Parallel build: UID-local areas are independent by construction
  /// (Defs. 1-3), so their local enumerations run concurrently on `pool`
  /// (pure per-area computation), followed by a deterministic serial merge
  /// in area order. A null pool (or a one-worker pool) is the serial path;
  /// results are bit-identical for every thread count.
  void Build(xml::Node* root, util::ThreadPool* pool);
  bool IsParent(const xml::Node* p, const xml::Node* c) const override;
  bool IsAncestor(const xml::Node* a, const xml::Node* d) const override;
  int CompareOrder(const xml::Node* a, const xml::Node* b) const override;
  uint64_t LabelBits(const xml::Node* n) const override;
  uint64_t TotalLabelBits() const override;
  std::string LabelString(const xml::Node* n) const override;
  /// Detects externally applied insertions/deletions and repairs only the
  /// affected areas (Sec. 3.2); returns the number of changed identifiers.
  uint64_t RelabelAndCount(xml::Node* root) override;

  // --- Identifier arithmetic (κ and K only; no tree access, no I/O) --------

  /// rparent() of Fig. 6. Fails for the main root identifier.
  Result<Ruid2Id> Parent(const Ruid2Id& id) const;

  /// rancestor(): the chain of proper ancestors, nearest first. A packed
  /// identifier's chain is climbed afresh on machine words (AncestorsPacked)
  /// and unpacked; only an identifier or chain outside the packed range goes
  /// to the per-area ancestor-path cache's BigUint memo.
  std::vector<Ruid2Id> Ancestors(const Ruid2Id& id) const;

  /// Packed rancestor(): writes the proper-ancestor chain of `id`, nearest
  /// first, as trivially-copyable packed identifiers into *out with no
  /// per-element allocation, by a cold rparent climb that takes no lock.
  /// Returns false (with *out unspecified) when `id` or any ancestor is
  /// outside the packed range — callers then use Ancestors().
  bool AncestorsPacked(const Ruid2Id& id,
                       std::vector<PackedRuid2Id>* out) const;

  /// True iff a is a proper ancestor of d, by identifier arithmetic.
  bool IsAncestorId(const Ruid2Id& a, const Ruid2Id& d) const;

  /// Document-order comparison (ancestors precede descendants). Uses the
  /// frame shortcut of Lemma 3 when the two areas are order-comparable and
  /// falls back to the Fig. 10 chain comparison otherwise.
  int CompareIds(const Ruid2Id& a, const Ruid2Id& b) const;

  /// Depth of the node identified by `id` (root at 0), by arithmetic alone.
  uint64_t DepthOf(const Ruid2Id& id) const;

  // --- Structure accessors --------------------------------------------------

  uint64_t kappa() const { return kappa_; }
  const KTable& ktable() const { return ktable_; }
  const Partition& partition() const { return partition_; }
  const PartitionOptions& options() const { return options_; }

  /// The per-area BigUint memo behind Ancestors/CompareIds/IsAncestorId for
  /// identifiers outside the packed range; packed chains never touch it.
  /// Exposed for statistics; invalidation is automatic.
  AncestorPathCache& ancestor_cache() const { return ancestor_cache_; }

  /// The identifier of `n`, which must be labeled (HasLabel).
  const Ruid2Id& label(const xml::Node* n) const {
    return labels_.at(n->serial()).id;
  }
  bool HasLabel(const xml::Node* n) const {
    return n->serial() < labels_.size() &&
           labels_[n->serial()].node != nullptr;
  }

  /// The node carrying identifier `id`, or nullptr when `id` is virtual or
  /// unknown. (This is the in-memory stand-in for the paper's RDBMS index.)
  xml::Node* NodeById(const Ruid2Id& id) const;

  /// NodeById for an identifier already in packed form — the posting keys
  /// of the store joins decode straight to it.
  xml::Node* NodeByPackedId(const PackedRuid2Id& id) const;

  /// The proper-ancestor chain of the root of area `global`, nearest first:
  /// the frame part every identifier with that global index shares, climbed
  /// from the area's packed K row. Returns false (with *out unspecified)
  /// when the area has no K row or the chain leaves the packed range.
  bool AreaRootAncestorsPacked(uint128_t global,
                               std::vector<PackedRuid2Id>* out) const;

  /// Number of labeled nodes.
  size_t label_count() const { return label_count_; }

  /// Calls fn(node, id) for every labeled node, in serial order.
  template <typename Fn>
  void ForEachLabeled(Fn&& fn) const {
    for (const LabelSlot& slot : labels_) {
      if (slot.node != nullptr) fn(slot.node, slot.id);
    }
  }

  /// Main-memory footprint of the global parameters (κ + table K), the data
  /// the paper requires to be resident for rparent.
  uint64_t GlobalStateBytes() const { return sizeof(kappa_) + ktable_.SizeInBytes(); }

  // --- Incremental structural update (Sec. 3.2) ----------------------------

  /// Inserts `child` (a detached node, possibly with a subtree below it) as
  /// parent->children()[pos] and repairs identifiers incrementally: only the
  /// area where the update lands is re-enumerated.
  Result<UpdateReport> InsertAndRelabel(xml::Document* doc, xml::Node* parent,
                                        size_t pos, xml::Node* child);

  /// Removes the subtree rooted at `victim` (cascading, as in the paper) and
  /// repairs identifiers incrementally.
  Result<UpdateReport> RemoveAndRelabel(xml::Document* doc, xml::Node* victim);

  /// Full invariant check against the current tree: every node labeled and
  /// indexed, rparent inverts every edge, K rows consistent with the
  /// partition, κ within bounds. Returns Corruption describing the first
  /// violation. Intended for tests and post-update audits.
  Status Validate(xml::Node* root) const;

 private:
  /// Corruption injection for the invariant-verifier tests (defined there).
  friend class Ruid2SchemeTestPeer;

  /// The pure half of area (re-)enumeration: walks one area and computes
  /// the labels every member should carry, the area's (possibly grown)
  /// local fan-out, and the root_local patches owed to child-area K rows —
  /// without mutating any scheme state. Reads only immutable-during-build
  /// structures, so independent areas can be enumerated on worker threads.
  struct AreaEnumeration {
    uint32_t area_idx = 0;
    uint64_t fanout = 1;
    bool fanout_grew = false;
    uint64_t member_count = 1;
    /// (node, id) in local enumeration order, area root excluded.
    std::vector<std::pair<xml::Node*, Ruid2Id>> labels;
    /// Child areas rooted inside this area: (child area idx, root_local).
    std::vector<std::pair<uint32_t, BigUint>> child_root_locals;
  };
  AreaEnumeration EnumerateArea(uint32_t area_idx) const;

  /// The mutating half: publishes an enumeration into the label array, the
  /// partition, and table K. Must run serially (callers order by area
  /// index, which makes parallel builds deterministic). Returns the number
  /// of previously labeled nodes whose identifier changed.
  uint64_t ApplyEnumeration(const AreaEnumeration& e, bool* fanout_grew);

  /// Re-enumerates the local indices of one area in place. Returns the
  /// number of previously labeled nodes whose identifier changed.
  uint64_t RenumberArea(uint32_t area_idx, bool* fanout_grew);

  /// The area in which `n` takes its local index.
  uint32_t MemberAreaOf(const xml::Node* n) const;
  /// The area in which children of `n` are enumerated.
  uint32_t ExpandAreaOf(const xml::Node* n) const;

  void SetLabel(xml::Node* n, Ruid2Id id, uint64_t* changed);
  void DropLabel(xml::Node* n);

  /// Points the identifier index at `serial` for labels_[serial].id (the
  /// entry another serial held under that identifier is taken over).
  void IndexLabel(uint32_t serial);
  /// Removes labels_[serial].id from the identifier index if it still
  /// points at `serial`. Must run before labels_[serial].id changes.
  void UnindexLabel(uint32_t serial);
  /// The slot of id_slots_ (non-empty) holding `id`, or the empty slot
  /// that ends its probe run; *found tells which.
  size_t ProbeSlot(const PackedRuid2Id& id, bool* found) const;
  /// Rebuilds id_slots_ with room for `count` identifiers.
  void ResizeIdSlots(size_t count);

  /// One entry of the dense label array.
  struct LabelSlot {
    Ruid2Id id;
    xml::Node* node = nullptr;  // nullptr: the serial carries no label
  };

  PartitionOptions options_;
  Partition partition_;
  uint64_t kappa_ = 1;
  KTable ktable_;
  /// Node serial -> label. Serials are dense per document, so Build sizes
  /// the array once; insertions extend it for the serials they create.
  std::vector<LabelSlot> labels_;
  size_t label_count_ = 0;
  /// Packed identifier -> serial: open addressing with linear probing. A
  /// slot is (32-bit identifier hash << 32) | (serial + 1), 0 when empty;
  /// the identifier itself is read back from labels_, so a slot is one
  /// word. The hash's low bits pick the home slot.
  std::vector<uint64_t> id_slots_;
  size_t id_slot_count_ = 0;
  /// Identifiers outside the packed range -> serial.
  std::unordered_map<Ruid2Id, uint32_t, Ruid2IdHash> wide_ids_;
  /// global index -> area index, for update paths that need the area.
  std::unordered_map<BigUint, uint32_t, BigUintHash> area_by_global_;
  /// area index -> global index (inverse of area_by_global_).
  std::vector<BigUint> area_globals_;
  /// Memoized BigUint frame ancestor chains, one per area, for identifiers
  /// that do not pack; invalidated by the update paths through UpdateReport.
  mutable AncestorPathCache ancestor_cache_;
};

}  // namespace core
}  // namespace ruidx

#endif  // RUIDX_CORE_RUID2_H_
