#include "core/ruid2.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "scheme/uid.h"
#include "util/dcheck.h"
#include "util/thread_pool.h"

namespace ruidx {
namespace core {

using scheme::UidChild;
using scheme::UidCompareOrder;
using scheme::UidIsAncestor;
using scheme::UidParent;

std::string Ruid2Id::ToString() const {
  std::ostringstream os;
  os << "(" << global.ToDecimalString() << ", " << local.ToDecimalString()
     << ", " << (is_area_root ? "true" : "false") << ")";
  return os.str();
}

Ruid2Id Ruid2RootId() { return Ruid2Id{BigUint(1), BigUint(1), true}; }

uint32_t Ruid2Scheme::MemberAreaOf(const xml::Node* n) const {
  return partition_.member_area.at(n->serial());
}

uint32_t Ruid2Scheme::ExpandAreaOf(const xml::Node* n) const {
  auto it = partition_.rooted_area.find(n->serial());
  if (it != partition_.rooted_area.end()) return it->second;
  return partition_.member_area.at(n->serial());
}

namespace {

/// The identifier-index hash of a packed identifier: 32 bits, stored in
/// the slot beside the serial.
uint32_t SlotHash(const PackedRuid2Id& id) {
  return static_cast<uint32_t>(PackedRuid2IdHash()(id) >> 32);
}

/// True iff `id` packs to `packed`.
bool SameId(const Ruid2Id& id, const PackedRuid2Id& packed) {
  return id.is_area_root == packed.is_area_root() && id.local.FitsUint64() &&
         id.local.ToUint64() == packed.local() && id.global.FitsUint128() &&
         id.global.ToUint128() == packed.global;
}

uint64_t MakeSlot(uint32_t hash, uint32_t serial) {
  return (static_cast<uint64_t>(hash) << 32) | (uint64_t{serial} + 1);
}
uint32_t SlotSerial(uint64_t slot) {
  return static_cast<uint32_t>(slot) - 1;
}

}  // namespace

size_t Ruid2Scheme::ProbeSlot(const PackedRuid2Id& id, bool* found) const {
  const size_t mask = id_slots_.size() - 1;
  const uint32_t hash = SlotHash(id);
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = id_slots_[i];
    *found = slot != 0;
    if (!*found || (static_cast<uint32_t>(slot >> 32) == hash &&
                    SameId(labels_[SlotSerial(slot)].id, id))) {
      return i;
    }
  }
}

void Ruid2Scheme::ResizeIdSlots(size_t count) {
  // Load factor at most 3/4; rehashing needs only the stored hashes.
  size_t capacity = 16;
  while (capacity * 3 < count * 4) capacity *= 2;
  std::vector<uint64_t> old = std::move(id_slots_);
  id_slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (uint64_t slot : old) {
    if (slot == 0) continue;
    size_t i = (slot >> 32) & mask;
    while (id_slots_[i] != 0) i = (i + 1) & mask;
    id_slots_[i] = slot;
  }
}

void Ruid2Scheme::IndexLabel(uint32_t serial) {
  const Ruid2Id& id = labels_[serial].id;
  PackedRuid2Id packed;
  if (!PackRuid2Id(id, &packed)) {
    wide_ids_[id] = serial;
    return;
  }
  if ((id_slot_count_ + 1) * 4 > id_slots_.size() * 3) {
    ResizeIdSlots(id_slot_count_ + 1);
  }
  bool found;
  size_t i = ProbeSlot(packed, &found);
  if (!found) ++id_slot_count_;
  id_slots_[i] = MakeSlot(SlotHash(packed), serial);
}

void Ruid2Scheme::UnindexLabel(uint32_t serial) {
  const Ruid2Id& id = labels_[serial].id;
  PackedRuid2Id packed;
  if (!PackRuid2Id(id, &packed)) {
    auto it = wide_ids_.find(id);
    if (it != wide_ids_.end() && it->second == serial) wide_ids_.erase(it);
    return;
  }
  bool found;
  size_t i = ProbeSlot(packed, &found);
  if (!found || SlotSerial(id_slots_[i]) != serial) return;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless their home slot lies cyclically in (hole, entry].
  const size_t mask = id_slots_.size() - 1;
  for (size_t j = i;;) {
    id_slots_[i] = 0;
    for (;;) {
      j = (j + 1) & mask;
      if (id_slots_[j] == 0) {
        --id_slot_count_;
        return;
      }
      size_t home = (id_slots_[j] >> 32) & mask;
      bool stays = i <= j ? (i < home && home <= j) : (i < home || home <= j);
      if (!stays) break;
    }
    id_slots_[i] = id_slots_[j];
    i = j;
  }
}

void Ruid2Scheme::SetLabel(xml::Node* n, Ruid2Id id, uint64_t* changed) {
  const uint32_t serial = n->serial();
  if (serial >= labels_.size()) labels_.resize(serial + 1);
  LabelSlot& slot = labels_[serial];
  if (slot.node != nullptr) {
    if (slot.id == id) return;
    if (changed != nullptr) ++*changed;
    UnindexLabel(serial);
  } else {
    slot.node = n;
    ++label_count_;
  }
  slot.id = std::move(id);
  IndexLabel(serial);
}

void Ruid2Scheme::DropLabel(xml::Node* n) {
  const uint32_t serial = n->serial();
  if (serial >= labels_.size() || labels_[serial].node == nullptr) return;
  UnindexLabel(serial);
  labels_[serial] = LabelSlot{};
  --label_count_;
}

Ruid2Scheme::AreaEnumeration Ruid2Scheme::EnumerateArea(
    uint32_t area_idx) const {
  const Partition::Area& area = partition_.areas[area_idx];
  assert(area.root != nullptr && "enumerating a dropped area");
  const BigUint& area_global = area_globals_[area_idx];
  AreaEnumeration e;
  e.area_idx = area_idx;

  // Recompute the local maximal fan-out over expanding members. The paper
  // only ever *enlarges* k_i (shrinking would relabel for no benefit).
  uint64_t max_fanout = 1;
  xml::PreorderTraverse(area.root, [&](xml::Node* n, int depth) {
    if (depth > 0 && partition_.IsAreaRoot(n)) return false;  // leaf here
    max_fanout = std::max<uint64_t>(max_fanout, n->fanout());
    return true;
  });
  e.fanout = area.local_fanout;
  if (max_fanout > e.fanout) {
    e.fanout = max_fanout;
    e.fanout_grew = true;
  }
  uint64_t k = e.fanout;

  // Local enumeration (Fig. 3, lines 4-13): the area root is index 1; the
  // j-th child of an expanding member with index L gets UidChild(L, k, j).
  uint64_t members = 1;
  struct Frame {
    xml::Node* node;
    BigUint local;
  };
  std::vector<Frame> stack{{area.root, BigUint(1)}};
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    const auto& ch = f.node->children();
    for (size_t j = 0; j < ch.size(); ++j) {
      xml::Node* c = ch[j];
      ++members;
      BigUint local = UidChild(f.local, k, j);
      auto rit = partition_.rooted_area.find(c->serial());
      if (rit != partition_.rooted_area.end()) {
        // c roots a child area: identifier (g_child, local-in-this-area,
        // true); its K row's root_local is patched during the apply step.
        e.child_root_locals.emplace_back(rit->second, local);
        e.labels.emplace_back(
            c, Ruid2Id{area_globals_[rit->second], std::move(local), true});
        // Do not descend: c's children belong to the child area.
      } else {
        e.labels.emplace_back(c, Ruid2Id{area_global, local, false});
        stack.push_back({c, std::move(local)});
      }
    }
  }
  e.member_count = members;
  return e;
}

uint64_t Ruid2Scheme::ApplyEnumeration(const AreaEnumeration& e,
                                       bool* fanout_grew) {
  Partition::Area& area = partition_.areas[e.area_idx];
  if (e.fanout_grew) {
    area.local_fanout = e.fanout;
    if (fanout_grew != nullptr) *fanout_grew = true;
  }
  ktable_.SetFanout(area_globals_[e.area_idx], e.fanout);
  for (const auto& [child_area, root_local] : e.child_root_locals) {
    ktable_.SetRootLocal(area_globals_[child_area], root_local);
  }
  uint64_t changed = 0;
  for (const auto& [node, id] : e.labels) {
    SetLabel(node, id, &changed);
  }
  area.member_count = e.member_count;
  // Every published label must still be uniquely indexed, and the K row the
  // enumeration wrote must reflect the fan-out it enumerated with.
  RUIDX_DCHECK(label_count_ == id_slot_count_ + wide_ids_.size(),
               "label/index bijection broken by ApplyEnumeration");
  RUIDX_DCHECK(ktable_.Find(area_globals_[e.area_idx]) != nullptr &&
                   ktable_.Find(area_globals_[e.area_idx])->fanout == e.fanout,
               "K fan-out stale after ApplyEnumeration");
  return changed;
}

uint64_t Ruid2Scheme::RenumberArea(uint32_t area_idx, bool* fanout_grew) {
  return ApplyEnumeration(EnumerateArea(area_idx), fanout_grew);
}

void Ruid2Scheme::Build(xml::Node* root) { Build(root, nullptr); }

void Ruid2Scheme::Build(xml::Node* root, util::ThreadPool* pool) {
  auto partition = PartitionTree(root, options_);
  assert(partition.ok() && "invalid partition options");
  partition_ = partition.MoveValueUnsafe();
  // Size the label array and the identifier index once for the whole tree.
  uint32_t serial_bound = 0;
  size_t node_count = 0;
  xml::PreorderTraverse(root, [&](xml::Node* n, int) {
    serial_bound = std::max(serial_bound, n->serial() + 1);
    ++node_count;
    return true;
  });
  labels_.clear();
  labels_.resize(serial_bound);
  label_count_ = 0;
  id_slots_.clear();
  id_slot_count_ = 0;
  ResizeIdSlots(node_count);
  wide_ids_.clear();
  ktable_.Clear();
  area_by_global_.clear();
  area_globals_.assign(partition_.areas.size(), BigUint(0));
  ancestor_cache_.Clear();

  kappa_ = std::max<uint64_t>(1, partition_.FrameFanout());

  // Global enumeration of the frame with a κ-ary UID (Fig. 3, lines 1-3).
  struct Frame {
    uint32_t area;
    BigUint global;
  };
  std::vector<Frame> stack{{0, BigUint(1)}};
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    const auto& child_areas = partition_.areas[f.area].child_areas;
    for (size_t j = 0; j < child_areas.size(); ++j) {
      stack.push_back({child_areas[j], UidChild(f.global, kappa_, j)});
    }
    area_by_global_[f.global] = f.area;
    area_globals_[f.area] = std::move(f.global);
  }

  // Seed table K; root_local values are patched during local enumeration.
  for (uint32_t i = 0; i < partition_.areas.size(); ++i) {
    ktable_.Upsert(KRow{area_globals_[i], BigUint(i == 0 ? 1 : 0),
                        partition_.areas[i].local_fanout});
  }

  // The main root is (1, 1, true) by Def. 3.
  SetLabel(root, Ruid2RootId(), nullptr);

  // Local enumeration of every area. Areas share no members besides their
  // roots (enumerated in the *upper* area), so EnumerateArea calls are
  // independent pure computations — the BigUint-heavy half of the build —
  // and run concurrently. The apply step merges serially in area order,
  // which makes the result identical for every thread count.
  // lint: disjoint-writes — worker i writes only enumerations[i].
  std::vector<AreaEnumeration> enumerations(partition_.areas.size());
  util::ThreadPool::ParallelFor(
      pool, partition_.areas.size(), [&](size_t i) {
        enumerations[i] = EnumerateArea(static_cast<uint32_t>(i));
      });
  for (const AreaEnumeration& e : enumerations) {
    ApplyEnumeration(e, nullptr);
  }
}

Result<Ruid2Id> RuidParent(const Ruid2Id& id, uint64_t kappa, const KTable& k) {
  PackedRuid2Id packed;
  if (PackRuid2Id(id, &packed)) {
    PackedRuid2Id parent;
    switch (PackedRuidParent(packed, kappa, k, &parent)) {
      case PackedParentStatus::kOk:
        return UnpackRuid2Id(parent);
      case PackedParentStatus::kMainRoot:
        return Status::NotFound("the main root has no parent");
      case PackedParentStatus::kNoParentInArea:
        return Status::InvalidArgument("local index " +
                                       std::to_string(packed.local()) +
                                       " has no parent in its area");
      case PackedParentStatus::kFallback:
        break;  // outside the packed range
    }
  }
  return RuidParentBigUint(id, kappa, k);
}

Result<Ruid2Id> RuidParentBigUint(const Ruid2Id& id, uint64_t kappa,
                                  const KTable& k) {
  if (id == Ruid2RootId()) {
    return Status::NotFound("the main root has no parent");
  }
  // Fig. 6, lines 1-5: pick the area that hosts the parent.
  BigUint g = id.is_area_root ? UidParent(id.global, kappa) : id.global;
  const KRow* row = k.Find(g);
  if (row == nullptr) {
    return Status::NotFound("no K row for global index " + g.ToDecimalString());
  }
  if (id.local < BigUint(2)) {
    return Status::InvalidArgument("local index " + id.local.ToDecimalString() +
                                   " has no parent in its area");
  }
  // Fig. 6, lines 6-13.
  BigUint l = UidParent(id.local, row->fanout);
  if (l == BigUint(1)) {
    return Ruid2Id{std::move(g), row->root_local, true};
  }
  return Ruid2Id{std::move(g), std::move(l), false};
}

std::vector<Ruid2Id> RuidAncestorsBigUint(const Ruid2Id& id, uint64_t kappa,
                                          const KTable& k) {
  std::vector<Ruid2Id> chain;
  Ruid2Id cur = id;
  for (;;) {
    auto parent = RuidParentBigUint(cur, kappa, k);
    if (!parent.ok()) return chain;
    cur = parent.MoveValueUnsafe();
    chain.push_back(cur);
  }
}

Result<Ruid2Id> Ruid2Scheme::Parent(const Ruid2Id& id) const {
  return RuidParent(id, kappa_, ktable_);
}

std::vector<Ruid2Id> Ruid2Scheme::Ancestors(const Ruid2Id& id) const {
  std::vector<PackedRuid2Id> packed;
  if (AncestorsPacked(id, &packed)) {
    std::vector<Ruid2Id> out;
    out.reserve(packed.size());
    for (const PackedRuid2Id& p : packed) out.push_back(UnpackRuid2Id(p));
    return out;
  }
  return ancestor_cache_.Ancestors(id, kappa_, ktable_);
}

bool Ruid2Scheme::AncestorsPacked(const Ruid2Id& id,
                                  std::vector<PackedRuid2Id>* out) const {
  PackedRuid2Id packed;
  if (!PackRuid2Id(id, &packed)) return false;
  out->clear();
  return PackedRuidAncestors(packed, kappa_, ktable_, out);
}

bool Ruid2Scheme::IsAncestorId(const Ruid2Id& a, const Ruid2Id& d) const {
  if (a == d) return false;
  std::vector<PackedRuid2Id> chain;
  if (AncestorsPacked(d, &chain)) {
    PackedRuid2Id pa;
    // d's complete chain is packed, so an unpackable a cannot be on it.
    if (!PackRuid2Id(a, &pa)) return false;
    for (const PackedRuid2Id& anc : chain) {
      if (anc == pa) return true;
    }
    return false;
  }
  // a is a proper ancestor of d iff it appears on d's ancestor chain.
  for (const Ruid2Id& anc : ancestor_cache_.Ancestors(d, kappa_, ktable_)) {
    if (anc == a) return true;
  }
  return false;
}

uint64_t Ruid2Scheme::DepthOf(const Ruid2Id& id) const {
  return Ancestors(id).size();
}

int Ruid2Scheme::CompareIds(const Ruid2Id& a, const Ruid2Id& b) const {
  if (a == b) return 0;
  PackedRuid2Id pa, pb;
  if (PackRuid2Id(a, &pa) && PackRuid2Id(b, &pb)) {
    // Lemma 3 shortcut on machine words.
    if (pa.global != pb.global &&
        !PackedUidIsAncestor(pa.global, pb.global, kappa_) &&
        !PackedUidIsAncestor(pb.global, pa.global, kappa_)) {
      return PackedUidCompareOrder(pa.global, pb.global, kappa_);
    }
    // Fig. 10 fallback on packed chains (root first, the node last).
    std::vector<PackedRuid2Id> ca, cb;
    if (PackedRuidAncestors(pa, kappa_, ktable_, &ca) &&
        PackedRuidAncestors(pb, kappa_, ktable_, &cb)) {
      std::reverse(ca.begin(), ca.end());
      ca.push_back(pa);
      std::reverse(cb.begin(), cb.end());
      cb.push_back(pb);
      size_t i = 0;
      while (i < ca.size() && i < cb.size() && ca[i] == cb[i]) ++i;
      if (i == ca.size()) return -1;  // a is an ancestor of b
      if (i == cb.size()) return 1;
      return ca[i].local() < cb[i].local() ? -1 : 1;
    }
  }
  // Lemma 3: when the two areas are neither equal nor frame-ancestor
  // related, the frame order decides the document order outright.
  const BigUint& ta = a.global;
  const BigUint& tb = b.global;
  if (ta != tb && !UidIsAncestor(ta, tb, kappa_) &&
      !UidIsAncestor(tb, ta, kappa_)) {
    return UidCompareOrder(ta, tb, kappa_);
  }
  // Fig. 10 fallback: compare the children of the lowest common ancestor.
  // Build root-to-node identifier chains and find the divergence point; the
  // two divergent identifiers are siblings enumerated in the same area, so
  // their local indices are numerically ordered left to right.
  auto chain_of = [&](const Ruid2Id& id) {
    std::vector<Ruid2Id> chain = Ancestors(id);
    std::reverse(chain.begin(), chain.end());
    chain.push_back(id);
    return chain;
  };
  std::vector<Ruid2Id> ca = chain_of(a);
  std::vector<Ruid2Id> cb = chain_of(b);
  size_t i = 0;
  while (i < ca.size() && i < cb.size() && ca[i] == cb[i]) ++i;
  if (i == ca.size()) return -1;  // a is an ancestor of b
  if (i == cb.size()) return 1;
  return ca[i].local < cb[i].local ? -1 : 1;
}

xml::Node* Ruid2Scheme::NodeById(const Ruid2Id& id) const {
  PackedRuid2Id packed;
  if (PackRuid2Id(id, &packed)) return NodeByPackedId(packed);
  auto it = wide_ids_.find(id);
  return it == wide_ids_.end() ? nullptr : labels_[it->second].node;
}

xml::Node* Ruid2Scheme::NodeByPackedId(const PackedRuid2Id& id) const {
  if (id_slots_.empty()) return nullptr;  // never built
  bool found;
  size_t i = ProbeSlot(id, &found);
  return found ? labels_[SlotSerial(id_slots_[i])].node : nullptr;
}

bool Ruid2Scheme::AreaRootAncestorsPacked(
    uint128_t global, std::vector<PackedRuid2Id>* out) const {
  out->clear();
  const PackedKRow* row = ktable_.FindPacked(global);
  if (row == nullptr) return false;
  return PackedRuidAncestors(
      PackedRuid2Id{global, row->root_local | PackedRuid2Id::kRootBit}, kappa_,
      ktable_, out);
}

bool Ruid2Scheme::IsParent(const xml::Node* p, const xml::Node* c) const {
  auto parent = Parent(label(c));
  return parent.ok() && *parent == label(p);
}

bool Ruid2Scheme::IsAncestor(const xml::Node* a, const xml::Node* d) const {
  return IsAncestorId(label(a), label(d));
}

int Ruid2Scheme::CompareOrder(const xml::Node* a, const xml::Node* b) const {
  return CompareIds(label(a), label(b));
}

uint64_t Ruid2Scheme::LabelBits(const xml::Node* n) const {
  const Ruid2Id& id = label(n);
  return static_cast<uint64_t>(id.global.BitWidth()) +
         static_cast<uint64_t>(id.local.BitWidth()) + 1;
}

uint64_t Ruid2Scheme::TotalLabelBits() const {
  uint64_t total = 0;
  ForEachLabeled([&](const xml::Node*, const Ruid2Id& id) {
    total += static_cast<uint64_t>(id.global.BitWidth()) +
             static_cast<uint64_t>(id.local.BitWidth()) + 1;
  });
  return total;
}

std::string Ruid2Scheme::LabelString(const xml::Node* n) const {
  return label(n).ToString();
}

Result<UpdateReport> Ruid2Scheme::InsertAndRelabel(xml::Document* doc,
                                                   xml::Node* parent,
                                                   size_t pos,
                                                   xml::Node* child) {
  if (doc == nullptr || parent == nullptr || child == nullptr) {
    return Status::InvalidArgument("null argument");
  }
  if (!HasLabel(parent)) {
    return Status::InvalidArgument("parent is not labeled by this scheme");
  }
  RUIDX_RETURN_NOT_OK(doc->InsertChild(parent, pos, child));
  // The new subtree joins the area in which parent's children are
  // enumerated; no new areas are created by an insertion (Sec. 3.2).
  uint32_t area = ExpandAreaOf(parent);
  xml::PreorderTraverse(child, [&](xml::Node* n, int) {
    partition_.member_area[n->serial()] = area;
    return true;
  });
  UpdateReport report;
  report.areas_touched = 1;
  report.relabeled = RenumberArea(area, &report.local_fanout_grew);
  ancestor_cache_.OnUpdate(report);
  // The inserted subtree must have been labeled by the re-enumeration, and
  // rparent must invert the new edge immediately.
  RUIDX_DCHECK(HasLabel(child), "inserted node left unlabeled");
  RUIDX_DCHECK(
      [&] {
        auto parent_id = Parent(label(child));
        return parent_id.ok() && *parent_id == label(parent);
      }(),
      "rparent does not invert the inserted edge");
  return report;
}

Result<UpdateReport> Ruid2Scheme::RemoveAndRelabel(xml::Document* doc,
                                                   xml::Node* victim) {
  if (doc == nullptr || victim == nullptr) {
    return Status::InvalidArgument("null argument");
  }
  if (!HasLabel(victim)) {
    return Status::InvalidArgument("victim is not labeled by this scheme");
  }
  if (victim->parent() == nullptr || victim->parent()->is_document()) {
    return Status::InvalidArgument("cannot remove the root");
  }
  uint32_t area = MemberAreaOf(victim);
  UpdateReport report;

  // Node deletion is cascading: every area rooted inside the subtree dies
  // with it, along with its K row. Other areas keep their global indices —
  // the freed frame slots simply become virtual.
  xml::PreorderTraverse(victim, [&](xml::Node* n, int) {
    auto rit = partition_.rooted_area.find(n->serial());
    if (rit != partition_.rooted_area.end()) {
      uint32_t dead = rit->second;
      ++report.areas_dropped;
      const BigUint& dead_global = area_globals_[dead];
      ktable_.Erase(dead_global);
      area_by_global_.erase(dead_global);
      uint32_t up = partition_.areas[dead].parent_area;
      if (up != Partition::kNoArea && partition_.areas[up].root != nullptr) {
        auto& siblings = partition_.areas[up].child_areas;
        siblings.erase(std::remove(siblings.begin(), siblings.end(), dead),
                       siblings.end());
      }
      partition_.areas[dead].root = nullptr;
      partition_.rooted_area.erase(rit);
    }
    partition_.member_area.erase(n->serial());
    DropLabel(n);
    return true;
  });

  RUIDX_RETURN_NOT_OK(doc->RemoveSubtree(victim));
  report.areas_touched = 1;
  report.relabeled = RenumberArea(area, &report.local_fanout_grew);
  ancestor_cache_.OnUpdate(report);
  // Cascading deletion must leave no label behind and keep the index a
  // bijection; the victim's subtree was dropped above.
  RUIDX_DCHECK(!HasLabel(victim), "removed node still labeled");
  RUIDX_DCHECK(label_count_ == id_slot_count_ + wide_ids_.size(),
               "label/index bijection broken by RemoveAndRelabel");
  return report;
}

Status Ruid2Scheme::Validate(xml::Node* root) const {
  if (root == nullptr) return Status::InvalidArgument("null root");
  // 1. Labels: complete, bijective with the index, rparent inverts edges.
  uint64_t node_count = 0;
  Status status = Status::OK();
  xml::PreorderTraverse(root, [&](xml::Node* n, int) {
    if (!status.ok()) return false;
    ++node_count;
    if (!HasLabel(n)) {
      status = Status::Corruption("unlabeled node <" + n->name() + ">");
      return false;
    }
    const Ruid2Id& id = label(n);
    if (NodeById(id) != n) {
      status = Status::Corruption("index does not map " + id.ToString() +
                                  " back to its node");
      return false;
    }
    if (n == root) {
      if (!(id == Ruid2RootId())) {
        status = Status::Corruption("root is " + id.ToString() +
                                    ", expected (1, 1, true)");
      }
      return true;
    }
    auto parent = Parent(id);
    if (!parent.ok()) {
      status = Status::Corruption("rparent failed for " + id.ToString() +
                                  ": " + parent.status().ToString());
      return false;
    }
    if (!HasLabel(n->parent()) || !(*parent == label(n->parent()))) {
      status = Status::Corruption("rparent(" + id.ToString() +
                                  ") does not match the DOM parent");
      return false;
    }
    return true;
  });
  RUIDX_RETURN_NOT_OK(status);
  if (node_count != label_count_) {
    return Status::Corruption("label table holds " +
                              std::to_string(label_count_) + " entries for " +
                              std::to_string(node_count) + " nodes");
  }
  if (label_count_ != id_slot_count_ + wide_ids_.size()) {
    return Status::Corruption("id index size mismatch");
  }
  // 2. K table and partition agreement.
  uint64_t live_areas = 0;
  for (uint32_t i = 0; i < partition_.areas.size(); ++i) {
    const Partition::Area& area = partition_.areas[i];
    if (area.root == nullptr) continue;  // dropped by a deletion
    ++live_areas;
    const KRow* row = ktable_.Find(area_globals_[i]);
    if (row == nullptr) {
      return Status::Corruption("missing K row for area " +
                                area_globals_[i].ToDecimalString());
    }
    if (row->fanout != area.local_fanout) {
      return Status::Corruption("K fanout disagrees with partition for area " +
                                area_globals_[i].ToDecimalString());
    }
    const Ruid2Id& root_id = label(area.root);
    if (row->root_local != root_id.local) {
      return Status::Corruption("K root_local stale for area " +
                                area_globals_[i].ToDecimalString());
    }
    // Local fan-out bounds every expanding member.
    Status area_status = Status::OK();
    xml::PreorderTraverse(area.root, [&](xml::Node* n, int depth) {
      if (depth > 0 && partition_.IsAreaRoot(n)) return false;
      if (n->fanout() > area.local_fanout) {
        area_status = Status::Corruption("member fan-out exceeds k in area " +
                                         area_globals_[i].ToDecimalString());
        return false;
      }
      return true;
    });
    RUIDX_RETURN_NOT_OK(area_status);
  }
  if (live_areas != ktable_.size()) {
    return Status::Corruption("K table has " + std::to_string(ktable_.size()) +
                              " rows for " + std::to_string(live_areas) +
                              " live areas");
  }
  if (kappa_ < partition_.FrameFanout()) {
    return Status::Corruption("kappa below the frame fan-out");
  }
  return Status::OK();
}

uint64_t Ruid2Scheme::RelabelAndCount(xml::Node* root) {
  // Detect externally applied mutations: unlabeled nodes are insertions,
  // labeled serials that vanished from the tree are deletions.
  std::unordered_set<uint32_t> in_tree;
  std::vector<uint32_t> dirty_areas;
  auto mark_dirty = [&](uint32_t area) {
    if (std::find(dirty_areas.begin(), dirty_areas.end(), area) ==
        dirty_areas.end()) {
      dirty_areas.push_back(area);
    }
  };
  xml::PreorderTraverse(root, [&](xml::Node* n, int) {
    in_tree.insert(n->serial());
    if (!HasLabel(n) &&
        !partition_.member_area.contains(n->serial())) {
      // Preorder guarantees the parent was processed first, so its
      // membership is known by now.
      xml::Node* p = n->parent();
      uint32_t area = (p == nullptr) ? 0 : ExpandAreaOf(p);
      partition_.member_area[n->serial()] = area;
      mark_dirty(area);
    }
    return true;
  });

  // Deletions.
  UpdateReport report;
  std::vector<xml::Node*> gone;
  ForEachLabeled([&](xml::Node* n, const Ruid2Id&) {
    if (!in_tree.contains(n->serial())) gone.push_back(n);
  });
  for (xml::Node* node : gone) {
    const uint32_t serial = node->serial();
    auto mit = partition_.member_area.find(serial);
    if (mit != partition_.member_area.end()) {
      // The containing area must be re-enumerated if it survives.
      uint32_t area = mit->second;
      if (partition_.areas[area].root != nullptr &&
          in_tree.contains(partition_.areas[area].root->serial())) {
        mark_dirty(area);
      }
      partition_.member_area.erase(mit);
    }
    auto rit = partition_.rooted_area.find(serial);
    if (rit != partition_.rooted_area.end()) {
      uint32_t dead = rit->second;
      ++report.areas_dropped;
      const BigUint& dead_global = area_globals_[dead];
      ktable_.Erase(dead_global);
      area_by_global_.erase(dead_global);
      uint32_t up = partition_.areas[dead].parent_area;
      if (up != Partition::kNoArea && partition_.areas[up].root != nullptr) {
        auto& siblings = partition_.areas[up].child_areas;
        siblings.erase(std::remove(siblings.begin(), siblings.end(), dead),
                       siblings.end());
      }
      partition_.areas[dead].root = nullptr;
      partition_.rooted_area.erase(rit);
    }
    DropLabel(node);
  }

  uint64_t changed = 0;
  for (uint32_t area : dirty_areas) {
    if (partition_.areas[area].root == nullptr) continue;
    ++report.areas_touched;
    changed += RenumberArea(area, &report.local_fanout_grew);
  }
  report.relabeled = changed;
  ancestor_cache_.OnUpdate(report);
  RUIDX_DCHECK(label_count_ == id_slot_count_ + wide_ids_.size(),
               "label/index bijection broken by RelabelAndCount");
  return changed;
}

}  // namespace core
}  // namespace ruidx
