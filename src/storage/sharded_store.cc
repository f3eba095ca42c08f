#include "storage/sharded_store.h"

#include <algorithm>
#include <filesystem>
#include <unordered_map>
#include <utility>

#include "util/dcheck.h"
#include "util/thread_pool.h"

namespace ruidx {
namespace storage {

namespace {

/// Builds the record for one labeled node (shared by the serial and
/// parallel bulk-load paths).
ElementRecord MakeRecord(const core::Ruid2Scheme& scheme, xml::Node* n,
                         xml::Node* root) {
  ElementRecord record;
  record.id = scheme.label(n);
  record.parent_id = (n == root) ? record.id : scheme.label(n->parent());
  record.node_type = static_cast<uint8_t>(n->type());
  record.name = n->name();
  if (!n->is_element()) record.value = n->value();
  return record;
}

}  // namespace

Result<std::unique_ptr<ShardedElementStore>> ShardedElementStore::Create(
    const std::string& dir, size_t buffer_pool_pages_per_shard) {
  return std::unique_ptr<ShardedElementStore>(
      new ShardedElementStore(dir, buffer_pool_pages_per_shard));
}

Result<std::unique_ptr<ShardedElementStore>> ShardedElementStore::Open(
    const std::string& dir, size_t buffer_pool_pages_per_shard) {
  if (dir.empty()) {
    return Status::InvalidArgument(
        "cannot reopen a temp-backed sharded store");
  }
  auto store = std::unique_ptr<ShardedElementStore>(
      new ShardedElementStore(dir, buffer_pool_pages_per_shard));
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError("cannot list shard directory " + dir + ": " +
                           ec.message());
  }
  for (const auto& entry : it) {
    if (!entry.is_regular_file() || entry.path().extension() != ".shard") {
      continue;
    }
    // "<name>-<global>.shard": the global index never contains '-', so the
    // last dash splits name from global (names themselves may contain one,
    // and text/value shards have an empty name: "-18.shard").
    std::string stem = entry.path().stem().string();
    size_t dash = stem.rfind('-');
    if (dash == std::string::npos || dash + 1 == stem.size()) {
      return Status::Corruption("unparsable shard file name: " +
                                entry.path().string());
    }
    auto global = BigUint::FromDecimalString(stem.substr(dash + 1));
    if (!global.ok()) {
      return Status::Corruption("unparsable shard file name: " +
                                entry.path().string());
    }
    RUIDX_ASSIGN_OR_RETURN(
        std::unique_ptr<ElementStore> shard,
        ElementStore::Open(entry.path().string(), buffer_pool_pages_per_shard,
                           /*background_flusher=*/false));
    // Uncontended (the store is not shared until Open returns), but
    // shards_ is lock-annotated so the factory takes the map mutex too.
    MutexLock lock(&store->shards_mu_);
    store->shards_.emplace(ShardKey{stem.substr(0, dash), *global},
                           std::move(shard));
  }
  return store;
}

Status ShardedElementStore::Flush() {
  MutexLock lock(&shards_mu_);
  for (auto& [key, shard] : shards_) {
    RUIDX_RETURN_NOT_OK(shard->Flush());
  }
  return Status::OK();
}

Status ShardedElementStore::VerifyOnDisk() {
  MutexLock lock(&shards_mu_);
  for (auto& [key, shard] : shards_) {
    Status st = shard->VerifyOnDisk();
    if (!st.ok()) {
      return Status::Corruption("shard " + key.name + "-" +
                                key.global.ToDecimalString() + ": " +
                                st.message());
    }
  }
  return Status::OK();
}

Result<ElementStore*> ShardedElementStore::ShardFor(const ShardKey& key,
                                                    bool create) {
  MutexLock lock(&shards_mu_);
  auto it = shards_.find(key);
  if (it != shards_.end()) return it->second.get();
  if (!create) return Status::NotFound("no shard for " + key.name);
  std::string path;
  if (!dir_.empty()) {
    path = dir_ + "/" + key.name + "-" + key.global.ToDecimalString() +
           ".shard";
  }
  // Shards live many-to-a-process: one flusher thread per shard would
  // explode the thread count, and the bulk-load workers already provide
  // the parallelism — so shard pools run synchronously.
  RUIDX_ASSIGN_OR_RETURN(std::unique_ptr<ElementStore> store,
                         ElementStore::Create(path, pool_pages_,
                                              /*background_flusher=*/false));
  ElementStore* raw = store.get();
  shards_.emplace(key, std::move(store));
  return raw;
}

Status ShardedElementStore::Put(const ElementRecord& record) {
  RUIDX_ASSIGN_OR_RETURN(
      ElementStore * shard,
      ShardFor(ShardKey{record.name, record.id.global}, /*create=*/true));
  return shard->Put(record);
}

Status ShardedElementStore::BulkLoad(const core::Ruid2Scheme& scheme,
                                     xml::Node* root,
                                     util::ThreadPool* pool) {
  // With no worker to hand shards to — a null/one-worker pool — stream the
  // records directly in document order: no grouping pass, no intermediate
  // buffers, constant memory.
  if (pool == nullptr || pool->size() <= 1) {
    Status status = Status::OK();
    xml::PreorderTraverse(root, [&](xml::Node* n, int) {
      // Returning false only prunes this node's subtree — the traversal
      // goes on with siblings — so the first error must also gate every
      // later visit, or a subsequent successful Put would overwrite it.
      if (!status.ok()) return false;
      status = Put(MakeRecord(scheme, n, root));
      return status.ok();
    });
    return status;
  }

  // Stage 1 (serial): partition NODE POINTERS into per-shard lists in one
  // pass. Records are not materialized here — each worker builds its
  // shard's records right before loading them, so the intermediate state is
  // one pointer per node instead of a second copy of the whole document.
  // Lookups go through a transparent hash so no per-node ShardKey (and its
  // name string) is ever constructed for an existing group. The traversal
  // is document order, so each shard's node list is in document order
  // regardless of how stage 3 is scheduled.
  struct ShardKeyView {
    std::string_view name;
    const BigUint& global;
  };
  struct ShardKeyHash {
    using is_transparent = void;
    size_t operator()(const ShardKey& key) const {
      return std::hash<std::string>()(key.name) * 1099511628211ULL ^
             key.global.Hash();
    }
    size_t operator()(const ShardKeyView& key) const {
      return std::hash<std::string_view>()(key.name) * 1099511628211ULL ^
             key.global.Hash();
    }
  };
  struct ShardKeyEq {
    using is_transparent = void;
    bool operator()(const ShardKey& a, const ShardKey& b) const {
      return a.name == b.name && a.global == b.global;
    }
    bool operator()(const ShardKeyView& a, const ShardKey& b) const {
      return a.name == b.name && a.global == b.global;
    }
    bool operator()(const ShardKey& a, const ShardKeyView& b) const {
      return b.name == a.name && b.global == a.global;
    }
  };
  std::unordered_map<ShardKey, size_t, ShardKeyHash, ShardKeyEq> group_index;
  std::vector<std::vector<xml::Node*>> groups;
  xml::PreorderTraverse(root, [&](xml::Node* n, int) {
    const core::Ruid2Id& id = scheme.label(n);
    auto it = group_index.find(ShardKeyView{n->name(), id.global});
    if (it == group_index.end()) {
      it = group_index
               .try_emplace(ShardKey{std::string(n->name()), id.global},
                            groups.size())
               .first;
      groups.emplace_back();
    }
    groups[it->second].push_back(n);
    return true;
  });

  // Stage 2 (serial): create every shard up front, so the parallel stage
  // never touches the shard map.
  std::vector<std::pair<ElementStore*, const std::vector<xml::Node*>*>> jobs(
      groups.size());
  for (const auto& [key, idx] : group_index) {
    RUIDX_ASSIGN_OR_RETURN(ElementStore * shard, ShardFor(key, /*create=*/true));
    RUIDX_DCHECK(jobs[idx].first == nullptr,
                 "two shard keys merged onto one bulk-load job");
    jobs[idx] = {shard, &groups[idx]};
  }
  RUIDX_DCHECK(std::all_of(jobs.begin(), jobs.end(),
                           [](const auto& j) {
                             return j.first != nullptr && !j.second->empty();
                           }),
               "bulk-load merge left a group without a shard");

  // Stage 3 (parallel): each shard is loaded whole by one worker — no two
  // workers ever share an ElementStore, so the stores need no locks. The
  // worker materializes its shard's records (the scheme and DOM are
  // read-only here) and hands them to BulkLoadRecords in one batch. The
  // per-shard lists are in document order (stage 1 traverses in document
  // order), which need not be identifier order: a preorder walk returns
  // from a child area to its parent's, and 595 of the 8973 (name, area)
  // shards of bench_e2e's ingest document are not ascending. BulkLoadRecords
  // sorts each batch itself, so every shard takes the B+tree's bottom-up
  // batch build instead of record-at-a-time Puts.
  // lint: disjoint-writes — worker i touches only jobs[i] and statuses[i].
  std::vector<Status> statuses(jobs.size(), Status::OK());
  util::ThreadPool::ParallelFor(pool, jobs.size(), [&](size_t i) {
    auto [shard, nodes] = jobs[i];
    std::vector<ElementRecord> records;
    records.reserve(nodes->size());
    for (xml::Node* n : *nodes) {
      records.push_back(MakeRecord(scheme, n, root));
    }
    statuses[i] = shard->BulkLoadRecords(records);
  });
  for (Status& st : statuses) {
    RUIDX_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Result<ElementRecord> ShardedElementStore::Get(const std::string& name,
                                               const core::Ruid2Id& id) {
  RUIDX_ASSIGN_OR_RETURN(ElementStore * shard,
                         ShardFor(ShardKey{name, id.global}, /*create=*/false));
  return shard->Get(id);
}

Result<ElementRecord> ShardedElementStore::GetById(const core::Ruid2Id& id) {
  // Without a name there is no single shard to route to: every shard of the
  // id's area — one per distinct element name there — could hold it. The
  // shard map is ordered by (name, global), so same-area shards are spread
  // across the whole map; walk it once and let each candidate's Bloom
  // filter veto the descent. Shard contents are not touched under the map
  // lock except through Get, which pins pages briefly — same discipline as
  // ScanName.
  MutexLock lock(&shards_mu_);
  ++probe_stats_.lookups;
  for (auto& [key, shard] : shards_) {
    if (key.global != id.global) continue;
    ++probe_stats_.candidate_shards;
    if (!shard->MayContainId(id)) {
      ++probe_stats_.bloom_skips;
      continue;
    }
    ++probe_stats_.tree_probes;
    auto record = shard->Get(id);
    if (record.ok()) return record;
    if (!record.status().IsNotFound()) return record.status();
    // A Bloom false positive: keep probing the area's other shards.
  }
  return Status::NotFound("no shard holds id " + id.ToString());
}

std::vector<ShardedElementStore::ShardInfo> ShardedElementStore::ShardInfos()
    const {
  MutexLock lock(&shards_mu_);
  std::vector<ShardInfo> infos;
  infos.reserve(shards_.size());
  for (const auto& [key, shard] : shards_) {
    ShardInfo info;
    info.name = key.name;
    info.global = key.global;
    info.records = shard->record_count();
    info.index = shard->secondary_stats();
    infos.push_back(std::move(info));
  }
  return infos;
}

Status ShardedElementStore::ScanName(
    const std::string& name,
    const std::function<bool(const ElementRecord&)>& fn) {
  // Shards are sorted by (name, global); iterate the contiguous name run.
  // The map lock is held across the scan so that a concurrent Put creating
  // fresh shards cannot invalidate the iteration (shard *contents* are not
  // touched by map insertions — std::map nodes are stable).
  MutexLock lock(&shards_mu_);
  auto it = shards_.lower_bound(ShardKey{name, BigUint(0)});
  for (; it != shards_.end() && it->first.name == name; ++it) {
    bool keep_going = true;
    Status status = it->second->ScanArea(
        it->first.global, [&](const ElementRecord& record) {
          keep_going = fn(record);
          return keep_going;
        });
    RUIDX_RETURN_NOT_OK(status);
    if (!keep_going) break;
  }
  return Status::OK();
}

Status ShardedElementStore::ScanNameInArea(
    const std::string& name, const BigUint& global,
    const std::function<bool(const ElementRecord&)>& fn) {
  auto shard = ShardFor(ShardKey{name, global}, /*create=*/false);
  if (!shard.ok()) return Status::OK();  // no such shard: empty result
  return (*shard)->ScanArea(global, fn);
}

uint64_t ShardedElementStore::record_count() const {
  MutexLock lock(&shards_mu_);
  uint64_t total = 0;
  for (const auto& [key, shard] : shards_) total += shard->record_count();
  return total;
}

BufferPoolStats ShardedElementStore::pool_stats() const {
  MutexLock lock(&shards_mu_);
  BufferPoolStats total;
  for (const auto& [key, shard] : shards_) {
    BufferPoolStats s = shard->pool_stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.dirty_writebacks += s.dirty_writebacks;
    total.async_writebacks += s.async_writebacks;
    total.prefetches += s.prefetches;
    total.flusher_drains += s.flusher_drains;
  }
  return total;
}

uint64_t ShardedElementStore::logical_page_accesses() const {
  MutexLock lock(&shards_mu_);
  uint64_t total = 0;
  for (const auto& [key, shard] : shards_) {
    total += shard->logical_page_accesses();
  }
  return total;
}

void ShardedElementStore::ResetStats() {
  MutexLock lock(&shards_mu_);
  for (auto& [key, shard] : shards_) shard->ResetStats();
  probe_stats_ = ShardProbeStats{};
}

void ShardedElementStore::SetBloomPruning(bool enabled) {
  MutexLock lock(&shards_mu_);
  for (auto& [key, shard] : shards_) shard->SetBloomEnabled(enabled);
}

Result<std::unique_ptr<ShardedStoreSnapshot>>
ShardedElementStore::OpenSnapshot() {
  // shards_mu_ is held across every per-shard open, and Flush holds it
  // across every per-shard commit — so this view lands exactly on a
  // cross-shard commit boundary, never between two shards of one Flush.
  MutexLock lock(&shards_mu_);
  auto view = std::make_unique<ShardedStoreSnapshot>();
  view->shards_.reserve(shards_.size());
  for (auto& [key, shard] : shards_) {
    RUIDX_ASSIGN_OR_RETURN(std::unique_ptr<StoreSnapshot> snap,
                           shard->OpenSnapshot());
    view->shards_.push_back(
        ShardedStoreSnapshot::ShardView{key.name, key.global,
                                        std::move(snap)});
  }
  return view;
}

Result<ElementRecord> ShardedStoreSnapshot::Get(const std::string& name,
                                                const core::Ruid2Id& id) {
  for (ShardView& sv : shards_) {
    if (sv.name == name && sv.global == id.global) return sv.snap->Get(id);
  }
  return Status::NotFound("no committed shard for (" + name + ", area " +
                          id.global.ToDecimalString() + ")");
}

Result<ElementRecord> ShardedStoreSnapshot::GetById(const core::Ruid2Id& id) {
  // Every shard of the id's area is a candidate (one per distinct name).
  // Unlike the live GetById there is no Bloom veto here: committed filters
  // are not part of the view, so each candidate costs one tree descent.
  for (ShardView& sv : shards_) {
    if (sv.global != id.global) continue;
    auto record = sv.snap->Get(id);
    if (record.ok()) return record;
    if (!record.status().IsNotFound()) return record.status();
  }
  return Status::NotFound("no committed shard holds id " + id.ToString());
}

Status ShardedStoreSnapshot::ScanName(
    const std::string& name,
    const std::function<bool(const ElementRecord&)>& fn) {
  // shards_ is in (name, global) order, so area grouping comes for free.
  for (ShardView& sv : shards_) {
    if (sv.name != name) continue;
    bool keep_going = true;
    RUIDX_RETURN_NOT_OK(
        sv.snap->ScanArea(sv.global, [&](const ElementRecord& record) {
          keep_going = fn(record);
          return keep_going;
        }));
    if (!keep_going) break;
  }
  return Status::OK();
}

uint64_t ShardedStoreSnapshot::record_count() const {
  uint64_t total = 0;
  for (const ShardView& sv : shards_) total += sv.snap->record_count();
  return total;
}

}  // namespace storage
}  // namespace ruidx
