// bench_e2e: end-to-end benchmark of the ruid-labeled XML store.
//
// One workload per process:
//
//   bench_e2e --workload=ingest|query|update|mixed --seed=N --seconds=S
//             [--trace=FILE] [--smoke]
//
// Every workload goes through the public APIs of xml (generator, parser,
// DOM), core (Ruid2Scheme), xpath (RuidEvaluator, name/path indexes,
// structural joins) and storage (ElementStore and its snapshots), the path a
// user of the library takes. Inputs and operation schedules derive from the
// seed alone. Stores are real files under $TMPDIR/ruidx-e2e-<pid>, and every
// Flush fsyncs. Every answer is checked; the last line of standard output is
// one JSON object with the metrics, and the exit code is 1 when any check
// failed. README.md describes the workloads and metrics; run.py builds this
// binary and drives it.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/invariant_checker.h"
#include "core/ruid2.h"
#include "storage/element_store.h"
#include "storage/secondary_index.h"
#include "trace.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "xml/dom.h"
#include "xml/generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/dom_eval.h"
#include "xpath/name_index.h"
#include "xpath/path_index.h"
#include "xpath/ruid_eval.h"
#include "xpath/structural_join.h"

namespace ruidx {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workload shapes

enum class Topology { kXmark, kDblp };

struct Shape {
  Topology topology;
  uint64_t scale;
  /// Buffer-pool pages of every store the workload opens (4 KiB each).
  size_t pool_pages;
};

/// ingest takes documents small enough for ~100 reps in a 15-s window whose
/// store is still 3x its 1 MiB pool; query and update share one XMark store 16x its
/// pool; mixed uses a flat DBLP store that fits its 16 MiB pool, so pool
/// misses drop out.
Shape ShapeFor(const std::string& workload, bool smoke) {
  if (workload == "ingest") return {Topology::kXmark, smoke ? 2000u : 20000u, 256};
  if (workload == "mixed") return {Topology::kDblp, smoke ? 1400u : 40000u, 4096};
  return {Topology::kXmark, smoke ? 2000u : 100000u, 256};
}

/// Set-up runs this many times and setup_s is the median, so neither the
/// first run, which is slower (fresh heap pages), nor one burst of outside
/// interference decides it.
constexpr size_t kSetupReps = 5;
/// Inserted subtrees kept alive before half the updates become deletions.
constexpr size_t kLiveSubtrees = 64;
/// mixed: open-loop snapshot reads per second, and reads per snapshot.
constexpr double kReadsPerSecond = 1000;
constexpr uint64_t kReadsPerSnapshot = 64;
/// The open-loop reader sleeps until this long before a read is due, then
/// spins, so wake-up jitter does not land in the measured latency.
constexpr auto kSpinLead = std::chrono::microseconds(150);

/// The E10 query set (bench/bench_query.cc) minus //initial/following::increase,
/// whose DOM ground truth walks the following axis of every context node.
const char* const kQueries[] = {
    "/site/people/person",
    "//person/name",
    "//person[@id=\"person11\"]",
    "//open_auction/bidder",
    "//bidder[1]/increase",
    "//item/ancestor::*",
    "//person[watches]/name/text()",
    "//category//category",
    "/site/open_auctions/open_auction/bidder/increase",
    "/site/*/person/name",
};

struct JoinCase {
  const char* ancestor;
  const char* descendant;
};
const JoinCase kJoins[] = {{"open_auction", "increase"}, {"person", "name"}};

std::unique_ptr<xml::Document> GenerateDocument(const Shape& shape,
                                                uint64_t seed) {
  if (shape.topology == Topology::kDblp) {
    return xml::GenerateDblpLike(shape.scale / 7, seed);
  }
  xml::XmarkConfig config;
  config.items = shape.scale / 30;
  config.people = shape.scale / 40;
  config.open_auctions = shape.scale / 50;
  config.closed_auctions = shape.scale / 80;
  config.categories = shape.scale / 200 + 2;
  config.seed = seed;
  return xml::GenerateXmarkLike(config);
}

std::string GenerateXml(const Shape& shape, uint64_t seed) {
  Span span("xml.generate");
  return xml::Serialize(GenerateDocument(shape, seed)->document_node());
}

// ---------------------------------------------------------------------------
// Failure accounting and statistics

/// Counts attempted and failed operations and checks across threads; prints
/// the first few failures.
class Tally {
 public:
  bool Check(bool ok, const char* what) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) {
      if (failed_.fetch_add(1, std::memory_order_relaxed) < 10) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", what);
      }
    }
    return ok;
  }
  bool CheckOk(const Status& status, const char* what) {
    if (status.ok()) return Check(true, what);
    return Check(false, (std::string(what) + ": " + status.ToString()).c_str());
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

/// Nearest-rank quantile of an ascending sample; 0 for an empty one.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

/// The metrics of one run: the gated end-to-end set, informational
/// per-class values, and (traced runs only) the per-layer set.
struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> info;
  std::vector<Metric> layers;
};

void AddLatency(std::vector<Metric>* out, const std::string& prefix,
                const std::vector<double>& sorted_us) {
  out->push_back({prefix + "p50_us", Quantile(sorted_us, 0.50), "us",
                  sorted_us.size()});
  out->push_back({prefix + "p99_us", Quantile(sorted_us, 0.99), "us",
                  sorted_us.size()});
}

/// Latencies of the operations of a timed window, each with the time it
/// finished (seconds since the window opened).
struct Samples {
  std::vector<double> us;
  std::vector<double> at_s;

  void Add(Clock::time_point begin, Clock::time_point window_start) {
    auto end = Clock::now();
    us.push_back(std::chrono::duration<double, std::micro>(end - begin).count());
    at_s.push_back(std::chrono::duration<double>(end - window_start).count());
  }
  void Append(const Samples& o) {
    us.insert(us.end(), o.us.begin(), o.us.end());
    at_s.insert(at_s.end(), o.at_s.begin(), o.at_s.end());
  }
};

/// The gated ops_s and p50_us of a timed window. The window is cut into
/// whole slices of about a second, each holding hundreds of operations, and
/// both metrics are the median over the slices of that slice's completions
/// per second and median latency. A burst of interference from other
/// tenants of a shared host that covers less than half the window then does
/// not move them. Tail percentiles, which such bursts and slower shifts of
/// the host decide, are reported ungated per operation class.
void AddWindowMetrics(const Samples& done, const Samples& timed,
                      double window_s, std::vector<Metric>* out) {
  size_t slices = std::max<size_t>(1, static_cast<size_t>(window_s));
  double slice_s = window_s / static_cast<double>(slices);
  auto slice_of = [&](double at) {
    return std::min(slices - 1, static_cast<size_t>(at / slice_s));
  };
  std::vector<double> rates(slices, 0);
  for (double at : done.at_s) rates[slice_of(at)] += 1 / slice_s;
  std::vector<std::vector<double>> by_slice(slices);
  for (size_t i = 0; i < timed.us.size(); ++i) {
    by_slice[slice_of(timed.at_s[i])].push_back(timed.us[i]);
  }
  std::vector<double> p50s;
  for (std::vector<double>& s : by_slice) {
    if (s.empty()) continue;
    std::sort(s.begin(), s.end());
    p50s.push_back(Quantile(s, 0.5));
  }
  out->push_back({"ops_s", Quantile(Sorted(rates), 0.5), "1/s", done.us.size()});
  out->push_back({"p50_us", Quantile(Sorted(p50s), 0.5), "us", timed.us.size()});
}

// ---------------------------------------------------------------------------
// Stores

struct ScratchDir {
  std::filesystem::path path;
  ScratchDir() {
    const char* tmp = std::getenv("TMPDIR");
    path = std::filesystem::path(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") /
           ("ruidx-e2e-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string File(const std::string& name) const { return (path / name).string(); }
};

void RemoveStoreFiles(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".wal", ec);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

/// A document ingested into a store: the user-visible state every workload
/// operates on. Members are destroyed store first.
struct Loaded {
  std::unique_ptr<xml::Document> doc;
  std::unique_ptr<core::Ruid2Scheme> scheme;
  std::unique_ptr<storage::ElementStore> store;
  std::string path;
  /// The input document (kept by SetUp only).
  std::string xml;
  /// The store file right after its first commit.
  uint64_t store_bytes = 0;
};

/// The ingest pipeline: parse -> label -> create -> bulk load -> commit.
Status Ingest(const std::string& xml_text, const std::string& path,
              size_t pool_pages, util::ThreadPool* pool, Loaded* out) {
  RemoveStoreFiles(path);
  out->path = path;
  {
    Span span("xml.parse");
    RUIDX_ASSIGN_OR_RETURN(out->doc, xml::Parse(xml_text));
  }
  out->scheme = std::make_unique<core::Ruid2Scheme>(core::PartitionOptions{});
  {
    Span span("core.label");
    out->scheme->Build(out->doc->root(), pool);
  }
  {
    Span span("storage.create");
    RUIDX_ASSIGN_OR_RETURN(out->store,
                           storage::ElementStore::Create(path, pool_pages));
  }
  {
    Span span("storage.bulk_load");
    RUIDX_RETURN_NOT_OK(out->store->BulkLoad(*out->scheme, out->doc->root()));
  }
  {
    Span span("storage.commit");
    RUIDX_RETURN_NOT_OK(out->store->Flush());
  }
  out->store_bytes = FileBytes(path);
  return Status::OK();
}

/// Order-sensitive digest of every stored record, for the reopen check.
Result<uint64_t> StoreDigest(storage::ElementStore* store) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  Status status = store->ScanAll(
      [&](const storage::BPlusTree::Key&, const storage::ElementRecord& r) {
        mix(r.id.Hash());
        mix(r.parent_id.Hash());
        mix(r.node_type);
        mix(std::hash<std::string>{}(r.name));
        mix(std::hash<std::string>{}(r.value));
        mix(r.path_term);
        return true;
      });
  if (!status.ok()) return status;
  return h;
}

/// Closes the store and opens it again from its files; the reopened store
/// must hold the same records. Leaves the reopened store in `loaded`.
void CheckReopen(Loaded* loaded, size_t pool_pages, Tally* tally) {
  auto before = StoreDigest(loaded->store.get());
  uint64_t count = loaded->store->record_count();
  loaded->store.reset();
  auto reopened = storage::ElementStore::Open(loaded->path, pool_pages);
  if (!tally->CheckOk(reopened.status(), "reopen store")) return;
  loaded->store = reopened.MoveValueUnsafe();
  auto after = StoreDigest(loaded->store.get());
  tally->Check(before.ok() && after.ok() && *before == *after &&
                   loaded->store->record_count() == count,
               "reopened store holds different records");
}

/// Every labeled node has a stored record with its identifier, name and
/// parent identifier, and the store holds nothing else.
void CheckRecordsMatchLabels(const Loaded& loaded, Tally* tally) {
  const core::Ruid2Scheme& scheme = *loaded.scheme;
  xml::Node* root = loaded.doc->root();
  std::string mismatch;
  xml::PreorderTraverse(root, [&](xml::Node* n, int) {
    if (!mismatch.empty()) return false;
    const core::Ruid2Id& id = scheme.label(n);
    const core::Ruid2Id& parent = n == root ? id : scheme.label(n->parent());
    auto record = loaded.store->Get(id);
    if (!record.ok() || record->id != id || record->name != n->name() ||
        record->parent_id != parent) {
      mismatch = "record of " + id.ToString() + " missing or stale";
    }
    return true;
  });
  tally->Check(mismatch.empty(), mismatch.c_str());
  tally->Check(loaded.store->record_count() == scheme.label_count(),
               "store record count differs from label count");
}

// ---------------------------------------------------------------------------
// Durable updates, propagated to the store from outside the library

/// Applies random structural updates to a loaded document and carries each
/// into the store: the library's update engine relabels the DOM side only,
/// so this diffs the labels of the one area an update touches (Sec. 3.2)
/// and rewrites exactly the records that changed, then commits.
class Updater {
 public:
  Updater(Loaded* loaded, uint64_t seed, Tally* tally)
      : loaded_(loaded), rng_(seed), tally_(tally) {
    // Parents are the original elements: an inserted subtree is deleted
    // whole, so nothing may be inserted below it.
    xml::PreorderTraverse(loaded_->doc->root(), [&](xml::Node* n, int) {
      if (n->is_element()) parents_.push_back(n);
      return true;
    });
  }

  /// One insert or delete, its store writes and one Flush.
  void Step() {
    xml::Document* doc = loaded_->doc.get();
    core::Ruid2Scheme& scheme = *loaded_->scheme;
    bool remove = inserted_.size() >= kLiveSubtrees && rng_.NextBool(0.5);
    xml::Node* parent = nullptr;
    xml::Node* subtree = nullptr;
    size_t pos = 0;
    if (remove) {
      size_t i = rng_.NextBounded(inserted_.size());
      subtree = inserted_[i];
      inserted_[i] = inserted_.back();
      inserted_.pop_back();
      parent = subtree->parent();
    } else {
      parent = parents_[rng_.NextBounded(parents_.size())];
      pos = rng_.NextBounded(parent->fanout() + 1);
      subtree = NewSubtree(doc);
    }

    // The update lands in the area where `parent`'s children are
    // enumerated; a removed subtree lies inside it, so one area snapshot
    // before and after covers every identifier the update can change.
    std::vector<Labeled> before = AreaLabels(parent);
    Result<core::UpdateReport> report = core::UpdateReport{};
    {
      Span span("core.relabel");
      report = remove ? scheme.RemoveAndRelabel(doc, subtree)
                      : scheme.InsertAndRelabel(doc, parent, pos, subtree);
    }
    if (!tally_->CheckOk(report.status(), "structural update")) return;
    if (!remove) inserted_.push_back(subtree);
    relabeled_ += report->relabeled;
    std::vector<Labeled> after = AreaLabels(parent);

    std::unordered_map<uint32_t, const core::Ruid2Id*> before_ids, after_ids;
    for (const Labeled& l : before) before_ids[l.node->serial()] = &l.id;
    for (const Labeled& l : after) after_ids[l.node->serial()] = &l.id;
    storage::ElementStore* store = loaded_->store.get();
    // Old identifiers go first: a shifted sibling may take over an
    // identifier another node just gave up.
    for (const Labeled& l : before) {
      auto it = after_ids.find(l.node->serial());
      if (it != after_ids.end() && *it->second == l.id) continue;
      Span span("storage.remove");
      ++removes_;
      if (!tally_->CheckOk(store->Remove(l.id), "store remove")) return;
    }
    std::unordered_set<uint32_t> written;
    auto put = [&](xml::Node* n) {
      if (!written.insert(n->serial()).second) return true;
      storage::ElementRecord record = RecordOf(n);
      Span span("storage.put");
      ++puts_;
      return tally_->CheckOk(store->Put(record), "store put");
    };
    for (const Labeled& l : after) {
      auto it = before_ids.find(l.node->serial());
      if (it != before_ids.end() && *it->second == l.id) continue;
      if (!put(l.node)) return;
      // The children's records carry this node's identifier as parent.
      for (xml::Node* child : l.node->children()) {
        if (!put(child)) return;
      }
    }
    Span span("storage.commit");
    tally_->CheckOk(store->Flush(), "commit");
    ++updates_;
  }

  uint64_t updates() const { return updates_; }
  uint64_t relabeled() const { return relabeled_; }
  uint64_t writes() const { return puts_ + removes_; }

 private:
  struct Labeled {
    xml::Node* node;
    core::Ruid2Id id;
  };

  static xml::Node* NewSubtree(xml::Document* doc) {
    xml::Node* u = doc->CreateElement("u");
    xml::Node* w = doc->CreateElement("w");
    (void)doc->AppendChild(w, doc->CreateText("x"));
    (void)doc->AppendChild(u, w);
    return u;
  }

  /// Labels of the area in which `parent`'s children are enumerated: its
  /// root, its members and the roots of its child areas (Def. 3: members
  /// carry the area's global index, area roots are flagged).
  std::vector<Labeled> AreaLabels(xml::Node* parent) const {
    Span span("harness.area_labels");
    const core::Ruid2Scheme& scheme = *loaded_->scheme;
    const BigUint& global = scheme.label(parent).global;
    xml::Node* root = parent;
    for (;;) {
      const core::Ruid2Id& id = scheme.label(root);
      if (id.is_area_root && id.global == global) break;
      root = root->parent();
    }
    std::vector<Labeled> out;
    xml::PreorderTraverse(root, [&](xml::Node* n, int depth) {
      const core::Ruid2Id& id = scheme.label(n);
      out.push_back({n, id});
      return depth == 0 || !id.is_area_root;
    });
    return out;
  }

  /// The record of `n` as BulkLoad would write it. The path term is set
  /// explicitly: left at 0, Put derives it from the parent's stored record
  /// and falls back to the bare name hash when that record is not (yet)
  /// stored, which corrupts the path index.
  storage::ElementRecord RecordOf(xml::Node* n) const {
    const core::Ruid2Scheme& scheme = *loaded_->scheme;
    xml::Node* root = loaded_->doc->root();
    storage::ElementRecord record;
    record.id = scheme.label(n);
    record.parent_id = n == root ? record.id : scheme.label(n->parent());
    record.node_type = static_cast<uint8_t>(n->type());
    record.name = n->name();
    if (!n->is_element()) record.value = n->value();
    std::vector<const xml::Node*> chain;
    for (const xml::Node* p = n; p != root; p = p->parent()) chain.push_back(p);
    uint64_t term = storage::RootPathTerm(root->name());
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      term = storage::ExtendPathTerm(term, (*it)->name());
    }
    record.path_term = term;
    return record;
  }

  Loaded* loaded_;
  Rng rng_;
  Tally* tally_;
  std::vector<xml::Node*> parents_;
  std::vector<xml::Node*> inserted_;
  uint64_t updates_ = 0;
  uint64_t relabeled_ = 0;
  uint64_t puts_ = 0;
  uint64_t removes_ = 0;
};

/// The checks every updated store must pass at the end of a run.
void CheckUpdatedStore(Loaded* loaded, size_t pool_pages, Tally* tally) {
  Span span("harness.oracle");
  CheckRecordsMatchLabels(*loaded, tally);
  tally->CheckOk(loaded->scheme->Validate(loaded->doc->root()),
                 "scheme validation");
  tally->CheckOk(analysis::CheckStoreInvariants(*loaded->scheme,
                                                loaded->doc->root(),
                                                loaded->store.get()),
                 "store invariants");
  CheckReopen(loaded, pool_pages, tally);
}

// ---------------------------------------------------------------------------
// Counters taken across the timed window

struct Counters {
  storage::BufferPoolStats pool;
  storage::PagerStats pager;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  static Counters Take(const Loaded& loaded) {
    Counters c;
    c.pool = loaded.store->pool_stats();
    c.pager = loaded.store->pager_stats();
    c.cache_hits = loaded.scheme->ancestor_cache().hits();
    c.cache_misses = loaded.scheme->ancestor_cache().misses();
    return c;
  }

  void Add(const Counters& c) {
    pool.hits += c.pool.hits;
    pool.misses += c.pool.misses;
    pool.evictions += c.pool.evictions;
    pool.commit_requests += c.pool.commit_requests;
    pool.commit_batches += c.pool.commit_batches;
    pager.physical_reads += c.pager.physical_reads;
    pager.physical_writes += c.pager.physical_writes;
    pager.syncs += c.pager.syncs;
    cache_hits += c.cache_hits;
    cache_misses += c.cache_misses;
  }
};

/// What the per-layer summary needs from a workload besides its spans. A
/// workload leaves the values of calls it never makes at 0.
struct LayerInputs {
  /// Counters at the start and end of the timed window, and the operations
  /// and commits they are divided by.
  Counters before;
  Counters after;
  double ops = 0;
  double commits = 0;
  uint64_t records_per_load = 0;
  uint64_t areas = 0;
  uint64_t kappa = 0;
  uint64_t file_bytes = 0;
  double ids_per_result = 0;
  double relabeled_per_update = 0;
  double writes_per_update = 0;
  double snapshot_cow_frames = 0;
  double snapshot_cached_pages = 0;
  double stale_read_frac = 0;
  double lateness_p99_us = 0;
};

// ---------------------------------------------------------------------------
// Workloads

struct Context {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
  Shape shape{};
  ScratchDir* scratch = nullptr;
  util::ThreadPool* pool = nullptr;
  Tally tally;
  Report report;
  LayerInputs layer;
};

/// Set-up shared by every workload: generate the input, ingest it, and
/// (query) build the in-memory indexes. Runs kSetupReps times and keeps the
/// last result. Reports setup_s and the store ratio. Returns false when
/// set-up itself failed.
bool SetUp(Context* ctx, Loaded* loaded,
           std::unique_ptr<xpath::NameIndex>* name_index,
           std::unique_ptr<xpath::PathIndex>* path_index) {
  std::vector<double> setup_s;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    if (loaded->store != nullptr) {
      loaded->store.reset();
      RemoveStoreFiles(loaded->path);
    }
    if (name_index != nullptr) {
      name_index->reset();
      path_index->reset();
    }
    *loaded = Loaded{};
    auto t0 = Clock::now();
    Span span("harness.setup");
    std::string xml_text = GenerateXml(ctx->shape, ctx->seed);
    Status status = Ingest(xml_text, ctx->scratch->File("store.db"),
                           ctx->shape.pool_pages, ctx->pool, loaded);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return false;
    }
    if (name_index != nullptr) {
      Span index_span("xpath.index_build");
      *name_index = std::make_unique<xpath::NameIndex>(loaded->doc->root());
      *path_index = std::make_unique<xpath::PathIndex>(loaded->doc->root());
    }
    setup_s.push_back(UsSince(t0) / 1e6);
    loaded->xml = std::move(xml_text);
  }
  auto& e2e = ctx->report.e2e;
  e2e.push_back({"setup_s", Quantile(Sorted(setup_s), 0.5), "s", setup_s.size()});
  // The store file after its first commit per byte of the XML it holds.
  e2e.push_back({"store_bytes_per_xml_byte",
                 Ratio(static_cast<double>(loaded->store_bytes),
                       static_cast<double>(loaded->xml.size())),
                 "ratio", 1});
  ctx->layer.records_per_load = loaded->scheme->label_count();
  ctx->layer.areas = loaded->scheme->partition().areas.size();
  ctx->layer.kappa = loaded->scheme->kappa();
  return true;
}

// --- ingest ----------------------------------------------------------------

bool RunIngest(Context* ctx) {
  // Set-up ingests the document once untimed, which also leaves the heap
  // warm, so the first timed rep does not pay for fresh pages alone.
  std::string xml_text;
  {
    Loaded warm;
    if (!SetUp(ctx, &warm, nullptr, nullptr)) return false;
    xml_text = std::move(warm.xml);
    warm.store.reset();
    RemoveStoreFiles(warm.path);
  }

  std::string path = ctx->scratch->File("ingest.db");
  std::vector<double> rep_us;
  std::vector<double> mb_s;
  double busy_us = 0;
  for (uint64_t rep = 0; rep == 0 || busy_us < ctx->seconds * 1e6; ++rep) {
    Loaded loaded;
    auto t0 = Clock::now();
    Status status;
    {
      SetCurrentOp(rep + 1);
      Span span("op.ingest");
      status = Ingest(xml_text, path, ctx->shape.pool_pages, ctx->pool, &loaded);
    }
    double us = UsSince(t0);
    SetCurrentOp(0);
    if (!ctx->tally.CheckOk(status, "ingest")) return true;
    rep_us.push_back(us);
    mb_s.push_back(static_cast<double>(xml_text.size()) / us);
    busy_us += us;

    // Each rep has a fresh store, so its counters are the rep's deltas.
    ctx->layer.after.Add(Counters::Take(loaded));

    Span oracle("harness.oracle");
    ctx->tally.Check(loaded.store->record_count() == loaded.scheme->label_count(),
                     "ingested record count differs from label count");
    if (rep == 0) {
      CheckRecordsMatchLabels(loaded, &ctx->tally);
      ctx->tally.CheckOk(analysis::CheckStoreInvariants(
                             *loaded.scheme, loaded.doc->root(),
                             loaded.store.get()),
                         "store invariants");
      CheckReopen(&loaded, ctx->shape.pool_pages, &ctx->tally);
    }
    ctx->layer.file_bytes = FileBytes(path);
    loaded.store.reset();
    RemoveStoreFiles(path);
  }

  // Like the other workloads' slice medians, the median rep sets ops_s.
  std::vector<double> sorted = Sorted(rep_us);
  size_t reps = sorted.size();
  auto& e2e = ctx->report.e2e;
  e2e.push_back({"ops_s", Ratio(1e6, Quantile(sorted, 0.5)), "1/s", reps});
  e2e.push_back({"p50_us", Quantile(sorted, 0.5), "us", reps});
  // The highest percentile with ten reps beyond it.
  ctx->report.info.push_back(
      {"ingest_p90_us", Quantile(sorted, 0.9), "us", reps});
  ctx->report.info.push_back(
      {"ingest_mb_s", Quantile(Sorted(mb_s), 0.5), "MB/s", mb_s.size()});
  ctx->layer.ops = ctx->layer.commits = static_cast<double>(rep_us.size());
  return true;
}

// --- query -----------------------------------------------------------------

enum class OpKind { kXPath, kJoin, kGet, kAncestors };

/// One block of the query clients' mix: 18% XPath, 2% store joins, 60% Get,
/// 20% FetchAncestors. Clients run the block over and over, reshuffled from
/// their seed each time, so every second of the window sees the same mix and
/// throughput measures the store rather than the dice.
std::vector<OpKind> QueryMixBlock() {
  std::vector<OpKind> block;
  block.insert(block.end(), 9, OpKind::kXPath);
  block.insert(block.end(), 1, OpKind::kJoin);
  block.insert(block.end(), 30, OpKind::kGet);
  block.insert(block.end(), 10, OpKind::kAncestors);
  return block;
}

void Shuffle(std::vector<OpKind>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBounded(i)]);
  }
}

struct ClientResult {
  Samples query;   // XPath evaluations and store joins
  Samples lookup;  // Get and FetchAncestors
  uint64_t ids_generated = 0;
  uint64_t results = 0;
};

bool RunQuery(Context* ctx) {
  Loaded loaded;
  std::unique_ptr<xpath::NameIndex> name_index;
  std::unique_ptr<xpath::PathIndex> path_index;
  if (!SetUp(ctx, &loaded, &name_index, &path_index)) return false;
  xml::Document* doc = loaded.doc.get();
  const core::Ruid2Scheme& scheme = *loaded.scheme;
  storage::ElementStore* store = loaded.store.get();

  // Oracles before timing: the identifier-based evaluator answers like DOM
  // navigation, and store-seeded joins like the in-memory ones. Their sizes
  // become the expected answers of the timed phase.
  std::vector<size_t> query_sizes;
  std::vector<size_t> join_sizes;
  {
    Span span("harness.oracle");
    xpath::DomEvaluator dom(doc);
    xpath::RuidEvaluator ruid(doc, &scheme);
    ruid.SetNameIndex(name_index.get());
    ruid.SetPathIndex(path_index.get());
    for (const char* query : kQueries) {
      auto expected = dom.Evaluate(query);
      auto got = ruid.Evaluate(query);
      ctx->tally.Check(expected.ok() && got.ok() && *expected == *got,
                       (std::string("ruid and DOM answers differ for ") + query)
                           .c_str());
      query_sizes.push_back(expected.ok() ? expected->size() : 0);
    }
    auto serials = [](const xpath::JoinResult& pairs) {
      std::vector<std::pair<uint32_t, uint32_t>> out;
      for (const auto& [a, d] : pairs) out.emplace_back(a->serial(), d->serial());
      std::sort(out.begin(), out.end());
      return out;
    };
    for (const JoinCase& join : kJoins) {
      auto expected = xpath::StructuralJoinRuidByName(
          scheme, *name_index, join.ancestor, join.descendant);
      auto got = xpath::StructuralJoinRuidFromStore(scheme, store, join.ancestor,
                                                    join.descendant);
      ctx->tally.Check(got.ok() && serials(*got) == serials(expected),
                       (std::string("store join differs for ") + join.ancestor +
                        "//" + join.descendant)
                           .c_str());
      join_sizes.push_back(expected.size());
    }
  }

  // Lookup targets: every labeled node with its depth from the DOM, which
  // FetchAncestors must reproduce from identifiers alone.
  std::vector<core::Ruid2Id> ids;
  std::vector<uint64_t> depths;
  xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int depth) {
    ids.push_back(scheme.label(n));
    depths.push_back(static_cast<uint64_t>(depth));
    return true;
  });

  constexpr int kClients = 2;
  std::vector<ClientResult> results(kClients);
  ctx->layer.before = Counters::Take(loaded);
  auto start = Clock::now() + std::chrono::milliseconds(20);
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(ctx->seconds));
  auto client = [&](int c) {
    ClientResult& out = results[static_cast<size_t>(c)];
    xpath::RuidEvaluator eval(doc, &scheme);
    eval.SetNameIndex(name_index.get());
    eval.SetPathIndex(path_index.get());
    Rng rng(ctx->seed * 7919 + static_cast<uint64_t>(c) + 1);
    std::vector<OpKind> block = QueryMixBlock();
    size_t next_query = static_cast<size_t>(c);
    size_t next_join = static_cast<size_t>(c);
    std::this_thread::sleep_until(start);
    for (uint64_t op = 0; Clock::now() < deadline; ++op) {
      SetCurrentOp(op * kClients + static_cast<uint64_t>(c) + 1);
      if (op % block.size() == 0) Shuffle(&block, &rng);
      OpKind kind = block[op % block.size()];
      size_t target = rng.NextBounded(ids.size());
      auto t0 = Clock::now();
      if (kind == OpKind::kXPath) {
        size_t q = next_query++ % std::size(kQueries);
        Span op_span("op.query");
        Span span("xpath.eval");
        auto got = eval.Evaluate(kQueries[q]);
        ctx->tally.Check(got.ok() && got->size() == query_sizes[q],
                         "query answer size");
        if (got.ok()) out.results += got->size();
      } else if (kind == OpKind::kJoin) {
        size_t j = next_join++ % std::size(kJoins);
        Span op_span("op.query");
        Span span("xpath.join");
        auto got = xpath::StructuralJoinRuidFromStore(
            scheme, store, kJoins[j].ancestor, kJoins[j].descendant);
        ctx->tally.Check(got.ok() && got->size() == join_sizes[j],
                         "store join answer size");
      } else if (kind == OpKind::kGet) {
        Span op_span("op.lookup");
        Span span("storage.get");
        auto got = store->Get(ids[target]);
        ctx->tally.Check(got.ok() && got->id == ids[target], "store get");
      } else {
        Span op_span("op.lookup");
        Span span("storage.fetch_ancestors");
        auto got = store->FetchAncestors(scheme, ids[target]);
        ctx->tally.Check(got.ok() && got->size() == depths[target],
                         "fetched ancestor count differs from depth");
      }
      bool is_query = kind == OpKind::kXPath || kind == OpKind::kJoin;
      (is_query ? out.query : out.lookup).Add(t0, start);
    }
    SetCurrentOp(0);
    out.ids_generated = eval.ids_generated();
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  double window_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  ctx->layer.after = Counters::Take(loaded);

  Samples query, lookup, all;
  uint64_t ids_generated = 0, results_returned = 0;
  for (const ClientResult& r : results) {
    query.Append(r.query);
    lookup.Append(r.lookup);
    ids_generated += r.ids_generated;
    results_returned += r.results;
  }
  all.Append(query);
  all.Append(lookup);
  double ops = static_cast<double>(all.us.size());
  AddWindowMetrics(all, all, window_s, &ctx->report.e2e);
  auto& info = ctx->report.info;
  info.push_back({"query_ops_s", ops / window_s, "1/s", all.us.size()});
  AddLatency(&info, "query_", Sorted(query.us));
  AddLatency(&info, "lookup_", Sorted(lookup.us));
  ctx->layer.ids_per_result = Ratio(static_cast<double>(ids_generated),
                                    static_cast<double>(results_returned));
  ctx->layer.ops = ops;
  ctx->layer.file_bytes = FileBytes(loaded.path);
  return true;
}

// --- update and mixed --------------------------------------------------------

/// Update-side results shared by update and mixed; call after the window.
void AddUpdateResults(const Updater& updater, const Samples& samples,
                      double window_s, const Loaded& loaded, Context* ctx) {
  double updates = static_cast<double>(updater.updates());
  ctx->report.info.push_back(
      {"update_ops_s", updates / window_s, "1/s", samples.us.size()});
  AddLatency(&ctx->report.info, "update_", Sorted(samples.us));
  LayerInputs& layer = ctx->layer;
  layer.after = Counters::Take(loaded);
  layer.ops = layer.commits = updates;
  layer.relabeled_per_update = Ratio(static_cast<double>(updater.relabeled()), updates);
  layer.writes_per_update = Ratio(static_cast<double>(updater.writes()), updates);
  layer.file_bytes = FileBytes(loaded.path);
}

bool RunUpdate(Context* ctx) {
  Loaded loaded;
  if (!SetUp(ctx, &loaded, nullptr, nullptr)) return false;
  Updater updater(&loaded, ctx->seed * 104729 + 1, &ctx->tally);
  Samples samples;
  ctx->layer.before = Counters::Take(loaded);
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(ctx->seconds));
  for (uint64_t op = 1; Clock::now() < deadline; ++op) {
    auto t0 = Clock::now();
    {
      SetCurrentOp(op);
      Span span("op.update");
      updater.Step();
    }
    samples.Add(t0, start);
  }
  SetCurrentOp(0);
  double window_s = std::chrono::duration<double>(Clock::now() - start).count();
  AddUpdateResults(updater, samples, window_s, loaded, ctx);
  AddWindowMetrics(samples, samples, window_s, &ctx->report.e2e);
  CheckUpdatedStore(&loaded, ctx->shape.pool_pages, &ctx->tally);
  return true;
}

bool RunMixed(Context* ctx) {
  Loaded loaded;
  if (!SetUp(ctx, &loaded, nullptr, nullptr)) return false;
  std::vector<core::Ruid2Id> ids;
  xml::PreorderTraverse(loaded.doc->root(), [&](xml::Node* n, int) {
    ids.push_back(loaded.scheme->label(n));
    return true;
  });
  Updater updater(&loaded, ctx->seed * 104729 + 1, &ctx->tally);
  storage::ElementStore* store = loaded.store.get();

  const uint64_t reads =
      std::max<uint64_t>(1, static_cast<uint64_t>(ctx->seconds * kReadsPerSecond));
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kReadsPerSecond));
  Samples read_samples;
  std::vector<double> lateness_us;
  lateness_us.reserve(reads);
  uint64_t stale = 0;
  double cow_frames = 0, cached_pages = 0;
  std::atomic<bool> reader_done{false};
  ctx->layer.before = Counters::Take(loaded);
  auto start = Clock::now() + std::chrono::milliseconds(20);

  // Open loop: read i is due at start + i * interval whether or not earlier
  // reads have finished, and its latency runs from that due time.
  std::thread reader([&] {
    Rng rng(ctx->seed * 15485863 + 1);
    std::unique_ptr<storage::StoreSnapshot> snapshot;
    uint64_t samples = 0;
    for (uint64_t i = 0; i < reads; ++i) {
      auto due = start + interval * static_cast<int64_t>(i);
      std::this_thread::sleep_until(due - kSpinLead);
      while (Clock::now() < due) {
      }
      lateness_us.push_back(UsSince(due));
      SetCurrentOp(i + 1);
      Span op_span("op.read");
      if (i % kReadsPerSnapshot == 0) {
        if (snapshot != nullptr) {
          storage::SnapshotStats s = store->snapshot_stats();
          cow_frames += static_cast<double>(s.cow_frames);
          cached_pages += static_cast<double>(s.cached_pages);
          ++samples;
        }
        snapshot.reset();
        Span span("storage.snapshot_open");
        auto opened = store->OpenSnapshot();
        if (!ctx->tally.CheckOk(opened.status(), "open snapshot")) break;
        snapshot = opened.MoveValueUnsafe();
      }
      const core::Ruid2Id& id = ids[rng.NextBounded(ids.size())];
      Result<storage::ElementRecord> got = Status::NotFound("unread");
      {
        Span span("storage.snapshot_get");
        got = snapshot->Get(id);
      }
      if (!got.ok() && got.status().IsNotFound()) {
        ++stale;
        ctx->tally.Check(true, "snapshot read");
      } else {
        ctx->tally.Check(got.ok() && got->id == id, "snapshot read");
      }
      read_samples.Add(due, start);
    }
    SetCurrentOp(0);
    snapshot.reset();
    if (samples > 0) {
      cow_frames /= static_cast<double>(samples);
      cached_pages /= static_cast<double>(samples);
    }
    reader_done.store(true);
  });

  Samples update_samples;
  std::this_thread::sleep_until(start);
  for (uint64_t op = 1; !reader_done.load(); ++op) {
    auto t0 = Clock::now();
    {
      SetCurrentOp(op);
      Span span("op.update");
      updater.Step();
    }
    update_samples.Add(t0, start);
  }
  SetCurrentOp(0);
  reader.join();
  double window_s = std::chrono::duration<double>(Clock::now() - start).count();
  AddUpdateResults(updater, update_samples, window_s, loaded, ctx);
  // The writer's throughput against the reader's latency: each side is what
  // the other one would slow down.
  AddWindowMetrics(update_samples, read_samples, window_s, &ctx->report.e2e);
  AddLatency(&ctx->report.info, "snapshot_read_", Sorted(read_samples.us));
  LayerInputs& layer = ctx->layer;
  layer.snapshot_cow_frames = cow_frames;
  layer.snapshot_cached_pages = cached_pages;
  layer.stale_read_frac =
      Ratio(static_cast<double>(stale), static_cast<double>(read_samples.us.size()));
  layer.lateness_p99_us = Quantile(Sorted(lateness_us), 0.99);
  CheckUpdatedStore(&loaded, ctx->shape.pool_pages, &ctx->tally);
  return true;
}

// ---------------------------------------------------------------------------
// Per-layer summary and output

/// The per-layer metrics: span quantiles over every span of a name in the
/// run (set-up and oracles included), counter deltas over the timed window,
/// and the workload's own figures. A call a workload never makes reports 0.
void AddLayers(Context* ctx) {
  std::map<std::string, SpanSummary> spans = SummarizeSpans();
  auto q = [&spans](const char* name, double quantile) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : Quantile(it->second.durations_us, quantile);
  };
  const LayerInputs& in = ctx->layer;
  auto delta = [](uint64_t before, uint64_t after) {
    return static_cast<double>(after - before);
  };
  const Counters& a = in.before;
  const Counters& b = in.after;
  double pool_hits = delta(a.pool.hits, b.pool.hits);
  double pool_misses = delta(a.pool.misses, b.pool.misses);
  double cache_hits = delta(a.cache_hits, b.cache_hits);
  double cache_misses = delta(a.cache_misses, b.cache_misses);
  // The share of operation time no layer span covers: the benchmark's own
  // work between calls (for ingest, the rep minus parse, label, create,
  // bulk load and commit).
  double op_busy = 0, op_self = 0;
  for (const auto& [name, s] : spans) {
    if (name.rfind("op.", 0) == 0) {
      op_busy += s.busy_us;
      op_self += s.self_us;
    }
  }
  ctx->report.layers = {
      {"xml.parse_us", q("xml.parse", 0.5), "us", 0},
      {"core.label_us", q("core.label", 0.5), "us", 0},
      {"core.areas", static_cast<double>(in.areas), "count", 0},
      {"core.kappa", static_cast<double>(in.kappa), "count", 0},
      {"core.relabel_us_p50", q("core.relabel", 0.5), "us", 0},
      {"core.relabeled_per_update", in.relabeled_per_update, "count", 0},
      {"core.ancestor_cache_hit_ratio",
       Ratio(cache_hits, cache_hits + cache_misses), "ratio", 0},
      {"xpath.eval_us_p50", q("xpath.eval", 0.5), "us", 0},
      {"xpath.eval_us_p99", q("xpath.eval", 0.99), "us", 0},
      {"xpath.ids_per_result", in.ids_per_result, "ratio", 0},
      {"xpath.join_us_p50", q("xpath.join", 0.5), "us", 0},
      {"storage.bulk_load_us", q("storage.bulk_load", 0.5), "us", 0},
      {"storage.bulk_load_ns_per_record",
       Ratio(q("storage.bulk_load", 0.5) * 1000,
             static_cast<double>(in.records_per_load)),
       "ns", 0},
      {"storage.commit_us_p50", q("storage.commit", 0.5), "us", 0},
      {"storage.commit_us_p99", q("storage.commit", 0.99), "us", 0},
      {"storage.fsyncs_per_commit",
       Ratio(delta(a.pager.syncs, b.pager.syncs), in.commits), "count", 0},
      {"storage.pages_written_per_commit",
       Ratio(delta(a.pager.physical_writes, b.pager.physical_writes), in.commits),
       "count", 0},
      {"storage.commit_batches_per_request",
       Ratio(delta(a.pool.commit_batches, b.pool.commit_batches),
             delta(a.pool.commit_requests, b.pool.commit_requests)),
       "ratio", 0},
      {"storage.put_us_p50", q("storage.put", 0.5), "us", 0},
      {"storage.remove_us_p50", q("storage.remove", 0.5), "us", 0},
      {"storage.writes_per_update", in.writes_per_update, "count", 0},
      {"storage.get_us_p50", q("storage.get", 0.5), "us", 0},
      {"storage.get_us_p99", q("storage.get", 0.99), "us", 0},
      {"storage.fetch_ancestors_us_p50", q("storage.fetch_ancestors", 0.5), "us", 0},
      {"storage.pool_hit_ratio", Ratio(pool_hits, pool_hits + pool_misses),
       "ratio", 0},
      {"storage.pool_evictions_per_op",
       Ratio(delta(a.pool.evictions, b.pool.evictions), in.ops), "count", 0},
      {"storage.pages_read_per_op",
       Ratio(delta(a.pager.physical_reads, b.pager.physical_reads), in.ops),
       "count", 0},
      {"storage.snapshot_open_us_p50", q("storage.snapshot_open", 0.5), "us", 0},
      {"storage.snapshot_open_us_p90", q("storage.snapshot_open", 0.9), "us", 0},
      {"storage.snapshot_get_us_p50", q("storage.snapshot_get", 0.5), "us", 0},
      {"storage.snapshot_cow_frames", in.snapshot_cow_frames, "count", 0},
      {"storage.snapshot_cached_pages", in.snapshot_cached_pages, "count", 0},
      {"storage.stale_read_frac", in.stale_read_frac, "ratio", 0},
      {"storage.file_bytes", static_cast<double>(in.file_bytes), "bytes", 0},
      {"harness.area_labels_us_p50", q("harness.area_labels", 0.5), "us", 0},
      {"harness.lateness_p99_us", in.lateness_p99_us, "us", 0},
      {"harness.residual_frac", Ratio(op_self, op_busy), "ratio", 0},
  };

  std::printf("\nspans (count, busy ms, self ms, p50 us, p99 us):\n");
  for (const auto& [name, s] : spans) {
    std::printf("  %-28s %8llu %10.1f %10.1f %10.1f %10.1f\n", name.c_str(),
                static_cast<unsigned long long>(s.count), s.busy_us / 1000,
                s.self_us / 1000, Quantile(s.durations_us, 0.5),
                Quantile(s.durations_us, 0.99));
  }
}

void AppendJsonNumber(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  *out += buf;
}

void AppendMetrics(std::string* out, const char* key,
                   const std::vector<Metric>& metrics) {
  *out += std::string(",\"") + key + "\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) *out += ",";
    *out += "\"" + m.name + "\":{\"value\":";
    AppendJsonNumber(out, m.value);
    *out += ",\"unit\":\"" + m.unit + "\",\"samples\":" +
            std::to_string(m.samples) + "}";
  }
  *out += "}";
}

void PrintMetrics(const std::string& workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s", workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) {
      std::printf(" (n=%llu)", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }
}

std::string Fingerprint() {
  struct utsname u {};
  ::uname(&u);
  std::string out = "{\"compiler\":\"" + std::string(__VERSION__) +
                    "\",\"build_type\":\"" RUIDX_E2E_BUILD_TYPE "\",\"page_size\":" +
                    std::to_string(::sysconf(_SC_PAGESIZE)) + ",\"kernel\":\"" +
                    std::string(u.release) + "\",\"hardware_threads\":" +
                    std::to_string(std::thread::hardware_concurrency()) + "}";
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload=ingest|query|update|mixed "
               "[--seed=N] [--seconds=S] [--trace=FILE] [--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Context ctx;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      ctx.workload = v;
    } else if (const char* v = value("--seed=")) {
      ctx.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      ctx.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace=")) {
      trace_path = v;
    } else if (arg == "--smoke") {
      ctx.smoke = true;
    } else {
      return Usage();
    }
  }
  bool (*run)(Context*) = nullptr;
  if (ctx.workload == "ingest") run = RunIngest;
  if (ctx.workload == "query") run = RunQuery;
  if (ctx.workload == "update") run = RunUpdate;
  if (ctx.workload == "mixed") run = RunMixed;
  if (run == nullptr || !(ctx.seconds > 0)) return Usage();

  if (!trace_path.empty()) EnableTracing();
  ScratchDir scratch;
  util::ThreadPool pool(
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4));
  ctx.shape = ShapeFor(ctx.workload, ctx.smoke);
  ctx.scratch = &scratch;
  ctx.pool = &pool;
  if (!run(&ctx)) return 1;

  ctx.report.e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
  double failed_frac = Ratio(static_cast<double>(ctx.tally.failed()),
                             static_cast<double>(ctx.tally.attempted()));
  ctx.report.info.push_back(
      {"failed_ops_frac", failed_frac, "ratio", ctx.tally.attempted()});
  if (TracingEnabled()) {
    AddLayers(&ctx);
    if (!WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
      return 1;
    }
  }

  PrintMetrics(ctx.workload, ctx.report.e2e);
  PrintMetrics(ctx.workload, ctx.report.info);
  PrintMetrics(ctx.workload, ctx.report.layers);
  bool correct = ctx.tally.failed() == 0;
  std::string json = "{\"workload\":\"" + ctx.workload +
                     "\",\"seed\":" + std::to_string(ctx.seed) +
                     ",\"seconds\":";
  AppendJsonNumber(&json, ctx.seconds);
  json += std::string(",\"smoke\":") + (ctx.smoke ? "true" : "false") +
          ",\"correct\":" + (correct ? "true" : "false") +
          ",\"attempted\":" + std::to_string(ctx.tally.attempted()) +
          ",\"failed\":" + std::to_string(ctx.tally.failed()) +
          ",\"fingerprint\":" + Fingerprint();
  AppendMetrics(&json, "e2e", ctx.report.e2e);
  AppendMetrics(&json, "info", ctx.report.info);
  AppendMetrics(&json, "layers", ctx.report.layers);
  json += "}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace ruidx

int main(int argc, char** argv) { return ruidx::e2e::Main(argc, argv); }
