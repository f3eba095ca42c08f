// E12 — storage-level behaviour (Secs. 3.3 & 4): ancestor determination
// "without any I/O" thanks to rparent, versus a store that must chase
// parent pointers; plus identifier-clustered area scans versus scattered
// point lookups, and E16's by-name selection ("database file/table
// selection", Sec. 4) as a name-posting range scan versus a full scan.
#include <chrono>
#include <memory>

#include "bench_common.h"
#include "storage/element_store.h"
#include "storage/streaming_labeler.h"
#include "util/random.h"
#include "xml/serializer.h"

namespace ruidx {
namespace bench {
namespace {

constexpr uint64_t kScale = 20000;
constexpr int kRepeats = 2;

/// Wall-clock milliseconds of the best of kRepeats runs of fn().
template <typename Fn>
double TimeMs(Fn&& fn) {
  double best = 0;
  for (int r = 0; r < kRepeats; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

struct Fixture {
  std::unique_ptr<xml::Document> doc;
  core::Ruid2Scheme scheme;
  std::unique_ptr<storage::ElementStore> store;
  std::vector<xml::Node*> deep_nodes;  // nodes by increasing depth

  Fixture() : scheme(DefaultAreas()) {
    doc = MakeTopology("uniform", kScale);
    scheme.Build(doc->root());
    store = storage::ElementStore::Create("", /*buffer_pool_pages=*/32)
                .MoveValueUnsafe();
    (void)store->BulkLoad(scheme, doc->root());
    (void)store->Flush();
    // One representative node per depth.
    int depth_seen = -1;
    xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int depth) {
      if (depth > depth_seen) {
        deep_nodes.push_back(n);
        depth_seen = depth;
      }
      return true;
    });
  }
};

Fixture& GetFixture() {
  static Fixture fixture;
  return fixture;
}

void AncestorIoTable() {
  Fixture& fixture = GetFixture();
  TablePrinter table(
      "page accesses per ancestor check, by depth of the descendant "
      "(buffer pool cleared between runs not needed: logical accesses "
      "counted)");
  table.SetHeader({"descendant depth", "rparent arithmetic", "parent pointers"});
  core::Ruid2Id root_id = fixture.scheme.label(fixture.doc->root());
  for (size_t d = 1; d < fixture.deep_nodes.size(); ++d) {
    core::Ruid2Id deep_id = fixture.scheme.label(fixture.deep_nodes[d]);
    fixture.store->ResetStats();
    bool a = fixture.store->IsAncestorViaRuid(fixture.scheme, root_id, deep_id);
    uint64_t ruid_io = fixture.store->logical_page_accesses();
    fixture.store->ResetStats();
    auto b = fixture.store->IsAncestorViaParentPointers(root_id, deep_id);
    uint64_t nav_io = fixture.store->logical_page_accesses();
    if (!a || !b.ok() || !*b) {
      table.AddRow({std::to_string(d), "DISAGREE", "DISAGREE"});
      continue;
    }
    table.AddRow({std::to_string(d), std::to_string(ruid_io),
                  std::to_string(nav_io)});
  }
  table.Print();
}

void AreaScanTable() {
  Fixture& fixture = GetFixture();
  TablePrinter table(
      "fetching all members of one area: identifier-range scan vs point "
      "lookups (identifier-sorted records cluster, Sec. 2.1/4)");
  table.SetHeader({"area (global)", "members", "scan page accesses",
                   "point-lookup page accesses"});
  const auto& rows = fixture.scheme.ktable().rows();
  Rng rng(3);
  for (int pick = 0; pick < 5; ++pick) {
    const auto& row = rows[rng.NextBounded(rows.size())];
    std::vector<core::Ruid2Id> ids;
    fixture.store->ResetStats();
    (void)fixture.store->ScanArea(row.global,
                                  [&](const storage::ElementRecord& record) {
                                    ids.push_back(record.id);
                                    return true;
                                  });
    uint64_t scan_io = fixture.store->logical_page_accesses();
    fixture.store->ResetStats();
    for (const core::Ruid2Id& id : ids) {
      (void)fixture.store->Get(id);
    }
    uint64_t point_io = fixture.store->logical_page_accesses();
    table.AddRow({row.global.ToDecimalString(), std::to_string(ids.size()),
                  std::to_string(scan_io), std::to_string(point_io)});
  }
  table.Print();
}

void NameSelectionTable() {
  // Sec. 4 "Database file/table selection": the paper names tables by
  // (element name, global index) so a by-name query opens only its own
  // tables. The name-posting tree keys [name term | global | local | flag],
  // so that selection is one key range of it: posting pages plus one heap
  // read per match, against a scan of every record.
  auto doc = MakeTopology("dblp", kScale);
  core::Ruid2Scheme scheme(DefaultAreas());
  scheme.Build(doc->root());
  auto store = storage::ElementStore::Create("", 32).MoveValueUnsafe();
  (void)store->BulkLoad(scheme, doc->root());
  (void)store->Flush();

  BenchJsonWriter json("storage");
  json.Metric("nodes", static_cast<double>(scheme.label_count()));
  TablePrinter table(
      "fetch all elements of one name: name-posting range scan vs full "
      "scan ('dblp', " + std::to_string(kScale) + " nodes)");
  table.SetHeader({"name", "matches", "posting scan page accesses",
                   "full scan page accesses", "ratio"});
  for (const char* name : {"year", "title", "inproceedings"}) {
    store->ResetStats();
    size_t got = 0;
    (void)store->ScanNameTerm(name, [&](const storage::ElementRecord&) {
      ++got;
      return true;
    });
    uint64_t posting_io = store->logical_page_accesses();

    store->ResetStats();
    size_t scanned = 0;
    (void)store->ScanAll([&](const storage::BPlusTree::Key&,
                             const storage::ElementRecord& record) {
      if (record.name == name) ++scanned;
      return true;
    });
    uint64_t scan_io = store->logical_page_accesses();
    double ratio = posting_io > 0 ? static_cast<double>(scan_io) /
                                        static_cast<double>(posting_io)
                                  : 0.0;
    table.AddRow({name, std::to_string(got), std::to_string(posting_io),
                  std::to_string(scan_io),
                  TablePrinter::FormatDouble(ratio, 1) + "x"});
    std::string suffix = std::string("_") + name;
    json.Metric("matches" + suffix, static_cast<double>(got));
    json.Metric("posting_scan_pages" + suffix,
                static_cast<double>(posting_io));
    json.Metric("full_scan_pages" + suffix, static_cast<double>(scan_io));
    if (got != scanned) {
      std::printf("WARNING: posting scan and full scan disagree for %s\n",
                  name);
    }
  }
  table.Print();
  json.Write();
}

void PrintTables() {
  Banner("E12/E16: storage I/O",
         "Sec. 3.3 — ancestor checks without I/O; Sec. 4 — area clustering "
         "and by-name selection");
  AncestorIoTable();
  AreaScanTable();
  NameSelectionTable();
}

void BM_GetBySimpleId(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  auto nodes = xml::CollectPreorder(fixture.doc->root());
  Rng rng(11);
  for (auto _ : state) {
    xml::Node* n = nodes[rng.NextBounded(nodes.size())];
    benchmark::DoNotOptimize(fixture.store->Get(fixture.scheme.label(n)));
  }
}
BENCHMARK(BM_GetBySimpleId)->Unit(benchmark::kMicrosecond);

void BM_AncestorViaRuid(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  core::Ruid2Id root_id = fixture.scheme.label(fixture.doc->root());
  core::Ruid2Id deep_id = fixture.scheme.label(fixture.deep_nodes.back());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.store->IsAncestorViaRuid(fixture.scheme, root_id, deep_id));
  }
}
BENCHMARK(BM_AncestorViaRuid);

void BM_AncestorViaParentPointers(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  core::Ruid2Id root_id = fixture.scheme.label(fixture.doc->root());
  core::Ruid2Id deep_id = fixture.scheme.label(fixture.deep_nodes.back());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.store->IsAncestorViaParentPointers(root_id, deep_id));
  }
}
BENCHMARK(BM_AncestorViaParentPointers);

void BM_FetchAncestors(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  core::Ruid2Id deep_id = fixture.scheme.label(fixture.deep_nodes.back());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.store->FetchAncestors(fixture.scheme, deep_id));
  }
}
BENCHMARK(BM_FetchAncestors)->Unit(benchmark::kMicrosecond);

void BM_StreamLabelToStore(benchmark::State& state) {
  auto doc = MakeTopology("xmark", kScale);
  std::string text = xml::Serialize(doc->document_node());
  for (auto _ : state) {
    auto store = storage::ElementStore::Create("", 64).MoveValueUnsafe();
    auto stats =
        storage::StreamLabelToStore(text, DefaultAreas(), store.get());
    benchmark::DoNotOptimize(stats);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_StreamLabelToStore)->Unit(benchmark::kMillisecond);

void BM_DomBuildAndBulkLoad(benchmark::State& state) {
  auto doc = MakeTopology("xmark", kScale);
  std::string text = xml::Serialize(doc->document_node());
  for (auto _ : state) {
    auto parsed = xml::Parse(text).MoveValueUnsafe();
    core::Ruid2Scheme scheme(DefaultAreas());
    scheme.Build(parsed->root());
    auto store = storage::ElementStore::Create("", 64).MoveValueUnsafe();
    benchmark::DoNotOptimize(store->BulkLoad(scheme, parsed->root()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_DomBuildAndBulkLoad)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace ruidx

RUIDX_BENCH_MAIN(ruidx::bench::PrintTables)
