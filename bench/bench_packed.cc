// Packed identifier fast path: the same operations timed with the packed
// packed representation on and off (pure BigUint path). The equivalence of
// the two paths is property-tested in packed_ruid2_test; this bench records
// what the representation buys on rparent, ancestor chains, structural
// joins, and bulk loading.
#include <chrono>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/packed_ruid2_id.h"
#include "storage/element_store.h"
#include "util/random.h"
#include "xpath/name_index.h"
#include "xpath/structural_join.h"

namespace ruidx {
namespace bench {
namespace {

constexpr uint64_t kScale = 20000;
constexpr int kSamplePasses = 40;  // passes over the 4096-node sample

struct Fixture {
  std::unique_ptr<xml::Document> doc;
  core::Ruid2Scheme ruid;
  std::vector<xml::Node*> sample;  // non-root nodes, shuffled
  std::vector<core::Ruid2Id> ids;  // labels of `sample`, resolved up front —
                                   // the timed loops measure rparent, not the
                                   // label hash table

  explicit Fixture(const std::string& topology) : ruid(DefaultAreas()) {
    doc = MakeTopology(topology, kScale);
    ruid.Build(doc->root());
    Rng rng(7);
    xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int) {
      if (n != doc->root()) sample.push_back(n);
      return true;
    });
    for (size_t i = sample.size(); i > 1; --i) {
      std::swap(sample[i - 1], sample[rng.NextBounded(i)]);
    }
    if (sample.size() > 4096) sample.resize(4096);
    ids.reserve(sample.size());
    for (xml::Node* n : sample) ids.push_back(ruid.label(n));
  }
};

Fixture& GetFixture(const std::string& topology) {
  static std::map<std::string, std::unique_ptr<Fixture>> cache;
  auto& slot = cache[topology];
  if (!slot) slot = std::make_unique<Fixture>(topology);
  return *slot;
}

struct JoinFixture {
  std::unique_ptr<xml::Document> doc;
  core::Ruid2Scheme ruid;
  std::unique_ptr<xpath::NameIndex> index;

  JoinFixture() : ruid(DefaultAreas()) {
    doc = MakeTopology("xmark", 15000);
    ruid.Build(doc->root());
    index = std::make_unique<xpath::NameIndex>(doc->root());
  }
};

JoinFixture& GetJoinFixture() {
  static JoinFixture fixture;
  return fixture;
}

/// Best of three timed runs of fn(), in milliseconds: the minimum is the
/// least noise-contaminated estimate for a deterministic workload.
template <typename Fn>
double BestMs(Fn&& fn) {
  double best = 0;
  for (int run = 0; run < 3; ++run) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (run == 0 || ms < best) best = ms;
  }
  return best;
}

/// Times fn() with the packed path on and off and records three metrics:
/// <name>_packed_ms, <name>_biguint_ms, <name>_speedup.
template <typename Fn>
double RecordPair(BenchJsonWriter* json, const std::string& name, Fn&& fn) {
  core::SetPackedFastPathEnabled(true);
  double packed_ms = BestMs(fn);
  core::SetPackedFastPathEnabled(false);
  double biguint_ms = BestMs(fn);
  core::SetPackedFastPathEnabled(true);
  double speedup = packed_ms > 0 ? biguint_ms / packed_ms : 0;
  json->Metric(name + "_packed_ms", packed_ms, "ms");
  json->Metric(name + "_biguint_ms", biguint_ms, "ms");
  json->Metric(name + "_speedup", speedup, "x");
  std::printf("%-28s packed %8.2f ms   biguint %8.2f ms   %.2fx\n",
              name.c_str(), packed_ms, biguint_ms, speedup);
  return speedup;
}

void PrintTables() {
  Banner("Packed identifier fast path",
         "packed ids vs BigUint on every hot path (same results)");
  BenchJsonWriter json("packed");
  for (const char* topology : {"uniform", "deep"}) {
    Fixture& fixture = GetFixture(topology);
    RecordPair(&json, std::string("rparent_sample_") + topology, [&] {
      for (int pass = 0; pass < kSamplePasses; ++pass) {
        for (const core::Ruid2Id& id : fixture.ids) {
          benchmark::DoNotOptimize(fixture.ruid.Parent(id));
        }
      }
    });
    RecordPair(&json, std::string("rancestor_sample_") + topology, [&] {
      for (int pass = 0; pass < kSamplePasses; ++pass) {
        for (const core::Ruid2Id& id : fixture.ids) {
          benchmark::DoNotOptimize(fixture.ruid.Ancestors(id));
        }
      }
    });
  }

  {
    JoinFixture& fixture = GetJoinFixture();
    auto people = fixture.index->Lookup("person");
    auto names = fixture.index->Lookup("name");
    auto items = fixture.index->Lookup("item");
    auto text = fixture.index->Lookup("text");
    RecordPair(&json, "join_person_name", [&] {
      benchmark::DoNotOptimize(
          xpath::StructuralJoinRuid(fixture.ruid, people, names));
    });
    RecordPair(&json, "join_item_text", [&] {
      benchmark::DoNotOptimize(
          xpath::StructuralJoinRuid(fixture.ruid, items, text));
    });
  }

  {
    Fixture& fixture = GetFixture("uniform");
    RecordPair(&json, "bulkload_uniform", [&] {
      auto store = storage::ElementStore::Create("");
      if (store.ok()) {
        benchmark::DoNotOptimize(
            (*store)->BulkLoad(fixture.ruid, fixture.doc->root()));
      }
    });

    // The storage-layer share of the fast path in isolation: key encoding
    // dominates Put/Get on an in-memory store, so these two pairs show what
    // the memcmp-able packed encoder buys without bulk-load's allocation
    // noise on top.
    std::vector<storage::ElementRecord> records;
    records.reserve(fixture.ids.size());
    for (const core::Ruid2Id& id : fixture.ids) {
      storage::ElementRecord record;
      record.id = id;
      record.parent_id = id;
      record.name = "e";
      record.node_type = 1;
      records.push_back(std::move(record));
    }
    RecordPair(&json, "store_put_sample", [&] {
      auto store = storage::ElementStore::Create("");
      if (!store.ok()) return;
      for (const storage::ElementRecord& record : records) {
        benchmark::DoNotOptimize((*store)->Put(record));
      }
    });
    auto store = storage::ElementStore::Create("");
    if (store.ok()) {
      for (const storage::ElementRecord& record : records) {
        (void)(*store)->Put(record);
      }
      RecordPair(&json, "store_get_sample", [&] {
        for (int pass = 0; pass < 10; ++pass) {
          for (const core::Ruid2Id& id : fixture.ids) {
            benchmark::DoNotOptimize((*store)->Get(id));
          }
        }
      });
    }
  }
  json.Write();
}

void BM_PackedRuidParent(benchmark::State& state,
                         const std::string& topology) {
  Fixture& fixture = GetFixture(topology);
  core::SetPackedFastPathEnabled(true);
  size_t i = 0;
  for (auto _ : state) {
    const core::Ruid2Id& id = fixture.ids[i++ % fixture.ids.size()];
    benchmark::DoNotOptimize(fixture.ruid.Parent(id));
  }
}

void BM_BigUintRuidParent(benchmark::State& state,
                          const std::string& topology) {
  Fixture& fixture = GetFixture(topology);
  core::SetPackedFastPathEnabled(false);
  size_t i = 0;
  for (auto _ : state) {
    const core::Ruid2Id& id = fixture.ids[i++ % fixture.ids.size()];
    benchmark::DoNotOptimize(fixture.ruid.Parent(id));
  }
  core::SetPackedFastPathEnabled(true);
}

void BM_PackedAncestors(benchmark::State& state, const std::string& topology) {
  Fixture& fixture = GetFixture(topology);
  core::SetPackedFastPathEnabled(true);
  size_t i = 0;
  for (auto _ : state) {
    const core::Ruid2Id& id = fixture.ids[i++ % fixture.ids.size()];
    benchmark::DoNotOptimize(fixture.ruid.Ancestors(id));
  }
}

void BM_BigUintAncestors(benchmark::State& state,
                         const std::string& topology) {
  Fixture& fixture = GetFixture(topology);
  core::SetPackedFastPathEnabled(false);
  size_t i = 0;
  for (auto _ : state) {
    const core::Ruid2Id& id = fixture.ids[i++ % fixture.ids.size()];
    benchmark::DoNotOptimize(fixture.ruid.Ancestors(id));
  }
  core::SetPackedFastPathEnabled(true);
}

[[maybe_unused]] int registered = [] {
  for (const char* topology : {"uniform", "deep"}) {
    auto reg = [&](const char* name, auto fn) {
      benchmark::RegisterBenchmark(
          (std::string(name) + "/" + topology).c_str(),
          [fn, topology](benchmark::State& state) { fn(state, topology); });
    };
    reg("BM_PackedRuidParent", BM_PackedRuidParent);
    reg("BM_BigUintRuidParent", BM_BigUintRuidParent);
    reg("BM_PackedAncestors", BM_PackedAncestors);
    reg("BM_BigUintAncestors", BM_BigUintAncestors);
  }
  return 0;
}();

}  // namespace
}  // namespace bench
}  // namespace ruidx

RUIDX_BENCH_MAIN(ruidx::bench::PrintTables)
